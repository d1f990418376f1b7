"""Runtime lock-order sanitizer (the dynamic partner of CONC001 and CONC003).

The static rules in :mod:`repro.devtools.lint` check the
*declared* lock discipline; this package checks the *actual* one.  Wrap a
``threading.Lock``/``RLock`` in :class:`OrderedLock` (name + optional rank
in the documented hierarchy), run the code under test inside a
:func:`witness` context, and every real acquisition order is recorded and
checked:

* **rank inversions** — acquiring a lock whose declared rank is not
  strictly greater than one already held;
* **order cycles** — an acquisition edge that closes a cycle in the
  observed lock graph, even across threads and test cases (the classic
  AB/BA deadlock is caught even when the interleaving never actually
  deadlocks in this run);
* **io-leaf violations** — acquiring anything while holding a lock
  declared ``io_lock=True`` (an I/O-serialisation lock must be a leaf);
* **held-while-blocking** — a :func:`blocking` region entered while a
  non-io lock is held (the runtime analogue of CONC003).

Outside a witness the wrapper is a plain pass-through lock: the only
bookkeeping kept unconditionally is the per-thread held stack, so a
witness installed mid-flight still sees a consistent world.  The package
imports nothing from the rest of ``repro`` and is safe to use anywhere.

Test suites opt in via ``REPRO_LOCKDEP=1`` (see :func:`env_enabled`);
``tests/service/conftest.py`` installs a witness around every service
test.
"""

from repro.devtools.lockdep.locks import OrderedLock, held_locks
from repro.devtools.lockdep.witness import (
    LockOrderViolation,
    Violation,
    Witness,
    blocking,
    env_enabled,
    witness,
)

__all__ = [
    "OrderedLock",
    "held_locks",
    "LockOrderViolation",
    "Violation",
    "Witness",
    "blocking",
    "env_enabled",
    "witness",
]
