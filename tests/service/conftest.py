"""Service-suite fixtures: every test runs under a lockdep witness.

The service layer's locks are all :class:`OrderedLock` instances, so the
witness sees every acquisition made by every thread the tests spawn.  A
violation (rank inversion, order cycle, io-leaf breach, blocking under a
non-io lock) fails the test that produced it with the full violation list
— rather than deadlocking some unlucky CI run years later.

``tests/analysis`` and ``tests/obs``, whose code owns the other ranked
locks, import the same fixture; ``tests/devtools/test_lockdep.py`` provokes
violations on purpose and nests its own witness, so it stays outside.
"""

from typing import Iterator

import pytest

from repro.devtools import lockdep


@pytest.fixture(autouse=True)
def lock_order_witness() -> Iterator[lockdep.Witness]:
    with lockdep.witness(strict=False) as wit:
        yield wit
    assert wit.violations == [], "\n".join(
        violation.render() for violation in wit.violations
    )
