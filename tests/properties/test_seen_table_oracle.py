"""The shedding :class:`SeenTable` against the lazy table it replaced.

The table now drops its expired prefix on every insert.  The reference below
is the lazy table exactly as it stood at commit 8ae1762, which forgot an
expired key only when that same key was read again.  Driven with the same
operations at non-decreasing times, the two must give every answer alike, and
hold the same live entries in the same order; the shedding table must also
hold no entry older than ``lifetime`` after any insert.
"""

from typing import Dict, Hashable, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.request_table import SeenTable


class _OracleSeenTable:
    """Remembers keys for a limited time, with FIFO eviction when full."""

    def __init__(self, capacity: int = 1024, lifetime: Optional[float] = None):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if lifetime is not None and lifetime <= 0:
            raise ValueError("lifetime must be positive")
        self.capacity = capacity
        self.lifetime = lifetime
        self._entries: Dict[Hashable, float] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def seen(self, key: Hashable, now: float) -> bool:
        """True if ``key`` was inserted and has not expired."""
        stamp = self._entries.get(key)
        if stamp is None:
            return False
        if self.lifetime is not None and now - stamp > self.lifetime:
            del self._entries[key]
            return False
        return True

    def insert(self, key: Hashable, now: float) -> None:
        entries = self._entries
        if key in entries:
            del entries[key]  # re-inserted at the young end
        elif len(entries) >= self.capacity:
            del entries[next(iter(entries))]
        entries[key] = now

    def check_and_insert(self, key: Hashable, now: float) -> bool:
        """Atomically: was it new?  (Inserts either way.)"""
        new = not self.seen(key, now)
        self.insert(key, now)
        return new


# Steps are dyadic, so a sum of them lands exactly ``lifetime`` after an
# earlier stamp and the strict ``>`` is tested at its boundary; the float
# steps reach the rest.
_steps = st.one_of(
    st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 2.0]),
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
)
_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "seen", "check_and_insert"]),
        st.integers(min_value=0, max_value=6),
        _steps,
    ),
    max_size=80,
)
_lifetimes = st.one_of(
    st.none(),
    st.sampled_from([0.25, 0.5, 1.0, 2.0]),
    st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
)


@given(ops=_ops, capacity=st.integers(min_value=1, max_value=5), lifetime=_lifetimes)
@settings(max_examples=400, deadline=None)
def test_the_shedding_table_answers_as_the_lazy_one(ops, capacity, lifetime):
    table = SeenTable(capacity=capacity, lifetime=lifetime)
    oracle = _OracleSeenTable(capacity=capacity, lifetime=lifetime)
    now = 0.0
    for op, key, step in ops:
        now += step
        assert getattr(table, op)(key, now) == getattr(oracle, op)(key, now), (op, key, now)
        held = list(table._entries.items())
        if lifetime is None:
            assert held == list(oracle._entries.items())
            continue
        live = [(k, stamp) for k, stamp in oracle._entries.items() if now - stamp <= lifetime]
        # The same live entries, in the same (eviction) order ...
        assert [(k, stamp) for k, stamp in held if now - stamp <= lifetime] == live
        assert table._entries.keys() <= oracle._entries.keys()
        # ... and after an insert, nothing else.
        if op != "seen":
            assert held == live, (op, now)


def test_a_long_quiet_run_leaves_only_the_last_lifetime_of_keys():
    table = SeenTable(capacity=1024, lifetime=30.0)
    for second in range(150):
        table.insert(("origin", second), float(second))
    assert len(table) == 31  # keys stamped 119 .. 149: ``now - stamp <= 30``
    assert next(iter(table._entries)) == ("origin", 119)
    assert not table.seen(("origin", 118), 149.0)
    assert table.seen(("origin", 119), 149.0)
