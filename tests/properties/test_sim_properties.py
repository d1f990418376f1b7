"""Property-based tests for the simulation kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=50))
def test_events_always_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), st.booleans()),
        max_size=40,
    )
)
def test_cancelled_events_never_fire(entries):
    sim = Simulator()
    fired = []
    events = []
    for delay, cancel in entries:
        events.append((sim.schedule(delay, fired.append, delay), cancel))
    for event, cancel in events:
        if cancel:
            event.cancel()
    sim.run()
    expected = sorted(delay for (delay, cancel) in entries if not cancel)
    assert sorted(fired) == expected


# (instant in half-seconds, how it is scheduled, how many instants early a
# reserved event is pushed).  Few distinct instants, so ties are the rule.
_EVENT_SPECS = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=5),
        st.sampled_from(["eager", "pushed", "never_pushed"]),
        st.integers(min_value=1, max_value=5),
    ),
    max_size=40,
)


@given(_EVENT_SPECS)
def test_reserve_then_push_later_runs_in_all_eager_order(specs):
    """Any mix of ``schedule_at`` and ``reserve_seq`` + a later
    ``schedule_reserved`` executes in the order of scheduling everything
    eagerly; a reservation never pushed is simply absent."""
    eager = Simulator()
    eager_fired = []
    for label, (slot, _mode, _lead) in enumerate(specs):
        eager.schedule_at(slot * 0.5, eager_fired.append, label)
    eager.run()
    never_pushed = {
        label for label, spec in enumerate(specs) if spec[1] == "never_pushed"
    }

    sim = Simulator()
    fired = []
    pushes = {}  # instant to push at -> [(time, seq, label)]
    for label, (slot, mode, lead) in enumerate(specs):
        if mode == "eager":
            sim.schedule_at(slot * 0.5, fired.append, label)
            continue
        seq = sim.reserve_seq()
        if mode == "pushed":
            push_slot = max(0, slot - lead)
            pushes.setdefault(push_slot, []).append((slot * 0.5, seq, label))
    for push_slot in sorted(pushes):
        sim.run(until=push_slot * 0.5)
        # Reversed: the order of the pushes must not matter either.
        for time, seq, label in reversed(pushes[push_slot]):
            sim.schedule_reserved(time, seq, fired.append, label)
    sim.run()

    assert fired == [label for label in eager_fired if label not in never_pushed]


@given(st.integers(min_value=0, max_value=2**31 - 1), st.text(min_size=1, max_size=20))
@settings(max_examples=30)
def test_named_streams_are_reproducible(seed, name):
    a = RandomStreams(seed).stream(name)
    b = RandomStreams(seed).stream(name)
    assert [float(x) for x in a.random(8)] == [float(x) for x in b.random(8)]


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20)
def test_distinct_names_decorrelate(seed):
    streams = RandomStreams(seed)
    a = streams.stream("alpha")
    b = streams.stream("beta")
    assert [float(x) for x in a.random(4)] != [float(x) for x in b.random(4)]
