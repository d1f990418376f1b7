"""Unit tests for named random streams."""

import pickle
import zlib

import numpy as np
import pytest

from repro.sim.rng import RandomStreams


def test_same_seed_same_stream_is_reproducible():
    a = RandomStreams(42).stream("mobility")
    b = RandomStreams(42).stream("mobility")
    assert [float(a.random()) for _ in range(5)] == [
        float(b.random()) for _ in range(5)
    ]


def test_different_names_give_different_streams():
    streams = RandomStreams(42)
    a = streams.stream("mobility")
    b = streams.stream("traffic")
    assert [float(a.random()) for _ in range(5)] != [
        float(b.random()) for _ in range(5)
    ]


def test_different_seeds_give_different_streams():
    a = RandomStreams(1).stream("mobility")
    b = RandomStreams(2).stream("mobility")
    assert float(a.random()) != float(b.random())


def test_multi_name_streams():
    streams = RandomStreams(7)
    a = streams.stream("mac", "node-0")
    b = streams.stream("mac", "node-1")
    again = RandomStreams(7).stream("mac", "node-0")
    assert float(a.random()) != float(b.random())
    a2 = RandomStreams(7).stream("mac", "node-0")
    assert float(again.random()) == float(a2.random())


def test_stream_requires_a_name():
    with pytest.raises(ValueError):
        RandomStreams(1).stream()


def test_mobility_stream_independent_of_request_order():
    """The property the paper's methodology needs: asking for other streams
    first must not change a named stream's sequence."""
    first = RandomStreams(5)
    first.stream("traffic")
    first.stream("mac", "node-3")
    mobility_after_others = first.stream("mobility")

    mobility_alone = RandomStreams(5).stream("mobility")
    assert float(mobility_after_others.random()) == float(mobility_alone.random())


def test_child_factories_are_deterministic_and_distinct():
    base = RandomStreams(9)
    child_a = base.child("x")
    child_b = base.child("y")
    assert child_a.seed == RandomStreams(9).child("x").seed
    assert child_a.seed != child_b.seed


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31 - 1, 2**40 + 3, (1 << 16) ^ 0xDEADBEEF])
@pytest.mark.parametrize("names", [("mobility",), ("traffic",), ("mac", "17"), ("a", "b", "c")])
def test_a_stream_is_the_generator_a_seed_sequence_would_give(seed, names):
    """A stream is ``Generator(PCG64(SeedSequence(seed, spawn_key)))`` of its
    seed and the names' CRC-32s: the same state and the same draws."""
    stream = RandomStreams(seed).stream(*names)
    key = tuple(zlib.crc32(name.encode("utf-8")) for name in names)
    reference = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=key))
    )
    assert stream.bit_generator.state == reference.bit_generator.state
    assert np.array_equal(stream.random(1000), reference.random(1000))
    assert np.array_equal(stream.integers(0, 2**62, 1000), reference.integers(0, 2**62, 1000))


def test_a_stream_survives_a_pickle_round_trip():
    stream = RandomStreams(3).stream("mobility")
    stream.random(10)
    copy = pickle.loads(pickle.dumps(stream))
    assert np.array_equal(copy.random(100), stream.random(100))
