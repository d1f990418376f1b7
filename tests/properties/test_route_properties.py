"""Property-based tests for source-route surgery."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.cache import PathCache
from repro.core.negative_cache import NegativeCache
from repro.core.routes import concatenate_routes, is_valid_route, route_links

unique_route = st.lists(
    st.integers(min_value=0, max_value=30), min_size=2, max_size=10, unique=True
)


@given(route=unique_route)
def test_route_links_reconstruct_route(route):
    links = list(route_links(route))
    assert len(links) == len(route) - 1
    rebuilt = [links[0][0]] + [b for _, b in links]
    assert rebuilt == route


@given(route=unique_route, data=st.data())
def test_truncate_removes_link_and_preserves_prefix(route, data):
    links = list(route_links(route))
    link = data.draw(st.sampled_from(links))
    cache = PathCache(owner=route[0])
    cache.add(route, now=0.0)
    cache.remove_link(link, now=1.0)
    survivors = [list(cached.route) for cached in cache.paths()]
    if link == links[0]:
        assert survivors == []
    else:
        [result] = survivors
        assert link not in route_links(result)
        assert result == route[: len(result)]
        assert is_valid_route(result)


@given(first=unique_route, second=unique_route)
def test_concatenation_never_produces_loops(first, second):
    assume(first[-1] not in second)
    joined = concatenate_routes(first, [first[-1]] + second)
    if joined is not None:
        assert is_valid_route(joined)
        assert joined[0] == first[0]
        assert joined[-1] == second[-1]


@given(
    route=unique_route,
    bad=st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 30)), min_size=1, max_size=5
    ),
)
@settings(max_examples=80)
def test_negative_filter_output_is_clean_prefix(route, bad):
    negative = NegativeCache(capacity=16, timeout=10.0)
    for link in bad:
        negative.add(link, now=0.0)
    filtered = negative.filter_route(route, now=1.0)
    assert filtered == route[: len(filtered)]
    for link in route_links(filtered):
        assert not negative.contains(link, now=1.0)
