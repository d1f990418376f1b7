"""Unit tests for source-route utilities."""

import pytest

from repro.core.routes import (
    concatenate_routes,
    is_valid_route,
    link_position,
    route_links,
)
from repro.errors import RoutingError


def test_route_links_in_order():
    assert list(route_links([1, 2, 3, 4])) == [(1, 2), (2, 3), (3, 4)]
    assert list(route_links([7])) == []


def test_contains_link_is_directional():
    assert link_position([1, 2, 3], (2, 3)) == 1
    assert link_position([1, 2, 3], (3, 2)) == -1
    assert link_position([1, 2, 3], (1, 3)) == -1


def test_validate_route_rejects_loops_and_short_routes():
    assert is_valid_route([1, 2])
    assert is_valid_route([3, 4, 5])
    assert not is_valid_route([3, 4, 3])
    assert not is_valid_route([3])


def test_concatenate_routes_happy_path():
    assert concatenate_routes([1, 2, 3], [3, 4, 5]) == [1, 2, 3, 4, 5]


def test_concatenate_routes_detects_loop():
    assert concatenate_routes([1, 2, 3], [3, 2, 9]) is None


def test_concatenate_routes_requires_junction():
    with pytest.raises(RoutingError):
        concatenate_routes([1, 2], [3, 4])
    with pytest.raises(RoutingError):
        concatenate_routes([], [3, 4])
