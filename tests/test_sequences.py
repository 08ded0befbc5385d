"""Sequence legality, footprints, and a-values on hand-checked examples."""

import pytest

from grundydom.errors import ParameterError
from grundydom.graphs import Graph, complete, cycle, path, star
from grundydom.sequences import check_sequence
from helpers import disjoint_union


def test_closed_legal_example():
    rep = check_sequence(path(3), [0, 2])
    assert rep.legal and rep.dominating
    assert rep.length == 2 and rep.illegal_at is None
    # 0 covers {0,1}; 2 covers {2}
    assert rep.footprints == {0: 0, 1: 0, 2: 2}
    assert rep.a_value == 2  # 0 and 2 are not adjacent


def test_closed_illegal_example():
    # 1 covers everything on P3, so 0 covers nothing new
    rep = check_sequence(path(3), [1, 0])
    assert not rep.legal
    assert rep.dominating  # union still reached V(G)
    assert rep.illegal_at == 1
    assert rep.footprints == {0: 1, 1: 1, 2: 1}


def test_illegal_at_is_first_failure():
    rep = check_sequence(complete(4), [0, 1, 2])
    assert rep.illegal_at == 1
    assert not rep.legal


def test_closed_longer_example():
    rep = check_sequence(path(4), [0, 1, 3])
    assert rep.legal and rep.dominating and rep.length == 3
    assert rep.footprints == {0: 0, 1: 0, 2: 1, 3: 3}
    assert rep.a_value == 2  # item 1 sees the earlier 0


def test_legal_but_not_dominating():
    rep = check_sequence(path(5), [0])
    assert rep.legal and not rep.dominating
    assert rep.footprints == {0: 0, 1: 0}


def test_open_mode_example():
    # open neighborhoods on P4: the order 0,3,1,2 covers 1;2;0;3
    rep = check_sequence(path(4), [0, 3, 1, 2], mode="open")
    assert rep.legal and rep.dominating and rep.length == 4
    assert rep.footprints == {1: 0, 2: 3, 0: 1, 3: 2}


def test_open_mode_self_not_covered():
    rep = check_sequence(path(2), [0, 1], mode="open")
    assert rep.legal and rep.dominating
    assert rep.footprints == {1: 0, 0: 1}


def test_open_mode_isolated_vertex_rejected():
    g = disjoint_union(path(2), Graph(1))
    with pytest.raises(ParameterError):
        check_sequence(g, [0], mode="open")


def test_item_validation():
    with pytest.raises(ParameterError):
        check_sequence(path(3), [0, 3])
    with pytest.raises(ParameterError):
        check_sequence(path(3), [0, 0])
    with pytest.raises(ParameterError):
        check_sequence(path(3), [0], mode="half-open")
    # bool is an int subclass, but True and False are not vertex ids
    for items in ([True], [0, False]):
        with pytest.raises(ParameterError):
            check_sequence(path(3), items)


def test_empty_sequence():
    rep = check_sequence(path(2), [])
    assert rep.legal and not rep.dominating and rep.length == 0
    assert rep.a_value == 0 and rep.footprints == {}


def test_a_value_counts_fresh_items():
    # star center last: every leaf is isolated among the earlier picks
    s = star(5)
    assert check_sequence(s, [1, 2, 3, 4, 0]).a_value == 4
    assert check_sequence(s, [0, 1, 2, 3, 4]).a_value == 1
    assert check_sequence(cycle(5), [0, 2, 4]).a_value == 2  # 4 is adjacent to 0


def test_footprints_partition_covered_set():
    # footprint keys are exactly the dominated vertices, values are items
    g = cycle(7)
    rep = check_sequence(g, [0, 3, 5])
    assert set(rep.footprints) == {0, 1, 6, 2, 3, 4, 5}
    assert set(rep.footprints.values()) <= {0, 3, 5}
    # each vertex is claimed by the first item whose ball covered it
    assert rep.footprints[2] == 3 and rep.footprints[4] == 3
