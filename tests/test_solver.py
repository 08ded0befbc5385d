"""Solver values against hand-checked families and the definition-level oracle."""

import random
from itertools import combinations

import pytest

from grundydom.errors import CapacityError, ParameterError
from grundydom.graphs import (
    Graph,
    complete,
    cycle,
    disjoint_union,
    enumerate_connected_graphs,
    path,
    star,
)
from grundydom.sequences import a_value, check_sequence
from grundydom.solver import (
    BRUTE_MAX_ORDER,
    MAX_SOLVER_ORDER,
    domination_number,
    grundy,
    grundy_bruteforce,
    lex_grundy,
    max_weighted_sequence,
)


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """Random spanning tree plus extra edges; connected, no isolated vertices."""
    edges = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.add((u, v))
    for u, v in combinations(range(n), 2):
        if rng.random() < 0.3:
            edges.add((u, v))
    return Graph(n, sorted(edges))


def test_closed_family_values():
    for k in range(2, 8):
        assert grundy(path(k)).value == k - 1
    for k in range(3, 9):
        assert grundy(cycle(k)).value == k - 2
    for k in range(1, 6):
        assert grundy(complete(k)).value == 1
    for k in range(3, 7):
        assert grundy(star(k)).value == k - 1
    assert grundy(path(1)).value == 1


def test_open_family_values():
    # total version: k for even paths, k-1 for odd; l-2 / l-1 for cycles
    for k in range(2, 9):
        want = k if k % 2 == 0 else k - 1
        assert grundy(path(k), "open").value == want
    for l in range(3, 10):
        want = l - 2 if l % 2 == 0 else l - 1
        assert grundy(cycle(l), "open").value == want
    assert grundy(complete(4), "open").value == 2
    for k in range(3, 7):
        assert grundy(star(k), "open").value == 2


def test_matches_bruteforce_exhaustively():
    # every connected graph on up to 5 vertices, both modes, value and witness
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            for mode in ("closed", "open"):
                if mode == "open" and n == 1:
                    continue
                fast = grundy(g, mode)
                slow = grundy_bruteforce(g, mode)
                assert fast.value == slow.value, (g.name, mode)
                assert fast.witness == slow.witness, (g.name, mode)


def test_matches_bruteforce_random():
    rng = random.Random(7)
    for trial in range(30):
        g = random_connected_graph(rng, rng.randrange(2, 9))
        for mode in ("closed", "open"):
            assert grundy(g, mode).value == grundy_bruteforce(g, mode).value


def test_witness_is_valid_sequence():
    for g in (path(6), cycle(7), star(5), complete(4)):
        for mode in ("closed", "open"):
            res = grundy(g, mode)
            rep = check_sequence(g, res.witness, mode)
            assert rep.legal and rep.dominating
            assert rep.length == res.value


def test_witness_flag_and_stats():
    res = grundy(cycle(6), witness=False)
    assert res.value == 4 and res.witness == []
    res = grundy(cycle(6))
    assert res.stats.nodes > 0 and res.stats.elapsed >= 0.0
    assert res.stats.memo_entries > 0


def test_additive_over_components():
    pairs = [(path(3), cycle(4)), (complete(3), path(4)), (star(4), star(4))]
    for g, h in pairs:
        u = disjoint_union(g, h)
        assert grundy(u).value == grundy(g).value + grundy(h).value
        assert grundy(u, "open").value == grundy(g, "open").value + grundy(h, "open").value


def test_domination_number_is_lower_bound():
    assert domination_number(path(6)) == 2
    assert domination_number(cycle(7)) == 3
    for g in (path(7), cycle(8), star(6), complete(5)):
        assert domination_number(g) <= grundy(g).value
        assert domination_number(g, "open") <= grundy(g, "open").value


def test_memo_cap_does_not_change_value():
    g = cycle(8)
    free = grundy(g)
    for cap in (1, 16, 100):
        capped = grundy(g, memo_cap=cap)
        assert capped.value == free.value
        assert capped.witness == free.witness
        assert capped.stats.memo_entries <= cap


def test_memo_cap_env_default(monkeypatch):
    monkeypatch.setenv("GRUNDYDOM_MEMO_CAP", "32")
    res = grundy(cycle(8))
    assert res.value == 6 and res.stats.memo_entries <= 32
    for raw in ("many", "0", "-3"):
        monkeypatch.setenv("GRUNDYDOM_MEMO_CAP", raw)
        with pytest.raises(ParameterError):
            grundy(cycle(8))
    monkeypatch.delenv("GRUNDYDOM_MEMO_CAP")
    with pytest.raises(ParameterError):
        grundy(cycle(8), memo_cap=0)


def test_threads_do_not_change_answer():
    g = cycle(9)
    base = grundy(g)
    for t in (2, 4):
        res = grundy(g, threads=t)
        assert res.value == base.value and res.witness == base.witness


def test_capacity_and_parameter_errors():
    with pytest.raises(CapacityError):
        grundy(path(MAX_SOLVER_ORDER + 1))
    with pytest.raises(CapacityError):
        grundy(path(20), max_order=10)
    with pytest.raises(CapacityError):
        grundy_bruteforce(path(BRUTE_MAX_ORDER + 1))
    with pytest.raises(ParameterError):
        grundy(Graph(0))
    with pytest.raises(ParameterError):
        grundy(disjoint_union(path(2), Graph(1)), "open")
    with pytest.raises(ParameterError):
        grundy(path(3), "sideways")


def test_lex_grundy_examples():
    val, seq = lex_grundy(path(4), 2)
    assert val == 5
    val, seq = lex_grundy(cycle(5), 3)
    assert val == 7
    val, seq = lex_grundy(complete(3), 4)
    assert val == 4
    with pytest.raises(ParameterError):
        lex_grundy(path(4), 0)


def test_lex_grundy_witness_scores_its_value():
    # the witness is a closed-mode legal dominating sequence whose a-items
    # count gamma_h and the rest count 1
    for g, gh in ((path(5), 3), (cycle(6), 2), (star(4), 4)):
        val, seq = lex_grundy(g, gh)
        rep = check_sequence(g, seq)
        assert rep.legal and rep.dominating
        assert rep.a_value * gh + (rep.length - rep.a_value) == val


def brute_max_weight(g: Graph, wi: int, wd: int) -> tuple[int, list[int]]:
    """Enumerate all legal sequences; maximal legal ones are dominating.

    Returns the best weight and the first maximal sequence reaching it in
    ascending depth-first order, which is the lexicographically least one.
    """
    rows = [g.adj[v] | 1 << v for v in range(g.n)]
    best = -1
    best_seq: list[int] = []
    seq: list[int] = []

    def rec(dominated, chosen, weight):
        nonlocal best, best_seq
        if dominated == g.full_mask and weight > best:
            best = weight
            best_seq = seq.copy()
        for u in range(g.n):
            if chosen >> u & 1:
                continue
            if rows[u] & ~dominated:
                w = wi if g.adj[u] & chosen == 0 else wd
                seq.append(u)
                rec(dominated | rows[u], chosen | 1 << u, weight + w)
                seq.pop()

    rec(0, 0, 0)
    return best, best_seq


GATE_WEIGHTS = [(1, 1), (3, 1), (1, 0), (0, 1), (2, 3)]


def assert_weighted_matches_brute(g: Graph, wi: int, wd: int) -> None:
    got = max_weighted_sequence(g, wi, wd)
    assert got == brute_max_weight(g, wi, wd), (g.display_name, wi, wd)
    rep = check_sequence(g, got[1])
    assert rep.legal and rep.dominating
    assert rep.a_value * wi + (rep.length - rep.a_value) * wd == got[0]


def test_max_weighted_sequence_against_brute():
    graphs = [path(4), cycle(5), star(4), complete(3), disjoint_union(path(2), path(3))]
    weights = [(1, 1), (4, 1), (1, 0), (3, 2), (0, 1)]
    for g in graphs:
        for wi, wd in weights:
            assert_weighted_matches_brute(g, wi, wd)


def test_max_weighted_sequence_oracle_gate():
    # value and lexicographically least witness on every connected graph of
    # order <= 6 and on seeded random graphs of order 8; (2, 3) makes
    # dependent items weigh more than independent ones
    graphs = [g for n in range(1, 7) for g in enumerate_connected_graphs(n)]
    rng = random.Random(2016)
    graphs += [random_connected_graph(rng, 8) for _ in range(10)]
    for g in graphs:
        for wi, wd in GATE_WEIGHTS:
            assert_weighted_matches_brute(g, wi, wd)


def test_max_weighted_sequence_unit_weights_match_grundy():
    for g in (path(5), cycle(6), star(5)):
        val, _ = max_weighted_sequence(g, 1, 1)
        assert val == grundy(g).value


def test_max_weighted_sequence_guards():
    with pytest.raises(ParameterError):
        max_weighted_sequence(path(3), -1, 1)
    with pytest.raises(CapacityError):
        max_weighted_sequence(path(26), 1, 1)


def test_max_weighted_sequence_accepts_cap_order():
    val, seq = max_weighted_sequence(path(25), 1, 1)
    assert val == grundy(path(25)).value == len(seq)
