"""Solver values against hand-checked families and the definition-level oracle."""

import heapq
import random
from itertools import combinations

import pytest

from grundydom.errors import CapacityError, ParameterError
from grundydom.graphs import (
    Graph,
    bit_indices,
    complete,
    connected_components,
    cycle,
    enumerate_connected_graphs,
    has_isolated_vertex,
    mode_rows,
    path,
    star,
    vertex_orbits,
)
from grundydom import solver
from grundydom.products import product
from grundydom.sequences import check_sequence
from grundydom.solver import (
    BRUTE_MAX_ORDER,
    MAX_SOLVER_ORDER,
    grundy,
    grundy_bruteforce,
    lex_grundy,
    max_weighted_sequence,
)
from grundydom.theory import conjecture_scan
from helpers import disjoint_union, random_connected_graph, rectangle_cover_number


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
    # every connected graph on up to 7 vertices, both modes, value and witness
    for n in range(1, 8):
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
            fast = grundy(g, mode)
            slow = grundy_bruteforce(g, mode)
            assert (fast.value, fast.witness) == (slow.value, slow.witness), (g.edges(), mode)


def test_forced_move_lemma():
    # a move whose fresh coverage is one vertex x is played first by some
    # longest sequence: val(S) == 1 + val(S | x) at every covered set S,
    # with val a plain memoized maximum over the legal moves
    cases = 0
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            for mode in ("closed", "open"):
                if mode == "open" and n == 1:
                    continue
                rows = mode_rows(g, mode)
                memo: dict[int, int] = {}

                def val(S: int) -> int:
                    if S not in memo:
                        memo[S] = max((1 + val(S | r) for r in rows if r & ~S), default=0)
                    return memo[S]

                for S in range(1 << n):
                    for r in rows:
                        new = r & ~S
                        if new and new & (new - 1) == 0:
                            assert val(S) == 1 + val(S | new), (g.name, mode, S)
                            cases += 1
    assert cases > 0


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
    assert res.stats.search_s > 0.0 and res.stats.reconstruct_s >= 0.0
    res = grundy(cycle(6))
    assert res.stats.nodes > 0 and res.stats.search_s > 0.0 and res.stats.reconstruct_s > 0.0
    assert grundy_bruteforce(cycle(6)).stats.search_s > 0.0
    assert res.stats.memo_entries > 0
    # the oracle's nodes are its legal prefixes, the empty one included,
    # closed and open mode
    graphs = [cycle(6), path(5), star(5), complete(4), product("cartesian", path(2), path(4)).graph]
    nodes = [tuple(grundy_bruteforce(g, mode).stats.nodes for mode in ("closed", "open")) for g in graphs]
    assert nodes == [(193, 361), (56, 114), (106, 14), (5, 17), (1361, 2157)]


def test_forced_positions_are_counted():
    g = product("cartesian", path(4), cycle(5)).graph
    for mode in ("closed", "open"):
        first = grundy(g, mode).stats
        again = grundy(g, mode).stats
        assert first.forced == again.forced and first.nodes == again.nodes
        assert 0 < first.forced <= first.nodes
    assert grundy(complete(4)).stats.forced == 0


# (mode, kind, G, H, value, nodes, memo_entries, forced, orbit_skips) for the
# fixed products of the solve benchmark, witness on
PINNED_COUNTS = (
    ("closed", "cartesian", "C5", "C5", 16, 473, 472, 395, 24),
    ("closed", "cartesian", "P6", "P6", 30, 1138, 1137, 1062, 30),
    ("closed", "strong", "C5", "C6", 12, 562, 561, 513, 29),
    ("closed", "direct", "C5", "C6", 18, 4059, 4058, 3852, 29),
    ("closed", "direct", "P5", "P6", 24, 180, 178, 154, 0),
    ("closed", "cartesian", "C6", "C6", 24, 8374, 8373, 7881, 35),
    ("open", "cartesian", "C5", "C5", 16, 1642, 1641, 1567, 24),
    ("open", "direct", "C5", "C5", 16, 1480, 1479, 1405, 24),
    ("open", "cartesian", "P5", "C6", 24, 2834, 2833, 2734, 27),
    ("open", "cartesian", "P5", "P6", 26, 1809, 1808, 1761, 21),
    ("open", "strong", "C6", "C6", 18, 6391, 6390, 5875, 35),
)


def test_counters_are_pinned():
    family = {"P": path, "C": cycle}
    for mode, kind, g, h, *want in PINNED_COUNTS:
        G, H = (family[name[0]](int(name[1:])) for name in (g, h))
        res = grundy(product(kind, G, H).graph, mode)
        s = res.stats
        got = [res.value, s.nodes, s.memo_entries, s.forced, s.orbit_skips]
        assert got == want, (mode, kind, g, h)


def test_witness_walk_solves_no_child_the_search_skipped(monkeypatch):
    # the walk skips a child that cannot reach the value left, as the
    # search's bound skip does, so here it adds no position to the memo
    g = product("cartesian", cycle(5), cycle(5)).graph
    assert grundy(g, witness=True).stats.nodes == grundy(g, witness=False).stats.nodes == 473
    # the same holds at a root that computed orbits (here every orbit is a
    # single vertex), where the walk reads each child at its representative:
    # on this graph of order 21 in open mode it solved two root children
    # that cannot reach the value, which only the search's bound skip had
    # passed over
    calls = []

    def counted(G: Graph) -> list[int]:
        calls.append(G.n)
        return vertex_orbits(G)

    monkeypatch.setattr(solver, "vertex_orbits", counted)
    rng = random.Random(0)
    g = [random_connected_graph(rng, rng.randrange(10, 22)) for _ in range(15)][-1]
    res = grundy(g, "open")
    assert calls == [21] and res.stats.orbit_skips == 0
    assert res.stats.nodes == grundy(g, "open", witness=False).stats.nodes == 644


def test_additive_over_components():
    pairs = [(path(3), cycle(4)), (complete(3), path(4)), (star(4), star(4))]
    for g, h in pairs:
        u = disjoint_union(g, h)
        assert grundy(u).value == grundy(g).value + grundy(h).value
        assert grundy(u, "open").value == grundy(g, "open").value + grundy(h, "open").value


def domination_number(G: Graph, mode: str = "closed") -> int:
    """Smallest (total) dominating set size, by subset enumeration."""
    rows = mode_rows(G, mode)
    for k in range(1, G.n + 1):
        for sub in combinations(range(G.n), k):
            cover = 0
            for v in sub:
                cover |= rows[v]
            if cover == G.full_mask:
                return k
    raise AssertionError("graph has no dominating set in this mode")


def test_domination_number_is_lower_bound():
    assert domination_number(path(6)) == 2
    assert domination_number(cycle(7)) == 3
    for g in (path(7), cycle(8), star(6), complete(5)):
        assert domination_number(g) <= grundy(g).value
        assert domination_number(g, "open") <= grundy(g, "open").value


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    """Each pair independently with probability p; may be disconnected."""
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def relabel(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_components_and_orbits_match_bruteforce():
    # the component split and the orbit trigger against the oracle on graphs
    # that are not forced to be connected, and on disjoint unions
    rng = random.Random(1111)
    graphs = [random_graph(rng, rng.randrange(6, 11), rng.choice((0.15, 0.25, 0.4)))
              for _ in range(24)]
    graphs += [
        disjoint_union(cycle(4), path(3)),
        disjoint_union(star(4), disjoint_union(path(2), cycle(3))),
        disjoint_union(complete(3), complete(3)),
        disjoint_union(path(2), relabel(cycle(5), rng)),
        disjoint_union(Graph(1), disjoint_union(path(4), Graph(1))),
    ]
    for g in graphs:
        for mode in ("closed", "open"):
            if mode == "open" and has_isolated_vertex(g):
                continue
            fast = grundy(g, mode)
            slow = grundy_bruteforce(g, mode)
            assert (fast.value, fast.witness) == (slow.value, slow.witness), (g.edges(), mode)
            assert fast.stats.components == len(connected_components(g))
            # nothing is evicted: every node but a component's root stores one entry
            assert fast.stats.memo_entries == fast.stats.nodes - fast.stats.components


def unreduced_grundy(g: Graph, mode: str) -> tuple[int, list[int]]:
    """The search without component split or orbit pruning, and its witness walk."""
    rows = mode_rows(g, mode)
    n = g.n
    memo: dict[int, int] = {}

    def value(S: int) -> int:
        if S in memo:
            return memo[S]
        moves = []
        for u in range(n):
            new = rows[u] & ~S
            if new:
                moves.append((new.bit_count(), new))
        moves.sort()
        kept: list[int] = []
        for _, new in moves:
            for old in kept:
                if old & ~new == 0:
                    break
            else:
                kept.append(new)
        cap = min(len(moves), n - S.bit_count())
        best = 0
        for new in kept:
            if n - (S | new).bit_count() >= best:
                best = max(best, 1 + value(S | new))
                if best == cap:
                    break
        memo[S] = best
        return best

    seq: list[int] = []
    S, t = 0, value(0)
    while t:
        u = next(u for u in range(n) if rows[u] & ~S and value(S | rows[u]) == t - 1)
        seq.append(u)
        S |= rows[u]
        t -= 1
    return value(0), seq


# in open mode, G7 □ K3 has a root whose first move is not optimal, so an
# orbit skip that drops too much shows there
G7 = Graph(7, [(0, 1), (0, 2), (0, 5), (0, 6), (1, 3), (1, 4), (1, 6), (2, 4), (2, 6), (3, 4)])


def test_reductions_match_unreduced_search():
    # value and lexicographically least witness on products where the orbit
    # trigger fires (six vertex-transitive ones, and two that are not), on
    # relabelled copies, and on unions
    rng = random.Random(3)
    cases = [
        ("open", product("cartesian", cycle(5), cycle(5)).graph),
        ("open", product("direct", cycle(5), cycle(5)).graph),
        ("open", product("strong", cycle(5), cycle(6)).graph),
        ("closed", product("direct", cycle(5), cycle(5)).graph),
        ("open", product("cartesian", G7, complete(3)).graph),
    ]
    cases += [(mode, relabel(g, rng)) for mode, g in cases for _ in range(2)]
    # three whose first root subtree holds between 8n and n^2 states
    cases += [
        ("closed", product("cartesian", cycle(5), cycle(5)).graph),
        ("closed", product("strong", cycle(5), cycle(6)).graph),
        ("open", product("cartesian", path(5), path(6)).graph),
    ]
    for mode, g in cases:
        res = grundy(g, mode)
        assert (res.value, res.witness) == unreduced_grundy(g, mode), (mode, g.edges())
        assert res.stats.orbit_skips > 0, (mode, g.edges())
    union = disjoint_union(relabel(product("cartesian", cycle(3), cycle(4)).graph, rng), cycle(9))
    for mode in ("closed", "open"):
        res = grundy(union, mode)
        assert (res.value, res.witness) == unreduced_grundy(union, mode), mode
        assert res.stats.components == 2
    # orbits of a component whose vertex ids do not start at 0
    union = disjoint_union(path(3), product("cartesian", G7, complete(3)).graph)
    res = grundy(union, "open")
    assert (res.value, res.witness) == unreduced_grundy(union, "open")
    assert res.stats.components == 2 and res.stats.orbit_skips > 0


def test_twin_columns_match_unmerged_searches():
    # vertices with equal rows share one search column; value and least
    # witness against the unreduced search, which keeps every column, and
    # against the oracle where it reaches
    rng = random.Random(14)
    cases = []
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            for mode in ("closed", "open"):
                cases.append((mode, product("strong", g, path(2)).graph))
                cases.append((mode, product("lexicographic", g, complete(3)).graph))
    # false twins: equal open rows
    def bipartite(a: int, b: int) -> Graph:
        return relabel(Graph(a + b, [(u, v) for u in range(a) for v in range(a, a + b)]), rng)

    for a, b in ((1, 4), (2, 3), (3, 3), (2, 5)):
        cases += [("open", star(a + b)), ("open", bipartite(a, b))]
    # twins in both components, ids interleaved: 4 + 2 merged columns in
    # closed mode, 2 + (1 + 2) in open mode
    unions = {
        "closed": relabel(disjoint_union(product("strong", cycle(4), path(2)).graph, complete(3)), rng),
        "open": relabel(disjoint_union(star(4), bipartite(2, 3)), rng),
    }
    cases += unions.items()
    merged = 0
    for mode, g in cases:
        res = grundy(g, mode)
        assert (res.value, res.witness) == unreduced_grundy(g, mode), (mode, g.edges())
        if g.n <= BRUTE_MAX_ORDER:
            slow = grundy_bruteforce(g, mode)
            assert (res.value, res.witness) == (slow.value, slow.witness), (mode, g.edges())
        merged += res.stats.merged
    assert merged > 0
    for mode, want in (("closed", 6), ("open", 5)):
        stats = grundy(unions[mode], mode).stats
        assert stats.components == 2 and stats.merged == want, mode


def test_component_orbits_on_interleaved_components():
    # the 8k trigger fires on a component whose vertex ids interleave with
    # another component's; the value adds up over the components, and in
    # closed mode value and witness match the unreduced search
    rng = random.Random(5)
    torus = product("cartesian", cycle(5), cycle(5)).graph
    union = relabel(disjoint_union(path(3), torus), rng)
    res = grundy(union, "open")
    assert res.value == grundy(path(3), "open").value + grundy(torus, "open").value
    rep = check_sequence(union, res.witness, "open")
    assert rep.legal and rep.dominating and rep.length == res.value
    assert res.stats.components == 2 and res.stats.orbit_skips > 0
    comp = max(map(bit_indices, connected_components(union)), key=len)
    assert comp != list(range(3, 28))
    # closed mode: the unreduced search takes 0.9 s here, against 4.4 s open
    res = grundy(union, "closed")
    assert (res.value, res.witness) == unreduced_grundy(union, "closed")
    assert res.stats.components == 2 and res.stats.orbit_skips > 0


def test_stats_add_up_over_components():
    # each component is solved as a graph of its own, so every count of a
    # union is the sum of its components' counts, each component built from
    # the union's edge list in the union's vertex order
    rng = random.Random(12)
    parts = [product("cartesian", cycle(5), cycle(5)).graph, path(5), cycle(7), star(4)]
    counts = ("nodes", "memo_entries", "forced", "orbit_skips", "components", "merged")
    skips = merged = 0
    for mode in ("closed", "open"):
        for k in (2, 3, 4):
            union = Graph(0)
            for g in parts[:k]:
                union = disjoint_union(union, g)
            union = relabel(union, rng)
            comps = [bit_indices(c) for c in connected_components(union)]
            assert any(comp[-1] - comp[0] >= len(comp) for comp in comps)
            want = []
            for comp in comps:
                local = {v: i for i, v in enumerate(comp)}
                edges = [(local[u], local[v]) for u, v in union.edges() if u in local]
                want.append(grundy(Graph(len(comp), edges), mode).stats)
            got = grundy(union, mode).stats
            for name in counts:
                assert getattr(got, name) == sum(getattr(s, name) for s in want), (mode, k, name)
            skips += got.orbit_skips
            merged += got.merged
    # the leaves of star(4) have equal open rows
    assert skips > 0 and merged > 0


def test_capacity_and_parameter_errors():
    with pytest.raises(CapacityError):
        grundy(path(MAX_SOLVER_ORDER + 1))
    with pytest.raises(CapacityError):
        grundy_bruteforce(path(BRUTE_MAX_ORDER + 1))
    with pytest.raises(ParameterError):
        grundy(Graph(0))
    with pytest.raises(ParameterError, match="^solver needs at least one vertex$"):
        grundy_bruteforce(Graph(0))
    with pytest.raises(ParameterError):
        grundy(disjoint_union(path(2), Graph(1)), "open")
    with pytest.raises(ParameterError):
        grundy(path(3), "sideways")


def test_search_budget(monkeypatch):
    g = product("cartesian", cycle(5), cycle(5)).graph
    want = grundy(g)
    # a budget of exactly the stored entries changes nothing
    monkeypatch.setattr(solver, "MAX_SEARCH_NODES", want.stats.memo_entries)
    got = grundy(g)
    assert (got.value, got.witness, got.stats.nodes) == (want.value, want.witness, want.stats.nodes)
    monkeypatch.setattr(solver, "MAX_SEARCH_NODES", 100)
    with pytest.raises(CapacityError, match="memo entries, search cap 100"):
        grundy(g)
    # the budget bounds each component's search, not their sum
    one = grundy(cycle(5))
    monkeypatch.setattr(solver, "MAX_SEARCH_NODES", one.stats.memo_entries)
    both = grundy(disjoint_union(cycle(5), cycle(5)))
    assert both.value == 2 * one.value and both.stats.memo_entries == 2 * one.stats.memo_entries


def test_mode_is_checked_before_any_component_is_searched(monkeypatch):
    # C6 comes first, the isolated vertex that open mode rejects second
    monkeypatch.setattr(solver, "_Search", None)
    with pytest.raises(ParameterError):
        grundy(disjoint_union(cycle(6), Graph(1)), "open")
    with pytest.raises(ParameterError):
        grundy(disjoint_union(cycle(6), cycle(3)), "sideways")


def test_solver_cap_counts_the_largest_component():
    copies = Graph(0)
    for _ in range(7):
        copies = disjoint_union(copies, cycle(10))
    assert copies.n == 70 > MAX_SOLVER_ORDER
    for mode in ("closed", "open"):
        res = grundy(copies, mode)
        assert res.value == 7 * grundy(cycle(10), mode).value
        rep = check_sequence(copies, res.witness, mode=mode)
        assert rep.legal and rep.dominating and rep.length == res.value
        assert res.stats.components == 7
    one = disjoint_union(cycle(MAX_SOLVER_ORDER + 1), path(2))
    with pytest.raises(CapacityError, match="component order 65"):
        grundy(one)


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


GATE_WEIGHTS = [(1, 1), (3, 1), (1, 0), (2, 2), (3, 2), (0, 0)]


def assert_weighted_matches_brute(g: Graph, wi: int, wd: int) -> None:
    got = max_weighted_sequence(g, wi, wd)
    assert got == brute_max_weight(g, wi, wd), (g.display_name, wi, wd)
    rep = check_sequence(g, got[1])
    assert rep.legal and rep.dominating
    assert rep.a_value * wi + (rep.length - rep.a_value) * wd == got[0]


def test_max_weighted_sequence_against_brute():
    graphs = [path(4), cycle(5), star(4), complete(3), disjoint_union(path(2), path(3))]
    weights = [(1, 1), (4, 1), (1, 0), (3, 2)]
    for g in graphs:
        for wi, wd in weights:
            assert_weighted_matches_brute(g, wi, wd)


def test_max_weighted_sequence_oracle_gate():
    # value and lexicographically least witness on every connected graph of
    # order <= 6 and on seeded random graphs of order 8; (3, 2) reaches the
    # settling rule with weights above 1, and (2, 2) takes grundy's path
    graphs = [g for n in range(1, 7) for g in enumerate_connected_graphs(n)]
    rng = random.Random(2016)
    graphs += [random_connected_graph(rng, 8) for _ in range(10)]
    for g in graphs:
        for wi, wd in GATE_WEIGHTS:
            assert_weighted_matches_brute(g, wi, wd)


def unpruned_weighted(g: Graph, wi: int, wd: int) -> tuple[int, list[int]]:
    """The weighted search that expands every move of every position, and its
    smallest-vertex walk, extended until the sequence is maximal."""
    rows = mode_rows(g, "closed")
    memo: dict[int, int] = {}

    def weight(dom: int, u: int) -> int:
        return wd if dom >> u & 1 else wi

    def value(dom: int) -> int:
        if dom not in memo:
            memo[dom] = max((weight(dom, u) + value(dom | rows[u])
                             for u in range(g.n) if rows[u] & ~dom), default=0)
        return memo[dom]

    seq: list[int] = []
    dom, t = 0, value(0)
    while dom != g.full_mask:
        u = next(u for u in range(g.n)
                 if rows[u] & ~dom and weight(dom, u) + value(dom | rows[u]) == t)
        seq.append(u)
        t -= weight(dom, u)
        dom |= rows[u]
    return value(0), seq


def test_max_weighted_sequence_matches_unpruned_search():
    # value and witness against the search without the one-fresh-vertex
    # rules, on every connected graph of order 7 and on seeded random graphs
    # of order 9-18, some with isolated vertices; independent items weigh
    # more than or as much as dependent ones, or nothing
    graphs = list(enumerate_connected_graphs(7))
    rng = random.Random(2017)
    for _ in range(16):
        graphs.append(random_graph(rng, rng.randrange(9, 19), rng.choice((0.1, 0.2, 0.3))))
    for k in (1, 2):
        graphs.append(relabel(disjoint_union(random_connected_graph(rng, 10), Graph(k)), rng))
    # unions whose components' vertex ids interleave
    graphs.append(relabel(disjoint_union(cycle(5), disjoint_union(path(4), star(4))), rng))
    graphs.append(relabel(disjoint_union(random_connected_graph(rng, 7),
                                         random_connected_graph(rng, 7)), rng))
    assert sum(has_isolated_vertex(g) for g in graphs) >= 3
    for g in graphs:
        for wi, wd in ((3, 1), (3, 2), (2, 2), (1, 1), (0, 0)):
            got = max_weighted_sequence(g, wi, wd)
            assert got == unpruned_weighted(g, wi, wd), (g.edges(), wi, wd)


def test_weighted_root_orbits_match_unpruned_search(monkeypatch):
    # value and least witness where the weighted search's root orbit skip can
    # fire: four vertex-transitive products with two relabelled copies each,
    # G7 □ K3, and a union whose components' vertex ids interleave
    calls = []

    def counted(G: Graph) -> list[int]:
        calls.append(G.n)
        return vertex_orbits(G)

    monkeypatch.setattr(solver, "vertex_orbits", counted)
    rng = random.Random(30)
    graphs = [product("cartesian", F, H).graph for F, H in (
        (cycle(3), cycle(5)), (path(4), path(4)), (cycle(4), cycle(5)), (complete(3), cycle(6)))]
    graphs += [relabel(g, rng) for g in graphs for _ in range(2)]
    graphs.append(product("cartesian", G7, complete(3)).graph)
    union = relabel(disjoint_union(path(3), product("cartesian", G7, complete(3)).graph), rng)
    assert any(comp[-1] - comp[0] >= len(comp) for comp in map(bit_indices, connected_components(union)))
    graphs.append(union)
    fired = []
    for g in graphs:
        before = len(calls)
        for wi, wd in ((3, 2), (2, 1), (4, 2)):
            got = max_weighted_sequence(g, wi, wd)
            assert got == unpruned_weighted(g, wi, wd), (g.edges(), wi, wd)
        fired.append(len(calls) > before)
    # every graph computes orbits at some weights, the copies of C3 □ C5
    # too, whose first root subtree holds 180 states: above 8n = 120, under
    # n^2 = 225; the test cannot pass without the skip
    assert all(fired), fired


def test_root_expands_its_last_orbit_representative():
    # P5 has the orbits {0, 4}, {1, 3} and {2}; with a memo of 8n entries
    # after the first move, the root computes them and expands each least
    # vertex once. Under a stub value the only optimal child is that of the
    # last representative, the centre; the others are never read
    G = path(5)
    rows = mode_rows(G, "closed")
    child = {rows[0]: 0, rows[1]: 1, rows[2]: 2}
    memo = dict.fromkeys(range(8 * G.n), 0)
    assert solver._root(G, rows, G.n, child.__getitem__, memo, 2) == (4, [0, 1, 2, 1, 0])


def test_census_solves_compute_no_orbits(monkeypatch):
    # no first root subtree reaches 8n states in the many small solves of a
    # census: every connected graph of order <= 7 in both modes, and the
    # strong products that scanning those of order <= 6 with P3 and C4
    # solves (with P2, a complete factor, the scan solves no product); at 4n
    # nine of the products computed orbits
    calls = []

    def counted(G: Graph) -> list[int]:
        calls.append(G.n)
        return vertex_orbits(G)

    monkeypatch.setattr(solver, "vertex_orbits", counted)
    every = [g for n in range(1, 8) for g in enumerate_connected_graphs(n)]
    for g in every:
        grundy(g)
        if g.n > 1:
            grundy(g, "open")
    assert calls == []
    conjecture_scan([(g, path(2)) for g in every])
    conjecture_scan([(g, h) for h in (path(3), cycle(4)) for g in every if g.n <= 6])
    assert calls == []


def test_equal_weights_split_the_graph_once(monkeypatch):
    # the equal-weight path hands its components to grundy's search
    calls = []

    def counted(G: Graph) -> list[int]:
        calls.append(G.n)
        return connected_components(G)

    monkeypatch.setattr(solver, "connected_components", counted)
    for g in (product("cartesian", path(4), path(4)).graph, disjoint_union(cycle(5), path(3))):
        res = grundy(g)
        calls.clear()
        assert max_weighted_sequence(g, 2, 2) == (2 * res.value, res.witness)
        assert calls == [g.n]


def test_one_vertex_components_compute_no_orbits(monkeypatch):
    # a single vertex has one root move, so there is nothing for orbits to skip
    calls = []

    def counted(G: Graph) -> list[int]:
        calls.append(G.n)
        return vertex_orbits(G)

    monkeypatch.setattr(solver, "vertex_orbits", counted)
    assert grundy(Graph(1)).value == 1
    res = grundy(disjoint_union(Graph(1), cycle(5)))
    assert (res.value, res.stats.orbit_skips) == (4, 0)
    assert max_weighted_sequence(Graph(1), 2, 1) == (2, [0])
    assert calls == []


def test_weighted_bound_skip_matches_unpruned_search():
    # the bound w_independent * (free vertices) at (3, 1), and at (0, 0),
    # where it skips every child of a branching position and the walk alone
    # finds the least maximal sequence; on products above the brute-force cap
    rng = random.Random(31)
    graphs = [
        product("cartesian", path(3), cycle(4)).graph,
        product("strong", cycle(4), path(3)).graph,
        product("direct", cycle(5), path(4)).graph,
        product("lexicographic", path(4), complete(3)).graph,
        product("cartesian", G7, path(2)).graph,
    ]
    graphs.append(relabel(graphs[-1], rng))
    assert min(g.n for g in graphs) > BRUTE_MAX_ORDER
    for g in graphs:
        for wi, wd in ((3, 1), (0, 0)):
            got = max_weighted_sequence(g, wi, wd)
            assert got == unpruned_weighted(g, wi, wd), (g.edges(), wi, wd)
            rep = check_sequence(g, got[1])
            assert rep.legal and rep.dominating, (g.edges(), wi, wd)


def test_max_weighted_sequence_dominated_move_does_not_settle():
    # from {0, 1} on the path 0-1-2, the dominated vertex 1 has the one fresh
    # vertex 2 but scores 1, while playing 2 itself scores 3
    assert max_weighted_sequence(path(3), 3, 1) == (6, [0, 2])


def test_equal_positive_weights_take_grundy(monkeypatch):
    # every item weighs w, so the value is w times grundy's and the witness
    # is grundy's, with no weighted search; (0, 0) still runs that search
    searched = []
    weighted = solver._weighted_connected

    def spy(G: Graph, wi: int, wd: int) -> tuple[int, list[int]]:
        searched.append((G.n, wi, wd))
        return weighted(G, wi, wd)

    monkeypatch.setattr(solver, "_weighted_connected", spy)
    for g in (path(5), cycle(6), star(5), disjoint_union(path(3), cycle(4))):
        res = grundy(g)
        for w in (1, 2):
            assert max_weighted_sequence(g, w, w) == (w * res.value, res.witness)
    assert searched == []
    assert max_weighted_sequence(path(5), 0, 0) == (0, [0, 1, 2, 3])
    assert searched == [(5, 0, 0)]


def test_max_weighted_sequence_guards():
    with pytest.raises(ParameterError):
        max_weighted_sequence(path(3), -1, 1)
    with pytest.raises(CapacityError):
        max_weighted_sequence(path(26), 1, 1)


def test_weights_outside_the_domain_are_refused(monkeypatch):
    # the search takes w_independent >= w_dependent >= 0 only, and refuses
    # other weights before it searches, but after the cap check
    searched = []
    monkeypatch.setattr(solver, "_weighted_connected", lambda *args: searched.append(args))
    for wi, wd in ((1, 2), (0, 1), (-1, 1), (1, -1)):
        with pytest.raises(ParameterError, match=r"^weights must satisfy w_independent >= "
                                                 r"w_dependent >= 0$"):
            max_weighted_sequence(path(3), wi, wd)
    assert searched == []
    for wi, wd in ((1, 2), (1.5, 1)):
        with pytest.raises(CapacityError, match="component order 26"):
            max_weighted_sequence(path(26), wi, wd)


@pytest.mark.parametrize("G, wi, wd", [
    (path(7), 0.3, 0.1),
    (cycle(7), 0.7, 0.1),
    (product("cartesian", path(3), path(4)).graph, 0.7, 0.1),
    (cycle(5), float("inf"), 1),
], ids=["P7", "C7", "P3xP4", "C5-inf"])
def test_non_integer_weights_are_refused(G, wi, wd):
    # float rounding broke the witness walk's exact test w + value(child) == t
    with pytest.raises(ParameterError, match=r"^weights must be integers$"):
        max_weighted_sequence(G, wi, wd)


@pytest.mark.parametrize("gamma_h", [2.5, True, "3"])
def test_lex_grundy_refuses_a_non_integer_gamma_h(gamma_h):
    with pytest.raises(ParameterError, match=r"^gamma_h must be an integer of at least 1$"):
        lex_grundy(path(4), gamma_h)


def test_weighted_cap_counts_the_largest_component():
    # 26 vertices in two components of 13: each is solved on its own and the
    # witness merges the components' least witnesses
    val, seq = max_weighted_sequence(path(13), 3, 1)
    two = disjoint_union(path(13), path(13))
    merged = list(heapq.merge(seq, [v + 13 for v in seq]))
    assert max_weighted_sequence(two, 3, 1) == (2 * val, merged)
    with pytest.raises(CapacityError, match="component order 26"):
        max_weighted_sequence(disjoint_union(path(26), path(2)), 3, 1)


def test_max_weighted_sequence_accepts_cap_order():
    # unequal weights, so that the weighted search itself runs at order 25
    assert max_weighted_sequence(star(25), 3, 1) == (72, list(range(1, 25)))


@pytest.mark.parametrize("kind, mode", [("strong", "closed"), ("direct", "open")])
def test_kronecker_sandwich(kind, mode):
    # Above the brute-force cap the search is checked against bounds proven
    # for these products. A legal sequence, row v_i against its footprint
    # column, is a unit lower-triangular submatrix of the neighbourhood
    # matrix of the mode, and that matrix of the product is the Kronecker
    # product of the factors' (N[G] (x) N[H] for strong closed, A_G (x) A_H
    # for direct open). So the factors' sequences, paired in lexicographic
    # order, give a legal sequence of length the product of their values,
    # and a rectangle cover of a triangular submatrix has at least its
    # order, which bounds the value by the product of the factors' covers.
    classes = [G for n in range(2, 7) for G in enumerate_connected_graphs(n)]
    pairs = [(G, H) for i, G in enumerate(classes) for H in classes[i:] if G.n * H.n >= 20]
    covers = {}
    met = 0
    for G, H in random.Random(2016).sample(pairs, 60):
        sol_g, sol_h = grundy(G, mode), grundy(H, mode)
        for F in (G, H):
            if F.name not in covers:
                covers[F.name] = rectangle_cover_number(mode_rows(F, mode))
        lower = sol_g.value * sol_h.value
        upper = covers[G.name] * covers[H.name]
        P = product(kind, G, H).graph
        value = grundy(P, mode, witness=False).value
        assert lower <= value <= upper, (G.name, H.name)
        if lower == upper:
            met += 1
            assert value == lower, (G.name, H.name)
            witness = [g * H.n + h for g in sol_g.witness for h in sol_h.witness]
            rep = check_sequence(P, witness, mode)
            assert rep.legal and rep.dominating and len(witness) == lower, (G.name, H.name)
    assert met >= 10
