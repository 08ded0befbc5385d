"""Graph families, queries, canonical codes, and small-graph enumeration."""

import hashlib
import random
import sys
from itertools import combinations, permutations

import pytest

from grundydom import graphs
from grundydom.errors import ParameterError
from grundydom.graphs import (
    _canonical_search,
    _connected_codes,
    _orbits,
    _pair_bit,
    _refine,
    Graph,
    ball,
    bit_indices,
    boundary,
    canonical_code,
    caterpillar,
    complete,
    connected_components,
    cycle,
    delete_vertex,
    enumerate_connected_graphs,
    graph_from_code,
    has_isolated_vertex,
    independence_number,
    is_simplicial,
    make_graph,
    mask_of,
    mode_rows,
    path,
    star,
    vertex_orbits,
)
from grundydom.products import product
from helpers import disjoint_union, is_connected, substitute_clique

# the tree with alpha = 5: a path u-v where v carries two cherries
TREE8_EDGES = [(0, 1), (1, 2), (1, 5), (2, 3), (2, 4), (5, 6), (5, 7)]


def test_bit_helpers():
    assert bit_indices(0) == []
    assert bit_indices(0b101001) == [0, 3, 5]
    assert mask_of([0, 3, 5]) == 0b101001
    assert mask_of([]) == 0


def test_family_shapes():
    p = path(4)
    assert p.n == 4 and p.m == 3 and p.name == "P4"
    assert p.edges() == [(0, 1), (1, 2), (2, 3)]
    c = cycle(5)
    assert c.n == 5 and c.m == 5 and c.name == "C5"
    assert c.has_edge(0, 4) and c.has_edge(0, 1) and not c.has_edge(0, 2)
    # equal rows hash equal, however the graph was built
    assert complete(3) == Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert hash(complete(3)) == hash(Graph(3, [(0, 1), (0, 2), (1, 2)]))
    assert repr(path(3)) == "Graph(P3: n=3, m=2)"
    k = complete(4)
    assert k.m == 6 and all(k.degree(v) == 3 for v in range(4))
    s = star(4)
    assert s.n == 4 and s.degree(0) == 3 and s.m == 3 and s.name == "S4"
    assert path(1).n == 1 and path(1).m == 0
    assert complete(1).m == 0
    # complete builds its rows directly; they equal the edge-built graph's
    for k in range(1, 13):
        want = Graph(k, combinations(range(k), 2), name=f"K{k}")
        assert (complete(k), complete(k).name) == (want, want.name)


def test_family_errors():
    with pytest.raises(ParameterError):
        path(0)
    with pytest.raises(ParameterError):
        cycle(2)
    with pytest.raises(ParameterError):
        star(0)
    with pytest.raises(ParameterError, match="^complete graph order must be at least 1$"):
        complete(0)
    # the edge check and its texts are those of the graph file formats
    with pytest.raises(ParameterError, match="^loop edge at vertex 0$"):
        Graph(3, [(0, 0)])
    with pytest.raises(ParameterError, match="^edge 0 5 out of range for 3 vertices$"):
        Graph(3, [(0, 5)])
    with pytest.raises(ParameterError, match="^duplicate edge 1 0$"):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ParameterError):
        Graph(-1)


def test_bools_and_floats_are_no_vertex_ids_or_counts():
    # True == 1, but it names no vertex and counts none
    bad = {
        "Graph(True)": lambda: Graph(True),
        "Graph(2.0)": lambda: Graph(2.0),
        "path(True)": lambda: path(True),
        "path(2.5)": lambda: path(2.5),
        "star(True)": lambda: star(True),
        "complete(True)": lambda: complete(True),
        "cycle(3.0)": lambda: cycle(3.0),
        "caterpillar(True, [1])": lambda: caterpillar(True, [1]),
        "caterpillar(2, [True, 0])": lambda: caterpillar(2, [True, 0]),
        "enumerate_connected_graphs(True)": lambda: list(enumerate_connected_graphs(True)),
        "Graph(3, [(True, 2)])": lambda: Graph(3, [(True, 2)]),
        "Graph(3, [(0, False)])": lambda: Graph(3, [(0, False)]),
        "Graph(3, [(0.0, 1)])": lambda: Graph(3, [(0.0, 1)]),
        "ball": lambda: ball(path(3), True, 1),
        "is_simplicial": lambda: is_simplicial(path(3), True),
        "delete_vertex": lambda: delete_vertex(path(3), True),
    }
    for name, call in bad.items():
        with pytest.raises(ParameterError):
            call()
            pytest.fail(name)
    with pytest.raises(ParameterError, match="^edge True 2 out of range for 3 vertices$"):
        Graph(3, [(True, 2)])
    with pytest.raises(ParameterError, match="^vertex True out of range$"):
        ball(path(3), True, 1)


def test_degree_and_has_edge_check_their_vertices():
    # unchecked, -1 and True would read the last vertex and vertex 1 of P3
    g = path(3)
    assert [g.degree(v) for v in range(3)] == [1, 2, 1]
    assert g.has_edge(0, 1) and g.has_edge(2, 1) and not g.has_edge(0, 2)
    bad = {
        "degree(-1)": lambda: g.degree(-1),
        "degree(True)": lambda: g.degree(True),
        "degree(7)": lambda: g.degree(7),
        "has_edge(-1, 1)": lambda: g.has_edge(-1, 1),
        "has_edge(0, 99)": lambda: g.has_edge(0, 99),
        "has_edge(True, 2)": lambda: g.has_edge(True, 2),
    }
    for name, call in bad.items():
        with pytest.raises(ParameterError, match="^vertex .* out of range$"):
            call()
            pytest.fail(name)


def test_caterpillar_layout():
    g = caterpillar(3, [1, 0, 2])
    # spine 0-1-2 first, then legs grouped by spine vertex
    assert g.n == 6
    assert g.has_edge(0, 1) and g.has_edge(1, 2)
    assert g.has_edge(0, 3) and g.has_edge(2, 4) and g.has_edge(2, 5)
    assert g.name == "cat(3;1,0,2)"
    with pytest.raises(ParameterError):
        caterpillar(2, [1])  # one leg count per spine vertex
    with pytest.raises(ParameterError):
        caterpillar(0, [])
    with pytest.raises(ParameterError, match="^leg counts must be nonnegative$"):
        caterpillar(2, [1, -1])


def test_make_graph_families():
    assert make_graph("path", (4,)) == path(4)
    assert make_graph("cycle", [5]) == cycle(5)
    assert make_graph("caterpillar", (2, 1, 1)) == caterpillar(2, [1, 1])
    g = make_graph("custom", (3, 0, 1, 1, 2))
    assert g == path(3)
    with pytest.raises(ParameterError):
        make_graph("nope", (3,))
    with pytest.raises(ParameterError):
        make_graph("custom", (3, 0))  # dangling endpoint
    with pytest.raises(ParameterError, match="^caterpillar needs a spine length$"):
        make_graph("caterpillar", [])


def test_one_parameter_families_refuse_other_arities():
    for fam in ("path", "cycle", "complete", "star"):
        for params in ((3, 4), ()):
            with pytest.raises(ParameterError) as exc:
                make_graph(fam, params)
            assert str(exc.value) == f"family '{fam}' expects 1 parameter(s), got {len(params)}"


def test_neighborhoods_boundary_ball():
    p = path(4)
    assert mode_rows(p, "closed")[1] == 0b0111
    assert mode_rows(p, "open")[1] == 0b0101
    with pytest.raises(ParameterError):
        mode_rows(p, "weird")
    assert boundary(p, mask_of([0])) == mask_of([1])
    assert boundary(p, mask_of([1, 2])) == mask_of([0, 3])
    assert boundary(p, p.full_mask) == 0
    c = cycle(6)
    assert ball(c, 0, 0) == mask_of([0])
    assert ball(c, 0, 1) == mask_of([0, 1, 5])
    assert ball(c, 0, 2) == mask_of([0, 1, 2, 4, 5])
    assert ball(c, 0, 99) == c.full_mask
    with pytest.raises(ParameterError, match="^vertex set out of range$"):
        boundary(c, 1 << c.n)
    with pytest.raises(ParameterError, match="^vertex 6 out of range$"):
        ball(c, c.n, 1)
    with pytest.raises(ParameterError, match="^radius must be nonnegative$"):
        ball(c, 0, -1)


def test_connectivity():
    assert is_connected(path(5)) and is_connected(complete(1))
    two = disjoint_union(path(2), path(3))
    assert not is_connected(two)
    comps = connected_components(two)
    assert sorted(c.bit_count() for c in comps) == [2, 3]
    assert has_isolated_vertex(disjoint_union(path(2), complete(1)))
    assert not has_isolated_vertex(path(2))


def test_independence_number():
    assert independence_number(path(5)) == 3
    assert independence_number(cycle(5)) == 2
    assert independence_number(cycle(6)) == 3
    assert independence_number(complete(6)) == 1
    assert independence_number(star(4)) == 3
    assert independence_number(Graph(3)) == 3
    tree8 = Graph(8, TREE8_EDGES)
    assert independence_number(tree8) == 5


def test_independence_number_brute():
    rng = random.Random(11)
    for trial in range(40):
        n = rng.randrange(1, 8)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
        g = Graph(n, edges)
        best = 0
        for size in range(n, 0, -1):
            for sub in combinations(range(n), size):
                if all(not g.has_edge(u, v) for u, v in combinations(sub, 2)):
                    best = size
                    break
            if best:
                break
        assert independence_number(g) == best


def _alpha_branches(G: Graph, cap: int) -> int:
    """Calls of maximal_cliques' Bron-Kerbosch expand while independence_number
    runs on G; RuntimeError past cap."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "expand" \
                and frame.f_globals["__name__"] == "grundydom.graphs":
            calls += 1
            if calls > cap:
                raise RuntimeError(f"independence_number branched more than {cap} times")

    sys.setprofile(count)
    try:
        independence_number(G)
    finally:
        sys.setprofile(None)
    return calls


def test_independence_number_adds_up_over_components():
    # alpha is a sum over components, so disjoint copies must cost the sum of
    # their clique searches; the complement of the whole union joins the
    # copies' complements, and its maximal cliques multiply per copy of C9
    one = _alpha_branches(cycle(9), cap=10_000)
    assert one >= 1
    union = cycle(9)
    for _ in range(7):
        union = disjoint_union(union, cycle(9))
    assert _alpha_branches(union, cap=8 * one) == 8 * one
    assert independence_number(union) == 8 * independence_number(cycle(9)) == 32
    assert independence_number(disjoint_union(Graph(2), complete(3))) == 3


def test_simplicial():
    assert is_simplicial(path(4), 0) and not is_simplicial(path(4), 1)
    assert all(is_simplicial(complete(4), v) for v in range(4))
    assert not any(is_simplicial(cycle(5), v) for v in range(5))
    assert is_simplicial(Graph(1), 0)  # empty neighborhood is a clique
    with pytest.raises(ParameterError, match="^vertex 4 out of range$"):
        is_simplicial(path(4), 4)


def test_substitute_clique():
    g = substitute_clique(path(3), 1, 2)
    # vertex 1 doubled into a true-twin pair: 4 vertices, twins adjacent
    assert g.n == 4
    twins = [1, 3]
    assert g.has_edge(*twins)
    for t in twins:
        assert g.has_edge(0, t) and g.has_edge(2, t)
    assert substitute_clique(path(3), 1, 1) == path(3)
    with pytest.raises(ParameterError):
        substitute_clique(path(3), 5, 2)
    with pytest.raises(ParameterError):
        substitute_clique(path(3), 0, 0)


def test_delete_vertex():
    g = delete_vertex(cycle(4), 0)
    assert g == path(3)
    g = delete_vertex(path(3), 1)
    assert g.n == 2 and g.m == 0
    with pytest.raises(ParameterError):
        delete_vertex(path(2), 4)
    # the rows are shifted bitwise; remapping the edge tuples is the reference
    for n in range(1, 6):
        for G in enumerate_connected_graphs(n):
            for v in range(n):
                edges = [(a - (a > v), b - (b > v)) for a, b in G.edges() if v not in (a, b)]
                want = Graph(n - 1, edges)
                got = delete_vertex(G, v)
                assert got.n == want.n and got.adj == want.adj, (G.edges(), v)
                assert got.edges() == want.edges()


def test_disjoint_union():
    g = disjoint_union(path(2), cycle(3))
    assert g.n == 5 and g.m == 4
    assert g.has_edge(0, 1) and g.has_edge(2, 3) and g.has_edge(2, 4)
    assert not g.has_edge(1, 2)


def test_canonical_code_invariance():
    rng = random.Random(5)
    for trial in range(60):
        n = rng.randrange(1, 8)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
        g = Graph(n, edges)
        code = canonical_code(g)
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = Graph(n, [(perm[u], perm[v]) for u, v in edges])
        assert canonical_code(relabeled) == code
        # decode gives back an isomorphic graph: same code again
        assert canonical_code(graph_from_code(n, code)) == code


def test_canonical_code_separates_nonisomorphic():
    # all labeled graphs on 4 vertices, grouped by brute-force min-perm code
    def brute_code(g):
        best = None
        for perm in permutations(range(g.n)):
            bits = 0
            pos = 0
            for i in range(g.n):
                for j in range(i + 1, g.n):
                    if g.has_edge(perm.index(i), perm.index(j)):
                        bits |= 1 << pos
                    pos += 1
            best = bits if best is None else min(best, bits)
        return best

    n = 4
    pairs = list(combinations(range(n), 2))
    by_brute = {}
    by_mine = {}
    for bits in range(1 << len(pairs)):
        g = Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
        by_brute.setdefault(brute_code(g), set()).add(bits)
        by_mine.setdefault(canonical_code(g), set()).add(bits)
    # identical partitions of the labeled graphs into isomorphism classes
    assert sorted(map(sorted, by_brute.values())) == sorted(map(sorted, by_mine.values()))


# Refinement as defined, independent of the package's _refine, which counts
# neighbours in split cells: every round ranks every vertex by its colour and
# the sorted colours of its neighbours.
def refine_colours(n: int, adj: tuple[int, ...], colors: list[int]) -> list[int]:
    """Refinement that stops at the first round that splits no cell."""
    cells = len(set(colors))
    while True:
        sigs = [(colors[v], tuple(sorted(colors[w] for w in bit_indices(adj[v])))) for v in range(n)]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [rank[s] for s in sigs]
        if len(rank) == cells:
            return colors
        cells = len(rank)


def individualize(n: int, adj: tuple[int, ...], colors: list[int], v: int) -> list[int]:
    colors = list(colors)
    colors[v] = -1
    return refine_colours(n, adj, colors)


def target_cell(colors: list[int]) -> int | None:
    """Least color shared by two or more vertices; None once the coloring is discrete."""
    shared = [c for c in set(colors) if colors.count(c) > 1]
    return min(shared) if shared else None


def unpruned_canonical_code(g: Graph) -> int:
    """The canonical code without automorphism pruning: every vertex of
    every target cell is branched on."""
    n, adj = g.n, g.adj
    if n <= 1:
        return 0
    edges = g.edges()
    best = None

    def rec(colors):
        nonlocal best
        target = target_cell(colors)
        if target is None:
            code = 0
            for u, v in edges:
                a, b = sorted((colors[u], colors[v]))
                code |= 1 << _pair_bit(n, a, b)
            best = code if best is None else min(best, code)
            return
        for v in range(n):
            if colors[v] == target:
                rec(individualize(n, adj, colors, v))

    rec(refine_colours(n, adj, [0] * n))
    del rec
    return best


def test_pruned_canonical_search_matches_unpruned():
    labelled5 = [
        Graph(5, [e for i, e in enumerate(combinations(range(5), 2)) if bits >> i & 1])
        for bits in range(1 << 10)
    ]
    rng = random.Random(8)
    seeded = [
        Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        for n in (6, 7, 8) for p in (0.2, 0.5, 0.8) for _ in range(8)
    ]
    k44 = Graph(8, [(u, v) for u in range(4) for v in range(4, 8)])
    q3 = Graph(8, [(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b])
    two_k4 = disjoint_union(complete(4), complete(4))
    symmetric = [complete(8), k44, cycle(8), q3, two_k4]
    assert not all(is_connected(g) for g in seeded)
    for g in labelled5 + seeded + symmetric:
        code, autos, _ = _canonical_search(g)
        assert code == unpruned_canonical_code(g) == canonical_code(g), g.edges()
        for perm in autos:
            assert sorted(perm) == list(range(g.n))
            for x in range(g.n):
                assert mask_of(perm[u] for u in bit_indices(g.adj[x])) == g.adj[perm[x]]
    for g in symmetric:
        # every group here is transitive, so the search must meet automorphisms
        assert _canonical_search(g)[1], g.edges()


def refine_to_fixpoint(n: int, adj: tuple[int, ...], colors: list[int]) -> list[int]:
    """Refinement that runs until a round leaves the colours as they were."""
    while True:
        sigs = [(colors[v], tuple(sorted(colors[w] for w in bit_indices(adj[v])))) for v in range(n)]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [rank[s] for s in sigs]
        if new == colors:
            return new
        colors = new


def colours_of(n: int, cells: list[list[int]]) -> list[int]:
    colors = [0] * n
    for c, cell in enumerate(cells):
        for v in cell:
            colors[v] = c
    return colors


def test_refine_stops_at_its_first_stable_round(monkeypatch):
    # every call of _refine made by a cold enumeration up to order 7 and by
    # the labelling searches of two vertex-transitive graphs, whose
    # individualised colourings refine the most, and of dense graphs, where
    # counting neighbours in split cells differs most from sorting neighbour
    # colours, gives the colours of refinement run to its fixpoint, each cell
    # in ascending order, and the least colour of a cell of two or more
    # vertices as its target
    calls = []

    def recording(adj, cells, split):
        out, target = _refine(adj, [list(cell) for cell in cells], split)
        calls.append((adj, colours_of(len(adj), cells), out, target))
        return out, target

    monkeypatch.setattr(graphs, "_refine", recording)
    monkeypatch.setattr(graphs, "_ENUM_CACHE", {1: {0: []}})
    for n in range(2, 8):
        _connected_codes(n)
    enumerated = len(calls)
    rng = random.Random(21)
    dense = [
        Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.8])
        for n in range(9, 13) for _ in range(4)
    ]
    for g in [product("cartesian", cycle(6), cycle(6)).graph,
              product("cartesian", complete(4), complete(4)).graph,
              product("cartesian", complete(8), complete(8)).graph] + dense:
        canonical_code(g)
    assert enumerated > 1000 and len(calls) > enumerated
    for adj, colors, out, target in calls:
        n = len(adj)
        assert colours_of(n, out) == refine_to_fixpoint(n, adj, colors), (adj, colors)
        assert all(cell == sorted(cell) for cell in out)
        assert target == target_cell(colours_of(n, out))


def test_connected_codes_are_pinned():
    # digest of the class codes of orders 1..7 as produced by extending each
    # class by every attachment set; it pins the classes, their order and so
    # their g{n}_{i} names
    codes = repr([_connected_codes(n) for n in range(1, 8)]).encode()
    assert hashlib.sha256(codes).hexdigest() == (
        "99130372a299eaaea471589383ebf1d0590992916ca80058257d938345cb3ff6"
    )


def test_connected_codes_order_8_are_pinned():
    # the 11,117 classes of order 8 as extending each class by one set per
    # attachment orbit and deduplicating by code produced them
    assert hashlib.sha256(repr(_connected_codes(8)).encode()).hexdigest() == (
        "3366651ea0ea23904cb349260e0e1e9fc9a82a0a04702173f13c390394b78713"
    )


def relabel(g: Graph, order: list[int]) -> Graph:
    """g with vertex order[c] renamed c."""
    label = {y: c for c, y in enumerate(order)}
    return Graph(g.n, [(label[u], label[v]) for u, v in g.edges()])


def test_canonical_labelling_gives_code_graph():
    rng = random.Random(12)
    graphs = []
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            order = list(range(n))
            rng.shuffle(order)
            graphs.append(relabel(g, order))
    graphs += [
        Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        for n in range(8, 13) for p in (0.2, 0.5, 0.8) for _ in range(4)
    ]
    for g in graphs:
        code, _, best_at = _canonical_search(g)
        assert sorted(best_at) == list(range(g.n))
        assert relabel(g, best_at) == graph_from_code(g.n, code), g.edges()


def test_carried_automorphisms_give_vertex_orbits():
    for n in range(1, 8):
        for code in _connected_codes(n):
            g = graph_from_code(n, code)
            perms = graphs._ENUM_CACHE[n][code]
            for perm in perms:
                assert sorted(perm) == list(range(n))
                for x in range(n):
                    assert mask_of(perm[u] for u in bit_indices(g.adj[x])) == g.adj[perm[x]]
            assert _orbits(n, perms) == vertex_orbits(g), (n, code)


def test_enumeration_counts():
    expected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}  # OEIS A001349
    for n, count in expected.items():
        graphs = list(enumerate_connected_graphs(n))
        assert len(graphs) == count
        assert all(g.n == n and is_connected(g) for g in graphs)
        codes = {canonical_code(g) for g in graphs}
        assert len(codes) == count  # pairwise non-isomorphic
    names = [g.name for g in enumerate_connected_graphs(3)]
    assert names == ["g3_0", "g3_1"]


def test_enumeration_guard():
    with pytest.raises(ParameterError):
        list(enumerate_connected_graphs(9))
    with pytest.raises(ParameterError):
        list(enumerate_connected_graphs(0))


def test_enumeration_matches_independent_count_n5():
    # independent check: connected labeled graphs on 5 vertices, bucketed by
    # brute-force canonical form, must give exactly the 21 classes
    n = 5
    pairs = list(combinations(range(n), 2))
    classes = set()
    for bits in range(1 << len(pairs)):
        g = Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
        if is_connected(g):
            classes.add(canonical_code(g))
    assert len(classes) == 21
    enum_codes = {canonical_code(g) for g in enumerate_connected_graphs(5)}
    assert enum_codes == classes


def brute_automorphisms(g: Graph) -> set[tuple[int, ...]]:
    """The automorphism group of g, by testing all n! permutations."""
    edges = set(g.edges())
    return {
        p for p in permutations(range(g.n))
        if all((min(p[u], p[v]), max(p[u], p[v])) in edges for u, v in edges)
    }


def group_orbits(n: int, group: set[tuple[int, ...]]) -> list[int]:
    """Least vertex of each orbit of a whole permutation group."""
    reps = list(range(n))
    for p in group:
        for v in range(n):
            reps[p[v]] = min(reps[p[v]], v)
    return reps


def brute_orbits(g: Graph) -> list[int]:
    """Least vertex of each orbit of the full automorphism group."""
    return group_orbits(g.n, brute_automorphisms(g))


def test_vertex_orbits_match_automorphism_group():
    graphs = [g for n in range(1, 7) for g in enumerate_connected_graphs(n)]
    assert len(graphs) == 143
    for g in graphs:
        assert vertex_orbits(g) == brute_orbits(g), g.edges()


def generated_group(n: int, perms: list[list[int]]) -> set[tuple[int, ...]]:
    """Every product of the permutations, the identity included."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        new = {tuple(g[x] for x in h) for h in frontier for g in perms} - group
        group |= new
        frontier = list(new)
    return group


def test_recorded_automorphisms_generate_the_group():
    # the backjump leaves leaves of the best code unsearched; each is the
    # image of a searched leaf under a recorded automorphism, so both the
    # search's automorphisms and those a class carries into the enumeration
    # still generate the whole group
    for n in range(1, 7):
        for code in _connected_codes(n):
            g = graph_from_code(n, code)
            group = brute_automorphisms(g)
            carried = graphs._ENUM_CACHE[n][code]
            assert generated_group(n, _canonical_search(g)[1]) == group, (n, code)
            assert generated_group(n, carried) == group, (n, code)
            assert vertex_orbits(g) == group_orbits(n, group), (n, code)
            least = []
            for s in range(1, 1 << n):
                images = (mask_of(p[v] for v in bit_indices(s)) for p in group)
                if min(images) == s:
                    least.append(s)
            assert graphs._subset_orbit_representatives(n, carried) == least, (n, code)
            assert set(backtracked_automorphisms(g)) == group, (n, code)


def backtracked_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """The automorphism group of g, by mapping vertices 0, 1, ... in turn
    onto unused vertices of equal degree that keep every adjacency to the
    vertices mapped before."""
    image: list[int] = []
    out = []

    def extend(x: int) -> None:
        if x == g.n:
            out.append(tuple(image))
            return
        for y in range(g.n):
            if y not in image and g.degree(y) == g.degree(x) and all(
                g.has_edge(x, w) == g.has_edge(y, image[w]) for w in range(x)
            ):
                image.append(y)
                extend(x + 1)
                image.pop()

    extend(0)
    return out


def test_recorded_automorphisms_generate_the_group_order_7():
    # in a shuffled labelling the search meets the orbits in another order:
    # a backjump that resumes one level too high loses automorphisms on two
    # of these, while every class of order 6 or less still passes
    rng = random.Random(7)
    for g in enumerate_connected_graphs(7):
        order = list(range(7))
        rng.shuffle(order)
        h = relabel(g, order)
        assert generated_group(7, _canonical_search(h)[1]) == set(backtracked_automorphisms(h)), g


def random_regular_graph(rng: random.Random, n: int, d: int) -> Graph:
    """Connected d-regular graph from the configuration model, by rejection."""
    while True:
        points = [v for v in range(n) for _ in range(d)]
        rng.shuffle(points)
        pairs = {tuple(sorted(points[i:i + 2])) for i in range(0, len(points), 2)}
        if len(pairs) == n * d // 2 and all(u != v for u, v in pairs):
            g = Graph(n, sorted(pairs))
            if is_connected(g):
                return g


def is_automorphic(g: Graph, r: int, v: int) -> bool:
    """Whether some automorphism maps r to v, by backtracking in BFS order from r."""
    order = [r]
    for x in order:
        order.extend(u for u in bit_indices(g.adj[x]) if u not in order)
    image: dict[int, int] = {}

    def extend(i: int) -> bool:
        if i == g.n:
            return True
        x = order[i]
        for y in [v] if i == 0 else range(g.n):
            if y in image.values() or g.degree(y) != g.degree(x):
                continue
            if all(g.has_edge(x, w) == g.has_edge(y, image[w]) for w in order[:i]):
                image[x] = y
                if extend(i + 1):
                    return True
                del image[x]
        return False

    return extend(0)


def test_vertex_orbits_group_only_automorphic_vertices():
    # regular graphs give refinement nothing to split, so many leaves of the
    # canonical search end in a bijection that is not an automorphism; only
    # leaves with the best code may join orbits
    rng = random.Random(5)
    for _ in range(12):
        g = random_regular_graph(rng, rng.choice((8, 10, 12)), rng.choice((3, 4)))
        for v, r in enumerate(vertex_orbits(g)):
            assert r <= v and is_automorphic(g, r, v), (g.edges(), r, v)


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(u, v) for u in range(a) for v in range(a, a + b)])


def test_vertex_orbit_counts():
    for k in range(3, 13):
        assert set(vertex_orbits(cycle(k))) == {0}
        assert len(set(vertex_orbits(path(k)))) == (k + 1) // 2
    assert len(set(vertex_orbits(product("cartesian", path(6), path(6)).graph))) == 6
    for kind in ("cartesian", "strong"):
        assert set(vertex_orbits(product(kind, cycle(6), cycle(6)).graph)) == {0}
    # the canonical search records many automorphisms on these
    petersen = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                     + [(i, i + 5) for i in range(5)]
                     + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    vertex_transitive = [
        complete_bipartite(4, 4),
        product("cartesian", path(2), product("cartesian", path(2), path(2)).graph).graph,
        petersen,
        product("cartesian", complete(3), complete(3)).graph,
        product("lexicographic", cycle(4), Graph(2)).graph,
    ]
    for g in vertex_transitive:
        assert set(vertex_orbits(g)) == {0}, g
    assert vertex_orbits(complete_bipartite(2, 5)) == [0, 0, 2, 2, 2, 2, 2]
