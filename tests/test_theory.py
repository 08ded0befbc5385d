"""Catalog formulas, witness constructions, bounds, scans, and spot checks."""

import hashlib
import inspect
import random
from collections import Counter
from itertools import combinations

import pytest

from grundydom import solver, theory
from grundydom.errors import CapacityError, InvariantError, ParameterError
from grundydom.graphs import (
    Graph,
    ball,
    bit_indices,
    boundary,
    caterpillar,
    complete,
    cycle,
    enumerate_connected_graphs,
    has_isolated_vertex,
    independence_number,
    path,
    star,
)
from grundydom.products import product
from grundydom.sequences import check_sequence
from grundydom.solver import grundy, lex_grundy, max_weighted_sequence
from grundydom.theory import (
    FORMULAS,
    BoundaryBound,
    boundary_sufficient_bound,
    conjecture_scan,
    construct_complete_grid_witness,
    construct_odd_torus_witness,
    construct_product_witness,
    edge_clique_cover_number,
    formula_value,
    isoperimetric_check,
    maximal_cliques,
    product_bounds,
    strong_simplicial_upper,
)
from helpers import disjoint_union, exact, is_triangle_free


# === edge clique covers ===


def test_triangle_free():
    assert is_triangle_free(path(5)) and is_triangle_free(cycle(4))
    assert not is_triangle_free(complete(3))
    assert is_triangle_free(Graph(3))


def test_maximal_cliques_examples():
    diamond = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert set(maximal_cliques(diamond)) == {0b0111, 0b1110}
    assert set(maximal_cliques(complete(4))) == {0b1111}
    assert set(maximal_cliques(path(3))) == {0b011, 0b110}
    assert set(maximal_cliques(Graph(2))) == {0b01, 0b10}


def test_maximal_cliques_against_brute():
    rng = random.Random(2)
    for trial in range(25):
        n = rng.randrange(1, 7)
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])
        brute = set()
        for mask in range(1, 1 << n):
            vs = bit_indices(mask)
            if all(g.has_edge(u, v) for u, v in combinations(vs, 2)):
                if all(
                    any(not g.has_edge(w, v) for v in vs)
                    for w in range(n)
                    if not mask >> w & 1
                ):
                    brute.add(mask)
        assert set(maximal_cliques(g)) == brute


def test_edge_clique_cover_examples():
    assert edge_clique_cover_number(path(5)) == 4  # triangle-free: one per edge
    assert edge_clique_cover_number(cycle(5)) == 5
    assert edge_clique_cover_number(complete(6)) == 1
    assert edge_clique_cover_number(Graph(4)) == 0
    assert edge_clique_cover_number(product("strong", path(2), path(3)).graph) == 2
    bowtie = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert edge_clique_cover_number(bowtie) == 2
    diamond = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert edge_clique_cover_number(diamond) == 2


def brute_edge_clique_cover(g: Graph) -> int:
    """Fewest cliques of any size, maximal or not, covering every edge, by
    breadth-first search over the sets of covered edges."""
    edges = g.edges()
    cliques = []
    for mask in range(1, 1 << g.n):
        vs = bit_indices(mask)
        if len(vs) >= 2 and all(g.has_edge(u, v) for u, v in combinations(vs, 2)):
            cliques.append(
                sum(1 << i for i, e in enumerate(edges) if mask >> e[0] & 1 and mask >> e[1] & 1)
            )
    full = (1 << len(edges)) - 1
    level, size = {0}, 0
    while full not in level:
        level = {covered | c for covered in level for c in cliques}
        size += 1
    return size


def test_edge_clique_cover_against_brute():
    # every labelled graph on at most 5 vertices, every connected class of
    # order 6 and seeded random graphs, which may be disconnected
    graphs = [
        Graph(n, [e for i, e in enumerate(combinations(range(n), 2)) if bits >> i & 1])
        for n in range(1, 6) for bits in range(1 << n * (n - 1) // 2)
    ]
    assert len(graphs) == 1 + 2 + 8 + 64 + 1024
    graphs += enumerate_connected_graphs(6)
    rng = random.Random(9)
    for trial in range(15):
        n = rng.randrange(2, 7)
        graphs.append(Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5]))
    for g in graphs:
        assert edge_clique_cover_number(g) == brute_edge_clique_cover(g), g.edges()


def forced_cliques_cover(g: Graph) -> bool:
    """Whether the maximal cliques that are the only one holding some edge
    cover every edge."""
    cliques = maximal_cliques(g)
    forced = set()
    for u, v in g.edges():
        holders = [c for c in cliques if c >> u & 1 and c >> v & 1]
        if len(holders) == 1:
            forced.add(holders[0])
    return all(any(c >> u & 1 and c >> v & 1 for c in forced) for u, v in g.edges())


def test_edge_clique_cover_with_and_without_forced_cliques():
    # the diamond's middle edge lies in both triangles, but each triangle
    # holds an edge of its own, so both are forced and settle the cover
    diamond = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert forced_cliques_cover(diamond)
    assert edge_clique_cover_number(diamond) == 2
    # every edge of the octahedron lies in two of its eight triangles, so
    # nothing is forced and the cover is found by branching
    octahedron = Graph(6, [(u, v) for u, v in combinations(range(6), 2) if v != u + 3])
    assert not forced_cliques_cover(octahedron)
    assert edge_clique_cover_number(octahedron) == brute_edge_clique_cover(octahedron) == 4


def test_edge_clique_cover_guard():
    with pytest.raises(CapacityError):
        edge_clique_cover_number(path(17))
    assert edge_clique_cover_number(path(16)) == 15
    # an item in no set has no cover; the search must not report one
    with pytest.raises(ParameterError, match="^item 1 lies in no set$"):
        theory._min_set_cover(2, [0b01])
    assert theory._min_set_cover(0, []) == 0


def test_theta_upper_bounds_grundy():
    # closed-mode value never exceeds the edge clique cover number
    for n in range(2, 7):
        for g in enumerate_connected_graphs(n):
            assert grundy(g, witness=False).value <= edge_clique_cover_number(g)


# === boundary certificates ===


def test_boundary_bound_certified():
    b = boundary_sufficient_bound(cycle(4), 1)
    assert isinstance(b, BoundaryBound)
    assert b.min_boundary == 2 and b.certified and b.checked == 4
    assert b.grundy_upper == 2
    assert boundary_sufficient_bound(path(3), 1).min_boundary == 1
    assert boundary_sufficient_bound(path(3), 3).min_boundary == 0


def test_boundary_bound_sampled():
    g = product("cartesian", cycle(5), cycle(5)).graph
    b = boundary_sufficient_bound(g, 15, trials=64, seed=3)
    assert not b.certified and b.checked == 64
    assert 0 <= b.min_boundary <= g.n - 15


def test_boundary_bound_guards():
    with pytest.raises(ParameterError):
        boundary_sufficient_bound(path(3), 0)
    with pytest.raises(ParameterError):
        boundary_sufficient_bound(path(3), 4)
    with pytest.raises(CapacityError):
        boundary_sufficient_bound(product("cartesian", cycle(6), cycle(6)).graph, 15)
    with pytest.raises(ParameterError):
        boundary_sufficient_bound(path(3), 1, trials=0)
    # sampling takes no more subsets than enumeration does
    with pytest.raises(CapacityError, match="10000001 trials exceed the subset guard"):
        boundary_sufficient_bound(path(3), 1, trials=theory.SUBSET_ENUM_LIMIT + 1)


def test_boundary_bound_dominates_grundy():
    # n - min|boundary| is a valid cap for every subset size m
    for n in range(2, 7):
        for g in enumerate_connected_graphs(n):
            val = grundy(g, witness=False).value
            for m in range(1, n + 1):
                assert val <= boundary_sufficient_bound(g, m).grundy_upper


# === formula catalog ===


def test_formula_ids_catalog():
    assert set(FORMULAS) == {
        "thm_cart_grid",
        "thm_cart_cylinder",
        "thm_cart_torus",
        "thm_cart_torus_odd",
        "prop_cart_multi_cycles",
        "prop_cart_multi_paths",
        "cor_lex_path_H",
        "cor_lex_path_path",
        "cor_lex_path_cycle",
        "cor_lex_cycle_H",
        "cor_lex_cycle_cycle",
        "cor_direct_PC",
        "cor_direct_CC",
        "cor_direct_PP",
        "prop_direct_PP_upper",
        "cor_direct_PP_even",
        "cor_strong_grid",
        "cor_strong_cylinder",
        "cor_strong_torus_upper",
        "conj_strong_torus",
        "cor_strong_multi_paths",
        "cor_strong_multi_paths_cycle",
        "gamma_t_path",
        "gamma_t_cycle",
    }


def test_formula_spot_values():
    assert formula_value("thm_cart_grid", (3, 4)) == (9, "exact")
    assert formula_value("thm_cart_cylinder", (3, 4)) == (8, "exact")
    assert formula_value("thm_cart_torus", (4, 5)) == (12, "exact")
    assert formula_value("thm_cart_torus_odd", (5,)) == (16, "exact")
    assert formula_value("prop_cart_multi_cycles", (2, 4)) == (24, "exact")
    assert formula_value("prop_cart_multi_paths", (2, 2, 5)) == (16, "exact")
    assert formula_value("cor_lex_path_H", (4, 2)) == (5, "exact")
    assert formula_value("cor_lex_path_path", (5, 3)) == (6, "exact")
    assert formula_value("cor_lex_path_cycle", (4, 4)) == (5, "exact")
    assert formula_value("cor_lex_cycle_H", (5, 3)) == (7, "exact")
    assert formula_value("cor_lex_cycle_cycle", (4, 5)) == (6, "exact")
    assert formula_value("cor_direct_PC", (3, 4)) == (8, "lower-bound")
    assert formula_value("cor_direct_PC", (2, 4)) == (4, "lower-bound")
    assert formula_value("cor_direct_CC", (4, 5)) == (9, "lower-bound")
    assert formula_value("cor_direct_PP", (3, 4)) == (8, "lower-bound")
    assert formula_value("prop_direct_PP_upper", (3, 4)) == (9, "upper-bound")
    assert formula_value("cor_direct_PP_even", (4, 5)) == (16, "exact")
    assert formula_value("cor_strong_grid", (4, 4)) == (9, "exact")
    assert formula_value("cor_strong_cylinder", (3, 5)) == (6, "exact")
    assert formula_value("cor_strong_torus_upper", (4, 4)) == (6, "upper-bound")
    assert formula_value("conj_strong_torus", (4, 4)) == (4, "conjectured")
    assert formula_value("cor_strong_multi_paths", (3, 4, 5)) == (24, "exact")
    assert formula_value("cor_strong_multi_paths_cycle", (3, 4)) == (4, "exact")
    assert formula_value("gamma_t_path", (7,)) == (6, "exact")
    assert formula_value("gamma_t_cycle", (8,)) == (6, "exact")


def test_formula_preconditions():
    cases = [
        ("thm_cart_grid", (1, 3)),
        ("thm_cart_grid", (4, 3)),
        ("thm_cart_cylinder", (1, 4)),
        ("thm_cart_cylinder", (2, 2)),
        ("thm_cart_torus", (2, 4)),
        ("thm_cart_torus", (5, 5)),  # equal odd lengths are the separate entry
        ("thm_cart_torus_odd", (4,)),
        ("prop_cart_multi_cycles", (4, 2)),
        ("prop_cart_multi_cycles", (2, 3)),  # needs k1 + 2 <= k2
        ("prop_cart_multi_paths", (3, 3)),  # needs k1 + 1 <= k2
        ("cor_lex_path_H", (2, 3)),
        ("cor_lex_path_H", (3, 1)),  # complete second factor
        ("cor_lex_path_path", (3, 2)),
        ("cor_lex_path_cycle", (6, 3)),  # C_3 is complete
        ("cor_lex_cycle_H", (3, 2)),
        ("cor_lex_cycle_cycle", (4, 3)),
        ("cor_direct_PC", (1, 4)),
        ("cor_direct_PC", (3, 3)),
        ("cor_direct_CC", (3, 5)),
        ("cor_direct_PP", (3, 2)),
        ("cor_direct_PP_even", (3, 4)),
        ("cor_strong_grid", (1, 2)),
        ("cor_strong_cylinder", (2, 2)),
        ("cor_strong_torus_upper", (2, 4)),
        ("conj_strong_torus", (4, 3)),
        ("cor_strong_multi_paths", (1,)),
        ("cor_strong_multi_paths_cycle", (3,)),
        ("gamma_t_path", (1,)),
        ("gamma_t_cycle", (2,)),
    ]
    for fid, params in cases:
        with pytest.raises(ParameterError) as err:
            formula_value(fid, params)
        assert str(err.value).startswith(f"{fid}:"), (fid, params)


def tuples_up_to(length, cap):
    """Tuples of length positive integers whose product is at most cap."""
    if length == 0:
        yield ()
        return
    for first in range(1, cap + 1):
        for rest in tuples_up_to(length - 1, cap // first):
            yield (first, *rest)


# what each exactness claims of a formula's value against the solver's
VERDICTS = {"exact": int.__eq__, "conjectured": int.__eq__,
            "lower-bound": int.__le__, "upper-bound": int.__ge__}


@pytest.fixture(scope="module")
def formula_sweep():
    # every tuple the entry accepts (one to three parameters for a variadic
    # entry) whose instance has at most 32 vertices; no instance has fewer
    # vertices than its parameters' product, which bounds the loop. An exact or
    # conjectured value equals the solver's, a lower bound does not exceed it
    # and an upper bound does not fall below it. A lexicographic instance
    # lex(G, H), its factors read off the recorded product call, is also
    # solved by lex_grundy(G, grundy(H)). Returns the checks per entry, the
    # lex_grundy checks, the distinct instances and the disagreements.
    built, solved, checks, lex_checks, wrong = [], {}, Counter(), 0, []
    product_of = theory._product_of
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(theory, "_product_of",
                   lambda kind, *fs: built.append((kind, fs)) or product_of(kind, *fs))
        for fid, (_, fn, instance) in FORMULAS.items():
            params = inspect.signature(fn).parameters
            variadic = any(p.kind is p.VAR_POSITIONAL for p in params.values())
            for length in (1, 2, 3) if variadic else (len(params),):
                for ps in tuples_up_to(length, 32):
                    try:
                        claimed, exactness = formula_value(fid, ps)
                    except ParameterError:
                        continue
                    built.clear()
                    graph, mode = instance(*ps)
                    if graph.n > 32:
                        continue
                    if (graph, mode) not in solved:
                        solved[graph, mode] = grundy(graph, mode, witness=False).value
                    value = solved[graph, mode]
                    if not VERDICTS[exactness](claimed, value):
                        wrong.append((fid, ps, claimed, value))
                    checks[fid] += 1
                    if built and built[0][0] == "lexicographic":
                        G, H = built[0][1]
                        if lex_grundy(G, grundy(H, witness=False).value)[0] != value:
                            wrong.append((fid, ps, "lex_grundy", value))
                        lex_checks += 1
    return checks, lex_checks, len(solved), wrong


def test_formulas_agree_with_the_solver(formula_sweep):
    # the twelve entries on a product of two paths or cycles in closed mode
    checks, _, _, wrong = formula_sweep
    pinned = {
        "cor_strong_grid": 56, "cor_strong_cylinder": 41, "thm_cart_cylinder": 41,
        "cor_direct_PC": 32, "cor_direct_PP": 30, "prop_direct_PP_upper": 30, "thm_cart_grid": 30,
        "cor_direct_PP_even": 20, "conj_strong_torus": 15, "cor_strong_torus_upper": 15,
        "thm_cart_torus": 13, "cor_direct_CC": 7,
    }
    assert [w for w in wrong if w[0] in pinned] == []
    assert {fid: checks[fid] for fid in pinned} == pinned


def test_other_formulas_agree_with_the_solver(formula_sweep):
    # the other twelve: open mode, the odd torus, iterated and lexicographic
    # products; with the first test's entries they are the whole catalog
    checks, lex_checks, solved, wrong = formula_sweep
    pinned = {
        "cor_strong_multi_paths": 125, "cor_lex_path_H": 72, "prop_cart_multi_paths": 61,
        "cor_strong_multi_paths_cycle": 60, "cor_lex_cycle_H": 32, "gamma_t_path": 31,
        "gamma_t_cycle": 30, "cor_lex_path_path": 27, "cor_lex_path_cycle": 19,
        "prop_cart_multi_cycles": 16, "cor_lex_cycle_cycle": 12, "thm_cart_torus_odd": 2,
    }
    assert [w for w in wrong if w[0] in pinned] == []
    assert {fid: checks[fid] for fid in pinned} == pinned
    assert set(checks) == set(FORMULAS) and len(FORMULAS) == 24
    assert (sum(checks.values()), solved, lex_checks) == (817, 597, 162)


def test_formula_unknown_and_arity():
    with pytest.raises(ParameterError) as err:
        formula_value("thm_unheard_of", (3,))
    assert str(err.value) == (
        "unknown formula id 'thm_unheard_of' (grundydom formula -h lists the known ids)"
    )
    with pytest.raises(ParameterError):
        formula_value("thm_cart_grid", (3,))
    with pytest.raises(ParameterError):
        formula_value("thm_cart_grid", (3.0, 4))


# the parameters each fixed-arity entry's function takes, as its arity error quotes them
FIXED_ARITY = {
    "conj_strong_torus": "k l",
    "cor_direct_CC": "k l",
    "cor_direct_PC": "k l",
    "cor_direct_PP": "k l",
    "cor_direct_PP_even": "k l",
    "cor_lex_cycle_H": "k gamma_h",
    "cor_lex_cycle_cycle": "k l",
    "cor_lex_path_H": "k gamma_h",
    "cor_lex_path_cycle": "k l",
    "cor_lex_path_path": "k l",
    "cor_strong_cylinder": "k l",
    "cor_strong_grid": "k l",
    "cor_strong_torus_upper": "k l",
    "gamma_t_cycle": "l",
    "gamma_t_path": "k",
    "prop_direct_PP_upper": "k l",
    "thm_cart_cylinder": "k l",
    "thm_cart_grid": "k l",
    "thm_cart_torus": "k l",
    "thm_cart_torus_odd": "k",
}


def test_formula_arity_error_texts_are_pinned():
    variadic = {
        fid for fid, (_, fn, _) in FORMULAS.items()
        if any(p.kind is p.VAR_POSITIONAL for p in inspect.signature(fn).parameters.values())
    }
    assert set(FIXED_ARITY) == set(FORMULAS) - variadic
    assert variadic == {
        "cor_strong_multi_paths", "cor_strong_multi_paths_cycle",
        "prop_cart_multi_cycles", "prop_cart_multi_paths",
    }
    for fid, sig in FIXED_ARITY.items():
        count = len(sig.split())
        for got in (0, count - 1, count + 1):
            with pytest.raises(ParameterError) as err:
                formula_value(fid, (3,) * got)
            assert str(err.value) == (
                f"{fid}: expects {count} parameter(s) ({sig}), got {got}"
            )
    # the integer check comes before the count
    with pytest.raises(ParameterError) as err:
        formula_value("thm_cart_grid", (3.0,))
    assert str(err.value) == "parameters must be integers"


def test_formula_rejects_bool_params():
    for params in ((True, 4), (3, False), (4, 4, True)):
        with pytest.raises(ParameterError) as err:
            formula_value("prop_cart_multi_paths", params)
        assert str(err.value) == "parameters must be integers", params
    assert formula_value("prop_cart_multi_paths", (2, 2, 5)) == (16, "exact")


def test_exact_entries_match_solver():
    grid_cases = [(2, 2), (2, 3), (3, 3), (3, 4), (2, 5)]
    for k, l in grid_cases:
        assert formula_value("thm_cart_grid", (k, l))[0] == exact("cartesian", path(k), path(l))
        assert formula_value("cor_strong_grid", (k, l))[0] == exact("strong", path(k), path(l))
    for k, l in [(2, 3), (2, 4), (3, 3), (3, 4), (3, 5)]:
        assert formula_value("thm_cart_cylinder", (k, l))[0] == exact("cartesian", path(k), cycle(l))
        assert formula_value("cor_strong_cylinder", (k, l))[0] == exact("strong", path(k), cycle(l))
    for k, l in [(3, 4), (3, 5), (4, 4)]:
        assert formula_value("thm_cart_torus", (k, l))[0] == exact("cartesian", cycle(k), cycle(l))
    assert formula_value("thm_cart_torus_odd", (3,))[0] == exact("cartesian", cycle(3), cycle(3))
    assert formula_value("prop_cart_multi_paths", (2, 4))[0] == exact("cartesian", path(2), path(4))
    assert formula_value("cor_strong_multi_paths", (3, 4))[0] == exact("strong", path(3), path(4))
    assert formula_value("cor_strong_multi_paths_cycle", (3, 4))[0] == exact("strong", path(3), cycle(4))


def test_direct_entries_bracket_solver():
    for k in (2, 3, 4):
        for l in (4, 5):
            val = formula_value("cor_direct_PC", (k, l))[0]
            assert val <= exact("direct", path(k), cycle(l)), (k, l)
    assert formula_value("cor_direct_CC", (4, 4))[0] <= exact("direct", cycle(4), cycle(4))
    for k, l in [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (2, 5)]:
        g = exact("direct", path(k), path(l))
        assert formula_value("cor_direct_PP", (k, l))[0] <= g
        assert g <= formula_value("prop_direct_PP_upper", (k, l))[0]
        if k % 2 == 0:
            assert formula_value("cor_direct_PP_even", (k, l))[0] == g


def test_direct_cc_odd_k_bracket_solver():
    # odd k takes the first parity branch of cor_direct_CC
    for l, bound, value in ((5, 13, 16), (6, 17, 18), (7, 21, 24), (8, 25, 26)):
        assert formula_value("cor_direct_CC", (5, l)) == (bound, "lower-bound")
        assert exact("direct", cycle(5), cycle(l)) == value


def test_multi_cycles_consistent_with_torus():
    # two even factors: the multi-cycle product rule must agree with the torus value
    for k1, k2 in [(2, 4), (2, 5), (3, 5), (2, 6)]:
        a = formula_value("prop_cart_multi_cycles", (k1, k2))[0]
        b = formula_value("thm_cart_torus", (2 * k1, 2 * k2))[0]
        assert a == b


def test_gamma_t_entries_match_solver():
    for k in range(2, 9):
        assert formula_value("gamma_t_path", (k,))[0] == grundy(path(k), "open").value
    for l in range(3, 10):
        assert formula_value("gamma_t_cycle", (l,))[0] == grundy(cycle(l), "open").value


# === witness constructions ===


def assert_witness(kind, G, H, seq, value=None):
    desc = product(kind, G, H)
    rep = check_sequence(desc.graph, seq)
    assert rep.legal and rep.dominating
    if value is not None:
        assert rep.length == value


def test_complete_grid_witness():
    for n, m in [(3, 3), (3, 4), (4, 4), (5, 3)]:
        seq = construct_complete_grid_witness(n, m)
        assert len(seq) == n + m - 2
        assert_witness("cartesian", complete(n), complete(m), seq)
        assert len(seq) == exact("cartesian", complete(n), complete(m))
    assert construct_complete_grid_witness(3, 3) == [0, 3, 1, 2]
    with pytest.raises(ParameterError):
        construct_complete_grid_witness(2, 3)


def test_odd_torus_witness():
    frozen_k5 = [7, 12, 17, 22, 13, 18, 11, 16, 10, 14, 15, 19, 5, 6, 8, 9]
    assert construct_odd_torus_witness(5) == frozen_k5
    for k in (3, 5, 7):
        seq = construct_odd_torus_witness(k)
        assert len(seq) == k * (k - 2) + 1
        assert_witness("cartesian", cycle(k), cycle(k), seq)
    assert len(construct_odd_torus_witness(3)) == exact("cartesian", cycle(3), cycle(3))
    with pytest.raises(ParameterError):
        construct_odd_torus_witness(4)
    with pytest.raises(ParameterError):
        construct_odd_torus_witness(1)


def test_cartesian_witness_replication():
    seq = construct_product_witness("cartesian", path(3), path(2), [0, 1])
    assert len(seq) == 4
    assert_witness("cartesian", path(3), path(2), seq, value=4)
    seq = construct_product_witness("cartesian", cycle(4), path(3), [0, 1])
    assert_witness("cartesian", cycle(4), path(3), seq)


def test_cartesian_witness_rejects_self_footprint():
    # item 2 of (0, 2) on P3 footprints only itself; its layer copies collapse
    with pytest.raises(ParameterError) as err:
        construct_product_witness("cartesian", path(3), path(2), [0, 2])
    assert "position 3" in str(err.value)
    assert "factor item 2" in str(err.value)


def test_witness_input_validation():
    with pytest.raises(ParameterError) as err:
        construct_product_witness("cartesian", path(3), path(2), [1, 0])
    assert "covers nothing new" in str(err.value)
    with pytest.raises(ParameterError) as err:
        construct_product_witness("cartesian", path(3), path(2), [0])
    assert "does not dominate" in str(err.value)
    with pytest.raises(ParameterError):
        construct_product_witness("lexicographic", path(3), path(3), [0], [0, 2])
    with pytest.raises(ParameterError):
        construct_product_witness("strong", path(3), path(3), [0, 2], [1, 0])
    # (0, 1) is not a legal closed sequence of K2: the second item is redundant
    with pytest.raises(ParameterError):
        construct_product_witness("direct", complete(2), path(4), [0, 1], [0, 3, 1, 2])
    # the direct construction needs an open-mode legal H-sequence
    with pytest.raises(ParameterError):
        construct_product_witness("direct", path(3), cycle(4), [0, 2], [1, 3, 0, 2])
    with pytest.raises(ParameterError, match="unknown product kind"):
        construct_product_witness("moebius", path(3), path(3), [0, 2], [0, 2])


def test_lex_witness():
    # both items of (0, 2) are earlier-neighbor-free, so both expand fully
    seq = construct_product_witness("lexicographic", path(3), path(3), [0, 2], [0, 2])
    assert len(seq) == 4
    assert_witness("lexicographic", path(3), path(3), seq, value=4)
    # (0, 1) has a dependent second item contributing a single vertex
    seq = construct_product_witness("lexicographic", path(3), path(3), [0, 1], [0, 2])
    assert len(seq) == 3
    assert_witness("lexicographic", path(3), path(3), seq)


def test_direct_witness():
    seq = construct_product_witness("direct", path(3), path(4), [0, 2], [0, 3, 1, 2])
    assert len(seq) == 8  # two independent items, each a full 4-vertex layer
    assert_witness("direct", path(3), path(4), seq, value=8)
    assert len(seq) == exact("direct", path(3), path(4))
    # dependent items walk the total sequence instead
    seq = construct_product_witness("direct", path(4), cycle(4), [0, 1, 3], [0, 1])
    assert len(seq) == 2 * 4 + 1 * 2
    assert_witness("direct", path(4), cycle(4), seq)


def test_strong_witness():
    seq = construct_product_witness("strong", path(3), path(3), [0, 2], [0, 2])
    assert len(seq) == 4
    assert_witness("strong", path(3), path(3), seq, value=4)
    assert len(seq) == exact("strong", path(3), path(3))
    seq = construct_product_witness("strong", path(4), cycle(5), [0, 1, 3], [0, 1, 2])
    assert len(seq) == 9
    assert_witness("strong", path(4), cycle(5), seq)


def test_constructed_lengths_track_a_value():
    # lex and direct lengths depend on the a-split of the first factor sequence
    g, seq_g = path(5), [0, 1, 3]
    rep = check_sequence(g, seq_g)
    a, rest = rep.a_value, rep.length - rep.a_value
    lex_seq = construct_product_witness("lexicographic", g, path(3), seq_g, [0, 2])
    assert len(lex_seq) == a * 2 + rest
    direct_seq = construct_product_witness("direct", g, path(4), seq_g, [0, 3, 1, 2])
    assert len(direct_seq) == a * 4 + rest * 4


# factor pairs for the pinned builder outputs: U is disconnected, and the
# least witnesses of X (closed) and Y (closed and open) are not in vertex order
PIN_U = Graph(5, [(0, 1), (2, 3), (3, 4)], name="P2+P3")
PIN_X = Graph(4, [(0, 2), (1, 3), (2, 3)], name="X")
PIN_Y = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 3), (2, 4), (3, 4)], name="Y")


def test_builder_sequences_are_pinned():
    assert grundy(PIN_X).witness == [0, 2, 1]
    assert grundy(PIN_Y).witness == [1, 3, 0]
    assert grundy(PIN_Y, mode="open").witness == [1, 0, 2, 3]
    U, X, Y = PIN_U, PIN_X, PIN_Y
    cases = [
        (construct_product_witness("cartesian", U, X, [0, 2, 3]),
         [0, 1, 2, 3, 8, 9, 10, 11, 12, 13, 14, 15]),
        (construct_product_witness("cartesian", X, U, [3, 2]),
         [15, 16, 17, 18, 19, 10, 11, 12, 13, 14]),
        (construct_product_witness("cartesian", Y, path(2), [1, 3, 0]), [2, 3, 6, 7, 0, 1]),
        (construct_product_witness("lexicographic", U, X, [0, 2, 3], [0, 2, 1]),
         [0, 2, 1, 8, 10, 9, 12]),
        (construct_product_witness("lexicographic", Y, U, [1, 3, 0], [0, 2, 3]),
         [5, 7, 8, 15, 0]),
        (construct_product_witness("lexicographic", X, Y, [0, 2, 1], [1, 3, 0]),
         [1, 3, 0, 11, 6, 8, 5]),
        (construct_product_witness("direct", U, Y, [0, 2, 3], [1, 0, 2, 3]),
         [0, 1, 2, 3, 4, 10, 11, 12, 13, 14, 16, 15, 17, 18]),
        (construct_product_witness("direct", X, U, [0, 2, 1], [0, 1, 2, 3]),
         [0, 1, 2, 3, 4, 10, 11, 12, 13, 5, 6, 7, 8, 9]),
        (construct_product_witness("direct", Y, X, [1, 3, 0], [0, 1, 2, 3]),
         [4, 5, 6, 7, 12, 13, 14, 15, 0, 1, 2, 3]),
        (construct_product_witness("strong", U, X, [0, 2, 3], [0, 2, 1]),
         [0, 2, 1, 8, 10, 9, 12, 14, 13]),
        (construct_product_witness("strong", Y, U, [1, 3, 0], [0, 2, 3]),
         [5, 7, 8, 15, 17, 18, 0, 2, 3]),
    ]
    for got, want in cases:
        assert got == want
    # item 1 of (0, 2, 1) on X footprints only itself, so its copies collapse
    with pytest.raises(ParameterError) as err:
        construct_product_witness("cartesian", X, U, [0, 2, 1])
    assert str(err.value) == (
        "replicating seq_g over P2+P3 is illegal at position 11 (factor item 1,"
        " layer 1); choose a sequence whose items each footprint a vertex"
        " besides themselves"
    )


def test_witness_builders_refuse_products_over_the_cap():
    cap = "exceeds product cap 4096"
    assert len(construct_odd_torus_witness(63)) == 63 * 61 + 1  # 3969 vertices
    with pytest.raises(CapacityError, match="product order 4225 " + cap):
        construct_odd_torus_witness(65)
    assert len(construct_complete_grid_witness(64, 64)) == 126
    with pytest.raises(CapacityError, match="product order 4160 " + cap):
        construct_complete_grid_witness(64, 65)
    with pytest.raises(CapacityError, match="product order 9000000 " + cap):
        construct_complete_grid_witness(3_000_000, 3)
    s64, s65 = star(64), star(65)
    assert construct_product_witness("strong", s64, s64, [0], [0]) == [0]
    for kind in ("strong", "lexicographic"):
        with pytest.raises(CapacityError, match="product order 4225 " + cap):
            construct_product_witness(kind, s65, s65, [0], [0])
    with pytest.raises(CapacityError, match=cap):
        construct_product_witness("direct", s65, s65, [0], [0, 1])
    with pytest.raises(CapacityError, match=cap):
        construct_product_witness("cartesian", s65, s65, [0])
    # the factors are within the solver cap, so only the product is refused
    matching = Graph(66, [(2 * i, 2 * i + 1) for i in range(33)])
    with pytest.raises(CapacityError, match="product order 4356 " + cap):
        product_bounds("cartesian", matching, matching)


# === named bounds per product kind ===


def test_product_bounds_cartesian():
    rep = product_bounds("cartesian", complete(3), complete(3))
    assert rep.kind == "cartesian"
    assert dict(rep.lower)["cartesian_layer_replication"] == 3
    assert rep.upper == ()
    assert rep.best_lower == 3 and rep.best_upper is None
    assert exact("cartesian", complete(3), complete(3)) == 4  # bound is not tight here


def test_product_bounds_lexicographic():
    rep = product_bounds("lex", path(4), path(3))
    lower = dict(rep.lower)
    upper = dict(rep.upper)
    assert lower["lex_alpha_replication"] == max(independence_number(path(4)) * 2, 3)
    assert lower["lex_sequence_formula"] == 5
    assert upper["lex_sequence_formula"] == 5
    assert upper["lex_grundy_product"] == 6
    assert rep.best_lower == rep.best_upper == 5
    assert exact("lexicographic", path(4), path(3)) == 5


def test_product_bounds_direct():
    rep = product_bounds("direct", path(2), path(4))
    assert dict(rep.lower)["direct_layered_replication"] == 6
    assert rep.upper == ()
    assert exact("direct", path(2), path(4)) == 6
    # isolated vertices block both orientations: no bound applies
    rep = product_bounds("direct", complete(1), complete(1))
    assert rep.lower == () and rep.best_lower is None


def test_product_bounds_strong():
    rep = product_bounds("strong", path(3), path(3))
    assert dict(rep.lower)["strong_grundy_product"] == 4
    upper = dict(rep.upper)
    assert upper["strong_min_blowup"] == 6
    assert upper["strong_simplicial_peeling"] == 4
    assert rep.best_lower == rep.best_upper == 4


def test_product_bounds_check_caps_without_building_the_product(monkeypatch):
    # only the factors are solved, so oversize factors fail at the solver cap;
    # the cartesian kind refuses the product's order first, as construct does
    def refuse(kind, G, H):
        raise AssertionError(f"product {kind} built")

    monkeypatch.setattr(theory, "product", refuse)
    big = path(200)
    for kind in ("strong", "direct", "lexicographic"):
        with pytest.raises(CapacityError, match="solver cap"):
            product_bounds(kind, big, big)
    with pytest.raises(CapacityError, match="product order 40000 exceeds product cap 4096"):
        product_bounds("cartesian", big, big)
    # the cartesian bound is decided on the factors
    assert dict(product_bounds("cartesian", path(4), cycle(5)).lower) == {
        "cartesian_layer_replication": 15}
    with pytest.raises(ParameterError, match="unknown product kind"):
        product_bounds("moebius", path(3), path(3))
    with pytest.raises(ParameterError, match="nonempty"):
        product_bounds("strong", Graph(0), path(3))


def test_product_bounds_refuse_before_solving_the_first_factor(monkeypatch):
    # G has two 36-vertex components, within the solver cap but not the
    # weighted cap; the cartesian product of G and H is over the product cap
    torus = product("cartesian", cycle(6), cycle(6)).graph
    G = disjoint_union(disjoint_union(torus, torus), path(2))
    H = path(56)
    solved = []

    def counting(A, *args, **kwargs):
        solved.append(A)
        return grundy(A, *args, **kwargs)

    monkeypatch.setattr(theory, "grundy", counting)
    with pytest.raises(CapacityError, match="product order 4144 exceeds product cap 4096"):
        product_bounds("cartesian", G, H)
    # the direct kind would solve H in open mode, the lexicographic kind H,
    # before the weighted search of G refuses it
    for kind in ("direct", "lexicographic"):
        with pytest.raises(CapacityError, match="component order 36 exceeds weighted search cap 25"):
            product_bounds(kind, G, H)
    # the strong and cartesian kinds would solve the grid before H is refused
    for kind in ("strong", "cartesian"):
        with pytest.raises(CapacityError, match="component order 65 exceeds solver cap 64"):
            product_bounds(kind, product("cartesian", path(6), path(6)).graph, path(65))
    assert solved == []


def test_product_bounds_sandwich_exact_value():
    pairs = [(path(3), path(3)), (path(3), cycle(4)), (cycle(4), cycle(4)), (complete(3), path(3))]
    for kind in ("cartesian", "strong", "direct", "lexicographic"):
        for G, H in pairs:
            rep = product_bounds(kind, G, H)
            val = exact(kind, G, H)
            if rep.best_lower is not None:
                assert rep.best_lower <= val, (kind, G.name, H.name)
            if rep.best_upper is not None:
                assert val <= rep.best_upper, (kind, G.name, H.name)


def test_product_bounds_reports_are_pinned():
    # every report, entry names and order included, of the four kinds over
    # all ordered pairs of 14 small factors: the connected graphs of order at
    # most 4, two disconnected graphs, a caterpillar and the 20-vertex grid
    graphs = [G for n in range(1, 5) for G in enumerate_connected_graphs(n)]
    graphs += [
        disjoint_union(complete(2), disjoint_union(complete(1), complete(1))),
        disjoint_union(path(2), path(3)),
        caterpillar(4, [2, 1, 1, 2]),
        product("cartesian", path(4), path(5)).graph,
    ]
    reports = [product_bounds(kind, G, H)
               for kind in ("cartesian", "strong", "direct", "lexicographic")
               for G in graphs for H in graphs]
    digest = hashlib.sha256("\n".join(map(repr, reports)).encode()).hexdigest()
    assert digest == "9639f8eab5e04d1c67c589583d8089f40a58ac737b2ad8540550ab45234f80e7"


def test_builder_outputs_are_pinned():
    # every layered builder's output or refusal, over the 14 factors of the
    # pin above in the same order, from least witnesses of the factors
    graphs = [G for n in range(1, 5) for G in enumerate_connected_graphs(n)]
    graphs += [
        disjoint_union(complete(2), disjoint_union(complete(1), complete(1))),
        disjoint_union(path(2), path(3)),
        caterpillar(4, [2, 1, 1, 2]),
        product("cartesian", path(4), path(5)).graph,
    ]
    entries = []
    for kind in ("cartesian", "lexicographic", "direct", "strong"):
        for G in graphs:
            for H in graphs:
                if kind == "direct" and has_isolated_vertex(H):
                    continue
                seq_h = () if kind == "cartesian" else grundy(
                    H, mode="open" if kind == "direct" else "closed").witness
                try:
                    seq = construct_product_witness(kind, G, H, grundy(G).witness, seq_h)
                    entries.append(repr(seq))
                except (ParameterError, CapacityError) as e:
                    entries.append(repr(f"{type(e).__name__}: {e}"))
    assert len(entries) == 756
    assert sum("illegal at position" in e for e in entries) == 91
    digest = hashlib.sha256("\n".join(entries).encode()).hexdigest()
    assert digest == "e1abf210a0c1759dd7dfcef0a24daf7f26e8bcc543b790ed3110f5aa7fc34c70"


def test_layered_lower_bounds_are_attained_by_builder_sequences():
    # each layered lower bound product_bounds reports is the length of a
    # builder sequence, legal and dominating on the product it was built on
    graphs = [G for n in range(1, 5) for G in enumerate_connected_graphs(n)]
    graphs += [
        disjoint_union(complete(2), disjoint_union(complete(1), complete(1))),
        disjoint_union(path(2), path(3)),
        # 2K1, across which every walk is legal, and star(4) + K1, whose
        # maximum sequences each hold an item whose only footprint is itself
        disjoint_union(complete(1), complete(1)),
        disjoint_union(star(4), complete(1)),
    ]

    def certified(kind, A, B, seq_a, seq_b=()):
        seq = construct_product_witness(kind, A, B, seq_a, seq_b)
        rep = check_sequence(product(kind, A, B).graph, seq)
        assert rep.legal and rep.dominating
        return len(seq)

    def cartesian(A, B):
        try:
            return certified("cartesian", A, B, grundy(A).witness)
        except ParameterError:
            return None

    def direct(A, B):
        total = grundy(B, mode="open")
        seq_a = max_weighted_sequence(A, B.n, total.value)[1]
        return certified("direct", A, B, seq_a, total.witness)

    for G in graphs:
        for H in graphs:
            walks = [n for n in (cartesian(G, H), cartesian(H, G)) if n is not None]
            lower = dict(product_bounds("cartesian", G, H).lower)
            assert lower.get("cartesian_layer_replication") == max(walks, default=None)

            g_h = grundy(H, witness=False).value
            lower = dict(product_bounds("lexicographic", G, H).lower)
            assert lower["lex_sequence_formula"] == certified(
                "lexicographic", G, H, lex_grundy(G, g_h)[1], grundy(H).witness)

            walks = [direct(A, B) for A, B in ((G, H), (H, G)) if not has_isolated_vertex(B)]
            lower = dict(product_bounds("direct", G, H).lower)
            assert lower.get("direct_layered_replication") == max(walks, default=None)

            lower = dict(product_bounds("strong", G, H).lower)
            assert lower["strong_grundy_product"] == certified(
                "strong", G, H, grundy(G).witness, grundy(H).witness)


def test_strong_simplicial_upper():
    # no simplicial vertex in C5: falls back to the blow-up bound
    assert strong_simplicial_upper(cycle(5), path(2), 3, 1, exact_cap=1) == 5
    # peeling a path one leaf at a time lands on the product exactly
    assert strong_simplicial_upper(path(5), path(3), 4, 2, exact_cap=6) == 8
    for G in (path(4), caterpillar(3, [1, 0, 1]), star(4)):
        for H in (path(3), cycle(4)):
            g_g, g_h = grundy(G, witness=False).value, grundy(H, witness=False).value
            cap = strong_simplicial_upper(G, H, g_g, g_h, exact_cap=2 * H.n)
            assert cap == g_g * g_h
            assert exact("strong", G, H) <= cap


def test_peeling_without_product_value_solves_both_orientations():
    # the peeling bound of a product of at most PEEL_EXACT_CAP = 16 vertices
    # solves strong(G, H) or, swapped, strong(H, G), or returns grundy(H)
    # when G is K1; both must give the product's value. The scan solves such
    # a product once and skips the peeling bound.
    graphs = [g for n in range(1, 8) for g in enumerate_connected_graphs(n)]
    pairs = [(G, H) for G in graphs for H in graphs if G.n * H.n <= 16]
    value = {G.name: grundy(G, witness=False).value for G in graphs}
    peel = {(G.name, H.name): strong_simplicial_upper(G, H, value[G.name], value[H.name])
            for G, H in pairs}
    assert len(pairs) == 4128
    for G, H in pairs:
        want = exact("strong", G, H)
        assert peel[G.name, H.name] == peel[H.name, G.name] == want, (G.name, H.name)


def test_peeling_down_to_one_vertex_does_not_solve_again(monkeypatch):
    # the orientation (P2, P4xP5) peels a leaf of P2 and is left with
    # strong(K1, P4xP5), which is P4xP5, whose value the bound already has
    solved = []

    def counting(A, *args, **kwargs):
        solved.append(A.n)
        return grundy(A, *args, **kwargs)

    monkeypatch.setattr(theory, "grundy", counting)
    grid = product("cartesian", path(4), path(5)).graph
    rep = product_bounds("strong", grid, path(2))
    assert solved == [20, 2]
    assert rep.upper == (("strong_min_blowup", 20), ("strong_simplicial_peeling", 20))


def test_small_strong_product_is_solved_once(monkeypatch):
    # P3xP4 has 12 <= PEEL_EXACT_CAP vertices, so neither orientation peels
    # and both would solve the product itself
    solved = []

    def counting(A, *args, **kwargs):
        solved.append(A.n)
        return grundy(A, *args, **kwargs)

    monkeypatch.setattr(theory, "grundy", counting)
    rep = product_bounds("strong", path(3), path(4))
    assert solved == [3, 4, 12]
    assert rep.upper == (("strong_min_blowup", 8), ("strong_simplicial_peeling", 6))


# === conjecture scan ===


def test_conjecture_scan_equalities():
    pairs = [(path(3), path(3)), (cycle(4), path(2)), (cycle(5), cycle(4))]
    report = conjecture_scan(pairs)
    assert len(report.records) == 3
    assert report.counterexamples == []
    for rec in report.records:
        assert rec.status == "equality"
        assert rec.gamma_product == rec.lower == rec.gamma_g * rec.gamma_h
        assert rec.witness_product is None
        assert rec.nodes > 0 and rec.elapsed > 0
    # the per-pair time and node count do not take part in comparisons
    again = conjecture_scan(pairs)
    assert again == report
    assert [r.nodes for r in again.records] == [r.nodes for r in report.records]


def test_conjecture_scan_reports_a_counterexample(monkeypatch):
    # P3 x P3 solved on its cartesian product, the 3x3 grid (value 6), in
    # place of the strong product (value 4) is a counterexample to the
    # equality; a pair with a complete factor builds no product
    real = theory.product
    monkeypatch.setattr(theory, "product", lambda kind, G, H: real("cartesian", G, H))
    report = conjecture_scan([(path(3), path(3))])
    (rec,) = report.records
    assert report.counterexamples == [rec]
    assert (rec.status, rec.lower, rec.gamma_product, rec.upper) == ("counterexample", 4, 6, 6)
    assert (rec.witness_g, rec.witness_h, rec.witness_product) == (
        (0, 1), (0, 1), (0, 1, 2, 3, 4, 5))
    seq = check_sequence(real("cartesian", path(3), path(3)).graph, rec.witness_product)
    assert seq.legal and seq.dominating


def solve_first_record(G: Graph, H: Graph) -> theory.ScanRecord:
    """A scan record computed the old way: every product solved first, then
    checked against the blow-up and both peeling orientations."""
    g_g, g_h = grundy(G, witness=False).value, grundy(H, witness=False).value
    prod = product("strong", G, H).graph
    g_p = grundy(prod, witness=False).value
    lower = g_g * g_h
    blowup = min(G.n * g_h, g_g * H.n)
    upper = min(blowup, strong_simplicial_upper(G, H, g_g, g_h),
                strong_simplicial_upper(H, G, g_h, g_g))
    assert lower <= g_p <= upper
    if g_p == lower:
        return theory.ScanRecord(G.display_name, H.display_name, g_g, g_h, g_p, lower, upper,
                                 status="equality")
    return theory.ScanRecord(
        G.display_name, H.display_name, g_g, g_h, g_p, lower, upper, status="counterexample",
        witness_g=tuple(grundy(G).witness), witness_h=tuple(grundy(H).witness),
        witness_product=tuple(grundy(prod).witness),
    )


def test_conjecture_scan_upper_is_the_bound_without_product_value():
    # the scan's records, its upper bound among them, equal a solve-first
    # reference whose upper bound is the blow-up and both peeling
    # orientations computed without the product's value; the C4 pairs of
    # order 5 and the order-6 P3 pairs have over 16 vertices, so their
    # peeling bound deletes vertices and can settle the pair; a pair that no
    # bound settles and that has a complete factor is settled by that factor
    graphs = [g for n in range(1, 6) for g in enumerate_connected_graphs(n)]
    pairs = [(G, H) for H in (path(2), path(3), cycle(4)) for G in graphs]
    pairs += [(G, path(3)) for G in enumerate_connected_graphs(6)]
    records = conjecture_scan(pairs).records
    for (G, H), rec in zip(pairs, records):
        assert rec == solve_first_record(G, H), (G.name, H.name)
        if G.n * H.n > theory.PEEL_EXACT_CAP and rec.upper == rec.lower:
            assert rec.decided_by == "strong_simplicial_peeling"
        elif any(2 * A.m == A.n * (A.n - 1) for A in (G, H)):
            assert rec.decided_by == "complete_factor"
        else:
            assert rec.decided_by == "product"
    # 123 of the 133 pairs over 16 vertices by peeling, and 41 pairs, one of
    # them over 16 vertices, by a complete factor
    assert Counter(rec.decided_by for rec in records) == {
        "product": 41, "strong_simplicial_peeling": 123, "complete_factor": 41}


def test_conjecture_scan_settles_a_complete_factor_without_the_product(monkeypatch):
    # strong(G, K_k) is G with every vertex blown up into k true twins, so
    # its value is grundy(G) and neither the scan nor its peeling bound
    # builds a product; the records equal the solve-first reference, which
    # solves every product
    small = [g for n in range(1, 7) for g in enumerate_connected_graphs(n)]
    pairs = [(G, complete(k)) for G in small for k in (1, 2, 3)]
    pairs += [(H, G) for G, H in pairs]
    pairs += [(G, path(2)) for G in enumerate_connected_graphs(7)]
    real = theory.product

    def refuse(kind, A, B):
        raise AssertionError(f"built {A.name} x {B.name}")

    with monkeypatch.context() as patch:
        patch.setattr(theory, "product", refuse)
        records = conjecture_scan(pairs).records
    assert len(records) == 2 * 143 * 3 + 853
    for (G, H), rec in zip(pairs, records):
        assert rec == solve_first_record(G, H), (G.name, H.name)
    # the K3 pairs of order 6 have 18 vertices, and peeling settles most of them
    assert Counter(rec.decided_by for rec in records) == {
        "complete_factor": 1583, "strong_simplicial_peeling": 128}
    # a pair with no complete factor still builds and solves its product
    built = []

    def building(kind, A, B):
        built.append((A, B))
        return real(kind, A, B)

    monkeypatch.setattr(theory, "product", building)
    pairs = [(path(3), path(3)), (cycle(4), star(3))]
    records = conjecture_scan(pairs).records
    assert built == pairs and [rec.decided_by for rec in records] == ["product", "product"]


def test_conjecture_scan_settles_by_bounds_without_solving_the_product(monkeypatch):
    # P6xP3 has 18 vertices: peeling a leaf of P6 leaves P5xP3, whose value
    # 8 plus grundy(P3) = 2 meets the lower bound 5 * 2
    solved = []

    def counting(A, *args, **kwargs):
        solved.append(A.n)
        return grundy(A, *args, **kwargs)

    monkeypatch.setattr(theory, "grundy", counting)
    (rec,) = conjecture_scan([(path(6), path(3))]).records
    assert rec.decided_by == "strong_simplicial_peeling" and rec.status == "equality"
    assert rec.gamma_product == rec.lower == rec.upper == 10
    assert 18 not in solved
    assert rec.nodes == grundy(path(6)).stats.nodes + grundy(path(3)).stats.nodes
    # on K1 x P18 both bounds are grundy(P18); the blow-up bound is named first
    (rec,) = conjecture_scan([(complete(1), path(18))]).records
    assert rec.decided_by == "strong_min_blowup" and rec.status == "equality"
    # a peeled upper bound below the lower bound is a bound violation, raised
    # before the product is solved
    monkeypatch.setattr(theory, "strong_simplicial_upper", lambda *args, **kwargs: 9)
    solved.clear()
    with pytest.raises(InvariantError, match="upper bound 9 is below lower bound 10"):
        conjecture_scan([(path(6), path(3))])
    assert solved == [6, 3]


def test_conjecture_scan_skips():
    report = conjecture_scan([(path(3), path(3)), (cycle(5), path(13))])
    assert [r.status for r in report.records] == ["equality", "skipped"]
    assert "exceeds" in report.records[1].reason
    assert report.skipped[0].gamma_product is None
    report = conjecture_scan([(path(3), path(3))], time_budget=0.0)
    assert report.records[0].status == "skipped"
    assert "budget" in report.records[0].reason
    assert report.records[0].nodes == 0 and report.records[0].elapsed == 0.0
    for budget in (-1.0, float("nan")):
        with pytest.raises(ParameterError, match="^time budget must be nonnegative, got"):
            conjecture_scan([(path(3), path(3))], time_budget=budget)
    # a budget must be a number, and a bool is none
    for budget, shown in (("x", "'x'"), (True, "'True'"), ([1], "'[1]'")):
        with pytest.raises(ParameterError) as err:
            conjecture_scan([(path(3), path(3))], time_budget=budget)
        assert str(err.value) == f"time budget must be a number, got {shown}"


def test_conjecture_scan_skips_a_pair_over_the_search_budget(monkeypatch):
    # P3xP3's product stores 13 entries, C5xC5's 1,354
    monkeypatch.setattr(solver, "MAX_SEARCH_NODES", 100)
    report = conjecture_scan([(path(3), path(3)), (cycle(5), cycle(5))])
    assert [r.status for r in report.records] == ["equality", "skipped"]
    rec = report.records[1]
    assert "search cap 100" in rec.reason and rec.gamma_product is None


# === isoperimetric spot checks ===


def test_iso_even_torus_exhaustive():
    rep = isoperimetric_check("even-torus", [2, 2], 1)
    assert rep.ball_size == 5 and rep.ball_boundary == 6
    assert rep.checked == 4368 and rep.exhaustive
    assert rep.violations == 0 and rep.examples == ()


def test_iso_grid_exhaustive():
    rep = isoperimetric_check("grid", [3, 3], 1)
    assert rep.ball_size == 3 and rep.ball_boundary == 3
    assert rep.checked == 84 and rep.violations == 0
    rep = isoperimetric_check("grid", [3, 3], 2)
    assert rep.ball_size == 6 and rep.violations == 0


def test_iso_whole_graph_ball():
    # r large enough that the ball is everything: boundary 0, trivially minimal
    rep = isoperimetric_check("grid", [2, 2], 5)
    assert rep.ball_size == 4 and rep.ball_boundary == 0
    assert rep.checked == 1 and rep.violations == 0


def test_iso_reports_violations(monkeypatch):
    # four scattered vertices of the 4x4 grid, boundary 8, stand in for the
    # radius-1 ball; many 4-sets have a smaller boundary
    monkeypatch.setattr(theory, "ball", lambda G, v, r: 0b101000000000101)
    rep = isoperimetric_check("grid", [4, 4], 1)
    assert (rep.ball_size, rep.ball_boundary, rep.checked) == (4, 8, 1820)
    assert rep.violations == 846 and len(rep.examples) == 5
    grid = product("cartesian", path(4), path(4)).graph
    for mask in rep.examples:
        assert mask.bit_count() == 4 and boundary(grid, mask).bit_count() < 8


def test_iso_sampled():
    rep = isoperimetric_check("even-torus", [2, 3], 1, trials=40, seed=5)
    assert not rep.exhaustive and rep.checked == 40
    assert rep.violations == 0


def test_iso_guards():
    with pytest.raises(ParameterError):
        isoperimetric_check("moebius", [2, 2], 1)
    with pytest.raises(ParameterError):
        isoperimetric_check("grid", [], 1)
    with pytest.raises(ParameterError):
        isoperimetric_check("grid", [1, 3], 1)
    with pytest.raises(ParameterError):
        isoperimetric_check("grid", [3, 3], -1)
    with pytest.raises(CapacityError):
        isoperimetric_check("even-torus", [40, 40], 1)
    with pytest.raises(CapacityError):
        isoperimetric_check("even-torus", [3, 3], 2)  # C(36,13) subsets
    rep = isoperimetric_check("even-torus", [3, 3], 2, trials=10)
    assert rep.checked == 10
    with pytest.raises(CapacityError, match="10000001 trials exceed the subset guard"):
        isoperimetric_check("grid", [3, 3], 1, trials=theory.SUBSET_ENUM_LIMIT + 1)


def test_iso_checks_order_before_building(monkeypatch):
    # the order is read from the factors: 2f per torus factor, f per grid factor
    def refuse(*args):
        raise AssertionError(f"graph built from {args}")

    for name in ("product", "path", "cycle"):
        monkeypatch.setattr(theory, name, refuse)
    for kind, factors in (("grid", [150, 150]), ("grid", [5000]), ("even-torus", [33, 33])):
        with pytest.raises(CapacityError, match="exceeds product cap 4096"):
            isoperimetric_check(kind, factors, 1)
    monkeypatch.undo()
    rep = isoperimetric_check("even-torus", [32, 32], 0, trials=1)
    assert rep.ball_size == 1 and rep.ball_boundary == 4


@pytest.mark.parametrize("call, text", [
    (lambda: boundary_sufficient_bound(path(3), 1.5), "m must be an integer"),
    (lambda: boundary_sufficient_bound(path(3), True), "m must be an integer"),
    (lambda: boundary_sufficient_bound(path(3), 1, trials=2.5), "trials must be an integer"),
    (lambda: boundary_sufficient_bound(path(3), 1, trials=True), "trials must be an integer"),
    (lambda: isoperimetric_check("grid", [3, 3], 1.5), "r must be an integer"),
    (lambda: isoperimetric_check("grid", [3, 3], True), "r must be an integer"),
    (lambda: isoperimetric_check("grid", [3, 3], 1, trials=3.5), "trials must be an integer"),
    (lambda: isoperimetric_check("grid", [3, 3], 1, trials=True), "trials must be an integer"),
    (lambda: isoperimetric_check("grid", [3.0, 3], 1), "factors must be integers"),
    (lambda: ball(path(3), 0, 1.5), "radius must be an integer"),
    (lambda: ball(path(3), 0, True), "radius must be an integer"),
    (lambda: construct_odd_torus_witness(5.0), "k must be an integer"),
    (lambda: construct_complete_grid_witness(3.0, 3), "n and m must be integers"),
    (lambda: construct_complete_grid_witness(3, 3.0), "n and m must be integers"),
], ids=("m m-bool trials trials-bool r r-bool iso-trials iso-trials-bool factors"
        " radius radius-bool odd-torus-k grid-n grid-m").split())
def test_count_arguments_must_be_integers(call, text):
    # a float is no count, and True is not read as 1
    with pytest.raises(ParameterError, match=f"^{text}$"):
        call()
