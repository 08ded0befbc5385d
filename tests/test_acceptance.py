"""Acceptance gate: twelve end-to-end checks, one labeled pass/fail line each.

Every criterion prints "ACCEPTANCE NN <name>: PASS|FAIL" on the real stdout
(bypassing capture) and then asserts, so a red run still shows the full
scoreboard. Values are pinned exactly; no tolerances.
"""

import random
import sys
from itertools import combinations

from grundydom.graphs import (
    Graph,
    canonical_code,
    caterpillar,
    complete,
    cycle,
    enumerate_connected_graphs,
    has_isolated_vertex,
    path,
    star,
)
from grundydom.products import product
from grundydom.sequences import check_sequence
from grundydom.solver import grundy, grundy_bruteforce, lex_grundy
from grundydom.theory import (
    conjecture_scan,
    construct_odd_torus_witness,
    edge_clique_cover_number,
    formula_value,
    isoperimetric_check,
    product_bounds,
    strong_simplicial_upper,
)
from helpers import exact, is_triangle_free, random_connected_graph

FROZEN_TORUS_5 = [7, 12, 17, 22, 13, 18, 11, 16, 10, 14, 15, 19, 5, 6, 8, 9]


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


def test_acceptance_01_oracle_equivalence():
    checked = 0
    ok = True
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            for mode in ("closed", "open"):
                if mode == "open" and n == 1:
                    continue
                ok &= grundy(g, mode).value == grundy_bruteforce(g, mode).value
                checked += 1
    rng = random.Random(20260816)
    for _ in range(200):
        g = random_connected_graph(rng, rng.randrange(2, 10))
        for mode in ("closed", "open"):
            ok &= grundy(g, mode).value == grundy_bruteforce(g, mode).value
            checked += 1
    report(1, "oracle-equivalence", ok, f"{checked} solver-vs-oracle cases")
    assert ok


def test_acceptance_02_grid_values():
    cases = [(k, l) for k in range(2, 5) for l in range(k, 5)] + [(4, 5), (5, 5)]
    ok = all(exact("cartesian", path(k), path(l)) == k * (l - 1) for k, l in cases)
    report(2, "grid-values", ok, f"{len(cases)} grids")
    assert ok


def test_acceptance_03_cylinder_values():
    cases = [(k, l) for k in (2, 3) for l in (3, 4, 5)] + [(4, 4)]
    ok = all(
        exact("cartesian", path(k), cycle(l)) == max(l * (k - 1), k * (l - 2))
        for k, l in cases
    )
    report(3, "cylinder-values", ok, f"{len(cases)} cylinders")
    assert ok


def test_acceptance_04_torus_values():
    pinned = {(3, 3): 4, (3, 4): 6, (3, 5): 9, (4, 4): 8, (4, 5): 12, (5, 5): 16}
    ok = all(exact("cartesian", cycle(k), cycle(l)) == v for (k, l), v in pinned.items())
    report(4, "torus-values", ok, f"{len(pinned)} tori")
    assert ok


def test_acceptance_05_odd_torus_witness():
    ok = construct_odd_torus_witness(5) == FROZEN_TORUS_5
    for k in (3, 5, 7, 9, 11):
        seq = construct_odd_torus_witness(k)
        rep = check_sequence(product("cartesian", cycle(k), cycle(k)).graph, seq)
        ok &= rep.legal and rep.dominating and rep.length == k * (k - 2) + 1
    report(5, "odd-torus-witness", ok, "k in {3,5,7,9,11}, k=5 labeling pinned")
    assert ok


def test_acceptance_06_lex_exactness():
    ok = True
    checked = 0
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            for h in (path(3), path(4), cycle(4)):
                gamma_h = grundy(h, witness=False).value
                ok &= lex_grundy(g, gamma_h)[0] == exact("lexicographic", g, h)
                checked += 1
    for k in (3, 4, 5):
        for l in (3, 4, 5):
            val = formula_value("cor_lex_path_path", (k, l))[0]
            ok &= val == exact("lexicographic", path(k), path(l))
            checked += 1
        for l in (4, 5):
            val = formula_value("cor_lex_path_cycle", (k, l))[0]
            ok &= val == exact("lexicographic", path(k), cycle(l))
            checked += 1
    for k in (4, 5):
        for l in (4, 5):
            val = formula_value("cor_lex_cycle_cycle", (k, l))[0]
            ok &= val == exact("lexicographic", cycle(k), cycle(l))
            checked += 1
    report(6, "lex-exactness", ok, f"{checked} products")
    assert ok


def test_acceptance_07_direct_product_values():
    ok = True
    for k, l in [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (4, 4), (4, 5)]:
        ok &= exact("direct", path(k), path(l)) == k * l - k
    lower_cases = [
        ("cor_direct_PC", (3, 4), exact("direct", path(3), cycle(4))),
        ("cor_direct_PP", (3, 5), exact("direct", path(3), path(5))),
        ("cor_direct_CC", (4, 4), exact("direct", cycle(4), cycle(4))),
    ]
    for fid, params, exact_val in lower_cases:
        ok &= formula_value(fid, params)[0] <= exact_val
    report(7, "direct-product-values", ok, "7 even-k exact + 3 lower bounds")
    assert ok


def test_acceptance_08_strong_product_scan():
    ok = True
    for k in range(2, 5):
        for l in range(k, 5):
            ok &= exact("strong", path(k), path(l)) == (k - 1) * (l - 1)
    for k in (2, 3):
        for l in (3, 4, 5):
            ok &= exact("strong", path(k), cycle(l)) == (k - 1) * (l - 2)
    pairs = [
        (g, h)
        for n in range(1, 6)
        for g in enumerate_connected_graphs(n)
        for h in (path(2), path(3), cycle(3), cycle(4))
    ]
    # completion implies every per-pair bound sandwich held; equality is
    # reported, not asserted: the underlying question is open
    scan = conjecture_scan(pairs)
    ok &= len(scan.records) == len(pairs) and not scan.skipped
    cex = len(scan.counterexamples)
    report(
        8,
        "strong-product-scan",
        ok,
        f"{len(pairs)} pairs scanned, counterexamples={cex}",
    )
    assert ok


def test_acceptance_09_edge_clique_cover():
    ok = True
    checked = 0
    # connected graphs per order, OEIS A001349
    classes = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
    for n in range(2, 9):
        graphs = list(enumerate_connected_graphs(n))
        ok &= len(graphs) == classes[n]
        for g in graphs:
            ok &= grundy(g, witness=False).value <= edge_clique_cover_number(g)
            checked += 1
    # strong products of triangle-free factors need one clique per edge pair
    small = []
    for n in range(2, 5):
        pairs = list(combinations(range(n), 2))
        seen = set()
        for bits in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            if is_triangle_free(g) and not has_isolated_vertex(g):
                code = canonical_code(g)
                if code not in seen:
                    seen.add(code)
                    small.append(g)
    for g in small:
        for h in small:
            prod = product("strong", g, h).graph
            ok &= edge_clique_cover_number(prod) == g.m * h.m
            checked += 1
    report(9, "edge-clique-cover", ok, f"{checked} graphs and products")
    assert ok


def all_caterpillars_up_to(order: int):
    seen = set()
    out = []
    for spine in range(1, order + 1):
        budget = order - spine

        def fill(i, left, legs):
            if i == spine:
                g = caterpillar(spine, legs)
                code = canonical_code(g)
                if code not in seen:
                    seen.add(code)
                    out.append(g)
                return
            for c in range(left + 1):
                fill(i + 1, left - c, legs + [c])

        fill(0, budget, [])
    return out


def test_acceptance_10_bound_sandwich():
    ok = True
    suite = [
        (path(3), path(3)),
        (path(4), cycle(4)),
        (cycle(4), cycle(4)),
        (complete(3), path(3)),
        (star(4), path(3)),
        (path(2), path(4)),
        (cycle(5), cycle(4)),
        (caterpillar(2, [1, 1]), path(3)),
    ]
    checked = 0
    for kind in ("cartesian", "strong", "direct", "lexicographic"):
        for g, h in suite:
            rep = product_bounds(kind, g, h)
            val = exact(kind, g, h)
            if rep.best_lower is not None:
                ok &= rep.best_lower <= val
            if rep.best_upper is not None:
                ok &= val <= rep.best_upper
            checked += 1
    cats = [g for g in all_caterpillars_up_to(6) if g.n <= 6]
    for g in cats:
        gamma_g = grundy(g, witness=False).value
        for h in (path(3), cycle(4)):
            gamma_h = grundy(h, witness=False).value
            peel = strong_simplicial_upper(g, h, gamma_g, gamma_h, exact_cap=2 * h.n)
            exact_val = exact("strong", g, h)
            ok &= peel == gamma_g * gamma_h == exact_val
            checked += 1
    report(
        10,
        "bound-sandwich",
        ok,
        f"{checked} instances incl. {len(cats)} caterpillar shapes",
    )
    assert ok


def test_acceptance_11_clique_substitution():
    from helpers import substitute_clique

    rng = random.Random(11)
    ok = True
    for _ in range(10):
        g = random_connected_graph(rng, rng.randrange(2, 7))
        v = rng.randrange(g.n)
        size = rng.choice((2, 3))
        g2 = substitute_clique(g, v, size)
        ok &= grundy(g2, witness=False).value == grundy(g, witness=False).value
        ok &= exact("strong", g2, path(3)) == exact("strong", g, path(3))
    report(11, "clique-substitution", ok, "10 seeded graphs, sizes 2-3")
    assert ok


def test_acceptance_12_isoperimetric():
    ok = True
    for r in (1, 2):
        rep = isoperimetric_check("even-torus", [2, 2], r)
        ok &= rep.exhaustive and rep.violations == 0
        rep = isoperimetric_check("grid", [3, 3], r)
        ok &= rep.exhaustive and rep.violations == 0
    report(12, "isoperimetric", ok, "C4xC4 and P3xP3 balls, r in {1,2}")
    assert ok
