"""Product construction checked against the raw adjacency definitions."""

from itertools import combinations

import pytest

from grundydom import products
from grundydom.errors import CapacityError, ParameterError
from grundydom.graphs import (
    Graph,
    complete,
    cycle,
    enumerate_connected_graphs,
    path,
    star,
)
from grundydom.products import KINDS, MAX_PRODUCT_ORDER, normalize_kind, product

FACTOR_PAIRS = [
    (path(2), path(2)),
    (path(3), cycle(4)),
    (cycle(3), complete(2)),
    (star(4), path(3)),
    (complete(3), complete(3)),
    (path(1), cycle(5)),
    (Graph(2), path(3)),  # edgeless factor
]


def definition_adjacent(kind, G, H, g1, h1, g2, h2):
    ge = G.has_edge(g1, g2) if g1 != g2 else False
    he = H.has_edge(h1, h2) if h1 != h2 else False
    if kind == "cartesian":
        return (ge and h1 == h2) or (g1 == g2 and he)
    if kind == "direct":
        return ge and he
    if kind == "strong":
        return (ge and h1 == h2) or (g1 == g2 and he) or (ge and he)
    if kind == "lexicographic":
        return ge or (g1 == g2 and he)
    raise AssertionError(kind)


def test_normalize_kind():
    assert normalize_kind("lex") == "lexicographic"
    assert normalize_kind("box") == "cartesian"
    assert normalize_kind("cart") == "cartesian"
    assert normalize_kind("strong") == "strong"
    with pytest.raises(ParameterError):
        normalize_kind("tensor-ish")


def test_products_match_definition():
    # the rows are built directly, so compare them with the product built
    # edge by edge from the definition, on every ordered pair of connected
    # graphs of order <= 4 as well as the listed pairs
    small = [g for n in range(1, 5) for g in enumerate_connected_graphs(n)]
    assert len(small) == 10
    for G, H in FACTOR_PAIRS + [(G, H) for G in small for H in small]:
        for kind in KINDS:
            P = product(kind, G, H)
            assert P.graph.n == G.n * H.n
            edges = []
            for u, v in combinations(range(P.graph.n), 2):
                (g1, h1), (g2, h2) = divmod(u, H.n), divmod(v, H.n)
                want = definition_adjacent(kind, G, H, g1, h1, g2, h2)
                assert P.graph.has_edge(u, v) == want, (kind, G.display_name, H.display_name)
                if want:
                    edges.append((u, v))
            assert P.graph.edges() == edges
            assert P.graph.adj == Graph(P.graph.n, edges).adj
            assert P.graph.name == f"{kind}({G.display_name},{H.display_name})"


def test_edge_count_identities():
    for G, H in FACTOR_PAIRS:
        nG, mG, nH, mH = G.n, G.m, H.n, H.m
        assert product("cartesian", G, H).graph.m == mG * nH + mH * nG
        assert product("direct", G, H).graph.m == 2 * mG * mH
        assert product("strong", G, H).graph.m == mG * nH + mH * nG + 2 * mG * mH
        assert product("lexicographic", G, H).graph.m == mG * nH * nH + nG * mH


def test_sandwich_subgraph_relations():
    # cartesian and direct partition the strong product's edges; strong sits
    # inside lexicographic on the same vertex ids
    for G, H in FACTOR_PAIRS:
        cart = set(map(tuple, product("cartesian", G, H).graph.edges()))
        direct = set(map(tuple, product("direct", G, H).graph.edges()))
        strong = set(map(tuple, product("strong", G, H).graph.edges()))
        lex = set(map(tuple, product("lexicographic", G, H).graph.edges()))
        assert cart | direct == strong
        assert not cart & direct
        assert strong <= lex


def test_commutativity_bijections():
    # swapping factors is an isomorphism for all kinds except lexicographic;
    # verify via the explicit coordinate-swap map
    for G, H in [(path(3), cycle(4)), (star(4), complete(3))]:
        for kind in ("cartesian", "direct", "strong"):
            P = product(kind, G, H)
            Q = product(kind, H, G)
            for u, v in P.graph.edges():
                gu, hu = divmod(u, H.n)
                gv, hv = divmod(v, H.n)
                assert Q.graph.has_edge(hu * G.n + gu, hv * G.n + gv)
            assert P.graph.m == Q.graph.m


def test_lex_is_not_commutative():
    a = product("lexicographic", path(3), complete(2)).graph
    b = product("lexicographic", complete(2), path(3)).graph
    assert a.m != b.m  # 11 vs 13


def test_cartesian_layers_induce_factors():
    # each H-layer of the cartesian product is a copy of H, each G-layer a copy of G
    G, H = path(3), cycle(4)
    P = product("cartesian", G, H)
    for g in range(G.n):
        for h1, h2 in combinations(range(H.n), 2):
            assert P.graph.has_edge(g * H.n + h1, g * H.n + h2) == H.has_edge(h1, h2)
    for h in range(H.n):
        for g1, g2 in combinations(range(G.n), 2):
            assert P.graph.has_edge(g1 * H.n + h, g2 * H.n + h) == G.has_edge(g1, g2)


def test_direct_layers_are_independent():
    # no edge of the direct product stays inside a single layer of either axis
    G, H = cycle(3), path(4)
    P = product("direct", G, H)
    for u, v in P.graph.edges():
        gu, hu = divmod(u, H.n)
        gv, hv = divmod(v, H.n)
        assert gu != gv and hu != hv


def test_product_guards():
    with pytest.raises(ParameterError):
        product("cartesian", Graph(0), path(2))
    with pytest.raises(ParameterError):
        product("nope", path(2), path(2))


def test_product_order_cap(monkeypatch):
    assert MAX_PRODUCT_ORDER == 4096
    assert product("strong", path(64), path(64)).graph.n == MAX_PRODUCT_ORDER

    def refuse(vertices):
        raise AssertionError("a product row was built")

    # one vertex over the cap is refused before any row is built
    monkeypatch.setattr(products, "mask_of", refuse)
    for kind in KINDS:
        with pytest.raises(CapacityError) as err:
            product(kind, path(17), path(241))
        assert str(err.value) == "product order 4097 exceeds product cap 4096"


def test_product_naming():
    P = product("lex", path(3), cycle(4))
    assert P.graph.name == "lexicographic(P3,C4)"
