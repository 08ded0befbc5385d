"""Graph builders, predicates and solves that only the tests use.

The package has no caller for them, so they live here rather than in
`grundydom`; the tests that build unions, substitute cliques, draw seeded
random graphs, solve products, cover 0/1 matrices by rectangles or check
triangle-freeness and connectivity import them from this module.
"""

import random
from itertools import combinations

from grundydom.errors import ParameterError
from grundydom.graphs import Graph, bit_indices, connected_components
from grundydom.products import product
from grundydom.solver import grundy
from grundydom.theory import _min_set_cover


def is_connected(G: Graph) -> bool:
    return G.n <= 1 or len(connected_components(G)) == 1


def is_triangle_free(G: Graph) -> bool:
    return all(not (G.adj[u] & G.adj[v]) for u, v in G.edges())


def substitute_clique(G: Graph, v: int, size: int) -> Graph:
    """Replace v by a clique of `size` mutually adjacent true twins of v.

    Original ids are preserved, v becomes one clique member, and the other
    size-1 vertices are appended after the old range. size=1 returns a copy.
    """
    if not 0 <= v < G.n:
        raise ParameterError(f"vertex {v} out of range")
    if size < 1:
        raise ParameterError("clique size must be at least 1")
    edges = G.edges()
    clones = list(range(G.n, G.n + size - 1))
    nb = bit_indices(G.adj[v])
    for c in clones:
        edges.extend((c, u) for u in nb)
        edges.append((c, v))
    edges.extend((a, b) for i, a in enumerate(clones) for b in clones[i + 1:])
    return Graph(G.n + size - 1, edges, name=G.name)


def disjoint_union(G: Graph, H: Graph) -> Graph:
    """G and H side by side; H's ids are shifted up by G.n."""
    edges = G.edges() + [(u + G.n, v + G.n) for u, v in H.edges()]
    return Graph(G.n + H.n, edges, name=f"{G.display_name}+{H.display_name}")


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """Random spanning tree plus extra edges; connected, no isolated vertices."""
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    for u, v in combinations(range(n), 2):
        if rng.random() < 0.3:
            edges.add((u, v))
    return Graph(n, sorted(edges))


def exact(kind: str, G: Graph, H: Graph) -> int:
    """grundy of the kind product of G and H, solved without a witness."""
    return grundy(product(kind, G, H).graph, witness=False).value


def rectangle_cover_number(rows: list[int]) -> int:
    """Fewest all-ones rectangles that cover the ones of the square 0/1 matrix
    whose row i is the bit mask rows[i]; exact, for a few rows.

    The closures of all row subsets give every maximal rectangle, and each
    one of the matrix is one set-cover item.
    """
    ones = [(r, c) for r, row in enumerate(rows) for c in bit_indices(row)]
    item = {one: i for i, one in enumerate(ones)}
    rectangles = set()
    for subset in range(1, 1 << len(rows)):
        cols = -1
        for r in bit_indices(subset):
            cols &= rows[r]
        if cols:
            members = [r for r, row in enumerate(rows) if row & cols == cols]
            rectangles.add(sum(1 << item[r, c] for r in members for c in bit_indices(cols)))
    return _min_set_cover(len(ones), list(rectangles))
