"""Simple undirected graphs on dense 0-based vertex ids with bit-mask adjacency.

Vertex subsets are plain Python ints used as bit sets (bit v set means vertex v
is in the set), so they compose with &, |, ~ and int.bit_count(). Standard
families, boundary/ball queries, and an isomorphism-free enumerator for
small connected graphs live here.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import ParameterError, ParseError

# Enumeration by isomorphism class is exponential; this cap keeps it honest.
ENUM_MAX_VERTICES = 8


def bit_indices(mask: int) -> list[int]:
    """Indices of the set bits of a vertex-set mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def is_int(x) -> bool:
    # bool is a subclass of int, but True and False are no vertex id or count
    return isinstance(x, int) and not isinstance(x, bool)


def add_edge(rows: list[int], u: int, v: int, line: int | None = None) -> None:
    """Join u and v in adjacency rows under construction, refusing an edge a
    simple graph on len(rows) vertices cannot have; line numbers the error."""
    n = len(rows)
    if not (is_int(u) and is_int(v) and 0 <= u < n and 0 <= v < n):
        raise ParseError(f"edge {u} {v} out of range for {n} vertices", line)
    if u == v:
        raise ParseError(f"loop edge at vertex {u}", line)
    if rows[u] >> v & 1:
        raise ParseError(f"duplicate edge {u} {v}", line)
    rows[u] |= 1 << v
    rows[v] |= 1 << u


class Graph:
    """Immutable simple graph; adj[v] is the open-neighborhood bit mask of v."""

    __slots__ = ("n", "adj", "name")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (), name: str | None = None):
        if not is_int(n) or n < 0:
            raise ParameterError("vertex count must be a nonnegative integer")
        rows = [0] * n
        for u, v in edges:
            add_edge(rows, u, v)
        self.n = n
        self.adj = tuple(rows)
        self.name = name

    @classmethod
    def _from_rows(cls, rows: Iterable[int], name: str | None = None) -> Graph:
        """Graph whose adjacency rows the caller has built symmetric, loop-free
        and within range; unlike the edge constructor it checks nothing."""
        G = object.__new__(cls)
        G.adj = tuple(rows)
        G.n = len(G.adj)
        G.name = name
        return G

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def display_name(self) -> str:
        return self.name if self.name else f"G{self.n}v{self.m}e"

    def degree(self, v: int) -> int:
        _check_vertex(self, v)
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        _check_vertex(self, u)
        _check_vertex(self, v)
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            while row:
                low = row & -row
                out.append((u, low.bit_length() - 1))
                row ^= low
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph({self.display_name}: n={self.n}, m={self.m})"


def _check_order(k: int, least: int, family: str) -> None:
    if not is_int(k) or k < least:
        raise ParameterError(f"{family} order must be at least {least}")


def path(k: int) -> Graph:
    _check_order(k, 1, "path")
    return Graph(k, [(i, i + 1) for i in range(k - 1)], name=f"P{k}")


def cycle(k: int) -> Graph:
    _check_order(k, 3, "cycle")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)], name=f"C{k}")


def complete(k: int) -> Graph:
    _check_order(k, 1, "complete graph")
    return Graph._from_rows((((1 << k) - 1) ^ (1 << v) for v in range(k)), name=f"K{k}")


def star(k: int) -> Graph:
    """Star on k vertices: center 0 joined to leaves 1..k-1."""
    _check_order(k, 1, "star")
    return Graph(k, [(0, i) for i in range(1, k)], name=f"S{k}")


def caterpillar(spine: int, legs: Iterable[int]) -> Graph:
    """Path of `spine` vertices with legs[i] pendant leaves on spine vertex i.

    Vertex layout: spine 0..spine-1 first, then leaves grouped by spine vertex.
    """
    legs = list(legs)
    if not is_int(spine) or spine < 1:
        raise ParameterError("caterpillar spine must have at least 1 vertex")
    if len(legs) != spine:
        raise ParameterError(f"caterpillar expects {spine} leg counts, got {len(legs)}")
    if not all(is_int(x) and x >= 0 for x in legs):
        raise ParameterError("leg counts must be nonnegative")
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for i, cnt in enumerate(legs):
        for _ in range(cnt):
            edges.append((i, nxt))
            nxt += 1
    name = f"cat({spine};{','.join(map(str, legs))})"
    return Graph(nxt, edges, name=name)


_ONE_PARAMETER_FAMILIES = {"path": path, "cycle": cycle, "complete": complete, "star": star}


def make_graph(family: str, params: Sequence[int]) -> Graph:
    """Build a graph of a named family; `custom` takes (n, u1, v1, u2, v2, ...)."""
    if family in _ONE_PARAMETER_FAMILIES:
        if len(params) != 1:
            raise ParameterError(f"family '{family}' expects 1 parameter(s), got {len(params)}")
        return _ONE_PARAMETER_FAMILIES[family](params[0])
    if family == "caterpillar":
        if len(params) < 1:
            raise ParameterError("caterpillar needs a spine length")
        return caterpillar(params[0], params[1:])
    if family == "custom":
        if len(params) < 1 or len(params) % 2 == 0:
            raise ParameterError("custom needs an order followed by edge pairs")
        n = params[0]
        pairs = list(zip(params[1::2], params[2::2]))
        return Graph(n, pairs, name=f"custom{n}")
    raise ParameterError(f"unknown family '{family}'")


# === neighborhood-style queries ===


def _neighbors(adj: tuple[int, ...], mask: int) -> int:
    """Union of the rows adj[v] over the vertices v of mask."""
    nb = 0
    while mask:
        low = mask & -mask
        nb |= adj[low.bit_length() - 1]
        mask ^= low
    return nb


def boundary(G: Graph, S: int) -> int:
    """Vertices outside S with at least one neighbor inside S."""
    if S & ~G.full_mask:
        raise ParameterError("vertex set out of range")
    return _neighbors(G.adj, S) & ~S


def _check_vertex(G: Graph, v: int) -> None:
    if not (is_int(v) and 0 <= v < G.n):
        raise ParameterError(f"vertex {v} out of range")


def ball(G: Graph, v: int, r: int) -> int:
    """All vertices within distance r of v."""
    _check_vertex(G, v)
    if not is_int(r):
        raise ParameterError("radius must be an integer")
    if r < 0:
        raise ParameterError("radius must be nonnegative")
    seen = frontier = 1 << v
    for _ in range(r):
        frontier = _neighbors(G.adj, frontier) & ~seen
        if not frontier:
            break
        seen |= frontier
    return seen


def connected_components(G: Graph) -> list[int]:
    """Vertex-set masks of the connected components, ordered by least vertex."""
    out = []
    remaining = (1 << G.n) - 1
    while remaining:
        comp = frontier = remaining & -remaining
        while frontier and comp != remaining:
            frontier = _neighbors(G.adj, frontier) & ~comp
            comp |= frontier
        out.append(comp)
        remaining &= ~comp
    return out


def has_isolated_vertex(G: Graph) -> bool:
    return any(row == 0 for row in G.adj)


def mode_rows(G: Graph, mode: str) -> list[int]:
    """Closed or open neighborhood of every vertex, as the rows a sequence covers.

    Open mode needs a graph with no isolated vertices: an isolated vertex can
    never be covered, so no total dominating sequence exists.
    """
    if mode == "closed":
        return [row | 1 << v for v, row in enumerate(G.adj)]
    if mode == "open":
        if has_isolated_vertex(G):
            raise ParameterError("open mode requires a graph with no isolated vertices")
        return list(G.adj)
    raise ParameterError(f"unknown mode '{mode}'")


def component_graphs(G: Graph, comps: list[int]) -> Iterator[tuple[list[int], Graph]]:
    """Each component's vertices verts and its graph, in which verts[i] is
    vertex i. A component that is all of G yields G itself, whose rows are
    already those, so a connected graph is never copied."""
    for comp in comps:
        verts = bit_indices(comp)
        if len(verts) == G.n:
            yield verts, G
            continue
        bit = {v: 1 << i for i, v in enumerate(verts)}
        # a component's rows stay inside it
        yield verts, Graph._from_rows(sum(bit[w] for w in bit_indices(G.adj[v])) for v in verts)


def maximal_cliques(G: Graph) -> list[int]:
    """All maximal cliques as vertex masks (Bron-Kerbosch with pivoting)."""
    adj = G.adj
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if not p:
            if not x:
                out.append(r)
            return
        # pivot on the first vertex of p | x with the most neighbours in p
        most, pivot_row = -1, 0
        m = p | x
        while m:
            low = m & -m
            m ^= low
            row = adj[low.bit_length() - 1]
            d = (row & p).bit_count()
            if d > most:
                most, pivot_row = d, row
        cand = p & ~pivot_row
        while cand:
            low = cand & -cand
            cand ^= low
            row = adj[low.bit_length() - 1]
            expand(r | low, p & row, x & row)
            p ^= low
            x |= low

    if G.n:
        expand(0, G.full_mask, 0)
    # expand refers to itself through its closure; break that cycle so that
    # its frame is freed now, not at the next cyclic garbage collection
    del expand
    return out


def independence_number(G: Graph) -> int:
    """Exact maximum independent set size: the sum over connected components
    of the largest maximal clique of each one's complement (the complement
    of a disconnected graph joins those, and its maximal cliques multiply)."""
    total = 0
    for _, sub in component_graphs(G, connected_components(G)):
        full = sub.full_mask
        co = Graph._from_rows(full ^ row ^ 1 << v for v, row in enumerate(sub.adj))
        total += max(map(int.bit_count, maximal_cliques(co)))
    return total


def is_simplicial(G: Graph, v: int) -> bool:
    """True when N(v) induces a clique (leaves and isolated vertices count)."""
    _check_vertex(G, v)
    nb = G.adj[v]
    m = nb
    while m:
        low = m & -m
        u = low.bit_length() - 1
        m ^= low
        if nb & ~G.adj[u] & ~low:
            return False
    return True


def delete_vertex(G: Graph, v: int) -> Graph:
    """Remove v; vertices above v shift down by one."""
    _check_vertex(G, v)
    below = (1 << v) - 1
    return Graph._from_rows(
        row & below | row >> 1 & ~below for u, row in enumerate(G.adj) if u != v
    )


# === canonical codes and isomorphism-free enumeration ===
#
# The canonical code of a graph is the minimum upper-triangle adjacency
# encoding over a restricted set of relabelings: vertices are first colored by
# iterated neighbor-color refinement, and only color-respecting labelings are
# explored, individualizing one vertex of the first non-singleton class at a
# time. Refinement colors are isomorphism-invariant, so the minimum agrees
# with the minimum over all permutations.
#
# A refinement round ranks the vertices by colour and then by the sorted
# colours of their neighbours; refinement stops at the first round that
# splits no cell, where the colouring is equitable. _refine gets the same
# colours with less work. A colouring is a list of cells, a colour its
# index, and a vertex's new colour is its cell's running offset plus the
# rank of its key inside the cell, so a singleton cell needs no key. The key
# counts neighbours only in the parts of the cells that split in the round
# before, leaving out each such cell's last part; larger counts rank first.
# This is exact. The first round at the root ranks by degree, so later
# every cell has one degree, and between sorted neighbour-colour lists of
# equal length, lexicographic order is the order of the per-colour counts,
# colour by colour, larger count first. The vertices of a cell had equal
# neighbour colours in the round that made it, so equal counts into each
# cell of the colouring before it: into each cell that did not split, and
# into the whole of each cell that did, which fixes the count into its last
# part. Individualizing v splits v's cell of an equitable colouring into
# {v}, which takes the least colour, and the rest, so the first key is
# adjacency to v.
#
# Two leaves with equal codes differ by an automorphism, which the search
# records. At a node reached by individualizing the prefix p, a vertex of the
# target cell is skipped when the recorded automorphisms that fix p pointwise
# map it onto a vertex already branched on: refinement and the target-cell
# choice are label-equivariant, so such an automorphism maps one subtree onto
# the other with equal leaf codes, and the minimum is unchanged.
#
# A leaf with the best code also backjumps when it lies at the best leaf's
# depth k. An individualized vertex takes the least colour and refinement
# keeps the order of colours, so at a leaf of depth k the vertex
# individualized at depth i (from 0) ends with colour k-1-i. The recorded
# automorphism g, which maps each vertex of this leaf to the best leaf's
# vertex of its colour, therefore maps this leaf's path onto the best
# leaf's path: it fixes their common prefix p pointwise, and maps the
# subtree below this leaf's vertex at depth |p| onto the one below the best
# leaf's, which the search has finished. So the rest of that subtree is
# left, and the search resumes at depth |p| with the next vertex of the
# target cell there.
#
# The recorded automorphisms generate the whole automorphism group, so
# vertex_orbits reads the orbits off them. An automorphism maps the best
# leaf onto a leaf with the best code, and only the identity maps a leaf
# onto itself, so it is enough that every such leaf is the image of the
# best leaf under a product of recorded automorphisms. If the search
# reached the leaf, it recorded one automorphism that maps the leaf onto
# the best leaf. Otherwise the leaf lies below a vertex skipped by the
# orbit rule or in a subtree left by a backjump, and recorded automorphisms
# map that subtree onto one the search entered before, so the leaf is the
# image of a leaf earlier in the tree; induction on that order ends the
# argument (McKay and Piperno, "Practical graph isomorphism, II", J. Symb.
# Comput. 60, 2014).
#
# Enumeration follows McKay's canonical construction path ("Isomorph-free
# exhaustive generation", J. Algorithms 26, 1998). Each class of order n-1,
# in its canonical labels, grows by a new vertex v attached to a nonempty
# set A. Sets A and g(A) for an automorphism g of the parent give
# isomorphic children, so one set per orbit is tried. A child is kept only
# when v lies in the automorphism orbit of its deletion vertex: the non-cut
# vertex of least degree, then of least sorted list of neighbor degrees,
# then of greatest canonical label. That choice is isomorphism-invariant up
# to automorphisms, so every class is kept once: from the canonical form of
# the class without its deletion vertex, which is connected, and from the
# one attachment orbit that rebuilds the class. Degrees and neighbor
# degrees reject most children before any labelling, and a child whose v
# has no tie left is kept without an orbit test, so orders up to 7 label
# 1,028 of 4,159 children and order 8 labels 11,830 of 67,141. A kept
# class carries the automorphisms its search recorded, relabelled into its
# canonical labels, so no parent is searched again.


def _pair_bit(n: int, i: int, j: int) -> int:
    # position of pair (i, j), i < j, in lexicographic order
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def _refine(adj: tuple[int, ...], cells: list[list[int]], split: list[int] | None
            ) -> tuple[list[list[int]], int | None]:
    """Refine the list of cells until a round splits none (see the comment
    above); return it and its target, the first cell of two or more vertices,
    or None. split holds the masks of the parts that keys count neighbours
    in, None at the root. Each cell stays in ascending vertex order."""
    if split is None:
        by_degree: dict[int, list[int]] = {}
        for v in cells[0]:
            by_degree.setdefault(adj[v].bit_count(), []).append(v)
        cells = [by_degree[d] for d in sorted(by_degree)]
        split = [mask_of(cell) for cell in cells[:-1]]
    width = len(adj).bit_length()
    while split:
        out = []
        parts = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            groups: dict[int, list[int]] = {}
            for v in cell:
                # the counts, width bits apiece: keys compare as count tuples
                row = adj[v]
                key = 0
                for part in split:
                    key = key << width | (row & part).bit_count()
                if key in groups:
                    groups[key].append(v)
                else:
                    groups[key] = [v]
            if len(groups) == 1:
                out.append(cell)
                continue
            keys = sorted(groups, reverse=True)
            for key in keys[:-1]:
                out.append(groups[key])
                parts.append(mask_of(groups[key]))
            out.append(groups[keys[-1]])
        cells, split = out, parts
    for c, cell in enumerate(cells):
        if len(cell) > 1:
            return cells, c
    return cells, None


def _find(rep: list[int], x: int) -> int:
    """Root of x in the union-find forest rep, halving the path on the way."""
    while rep[x] != x:
        rep[x] = rep[rep[x]]
        x = rep[x]
    return x


def _join(rep: list[int], perm: list[int]) -> None:
    """Merge the set of every x with that of perm[x]; the lesser root stays,
    so a root is its set's least member."""
    for x, y in enumerate(perm):
        if x != y:
            a, b = _find(rep, x), _find(rep, y)
            if a != b:
                rep[max(a, b)] = min(a, b)


def canonical_code(G: Graph) -> int:
    """Isomorphism-invariant integer code; equal codes mean isomorphic graphs."""
    return _canonical_search(G)[0]


def _canonical_search(G: Graph) -> tuple[int, list[list[int]], list[int]]:
    """Canonical code of G, the automorphisms found while computing it, and
    the canonical labelling.

    Each automorphism is a list perm with perm[x] the image of vertex x; it
    is read off a leaf whose code equals the best leaf's. Together they
    generate the automorphism group of G. The labelling is a list best_at
    with best_at[c] the vertex that gets label c: relabelling G by it gives
    graph_from_code(G.n, code).
    """
    n, adj = G.n, G.adj
    edges = G.edges()
    # the pair-bit table: _pair_bit(n, a, b) is offset[a] + b
    offset = [_pair_bit(n, a, 0) for a in range(n)]
    best: int | None = None
    best_at: list[int] = []  # best_at[c] is the vertex colored c at the best leaf
    best_path: list[int] = []  # the vertices individualized on the way to the best leaf
    autos: list[list[int]] = []

    def rec(cells: list[list[int]], target: int | None, prefix: list[int]) -> int:
        # the depth to resume at: len(prefix) once the subtree is done, less
        # to backjump (see the comment on canonical codes above)
        nonlocal best, best_at, best_path
        if target is None:
            colors = [0] * n
            for c, (y,) in enumerate(cells):
                colors[y] = c
            code = 0
            for u, v in edges:
                a, b = colors[u], colors[v]
                if a > b:
                    a, b = b, a
                code |= 1 << offset[a] + b
            if best is None or code < best:
                best = code
                best_at = [y for y, in cells]
                best_path = prefix
            elif code == best:
                autos.append([best_at[c] for c in colors])
                if len(prefix) == len(best_path):
                    depth = 0
                    while prefix[depth] == best_path[depth]:
                        depth += 1
                    return depth
            return len(prefix)
        # union-find over the orbits of the automorphisms that fix the prefix
        rep: list[int] | None = None
        used = 0
        branched: list[int] = []
        cell = cells[target]
        for v in cell:
            for g in autos[used:]:
                if all(g[p] == p for p in prefix):
                    if rep is None:
                        rep = list(range(n))
                    _join(rep, g)
            used = len(autos)
            if rep is not None and any(_find(rep, w) == _find(rep, v) for w in branched):
                continue
            child = [[v], *cells[:target], [u for u in cell if u != v], *cells[target + 1:]]
            resume = rec(*_refine(adj, child, [1 << v]), prefix + [v])
            if resume < len(prefix):
                return resume
            branched.append(v)
        return len(prefix)

    rec(*_refine(adj, [list(range(n))], None), [])
    # rec refers to itself through its closure; break that cycle so that its
    # state is freed now, not at the next cyclic garbage collection
    del rec
    assert best is not None
    return best, autos, best_at


def vertex_orbits(G: Graph) -> list[int]:
    """Least vertex of each vertex's orbit under the automorphism group of G.

    The automorphisms _canonical_search records generate the whole group
    (see the comment on canonical codes above), so merging every x with
    perm[x] over them gives the orbits exactly.
    """
    return _orbits(G.n, _canonical_search(G)[1])


def _orbits(n: int, perms: list[list[int]]) -> list[int]:
    """Least member of each vertex's orbit under the group perms generate."""
    rep = list(range(n))
    for perm in perms:
        _join(rep, perm)
    return [_find(rep, v) for v in range(n)]


def graph_from_code(n: int, code: int, name: str | None = None) -> Graph:
    """Inverse of the code packing used by canonical_code."""
    # a code has one bit per pair i < j, so it encodes no loop, duplicate or
    # out-of-range edge, and the rows need no edge check
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if code >> _pair_bit(n, i, j) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph._from_rows(rows, name=name)


# the classes of each order: canonical code, in increasing order, to the
# automorphism generators that the search labelling the class recorded, in
# the labels of graph_from_code
_ENUM_CACHE: dict[int, dict[int, list[list[int]]]] = {1: {0: []}}


def _connected_codes(n: int) -> list[int]:
    # Grow one vertex at a time: every connected graph arises from a connected
    # graph one vertex smaller by attaching the new vertex to a nonempty set.
    if n in _ENUM_CACHE:
        return list(_ENUM_CACHE[n])
    _connected_codes(n - 1)
    v = n - 1
    classes: dict[int, list[list[int]]] = {}
    for parent, parent_autos in _ENUM_CACHE[v].items():
        base = graph_from_code(v, parent)
        for attach in _subset_orbit_representatives(v, parent_autos):
            adj = [row | 1 << v if attach >> u & 1 else row for u, row in enumerate(base.adj)]
            adj.append(attach)
            ties = _deletion_ties(adj)
            if ties is None:
                continue
            child = Graph._from_rows(adj)
            code, autos, best_at = _canonical_search(child)
            label = [0] * n
            for c, y in enumerate(best_at):
                label[y] = c
            if len(ties) > 1:
                orbit = _orbits(n, autos)
                if orbit[max(ties, key=label.__getitem__)] != orbit[v]:
                    continue
            assert code not in classes
            classes[code] = [[label[g[y]] for y in best_at] for g in autos]
    _ENUM_CACHE[n] = dict(sorted(classes.items()))
    return list(_ENUM_CACHE[n])


def _deletion_ties(adj: list[int]) -> list[int] | None:
    """Vertices that tie with the last vertex v to be deleted, v first, or
    None when v cannot be the deletion vertex.

    The deletion vertex is a non-cut vertex of least degree and, among those,
    of least sorted list of neighbor degrees; the canonical labelling breaks
    the ties left. Only vertices of degree at most v's, other than leaves,
    are tested for being cut vertices: a leaf never is one, and neither is
    v, since the graph without it is connected.
    """
    n = len(adj)
    v = n - 1
    degrees = [row.bit_count() for row in adj]
    k = degrees[v]
    full = (1 << n) - 1
    ties = [v]
    for u in range(v):
        if degrees[u] <= k and (degrees[u] == 1 or not _is_cut_vertex(adj, full, u)):
            if degrees[u] < k:
                return None
            ties.append(u)
    if len(ties) > 1:
        around = {u: sorted(degrees[w] for w in bit_indices(adj[u])) for u in ties}
        least = min(around.values())
        if around[v] != least:
            return None
        ties = [u for u in ties if around[u] == least]
    return ties


def _is_cut_vertex(adj: list[int], full: int, u: int) -> bool:
    """Whether removing u disconnects the graph on `full` with rows adj."""
    # inline rather than _neighbors: the enumerator's innermost loop, 2.3 M calls through order 9
    rest = full & ~(1 << u)
    seen = frontier = rest & -rest
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & rest & ~seen
        seen |= frontier
    return seen != rest


def _subset_orbit_representatives(n: int, perms: list[list[int]]) -> list[int]:
    """Least mask of each orbit of nonempty subsets of range(n) under the
    group the permutations generate."""
    images = []  # images[i][s] is the image of mask s under perms[i]
    for g in perms:
        image = [0] * (1 << n)
        for s in range(1, 1 << n):
            low = s & -s
            image[s] = image[s ^ low] | 1 << g[low.bit_length() - 1]
        images.append(image)
    reps = []
    done = [False] * (1 << n)
    for s in range(1, 1 << n):
        if done[s]:
            continue
        reps.append(s)
        done[s] = True
        orbit = [s]
        for t in orbit:
            for image in images:
                u = image[t]
                if not done[u]:
                    done[u] = True
                    orbit.append(u)
    return reps


def enumerate_connected_graphs(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of connected graphs on n vertices."""
    if not is_int(n) or n < 1:
        raise ParameterError("order must be at least 1")
    if n > ENUM_MAX_VERTICES:
        raise ParameterError(f"enumeration capped at {ENUM_MAX_VERTICES} vertices")
    for i, code in enumerate(_connected_codes(n)):
        yield graph_from_code(n, code, name=f"g{n}_{i}")
