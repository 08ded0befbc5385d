"""Exact solvers for longest legal (total) dominating sequences.

The value of a position depends only on the set of already covered vertices:
a vertex is playable iff its row still has an uncovered bit, and rows only
lose uncovered bits as play proceeds. The main solver memoizes on that
covered set. Every maximal legal sequence covers all of V (in open mode this
needs the no-isolated-vertices precondition), so the longest legal sequence
is automatically dominating and no separate completion check is needed.

One exact rule settles most positions without branching. If a move's
fresh coverage rows[a] & ~S is a single vertex x, some longest sequence
from S plays it first, so value(S) = 1 + value(S | x) and no other move is
tried. Sketch: take a longest sequence s from S. If s never covers x, then
a followed by s is legal and longer, which is impossible. Otherwise drop
from s the move b that first covers x. Every other move of s keeps a
footprint (the first vertex it covers) that is not x, so s without b is
legal from S | x and has length |s| - 1. The argument uses only the rows,
so it holds in closed and open mode alike. This is the one-white-neighbour
case of the zero-forcing colour-change rule (Brešar et al., "Grundy
dominating sequences and zero forcing sets", Discrete Optim. 26, 2017).

Elsewhere a move that cannot beat the best sibling so far even by covering
every vertex left is skipped. A position's value is always below its
number of uncovered vertices once the rule has not settled it, since every
move there covers at least two fresh vertices; a cutoff at the number of
playable moves could still bind, but measured +3 nodes in 16,220 over the
census classes and 0 on the solve workload, so it is left out.

The free vertices of S are full ^ S, not ~S: CPython's & is faster on two
nonnegative ints than with a negative one. Each position scans its rows
once for a forced move and builds no move list; only a branching position
scans them again. Every position but a component's root writes exactly one
memo entry, so only branching positions are counted: nodes = entries + 1
and forced = entries - branching. MAX_SEARCH_NODES caps one component's
memo; it is checked at branching positions only, and a forced chain or a
branching position's children add at most about n^2 entries past it.

Vertices with equal rows share one column. The rows are symmetric: bit x
of row u is set exactly when bit u of row x is. So if rows[x] == rows[y],
every move that covers x covers y too, and every covered set S is a union
of classes of equal rows. Keeping only each class's least vertex in every
row (and in full) maps the reachable positions one to one, with the same
moves legal at each, so values and witnesses are unchanged, while a move
whose fresh coverage is a single class now counts as forced. In closed
mode the classes are true twins, in open mode false twins. The bound skip
and the root's early stop count columns, not vertices.

Both exact searches see only connected graphs. The value adds up over
connected components, so each component is solved as a graph of its own,
vertex verts[i] relabelled i, and its memo is freed before the next one.
At the root, a move that an automorphism maps onto an earlier root move
has the same value and is skipped. The orbits are merged from the
automorphisms that the canonical labelling search records
(graphs.vertex_orbits), and are only computed once the first root move's
subtree has expanded at least n^2 nodes, so small solves never pay for it.

grundy_bruteforce is an independent oracle: plain enumeration of all legal
sequences straight from the definition, no memo, no pruning.

max_weighted_sequence (behind lex_grundy) also memoizes on the dominated
set alone: in closed mode an unchosen vertex has a chosen neighbor exactly
when it is dominated, so the dominated set fixes the weight of every move:
w_dependent for a dominated vertex, w_independent for an undominated one.
Two weighted forms of the one-fresh-vertex rule settle a position D by the
first move u in vertex order that meets one of them:

(a) The weights are equal, w each, and u has a single fresh vertex x.
    Every item weighs w, so this is the rule above: value(D) = w +
    value(D | x).
(b) w_independent >= w_dependent, u is undominated and its fresh set is
    {u}, so every neighbor of u is dominated. Then value(D) =
    w_independent + value(D | u). Sketch: let b be the first move of an
    optimal maximal sequence s to cover u. If b = u, move it to the front:
    that covers only u earlier, no other move has u as its footprint, and
    no earlier move is a neighbor of u, so every weight stays. If b != u,
    then b is a neighbor of u, hence dominated in D and weighing
    w_dependent. Play u first and drop b: every other move keeps a fresh
    footprint, and dropping b can only turn dependent items independent.

Nothing else settles a position. On the path p-u-x from D = {p, u}, the
dominated u has the one fresh vertex x but scores only w_dependent, while
playing x scores w_independent.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import astuple, dataclass, field
from typing import Iterable, Iterator

from .errors import CapacityError, ParameterError
from .graphs import Graph, bit_indices, connected_components, mode_rows, vertex_orbits

MAX_SOLVER_ORDER = 64
BRUTE_MAX_ORDER = 10
WEIGHTED_MAX_ORDER = 25
# memo entries of one component's exact search; about 110 B each by tracemalloc
# (peak 171 MB at 1,553,245 entries on strong(g7_405,g7_405), closed mode)
MAX_SEARCH_NODES = 10_000_000


@dataclass
class SolveStats:
    nodes: int = 0
    memo_entries: int = 0
    search_s: float = 0.0
    reconstruct_s: float = 0.0
    components: int = 0
    orbit_skips: int = 0
    forced: int = 0
    # columns merged away: vertices whose row equals a lesser vertex's
    merged: int = 0


@dataclass
class SolveResult:
    value: int
    witness: list[int] = field(default_factory=list)
    stats: SolveStats = field(default_factory=SolveStats)


def check_components(G: Graph, cap: int, search: str) -> list[int]:
    """Vertex masks of G's connected components; CapacityError if one exceeds cap.

    The searches call it first with their own cap and name ("solver" or
    "weighted search"), and a caller can make the same check before a search."""
    if G.n < 1:
        raise ParameterError("solver needs at least one vertex")
    comps = connected_components(G)
    largest = max(map(int.bit_count, comps))
    if largest > cap:
        raise CapacityError(f"component order {largest} exceeds {search} cap {cap}")
    return comps


def _subgraphs(G: Graph, comps: list[int]) -> Iterator[tuple[list[int], Graph]]:
    """Each component's vertices verts and its graph, in which verts[i] is vertex i."""
    for comp in comps:
        verts = bit_indices(comp)
        bit = {v: 1 << i for i, v in enumerate(verts)}
        # a component's rows stay inside it
        yield verts, Graph._from_rows(sum(bit[w] for w in bit_indices(G.adj[v])) for v in verts)


def _merged(walks: Iterable[tuple[list[int], list[int]]]) -> list[int]:
    # Components are independent, so the least witness of G repeatedly takes
    # the smallest next vertex among the components' least witnesses (mapped
    # back through verts): exactly what heapq.merge does with its inputs' heads.
    return list(heapq.merge(*([verts[u] for u in seq] for verts, seq in walks)))


class _Search:
    """Memoized value function over the covered sets of one connected graph.
    Nothing is evicted: every expanded position keeps its entry."""

    def __init__(self, G: Graph, rows: list[int]):
        self.G = G
        self.n = G.n
        full = G.full_mask
        distinct = set(rows)
        if len(distinct) < len(rows):
            # one column per class of equal rows, kept at its least vertex
            full = sum(1 << rows.index(row) for row in distinct)
            rows = [row & full for row in rows]
        self.rows = rows
        self.full = full
        self.width = full.bit_count()
        self.memo: dict[int, int] = {}
        self.branching = 0
        self.orbit_skips = 0

    def value(self, S: int) -> int:
        memo = self.memo
        cached = memo.get(S)
        if cached is not None:
            return cached
        rows = self.rows
        free = self.full ^ S
        for row in rows:
            if (row & free).bit_count() == 1:
                # a one-fresh-vertex move is played first by some longest sequence
                best = memo[S] = 1 + self.value(S | row)
                return best
        if len(memo) >= MAX_SEARCH_NODES:
            raise CapacityError(
                f"exact search reached {len(memo)} memo entries, search cap {MAX_SEARCH_NODES}")
        self.branching += 1
        # a move that cannot beat best even by covering every column left is skipped
        width = self.width
        best = 0
        for row in rows:
            child = S | row
            if child != S and width - child.bit_count() >= best:
                got = memo.get(child)
                if got is None:
                    got = self.value(child)
                if got >= best:
                    best = got + 1
        memo[S] = best
        return best

    def root_value(self) -> tuple[int, list[int] | None]:
        """Value of the graph, and the orbit representatives used at its root.

        Root moves run in ascending vertex order within equal coverage size, so
        each orbit is first met at its least vertex. Orbits are computed only
        when the first move did not settle the root and its subtree expanded
        at least n^2 nodes. Then a move in the orbit of an earlier move has
        that move's value and is dropped. The representatives are None when
        the orbits were never computed.
        """
        rows = self.rows
        n = self.n
        width = self.width
        moves = sorted((row.bit_count(), u) for u, row in enumerate(rows))
        best = 1 + self.value(rows[moves[0][1]])
        if best == width:
            return best, None
        reps: list[int] | None = None
        # the memo was empty before the first move, so it holds that subtree
        if len(self.memo) >= n * n:
            reps = vertex_orbits(self.G)
            # automorphic moves cover equally many vertices, so each orbit
            # comes first at its least vertex, its representative
            moves = [(c, u) for c, u in moves if reps[u] == u]
            self.orbit_skips += n - len(moves)
        # the first move is played again, as a memo hit or a bound skip
        for c, u in moves:
            if width - c >= best:
                best = max(best, 1 + self.value(rows[u]))
        return best, reps

    def reconstruct(self, t: int, reps: list[int] | None) -> list[int]:
        # Greedy walk: at each position take the smallest-id vertex that still
        # achieves the memoized value. This is deterministic regardless of
        # search order and yields the lexicographically least optimal witness.
        rows = self.rows
        S = 0
        seq: list[int] = []
        if reps:
            # at the root, read each child's value at its orbit representative,
            # the move the search expanded
            u = next(u for u in range(self.n) if self.value(rows[reps[u]]) == t - 1)
            seq.append(u)
            S = rows[u]
            t -= 1
        while t:
            free = self.full ^ S
            for u, row in enumerate(rows):
                new = row & free
                if new and self.value(S | new) == t - 1:
                    seq.append(u)
                    S |= new
                    t -= 1
                    break
            else:
                raise AssertionError("witness reconstruction lost the optimum")
        return seq


def _grundy_connected(G: Graph, rows: list[int], witness: bool) -> SolveResult:
    start = time.perf_counter()
    search = _Search(G, rows)
    val, reps = search.root_value()
    searched = time.perf_counter()
    seq = search.reconstruct(val, reps) if witness else []
    # every position but the root writes one memo entry, and every position
    # that did not branch was settled by a forced move
    entries = len(search.memo)
    stats = SolveStats(
        nodes=entries + 1,
        memo_entries=entries,
        search_s=searched - start,
        reconstruct_s=time.perf_counter() - searched,
        components=1,
        orbit_skips=search.orbit_skips,
        forced=entries - search.branching,
        merged=search.n - search.width,
    )
    return SolveResult(value=val, witness=seq, stats=stats)


def grundy(G: Graph, mode: str = "closed", *, witness: bool = True) -> SolveResult:
    """Length of a longest legal (total) dominating sequence, with witness.

    Each connected component is solved as a graph of its own, so
    MAX_SOLVER_ORDER caps the order of each component, not of G, and every
    SolveStats field is the sum over the components. A component's memo
    keeps every position it expands until the component is done.
    """
    comps = check_components(G, MAX_SOLVER_ORDER, "solver")
    if len(comps) == 1:
        return _grundy_connected(G, mode_rows(G, mode), witness)
    # every component's rows first, so that a bad mode fails before any search
    subs = [(verts, sub, mode_rows(sub, mode)) for verts, sub in _subgraphs(G, comps)]
    parts = [(verts, _grundy_connected(sub, rows, witness)) for verts, sub, rows in subs]
    stats = SolveStats(*map(sum, zip(*(astuple(res.stats) for _, res in parts))))
    seq = _merged((verts, res.witness) for verts, res in parts)
    return SolveResult(sum(res.value for _, res in parts), seq, stats)


def grundy_bruteforce(G: Graph, mode: str = "closed") -> SolveResult:
    """Definition-level oracle: enumerate every legal sequence, no memoization.

    Records the length whenever the covered union reaches V(G), keeping the
    first longest sequence found; depth-first in ascending vertex order, so
    the witness is the lexicographically least one of maximum length.
    """
    n = G.n
    if n < 1:
        raise ParameterError("solver needs at least one vertex")
    if n > BRUTE_MAX_ORDER:
        raise CapacityError(f"brute force capped at {BRUTE_MAX_ORDER} vertices")
    rows = mode_rows(G, mode)
    full = G.full_mask
    start = time.perf_counter()
    best_len = 0
    best_seq: list[int] = []
    seq: list[int] = []
    nodes = 0

    def rec(dominated: int, chosen: int):
        nonlocal best_len, best_seq, nodes
        nodes += 1
        if dominated == full and len(seq) > best_len:
            best_len = len(seq)
            best_seq = seq.copy()
        for u in range(n):
            if chosen >> u & 1:
                continue
            new = rows[u] & ~dominated
            if new:
                seq.append(u)
                rec(dominated | new, chosen | 1 << u)
                seq.pop()

    rec(0, 0)
    stats = SolveStats(nodes=nodes, memo_entries=0, search_s=time.perf_counter() - start)
    return SolveResult(value=best_len, witness=best_seq, stats=stats)


def max_weighted_sequence(G: Graph, w_independent: int, w_dependent: int) -> tuple[int, list[int]]:
    """Best total weight of a legal dominating sequence (closed mode).

    An item weighs w_independent when no earlier item is adjacent to it and
    w_dependent otherwise, mirroring the a-value split. Positions are
    dominated sets: an unchosen vertex has a chosen neighbor exactly when it
    is dominated, and a chosen vertex has nothing new to dominate, so the
    dominated set fixes every move and its weight. Weights must be
    nonnegative so that extending a sequence never hurts; the maximum is then
    attained by a maximal legal sequence, which is automatically dominating.
    The witness is the lexicographically least optimal maximal sequence.
    Each connected component is solved on its own, as in grundy, so
    WEIGHTED_MAX_ORDER caps the order of each component, not of G.
    """
    comps = check_components(G, WEIGHTED_MAX_ORDER, "weighted search")
    if w_independent < 0 or w_dependent < 0:
        raise ParameterError("weights must be nonnegative")
    parts = [(verts, _weighted_connected(sub, w_independent, w_dependent))
             for verts, sub in _subgraphs(G, comps)]
    return sum(total for _, (total, _) in parts), _merged((verts, seq) for verts, (_, seq) in parts)


def _weighted_connected(G: Graph, w_independent: int, w_dependent: int) -> tuple[int, list[int]]:
    full = G.full_mask
    moves_of = list(zip(mode_rows(G, "closed"), (1 << u for u in range(G.n))))
    memo: dict[int, int] = {}
    # which one-fresh-vertex moves settle a position (module docstring):
    # any of them when the weights are equal, and an undominated one whose
    # neighbors are all dominated when independent items weigh at least as
    # much as dependent ones
    settle_any = w_independent == w_dependent
    settle_own = w_independent >= w_dependent

    def value(dom: int) -> int:
        cached = memo.get(dom)
        if cached is not None:
            return cached
        free = full ^ dom
        moves = []
        for row, bit in moves_of:
            new = row & free
            if new:
                w = w_dependent if dom & bit else w_independent
                if new.bit_count() == 1 and (settle_any or settle_own and new == bit):
                    best = memo[dom] = w + value(dom | new)
                    return best
                moves.append((w, new))
        best = 0
        for w, new in moves:
            got = w + value(dom | new)
            if got > best:
                best = got
        memo[dom] = best
        return best

    total = value(0)
    seq: list[int] = []
    dom = 0
    t = total
    # extend until maximal so the witness is dominating even with zero weights
    while dom != full:
        free = full ^ dom
        for u, (row, bit) in enumerate(moves_of):
            new = row & free
            if new:
                w = w_dependent if dom & bit else w_independent
                if w + value(dom | new) == t:
                    seq.append(u)
                    dom |= new
                    t -= w
                    break
        else:
            raise AssertionError("weighted reconstruction lost the optimum")
    # value refers to itself through its closure; break that cycle so that
    # the memo is freed now, not at the next cyclic garbage collection
    del value
    return total, seq


def lex_grundy(G: Graph, gamma_h: int) -> tuple[int, list[int]]:
    """max over dominating sequences D of a(D) * (gamma_h - 1) + len(D).

    This equals the longest legal dominating sequence length of the
    lexicographic product of G with any graph whose value is gamma_h.
    """
    if gamma_h < 1:
        raise ParameterError("gamma_h must be at least 1")
    return max_weighted_sequence(G, gamma_h, 1)
