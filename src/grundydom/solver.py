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

Both exact searches, this one and max_weighted_sequence below, see only
connected graphs. The value adds up over connected components, so each
component is solved as a graph of its own, vertex verts[i] relabelled i
(a connected graph is searched as it is, with no copy), and its memo is
freed before the next one. Both start at one root routine and end in one
witness walk, which take the weight w of an independent move, the most a
move weighs; the plain search passes 1, with which the root's bound skip
w * (1 + width - c) > best reads width - c >= best, as in _Search.

- Root orbit skip. At the root, a move that an automorphism maps onto an
  earlier root move has the same value and is skipped. The orbits are
  merged from the automorphisms that the canonical labelling search records
  (graphs.vertex_orbits), and are only computed on n >= 2 vertices once the
  first root move's subtree has expanded at least 8n nodes. The orbits cost
  about as much as 10n to 25n search positions, so a search pays for them
  only after comparable work, and no graph of order <= 7 computes them.
- Witness walk. At each position the walk takes the least vertex whose
  child still reaches the value t that is left, so the witness is the
  lexicographically least optimal one. At the root it reads each child's
  value at its orbit representative, the move the search expanded. It does
  not solve a child that cannot reach t even at the bound skip's estimate,
  so it expands few positions that the search did not.

grundy_bruteforce is an independent oracle: plain enumeration of all legal
sequences straight from the definition, no memo, no pruning.

max_weighted_sequence (behind lex_grundy) takes weights w_independent >=
w_dependent >= 0 and also memoizes on the dominated set alone: in closed
mode an unchosen vertex has a chosen neighbor exactly when it is
dominated, so the dominated set fixes the weight of every move:
w_dependent for a dominated vertex, w_independent for an undominated one.
Equal positive weights need no search of their own: when every item weighs
w, the best maximal sequences are the longest legal ones, so
max_weighted_sequence returns w times grundy's value with grundy's
witness. Otherwise one weighted form of the one-fresh-vertex rule settles
a position D by the first move u in vertex order that meets it: u is
undominated and its fresh set is {u}, so every neighbor of u is dominated.
Then value(D) = w_independent + value(D | u). Sketch: let b be the first
move of an optimal maximal sequence s to cover u. If b = u, move it to the
front: that covers only u earlier, no other move has u as its footprint,
and no earlier move is a neighbor of u, so every weight stays. If b != u,
then b is a neighbor of u, hence dominated in D and weighing w_dependent
<= w_independent. Play u first and drop b: every other move keeps a fresh
footprint, and dropping b can only turn dependent items independent.

Nothing else settles a position. On the path p-u-x from D = {p, u}, the
dominated u has the one fresh vertex x but scores only w_dependent, while
playing x scores w_independent. Two exact prunings skip moves without
settling anything, as the plain search's do:

- Bound skip. Every move covers at least one fresh vertex and weighs at
  most w_independent, so a position with k undominated vertices is worth
  at most w_independent * k. At a branching position a move of weight w to
  D' is skipped when w + w_independent * |V - D'| cannot beat the best
  sibling so far; the maximum over the moves is unchanged.
- Root orbit skip. An automorphism p of G maps closed rows to closed rows,
  so it maps a legal sequence from D to one from p(D), and an item is
  dominated in D exactly when its image is dominated in p(D). Weights are
  kept, so value(p(D)) = value(D) and root moves in one orbit have equal
  values.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import astuple, dataclass
from typing import Callable, Iterable

from .errors import CapacityError, ParameterError
from .graphs import Graph, component_graphs, connected_components, is_int, mode_rows, vertex_orbits

MAX_SOLVER_ORDER = 64
BRUTE_MAX_ORDER = 10
WEIGHTED_MAX_ORDER = 25
# memo entries of one component's exact search; about 110 B each by tracemalloc
# (peak 171 MB at 1,553,245 entries on strong(g7_405,g7_405), closed mode)
MAX_SEARCH_NODES = 10_000_000


@dataclass
class SolveStats:
    nodes: int
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
    witness: list[int]
    stats: SolveStats


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


def _merged(walks: Iterable[tuple[list[int], list[int]]]) -> list[int]:
    # Components are independent, so the least witness of G repeatedly takes
    # the smallest next vertex among the components' least witnesses (mapped
    # back through verts): exactly what heapq.merge does with its inputs' heads.
    return list(heapq.merge(*([verts[u] for u in seq] for verts, seq in walks)))


class _Search:
    """Memoized value function over the covered sets of one connected graph.
    Nothing is evicted: every expanded position keeps its entry."""

    def __init__(self, G: Graph, rows: list[int]):
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
                got = self.value(child)
                if got >= best:
                    best = got + 1
        memo[S] = best
        return best


def _root(G: Graph, rows: list[int], width: int, value: Callable[[int], int],
          memo: dict[int, int], w: int) -> tuple[int, list[int] | None]:
    """Value of a connected graph whose root moves weigh w, the most a move
    weighs, and the orbit representatives used at its root (None if none).

    Root moves run in ascending vertex order within equal coverage size, so
    each orbit is first met at its least vertex. In the plain search, a first
    move that settles the root never trips the 8n trigger, as it forces
    every position under it: its subtree holds fewer than n entries.
    """
    n = G.n
    moves = sorted((row.bit_count(), u) for u, row in enumerate(rows))
    best = w + value(rows[moves[0][1]])
    reps: list[int] | None = None
    # the memo was empty before the first move, so it holds that subtree; a
    # single vertex has no second root move to skip. vertex_orbits costs as
    # much as about 10n to 25n search positions (0.14 ms on cartesian(P4,P4),
    # 0.78 ms on cartesian(C6,C6)), so orbits wait for a first subtree of 8n
    # entries: n^2 missed cartesian(C3,C5) in the weighted search (180
    # entries), 4n computed them for nothing on a census's small products.
    if n > 1 and len(memo) >= 8 * n:
        reps = vertex_orbits(G)
        # automorphic moves cover equally many vertices, so each orbit
        # comes first at its least vertex, its representative
        moves = [(c, u) for c, u in moves if reps[u] == u]
    # the first move is played again, as a memo hit or a bound skip; a move
    # is skipped when it cannot beat best even at w per column it leaves
    for c, u in moves:
        if w * (1 + width - c) > best:
            best = max(best, w + value(rows[u]))
    return best, reps


def _walk(rows: list[int], full: int, value: Callable[[int], int], t: int,
          reps: list[int] | None, w_independent: int, w_dependent: int) -> list[int]:
    # The least optimal witness (module docstring). It extends until every
    # column is covered, so that it is dominating even with zero weights.
    seq: list[int] = []
    S = 0
    while S != full:
        free = full ^ S
        for u, row in enumerate(rows):
            new = row & free
            if new:
                w = w_dependent if S >> u & 1 else w_independent
                # a child that cannot reach t even at the bound is not solved,
                # and a root child is read at its orbit representative
                child = S | new if S or not reps else rows[reps[u]]
                if w + w_independent * (free ^ new).bit_count() >= t and w + value(child) == t:
                    seq.append(u)
                    S |= new
                    t -= w
                    break
        else:
            raise AssertionError("witness reconstruction lost the optimum")
    return seq


def _grundy_connected(G: Graph, rows: list[int], witness: bool) -> SolveResult:
    start = time.perf_counter()
    search = _Search(G, rows)
    val, reps = _root(G, search.rows, search.width, search.value, search.memo, 1)
    searched = time.perf_counter()
    seq = _walk(search.rows, search.full, search.value, val, reps, 1, 1) if witness else []
    # every position but the root writes one memo entry, and every position
    # that did not branch was settled by a forced move
    entries = len(search.memo)
    stats = SolveStats(
        nodes=entries + 1,
        memo_entries=entries,
        search_s=searched - start,
        reconstruct_s=time.perf_counter() - searched,
        components=1,
        orbit_skips=G.n - len(set(reps)) if reps else 0,
        forced=entries - search.branching,
        merged=G.n - search.width,
    )
    return SolveResult(value=val, witness=seq, stats=stats)


def grundy(G: Graph, mode: str = "closed", *, witness: bool = True) -> SolveResult:
    """Length of a longest legal (total) dominating sequence, with witness.

    Each connected component is solved as a graph of its own, so
    MAX_SOLVER_ORDER caps the order of each component, not of G, and every
    SolveStats field is the sum over the components. A component's memo
    keeps every position it expands until the component is done.
    """
    return _grundy_split(G, check_components(G, MAX_SOLVER_ORDER, "solver"), mode, witness)


def _grundy_split(G: Graph, comps: list[int], mode: str, witness: bool) -> SolveResult:
    # grundy on the components comps that check_components found
    if len(comps) == 1:
        return _grundy_connected(G, mode_rows(G, mode), witness)
    # every component's rows first, so that a bad mode fails before any search
    subs = [(verts, sub, mode_rows(sub, mode)) for verts, sub in component_graphs(G, comps)]
    parts = [(verts, _grundy_connected(sub, rows, witness)) for verts, sub, rows in subs]
    stats = SolveStats(*map(sum, zip(*(astuple(res.stats) for _, res in parts))))
    seq = _merged((verts, res.witness) for verts, res in parts)
    return SolveResult(sum(res.value for _, res in parts), seq, stats)


def grundy_bruteforce(G: Graph, mode: str = "closed") -> SolveResult:
    """Definition-level oracle: enumerate every legal sequence, no memoization.

    Keeps the first longest sequence whose covered union reaches V(G); a
    played vertex has its whole row covered, so legality never replays it.
    Depth-first in ascending vertex order, so the witness is the
    lexicographically least one of maximum length.
    """
    n = G.n
    if n < 1:
        raise ParameterError("solver needs at least one vertex")
    if n > BRUTE_MAX_ORDER:
        raise CapacityError(f"brute force capped at {BRUTE_MAX_ORDER} vertices")
    rows = mode_rows(G, mode)
    full = G.full_mask
    start = time.perf_counter()
    best_seq: list[int] = []
    seq: list[int] = []
    nodes = 0

    def rec(dominated: int):
        nonlocal best_seq, nodes
        nodes += 1
        if dominated == full and len(seq) > len(best_seq):
            best_seq = seq.copy()
        for u in range(n):
            new = rows[u] & ~dominated
            if new:
                seq.append(u)
                rec(dominated | new)
                seq.pop()

    rec(0)
    del rec  # as in graphs._canonical_search
    stats = SolveStats(nodes=nodes, search_s=time.perf_counter() - start)
    return SolveResult(value=len(best_seq), witness=best_seq, stats=stats)


def max_weighted_sequence(G: Graph, w_independent: int, w_dependent: int) -> tuple[int, list[int]]:
    """Best total weight of a legal dominating sequence (closed mode).

    An item weighs w_independent when no earlier item is adjacent to it and
    w_dependent otherwise, mirroring the a-value split. Positions are
    dominated sets: an unchosen vertex has a chosen neighbor exactly when it
    is dominated, and a chosen vertex has nothing new to dominate, so the
    dominated set fixes every move and its weight. Weights that are not
    integers with w_independent >= w_dependent >= 0 raise ParameterError
    after the cap check. Extending a sequence then never hurts, so the
    maximum is attained by a maximal legal sequence, which is automatically
    dominating.
    The witness is the lexicographically least optimal maximal sequence.
    Each connected component is solved on its own, as in grundy, so
    WEIGHTED_MAX_ORDER caps the order of each component, not of G.
    """
    comps = check_components(G, WEIGHTED_MAX_ORDER, "weighted search")
    if not (is_int(w_independent) and is_int(w_dependent)):
        raise ParameterError("weights must be integers")
    if not w_independent >= w_dependent >= 0:
        raise ParameterError("weights must satisfy w_independent >= w_dependent >= 0")
    if w_independent == w_dependent > 0:
        # every item weighs the same: the longest legal sequences (module docstring)
        res = _grundy_split(G, comps, "closed", True)
        return w_independent * res.value, res.witness
    parts = [(verts, _weighted_connected(sub, w_independent, w_dependent))
             for verts, sub in component_graphs(G, comps)]
    return sum(total for _, (total, _) in parts), _merged((verts, seq) for verts, (_, seq) in parts)


def _weighted_connected(G: Graph, w_independent: int, w_dependent: int) -> tuple[int, list[int]]:
    n = G.n
    full = G.full_mask
    rows = mode_rows(G, "closed")
    moves_of = list(zip(rows, (1 << u for u in range(n))))
    memo: dict[int, int] = {}

    def value(dom: int) -> int:
        cached = memo.get(dom)
        if cached is not None:
            return cached
        free = full ^ dom
        # the first undominated move whose fresh set is itself settles dom
        for row, bit in moves_of:
            if row & free == bit:
                best = memo[dom] = w_independent + value(dom | bit)
                return best
        # every move covers a fresh vertex and weighs at most w_independent,
        # so a move that cannot beat best even at that per free vertex is skipped
        left = free.bit_count()
        best = 0
        for row, bit in moves_of:
            new = row & free
            if new:
                w = w_dependent if dom & bit else w_independent
                if w + w_independent * (left - new.bit_count()) > best:
                    got = w + value(dom | new)
                    if got > best:
                        best = got
        memo[dom] = best
        return best

    # every root move is undominated, so it weighs w_independent
    total, reps = _root(G, rows, n, value, memo, w_independent)
    seq = _walk(rows, full, value, total, reps, w_independent, w_dependent)
    # value refers to itself through its closure; break that cycle so that
    # the memo is freed now, not at the next cyclic garbage collection
    del value
    return total, seq


def lex_grundy(G: Graph, gamma_h: int) -> tuple[int, list[int]]:
    """max over dominating sequences D of a(D) * (gamma_h - 1) + len(D).

    This equals the longest legal dominating sequence length of the
    lexicographic product of G with any graph whose value is gamma_h.
    """
    if not is_int(gamma_h) or gamma_h < 1:
        raise ParameterError("gamma_h must be an integer of at least 1")
    return max_weighted_sequence(G, gamma_h, 1)
