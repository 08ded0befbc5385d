"""Bounds, closed-form values, witness constructions, and structural checks.

This module collects the quantitative theory around Grundy domination of
graph products:

* an exact edge clique cover solver (theta_e is an upper bound for the
  Grundy domination number),
* a boundary certificate: if every m-subset A of V(G) has |boundary(A)| >= c,
  then no legal closed sequence can choose more than n - c vertices,
* a catalog of closed forms (cartesian grids, cylinders, tori and multi-factor
  products; lexicographic and direct products of paths and cycles; strong
  grids, cylinders, the torus bounds and the multi-path products; total
  Grundy domination of paths and cycles), each guarded by its preconditions
  and naming the graph and mode its value is about,
* constructive witness builders: one builder for the four product lower
  bounds, which replicates a factor sequence layer by layer and splits its
  items by the a-value rule, and closed-form complete grid and odd torus ones,
* per-product-kind named lower/upper bounds,
* a scan harness for the conjecture that the strong product is
  multiplicative for the Grundy domination number, and
* isoperimetric spot checks for the ball/boundary machinery used by the
  torus and multi-product arguments.
"""

from __future__ import annotations

import inspect
import math
import random
import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

from .errors import CapacityError, InvariantError, ParameterError, quoted
from .graphs import (
    Graph,
    ball,
    bit_indices,
    boundary,
    cycle,
    delete_vertex,
    has_isolated_vertex,
    independence_number,
    is_int,
    is_simplicial,
    mask_of,
    maximal_cliques,
    path,
)
from .products import check_product_order, normalize_kind, product
from .sequences import check_sequence
from .solver import (
    MAX_SOLVER_ORDER,
    WEIGHTED_MAX_ORDER,
    check_components,
    grundy,
    lex_grundy,
    max_weighted_sequence,
)

THETA_MAX_ORDER = 16
SUBSET_ENUM_LIMIT = 10_000_000
# the peeling bound solves what is left once the product has at most this
# many vertices, so it peels no product that small, which is solved whole;
# on the census scan pairs 16 measured faster than 8, 12, 20 or 24
PEEL_EXACT_CAP = 16


def _chk(cond: bool, msg: str) -> None:
    if not cond:
        raise ParameterError(msg)


# ---------------------------------------------------------------------------
# Edge clique cover


def _min_set_cover(n_items: int, sets: list[int]) -> int:
    """Exact minimum number of sets (as item masks) covering all n_items.

    Every item must lie in some set, else ParameterError. A set that is the
    only one holding some item is in every cover, so the search starts from
    the union of those forced sets. Its first descent is greedy: it branches
    on the item with the fewest holders and tries the largest set first.
    """
    full = (1 << n_items) - 1
    by_item: list[list[int]] = [[] for _ in range(n_items)]
    for s in sets:
        m = s
        while m:
            low = m & -m
            m ^= low
            by_item[low.bit_length() - 1].append(s)
    if not all(by_item):
        raise ParameterError(f"item {by_item.index([])} lies in no set")
    forced = {holders[0] for holders in by_item if len(holders) == 1}
    start = 0
    for s in forced:
        start |= s
    if start == full:
        return len(forced)
    best = len(sets)

    def descend(covered: int, used: int) -> None:
        nonlocal best
        missing = full & ~covered
        if missing == 0:
            best = min(best, used)
            return
        if used + 1 >= best:
            return
        # branch on the item with fewest candidate sets
        item = min(bit_indices(missing), key=lambda i: len(by_item[i]))
        for s in sorted(by_item[item], key=lambda s: -(s & ~covered).bit_count()):
            descend(covered | s, used + 1)

    descend(start, len(forced))
    del descend  # as in graphs.maximal_cliques
    return best


def edge_clique_cover_number(G: Graph) -> int:
    """Minimum number of cliques covering every edge of G (exact).

    Solves set cover over the edges with maximal cliques as the candidate
    sets; a minimum cover by arbitrary cliques can always be grown to one by
    maximal cliques, so this is exact. An edge that lies in exactly one
    maximal clique forces that clique into every such cover, so the search
    starts from the forced cliques and ends at once when they cover every
    edge. That settles every triangle-free graph, whose edges are its
    maximal cliques, with one clique per edge. Graphs above THETA_MAX_ORDER
    vertices raise CapacityError.
    """
    if G.n > THETA_MAX_ORDER:
        raise CapacityError(
            f"edge clique cover is exact only up to {THETA_MAX_ORDER} vertices,"
            f" got {G.n}"
        )
    inc = [0] * G.n  # inc[u]: the edges at u, one bit per edge
    n_edges = 0
    for u, v in G.edges():
        inc[u] |= 1 << n_edges
        inc[v] |= 1 << n_edges
        n_edges += 1
    sets = []
    for clique in maximal_cliques(G):
        # two rows share only the bit of the edge between their vertices
        inside = seen = 0
        while clique:
            low = clique & -clique
            clique ^= low
            row = inc[low.bit_length() - 1]
            inside |= row & seen
            seen |= row
        if inside:
            sets.append(inside)
    return _min_set_cover(n_edges, sets)


# ---------------------------------------------------------------------------
# Boundary certificate


@dataclass(frozen=True)
class BoundaryBound:
    """Smallest |boundary(A)| seen over m-subsets A of V(G).

    When certified is True every subset was enumerated, so any legal closed
    sequence stops before choosing more than grundy_upper vertices. Sampled
    results are evidence only and certify nothing.
    """

    n: int
    min_boundary: int
    certified: bool
    checked: int

    @property
    def grundy_upper(self) -> int:
        return self.n - self.min_boundary


def boundary_sufficient_bound(
    G: Graph,
    m: int,
    *,
    trials: int | None = None,
    seed: int = 0,
) -> BoundaryBound:
    """Certify (or sample) min |boundary(A)| over all m-subsets A of V(G).

    With trials=None all C(n, m) subsets are enumerated; more than
    SUBSET_ENUM_LIMIT of them raise CapacityError. Passing trials (at most
    SUBSET_ENUM_LIMIT) switches to seeded random sampling; the result is then
    explicitly flagged as uncertified.
    """
    _chk(is_int(m), "m must be an integer")
    _chk(1 <= m <= G.n, "m must satisfy 1 <= m <= n")
    subsets, checked = _subsets(G.n, m, trials, seed)
    best = min(boundary(G, mask).bit_count() for mask in subsets)
    return BoundaryBound(G.n, best, certified=trials is None, checked=checked)


def _subsets(n: int, m: int, trials: int | None, seed: int) -> tuple[Iterator[int], int]:
    """m-subsets of range(n) as masks, and how many there are.

    With trials=None every one of the C(n, m) subsets is yielded; otherwise
    trials subsets drawn by random.Random(seed).sample. Either count is
    guarded by SUBSET_ENUM_LIMIT.
    """
    if trials is None:
        total = math.comb(n, m)
        if total > SUBSET_ENUM_LIMIT:
            raise CapacityError(
                f"C({n},{m}) = {total} subsets exceed the exhaustive guard"
                f" ({SUBSET_ENUM_LIMIT}); pass trials= to sample"
            )
        return (mask_of(c) for c in combinations(range(n), m)), total
    _chk(is_int(trials), "trials must be an integer")
    _chk(trials >= 1, "trials must be positive")
    if trials > SUBSET_ENUM_LIMIT:
        raise CapacityError(f"{trials} trials exceed the subset guard ({SUBSET_ENUM_LIMIT})")
    rng = random.Random(seed)
    return (mask_of(rng.sample(range(n), m)) for _ in range(trials)), trials


# ---------------------------------------------------------------------------
# Formula catalog


# id -> (exactness, fn, instance): exactness is exact, lower-bound,
# upper-bound or conjectured; fn's parameters are the entry's, any count when
# it takes *params; instance takes the same parameters and returns the graph
# and mode whose Grundy number fn's value is about
FORMULAS: dict[str, tuple[str, Callable[..., int], Callable[..., tuple[Graph, str]]]] = {}


def _formula(formula_id: str, exactness: str, instance: Callable[..., tuple[Graph, str]]):
    def register(fn: Callable[..., int]):
        FORMULAS[formula_id] = (exactness, fn, instance)
        return fn

    return register


def _product_of(kind: str, *factors: Graph) -> Graph:
    """The kind product of the factors, taken left to right; one factor is itself.
    Each step is refused over MAX_PRODUCT_ORDER only when it is reached."""
    prod_graph = factors[0]
    for g in factors[1:]:
        prod_graph = product(kind, prod_graph, g).graph
    return prod_graph


def _closed(kind: str, *factors: Graph) -> tuple[Graph, str]:
    """A catalog instance: the kind product of the factors, in closed mode."""
    return _product_of(kind, *factors), "closed"


@_formula("thm_cart_grid", "exact", lambda k, l: _closed("cartesian", path(k), path(l)))
def _cart_grid(k, l):
    """cart(P_k, P_l) = k(l-1) for 2 <= k <= l."""
    _chk(2 <= k <= l, "requires 2 <= k <= l")
    return k * (l - 1)


@_formula("thm_cart_cylinder", "exact", lambda k, l: _closed("cartesian", path(k), cycle(l)))
def _cart_cylinder(k, l):
    """cart(P_k, C_l) = max{l(k-1), k(l-2)} for k >= 2, l >= 3."""
    _chk(k >= 2, "requires k >= 2")
    _chk(l >= 3, "requires l >= 3")
    return max(l * (k - 1), k * (l - 2))


@_formula("thm_cart_torus", "exact", lambda k, l: _closed("cartesian", cycle(k), cycle(l)))
def _cart_torus(k, l):
    """cart(C_k, C_l) = k(l-2) for 3 <= k <= l, except k = l odd."""
    _chk(3 <= k <= l, "requires 3 <= k <= l")
    _chk(not (k == l and k % 2 == 1), "equal odd lengths are a separate case")
    return k * (l - 2)


@_formula("thm_cart_torus_odd", "exact", lambda k: _closed("cartesian", cycle(k), cycle(k)))
def _cart_torus_odd(k):
    """cart(C_k, C_k) = k(k-2)+1 for odd k >= 3."""
    _chk(k >= 3 and k % 2 == 1, "requires odd k >= 3")
    return k * (k - 2) + 1


@_formula("prop_cart_multi_cycles", "exact",
          lambda *ks: _closed("cartesian", *(cycle(2 * k) for k in ks)))
def _cart_multi_cycles(*params):
    """cart(C_2k1, ..., C_2kn) = 2^n k1...k(n-1) (kn - 1); params are half-lengths."""
    _chk(len(params) >= 1, "expects at least one half-length")
    _chk(all(k >= 2 for k in params), "requires every ki >= 2")
    _chk(list(params) == sorted(params), "requires k1 <= ... <= kn")
    _chk(
        sum(params[:-1]) + 2 <= params[-1],
        "requires k1 + ... + k(n-1) + 2 <= kn",
    )
    return 2 ** len(params) * math.prod(params[:-1]) * (params[-1] - 1)


@_formula("prop_cart_multi_paths", "exact", lambda *ks: _closed("cartesian", *map(path, ks)))
def _cart_multi_paths(*params):
    """cart(P_k1, ..., P_kn) = k1...k(n-1) (kn - 1)."""
    _chk(len(params) >= 1, "expects at least one order")
    _chk(all(k >= 2 for k in params), "requires every ki >= 2")
    _chk(list(params) == sorted(params), "requires k1 <= ... <= kn")
    _chk(
        sum(params[:-1]) + 1 <= params[-1],
        "requires k1 + ... + k(n-1) + 1 <= kn",
    )
    return math.prod(params[:-1]) * (params[-1] - 1)


# the instances of the two *_H entries take H edgeless on gamma_h vertices:
# not complete, and grundy(H) = gamma_h
@_formula("cor_lex_path_H", "exact", lambda k, g: _closed("lexicographic", path(k), Graph(g)))
def _lex_path_value(k: int, gamma_h: int) -> int:
    """lex(P_k, H) from gamma_h = grundy(H); k >= 1, k != 2, H not complete."""
    _chk(k >= 1, "requires k >= 1")
    _chk(k != 2, "k = 2 has no closed form; solve lex_grundy directly")
    _chk(gamma_h >= 2, "requires gamma_h >= 2 (second factor must not be complete)")
    if k % 2 == 0:
        return (k // 2) * gamma_h + 1
    return ((k + 1) // 2) * gamma_h


@_formula("cor_lex_cycle_H", "exact", lambda k, g: _closed("lexicographic", cycle(k), Graph(g)))
def _lex_cycle_value(k: int, gamma_h: int) -> int:
    """lex(C_k, H) from gamma_h = grundy(H); k >= 4, H not complete."""
    _chk(k >= 4, "requires k >= 4")
    _chk(gamma_h >= 2, "requires gamma_h >= 2 (second factor must not be complete)")
    if k % 2 == 0:
        return (k // 2) * gamma_h
    return (k // 2) * gamma_h + 1


@_formula("cor_lex_path_path", "exact", lambda k, l: _closed("lexicographic", path(k), path(l)))
def _lex_path_path(k, l):
    """lex(P_k, P_l) for k, l >= 3."""
    _chk(k >= 3, "requires k >= 3")
    _chk(l >= 3, "requires l >= 3")
    return _lex_path_value(k, l - 1)


@_formula("cor_lex_path_cycle", "exact", lambda k, l: _closed("lexicographic", path(k), cycle(l)))
def _lex_path_cycle(k, l):
    """lex(P_k, C_l) for k >= 3, l >= 4 (C_3 is complete, so l = 3 is out)."""
    _chk(k >= 3, "requires k >= 3")
    _chk(l >= 4, "requires l >= 4")
    return _lex_path_value(k, l - 2)


@_formula("cor_lex_cycle_cycle", "exact", lambda k, l: _closed("lexicographic", cycle(k), cycle(l)))
def _lex_cycle_cycle(k, l):
    """lex(C_k, C_l) for k >= 4, l >= 4."""
    _chk(k >= 4, "requires k >= 4")
    _chk(l >= 4, "requires l >= 4")
    return _lex_cycle_value(k, l - 2)


@_formula("cor_direct_PC", "lower-bound", lambda k, l: _closed("direct", path(k), cycle(l)))
def _direct_pc(k, l):
    """direct(P_k, C_l) lower bound for k >= 2, l >= 4, by parity.

    For k = 2 with l even the product is two disjoint copies of C_l, so the
    kl - 2k - l + 6 term (which needs k >= 4) is dropped; kl - 2k is exact
    there.
    """
    _chk(k >= 2, "requires k >= 2")
    _chk(l >= 4, "requires l >= 4")
    if k % 2 == 0 and l % 2 == 0:
        if k == 2:
            return k * l - 2 * k
        return max(k * l - 2 * k - l + 6, k * l - 2 * k)
    if k % 2 == 1 and l % 2 == 1:
        return k * l - k - l + 3
    if k % 2 == 0:
        return max(k * l - 2 * k, k * l - k - l + 3)
    return k * l - 2 * k - l + 6


@_formula("cor_direct_CC", "lower-bound", lambda k, l: _closed("direct", cycle(k), cycle(l)))
def _direct_cc(k, l):
    """direct(C_k, C_l) lower bound for 4 <= k <= l, by parity."""
    _chk(4 <= k <= l, "requires 4 <= k <= l")
    if k % 2 == 1:
        return k * l - 2 * k - l + 3
    if l % 2 == 0:
        return k * l - 2 * k - 2 * l + 6
    return k * l - k - 2 * l + 3


@_formula("cor_direct_PP", "lower-bound", lambda k, l: _closed("direct", path(k), path(l)))
def _direct_pp(k, l):
    """direct(P_k, P_l) lower bound for 2 <= k <= l, by parity."""
    _chk(2 <= k <= l, "requires 2 <= k <= l")
    if k % 2 == 0:
        return k * l - k
    if l % 2 == 1:
        return k * l - k - l + 3
    return max(k * l - l, k * l - k - l + 3)


@_formula("prop_direct_PP_upper", "upper-bound", lambda k, l: _closed("direct", path(k), path(l)))
def _direct_pp_upper(k, l):
    """direct(P_k, P_l) <= kl - k for 2 <= k <= l."""
    _chk(2 <= k <= l, "requires 2 <= k <= l")
    return k * l - k


@_formula("cor_direct_PP_even", "exact", lambda k, l: _closed("direct", path(k), path(l)))
def _direct_pp_even(k, l):
    """direct(P_k, P_l) = kl - k for even 2 <= k <= l."""
    _chk(2 <= k <= l, "requires 2 <= k <= l")
    _chk(k % 2 == 0, "requires even k")
    return k * l - k


@_formula("cor_strong_grid", "exact", lambda k, l: _closed("strong", path(k), path(l)))
def _strong_grid(k, l):
    """strong(P_k, P_l) = (k-1)(l-1) for k, l >= 2."""
    _chk(k >= 2, "requires k >= 2")
    _chk(l >= 2, "requires l >= 2")
    return (k - 1) * (l - 1)


@_formula("cor_strong_cylinder", "exact", lambda k, l: _closed("strong", path(k), cycle(l)))
def _strong_cylinder(k, l):
    """strong(P_k, C_l) = (k-1)(l-2) for k >= 2, l >= 3."""
    _chk(k >= 2, "requires k >= 2")
    _chk(l >= 3, "requires l >= 3")
    return (k - 1) * (l - 2)


@_formula("cor_strong_torus_upper", "upper-bound",
          lambda k, l: _closed("strong", cycle(k), cycle(l)))
def _strong_torus_upper(k, l):
    """strong(C_k, C_l) <= (k-2)(l-1) for 3 <= k <= l."""
    _chk(3 <= k <= l, "requires 3 <= k <= l")
    return (k - 2) * (l - 1)


@_formula("conj_strong_torus", "conjectured", lambda k, l: _closed("strong", cycle(k), cycle(l)))
def _strong_torus_conj(k, l):
    """strong(C_k, C_l) = (k-2)(l-2) for 3 <= k <= l, if the product conjecture holds."""
    _chk(3 <= k <= l, "requires 3 <= k <= l")
    return (k - 2) * (l - 2)


@_formula("cor_strong_multi_paths", "exact", lambda *ks: _closed("strong", *map(path, ks)))
def _strong_multi_paths(*params):
    """strong(P_k1, ..., P_kn) = (k1-1)...(kn-1)."""
    _chk(len(params) >= 1, "expects at least one order")
    _chk(all(k >= 2 for k in params), "requires every ki >= 2")
    return math.prod(k - 1 for k in params)


@_formula("cor_strong_multi_paths_cycle", "exact",
          lambda *ks: _closed("strong", *map(path, ks[:-1]), cycle(ks[-1])))
def _strong_multi_paths_cycle(*params):
    """strong(P_k1, ..., P_kn, C_l) = (k1-1)...(kn-1)(l-2); last parameter is l."""
    _chk(len(params) >= 2, "expects path orders followed by a cycle length")
    *ks, l = params
    _chk(all(k >= 2 for k in ks), "requires every ki >= 2")
    _chk(l >= 3, "requires l >= 3")
    return math.prod(k - 1 for k in ks) * (l - 2)


@_formula("gamma_t_path", "exact", lambda k: (path(k), "open"))
def _gamma_t_path(k):
    """Grundy total domination number of P_k for k >= 2."""
    _chk(k >= 2, "requires k >= 2")
    return k if k % 2 == 0 else k - 1


@_formula("gamma_t_cycle", "exact", lambda l: (cycle(l), "open"))
def _gamma_t_cycle(l):
    """Grundy total domination number of C_l for l >= 3."""
    _chk(l >= 3, "requires l >= 3")
    return l - 2 if l % 2 == 0 else l - 1


def formula_value(formula_id: str, params: Iterable[int]) -> tuple[int, str]:
    """Evaluate a catalog entry; returns (value, exactness).

    Preconditions are enforced literally; out-of-range parameters raise a
    ParameterError naming the violated condition rather than extrapolating.
    """
    if formula_id not in FORMULAS:
        raise ParameterError(
            f"unknown formula id {quoted(formula_id)} (grundydom formula -h lists the known ids)"
        )
    exactness, fn, _ = FORMULAS[formula_id]
    params = tuple(params)
    _chk(all(is_int(p) for p in params), "parameters must be integers")
    names = inspect.signature(fn).parameters
    try:
        if not any(p.kind is p.VAR_POSITIONAL for p in names.values()):
            _chk(
                len(params) == len(names),
                f"expects {len(names)} parameter(s) ({' '.join(names)}), got {len(params)}",
            )
        value = fn(*params)
    except ParameterError as exc:
        raise ParameterError(f"{formula_id}: {exc}") from None
    return value, exactness


# ---------------------------------------------------------------------------
# Witness constructions


def _require_sequence(G: Graph, items, mode: str, label: str) -> None:
    rep = check_sequence(G, items, mode=mode)
    kind = "legal dominating" if mode == "closed" else "legal total dominating"
    if not rep.legal:
        raise ParameterError(
            f"{label} must be a {kind} sequence of {G.display_name}:"
            f" item at position {rep.illegal_at} covers nothing new"
        )
    if not rep.dominating:
        raise ParameterError(
            f"{label} must be a {kind} sequence of {G.display_name}:"
            " the sequence does not dominate"
        )


# per kind: the mode seq_h must be legal in (None: seq_h is not read), and
# the two H-lists of the layered walk, taken from H and seq_h
_LAYER_WALKS = {
    "cartesian": (None, lambda H, seq_h: (range(H.n), range(H.n))),
    "lexicographic": ("closed", lambda H, seq_h: (seq_h, seq_h[:1])),
    "direct": ("open", lambda H, seq_h: (range(H.n), seq_h)),
    "strong": ("closed", lambda H, seq_h: (seq_h, seq_h)),
}


def construct_product_witness(
    kind: str, G: Graph, H: Graph, seq_g: Sequence[int], seq_h: Sequence[int] = ()
) -> list[int]:
    """Replicate a legal dominating sequence seq_g of G layer by layer on the
    kind product of G and H.

    The a(seq_g) items with no earlier neighbor each walk a first list of
    H-vertices inside their own layer, every other item walks a second:
    - cartesian: every vertex, both times; seq_h is not read. Length
      len(seq_g) * |V(H)|.
    - lexicographic: seq_h, then its first item. Length
      a * (len(seq_h) - 1) + len(seq_g).
    - direct: every vertex (a still untouched independent layer), then seq_h,
      which must be a legal total dominating sequence of H. Length
      a * |V(H)| + (len(seq_g) - a) * len(seq_h).
    - strong: seq_h, both times. Length len(seq_g) * len(seq_h).
    For lexicographic and strong, seq_h must be a legal dominating sequence
    of H. The last three walks are legal for any legal inputs. The cartesian
    one is legal exactly when H has no edge or every seq_g item footprints
    some vertex other than itself; otherwise an item whose only footprint is
    itself collapses inside its own layer, and the sequence is rejected with
    the failing position named. The replicated length can then be genuinely
    out of reach: every maximum sequence of star(4) contains a self-only
    footprinter, and grundy(cart(star(4), path(3))) is 8, short of 3 * 3.
    """
    kind = normalize_kind(kind)
    mode, walks = _LAYER_WALKS[kind]
    _require_sequence(G, seq_g, "closed", "seq_g")
    if mode:
        _require_sequence(H, seq_h, mode, "total_seq_h" if mode == "open" else "seq_h")
    fresh, dependent = walks(H, seq_h)
    out, chosen = [], 0
    for d in seq_g:
        out.extend(d * H.n + h for h in (dependent if G.adj[d] & chosen else fresh))
        chosen |= 1 << d
    rep = check_sequence(product(kind, G, H).graph, out)
    if not rep.legal and kind == "cartesian":
        d, h = divmod(out[rep.illegal_at], H.n)
        raise ParameterError(
            f"replicating seq_g over {H.display_name} is illegal at position"
            f" {rep.illegal_at} (factor item {d}, layer {h}); choose a"
            " sequence whose items each footprint a vertex besides themselves"
        )
    assert rep.legal and rep.dominating
    return out


def construct_complete_grid_witness(n: int, m: int) -> list[int]:
    """Length n+m-2 sequence on cart(K_n, K_m): first column then first row.

    Walks (a_0,b_0),...,(a_{n-2},b_0), then (a_0,b_1),...,(a_0,b_{m-1}).
    Each column item opens a fresh row; each row item reaches row n-1 in a
    fresh column. Exceeds the layer-replication lower bound max{n, m}. A
    product above MAX_PRODUCT_ORDER vertices raises CapacityError.
    """
    _chk(is_int(n) and is_int(m), "n and m must be integers")
    _chk(n >= 3 and m >= 3, "requires n >= 3 and m >= 3")
    check_product_order(n * m)
    return [i * m for i in range(n - 1)] + [j for j in range(1, m)]


def construct_odd_torus_witness(k: int) -> list[int]:
    """Length k(k-2)+1 sequence on cart(C_k, C_k) for odd k.

    Centered coordinates x, y in [-t, t] with t = (k-1)/2, vertex id
    (x+t)*k + (y+t). The first block is the lens |x-1/2| + |y| <= t-1/2
    ordered by (|y|, positive y first, x ascending); the second block is its
    complement within |x| <= t-1 ordered by (|x|, positive x first, y
    ascending). A product above MAX_PRODUCT_ORDER vertices raises
    CapacityError.
    """
    _chk(is_int(k), "k must be an integer")
    _chk(k >= 3 and k % 2 == 1, "requires odd k >= 3")
    check_product_order(k * k)
    t = (k - 1) // 2
    span = range(-t, t + 1)

    def in_lens(x: int, y: int) -> bool:
        return abs(2 * x - 1) + 2 * abs(y) <= 2 * t - 1

    first = [(x, y) for x in span for y in span if in_lens(x, y)]
    second = [(x, y) for x in span for y in span if abs(x) < t and not in_lens(x, y)]
    first.sort(key=lambda p: (abs(p[1]), 0 if p[1] > 0 else 1, p[0]))
    second.sort(key=lambda p: (abs(p[0]), 0 if p[0] > 0 else 1, p[1]))
    return [(x + t) * k + (y + t) for x, y in first + second]


# ---------------------------------------------------------------------------
# Named bounds per product kind


@dataclass(frozen=True)
class BoundsReport:
    kind: str
    lower: tuple[tuple[str, int], ...]
    upper: tuple[tuple[str, int], ...]

    @property
    def best_lower(self) -> int | None:
        return max((v for _, v in self.lower), default=None)

    @property
    def best_upper(self) -> int | None:
        return min((v for _, v in self.upper), default=None)


def strong_simplicial_upper(
    G: Graph, H: Graph, g_g: int, g_h: int, *, exact_cap: int = PEEL_EXACT_CAP
) -> int:
    """Upper bound for grundy(strong(G, H)) by peeling simplicial vertices,
    given g_g = grundy(G) and g_h = grundy(H).

    A simplicial vertex of G accounts for at most g_h sequence items, so it
    is deleted and g_h is added. When the remaining product is small enough
    its value is added, solved only if neither side is complete (_complete);
    if no simplicial vertex remains the blow-up bound
    min{|V| * g_h, grundy * |V(H)|} finishes instead. When
    G.n * H.n <= exact_cap nothing is peeled.
    """
    cur = G
    total = 0
    while cur.n * H.n > exact_cap and cur.n >= 2:
        v = next((u for u in range(cur.n) if is_simplicial(cur, u)), None)
        if v is None:
            g_cur = g_g if cur is G else grundy(cur, witness=False).value
            return total + min(cur.n * g_h, g_cur * H.n)
        total += g_h
        cur = delete_vertex(cur, v)
    if _complete(cur):
        return total + g_h
    if _complete(H):
        return total + (g_g if cur is G else grundy(cur, witness=False).value)
    return total + grundy(product("strong", cur, H).graph, witness=False).value


def _complete(F: Graph) -> bool:
    """Whether F is complete (K1 included), so that strong(A, F) has value
    grundy(A): (a, x) has closed neighbourhood N[a] x V(F), so a legal
    sequence plays at most one vertex of each fiber {a} x V(F) of true
    twins and projects to a legal sequence of A, and each of those lifts."""
    return 2 * F.m == F.n * (F.n - 1)


def _strong_uppers(G: Graph, H: Graph, g_g: int, g_h: int) -> list[tuple[str, int]]:
    """Named blow-up and simplicial peeling upper bounds for grundy(strong(G, H)),
    from g_g = grundy(G) and g_h = grundy(H), peeling at its better orientation.
    A product of at most PEEL_EXACT_CAP vertices is not peeled, so both
    orientations give its own value and only one is computed."""
    peel = strong_simplicial_upper(G, H, g_g, g_h)
    if G.n * H.n > PEEL_EXACT_CAP:
        peel = min(peel, strong_simplicial_upper(H, G, g_h, g_g))
    return [("strong_min_blowup", min(G.n * g_h, g_g * H.n)), ("strong_simplicial_peeling", peel)]


def product_bounds(kind: str, G: Graph, H: Graph) -> BoundsReport:
    """Every applicable named bound for grundy of the given product.

    Each kind's lower bounds have their own source:
    - cartesian: the walk of construct_product_witness, a maximum sequence
      of each factor replicated across every layer of the other, decided on
      the factors without building the product. The longer legal one is
      kept; the entry is omitted when both collapse, as the replicated length
      can overstate the value when every maximum sequence has a collapsing item.
    - direct: the weighted search of one factor A against the other B (no
      isolated vertex), an item weighing |V(B)| when no earlier item is
      adjacent to it and the total Grundy number of B otherwise; the better
      orientation is kept.
    - lexicographic: max{alpha(G) * grundy(H), grundy(G)}, and the exact
      sequence formula, which is also an upper bound.
    - strong: grundy(G) * grundy(H), with the blow-up and simplicial
      peeling upper bounds.
    """
    kind = normalize_kind(kind)
    if G.n < 1 or H.n < 1:
        raise ParameterError("product factors must be nonempty")
    lower: list[tuple[str, int]] = []
    upper: list[tuple[str, int]] = []
    # both products of H and G are isomorphic to those of G and H, so the
    # replication bounds try both orientations
    if kind == "cartesian":
        # refuse what construct cartesian refuses, then either factor, before any solve
        check_product_order(G.n * H.n)
        for A in (G, H):
            check_components(A, MAX_SOLVER_ORDER, "solver")
        # Walking all of V(B) in each layer of seq is legal exactly when B has
        # no edge or every item d of seq footprints some x != d. If: x gives a
        # fresh (x, h) at every (d, h). Only if: a self-only item's layer is
        # covered only from inside it, where the last vertex of a legal walk
        # of all of V(B) must be isolated, and so on for the prefix before it.
        found = []
        for A, B in ((G, H), (H, G)):
            seq = grundy(A).witness
            owners = {d for x, d in check_sequence(A, seq).footprints.items() if x != d}
            if not B.m or len(owners) == len(seq):
                found.append(len(seq) * B.n)
        if found:
            lower.append(("cartesian_layer_replication", max(found)))
    elif kind == "direct":
        # each orientation solves B in open mode, then the weighted search of
        # A; refuse what either would refuse before any solve
        pairs = [(A, B) for A, B in ((G, H), (H, G)) if not has_isolated_vertex(B)]
        for A, B in pairs:
            check_components(B, MAX_SOLVER_ORDER, "solver")
            check_components(A, WEIGHTED_MAX_ORDER, "weighted search")
        found = [max_weighted_sequence(A, B.n, grundy(B, mode="open", witness=False).value)[0]
                 for A, B in pairs]
        if found:
            lower.append(("direct_layered_replication", max(found)))
    elif kind == "lexicographic":
        # refuse an oversized component of G before H is solved
        check_components(H, MAX_SOLVER_ORDER, "solver")
        check_components(G, WEIGHTED_MAX_ORDER, "weighted search")
        g_h = grundy(H, witness=False).value
        exact, _ = lex_grundy(G, g_h)
        g_g = grundy(G, witness=False).value
        lower.append(
            ("lex_alpha_replication", max(independence_number(G) * g_h, g_g))
        )
        lower.append(("lex_sequence_formula", exact))
        upper.append(("lex_sequence_formula", exact))
        upper.append(("lex_grundy_product", g_g * g_h))
    else:
        for A in (G, H):
            check_components(A, MAX_SOLVER_ORDER, "solver")
        g_g = grundy(G, witness=False).value
        g_h = grundy(H, witness=False).value
        lower.append(("strong_grundy_product", g_g * g_h))
        upper.extend(_strong_uppers(G, H, g_g, g_h))
    return BoundsReport(kind, tuple(lower), tuple(upper))


# ---------------------------------------------------------------------------
# Strong product conjecture scan


@dataclass(frozen=True)
class ScanRecord:
    name_g: str
    name_h: str
    gamma_g: int | None = None
    gamma_h: int | None = None
    gamma_product: int | None = None
    lower: int | None = None
    upper: int | None = None
    status: str = "skipped"  # equality | counterexample | skipped
    reason: str = ""
    witness_g: tuple[int, ...] | None = None
    witness_h: tuple[int, ...] | None = None
    witness_product: tuple[int, ...] | None = None
    # seconds spent on the pair; the search nodes of its solves of G, H and,
    # unless a bound or a complete factor settled the pair, the product (with
    # witnesses too for a counterexample; the peeling bound's own solves are
    # not counted); and the rule that decided it (conjecture_scan): the name
    # of the bound, "complete_factor" or "product" ("" if skipped). Not compared
    elapsed: float = field(default=0.0, compare=False)
    nodes: int = field(default=0, compare=False)
    decided_by: str = field(default="", compare=False)


@dataclass(frozen=True)
class ScanReport:
    records: tuple[ScanRecord, ...]

    @property
    def counterexamples(self) -> list[ScanRecord]:
        return [r for r in self.records if r.status == "counterexample"]

    @property
    def skipped(self) -> list[ScanRecord]:
        return [r for r in self.records if r.status == "skipped"]


def conjecture_scan(
    pairs: Iterable[tuple[Graph, Graph]],
    *,
    time_budget: float | None = None,
) -> ScanReport:
    """Test grundy(strong(G, H)) == grundy(G) * grundy(H) over factor pairs.

    Each pair is classified as equality or counterexample; pairs whose
    product has more than MAX_SOLVER_ORDER vertices, that come past the time
    budget, or one of whose solves goes over the search budget
    (solver.MAX_SEARCH_NODES) are recorded as skipped, with the reason.
    The factors are solved first, which gives the product lower bound
    grundy(G) * grundy(H). A product of more than PEEL_EXACT_CAP vertices
    also gets the blow-up and simplicial peeling upper bounds; a smaller one
    gets only the blow-up bound, since its peeling bound would be its own
    value. An upper bound below the lower bound raises InvariantError. Then
    the first of these rules that holds decides the pair:
    - a peeled product's upper bound meets the lower bound: an equality;
    - a factor is complete (K1 included): an equality, as the strong product
      with K_k blows each vertex up into k true twins, so its value is the
      other factor's;
    - otherwise the product is solved and checked against both bounds, and
      a violation, which would mean a solver bug, raises InvariantError.
    Only the last rule builds the product.
    A counterexample is reported with full witnesses, never asserted away.
    A time budget must be a nonnegative number of seconds (an int or a
    float, not a bool).
    """
    if time_budget is not None:
        _chk(is_int(time_budget) or isinstance(time_budget, float),
             f"time budget must be a number, got {quoted(time_budget)}")
        _chk(time_budget >= 0, f"time budget must be nonnegative, got {time_budget}")
    deadline = None if time_budget is None else time.monotonic() + time_budget
    return ScanReport(tuple(_scan_pair(G, H, deadline) for G, H in pairs))


def _scan_pair(G: Graph, H: Graph, deadline: float | None) -> ScanRecord:
    """The record of one pair of conjecture_scan."""
    name_g, name_h = G.display_name, H.display_name
    if deadline is not None and time.monotonic() > deadline:
        return ScanRecord(name_g, name_h, reason="time budget exhausted")
    if G.n * H.n > MAX_SOLVER_ORDER:
        return ScanRecord(
            name_g, name_h, reason=f"product order {G.n * H.n} exceeds {MAX_SOLVER_ORDER}"
        )
    start = time.perf_counter()
    try:
        solves = [grundy(G, witness=False), grundy(H, witness=False)]
        g_g, g_h = (sol.value for sol in solves)
        lower = g_g * g_h
        small = G.n * H.n <= PEEL_EXACT_CAP
        if small:
            # a small product is solved, not peeled: its peeling bound would be
            # its own value, so the blow-up bound only checks the solve
            bound, upper = None, min(G.n * g_h, g_g * H.n)
        else:
            bound, upper = min(_strong_uppers(G, H, g_g, g_h), key=lambda named: named[1])
        if upper < lower:
            raise InvariantError(
                f"bound violation on {name_g} x {name_h}:"
                f" upper bound {upper} is below lower bound {lower}"
            )
        # the first rule that holds decides the pair (conjecture_scan)
        if bound and upper == lower:
            decided_by, g_p = bound, lower
        elif _complete(G) or _complete(H):
            decided_by, g_p = "complete_factor", lower
        else:
            decided_by = "product"
            prod_graph = product("strong", G, H).graph
            solves.append(grundy(prod_graph, witness=False))
            g_p = solves[-1].value
            if not lower <= g_p <= upper:
                raise InvariantError(
                    f"bound violation on {name_g} x {name_h}:"
                    f" expected {lower} <= {g_p} <= {upper}"
                )
        if small:
            upper = min(upper, g_p)
        witnesses = (None, None, None)
        if g_p != lower:
            witnessed = [grundy(G), grundy(H), grundy(prod_graph)]
            solves.extend(witnessed)
            witnesses = tuple(tuple(sol.witness) for sol in witnessed)
    except CapacityError as exc:
        # a solve over the search budget leaves the pair undecided
        return ScanRecord(name_g, name_h, reason=str(exc))
    return ScanRecord(
        name_g, name_h, gamma_g=g_g, gamma_h=g_h, gamma_product=g_p, lower=lower, upper=upper,
        status="equality" if g_p == lower else "counterexample",
        witness_g=witnesses[0], witness_h=witnesses[1], witness_product=witnesses[2],
        elapsed=time.perf_counter() - start,
        nodes=sum(sol.stats.nodes for sol in solves),
        decided_by=decided_by,
    )


# ---------------------------------------------------------------------------
# Isoperimetric spot checks


@dataclass(frozen=True)
class IsoReport:
    ball_size: int
    ball_boundary: int
    checked: int
    violations: int
    exhaustive: bool
    examples: tuple[int, ...]


def isoperimetric_check(
    kind: str,
    factors: Sequence[int],
    r: int,
    *,
    trials: int | None = None,
    seed: int = 0,
) -> IsoReport:
    """Check that balls minimize boundary among equal-size vertex subsets.

    kind 'even-torus' builds cart(C_2k1, ..., C_2kn) from half-lengths;
    'grid' builds cart(P_k1, ..., P_kn) and measures the ball around the
    corner vertex (minimum degree), where the inequality is stated. A
    product above MAX_PRODUCT_ORDER vertices raises CapacityError before it
    is built. With trials=None all subsets of the ball's size are enumerated
    (at most SUBSET_ENUM_LIMIT); otherwise that many seeded random subsets
    are tested, again at most SUBSET_ENUM_LIMIT. Violations are reported,
    not asserted: zero is the expected outcome for these proved
    inequalities, so any hit points at the ball/boundary code.
    """
    _chk(kind in ("even-torus", "grid"), "kind must be 'even-torus' or 'grid'")
    factors = tuple(factors)
    _chk(len(factors) >= 1, "at least one factor is required")
    _chk(all(is_int(f) for f in factors), "factors must be integers")
    _chk(all(f >= 2 for f in factors), "factors must be at least 2")
    _chk(is_int(r), "r must be an integer")
    _chk(r >= 0, "r must be non-negative")
    torus = kind == "even-torus"
    order = math.prod(2 * f if torus else f for f in factors)
    check_product_order(order)
    prod_graph = _product_of("cartesian", *(cycle(2 * f) if torus else path(f) for f in factors))
    # vertex 0 is (0, ..., 0): any torus vertex, the grid corner
    ball_mask = ball(prod_graph, 0, r)
    size = ball_mask.bit_count()
    ball_boundary = boundary(prod_graph, ball_mask).bit_count()
    violations = 0
    examples: list[int] = []
    subsets, checked = _subsets(prod_graph.n, size, trials, seed)
    for mask in subsets:
        if boundary(prod_graph, mask).bit_count() < ball_boundary:
            violations += 1
            if len(examples) < 5:
                examples.append(mask)
    return IsoReport(
        ball_size=size,
        ball_boundary=ball_boundary,
        checked=checked,
        violations=violations,
        exhaustive=trials is None,
        examples=tuple(examples),
    )
