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
  Grundy domination of paths and cycles), each guarded by its preconditions,
* constructive witness builders, one per product lower bound; the four
  product builders share one layered walk, which replicates a factor
  sequence layer by layer and splits its items by the a-value rule,
* per-product-kind named lower/upper bounds,
* a scan harness for the conjecture that the strong product is
  multiplicative for the Grundy domination number, and
* isoperimetric spot checks for the ball/boundary machinery used by the
  torus and multi-product arguments.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

from .errors import CapacityError, InvariantError, ParameterError
from .graphs import (
    Graph,
    ball,
    bit_indices,
    boundary,
    cycle,
    delete_vertex,
    has_isolated_vertex,
    independence_number,
    is_simplicial,
    mask_of,
    path,
)
from .products import check_product_order, normalize_kind, product
from .sequences import SequenceReport, check_sequence
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
# many vertices, and the scan solves such a product whole without bounds;
# on the census scan pairs 16 measured faster than 8, 12, 20 or 24
PEEL_EXACT_CAP = 16


def _chk(cond: bool, msg: str) -> None:
    if not cond:
        raise ParameterError(msg)


# ---------------------------------------------------------------------------
# Edge clique cover


def is_triangle_free(G: Graph) -> bool:
    return all(not (G.adj[u] & G.adj[v]) for u, v in G.edges())


def maximal_cliques(G: Graph) -> list[int]:
    """All maximal cliques as vertex masks (Bron-Kerbosch with pivoting)."""
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        pivot = max(bit_indices(p | x), key=lambda v: (G.adj[v] & p).bit_count())
        for v in bit_indices(p & ~G.adj[pivot]):
            vb = 1 << v
            expand(r | vb, p & G.adj[v], x & G.adj[v])
            p &= ~vb
            x |= vb

    if G.n:
        expand(0, G.full_mask, 0)
    return out


def _min_set_cover(n_items: int, sets: list[int]) -> int:
    """Exact minimum number of sets (as item masks) covering all n_items."""
    full = (1 << n_items) - 1
    covered, best = 0, 0
    while covered != full:
        covered |= max(sets, key=lambda s: (s & ~covered).bit_count())
        best += 1
    biggest = max(s.bit_count() for s in sets)
    by_item = [[s for s in sets if s >> i & 1] for i in range(n_items)]

    def descend(covered: int, used: int) -> None:
        nonlocal best
        missing = full & ~covered
        if missing == 0:
            best = min(best, used)
            return
        if used + (missing.bit_count() + biggest - 1) // biggest >= best:
            return
        # branch on the item with fewest candidate sets
        item = min(bit_indices(missing), key=lambda i: len(by_item[i]))
        for s in sorted(by_item[item], key=lambda s: -(s & ~covered).bit_count()):
            descend(covered | s, used + 1)

    descend(0, 0)
    return best


def edge_clique_cover_number(G: Graph) -> int:
    """Minimum number of cliques covering every edge of G (exact).

    Triangle-free graphs need one clique per edge, so that case is answered
    directly. Otherwise solve set cover over the edges with maximal cliques
    as the candidate sets; a minimum cover by arbitrary cliques can always
    be grown to one by maximal cliques, so this is exact. Graphs above
    THETA_MAX_ORDER vertices raise CapacityError.
    """
    if G.n > THETA_MAX_ORDER:
        raise CapacityError(
            f"edge clique cover is exact only up to {THETA_MAX_ORDER} vertices,"
            f" got {G.n}"
        )
    edges = G.edges()
    if not edges:
        return 0
    if is_triangle_free(G):
        return len(edges)
    edge_idx = {e: i for i, e in enumerate(edges)}
    sets = []
    for clique in maximal_cliques(G):
        vs = bit_indices(clique)
        if len(vs) < 2:
            continue
        m = 0
        for i, u in enumerate(vs):
            for v in vs[i + 1:]:
                m |= 1 << edge_idx[(u, v)]
        sets.append(m)
    return _min_set_cover(len(edges), sets)


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
    m: int
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
    SUBSET_ENUM_LIMIT of them raise CapacityError. Passing trials switches
    to seeded random sampling; the result is then explicitly flagged as
    uncertified.
    """
    _chk(1 <= m <= G.n, "m must satisfy 1 <= m <= n")
    subsets, checked, exhaustive = _subsets(G.n, m, trials, seed)
    best = min(boundary(G, mask).bit_count() for mask in subsets)
    return BoundaryBound(G.n, m, best, certified=exhaustive, checked=checked)


def _subsets(
    n: int, m: int, trials: int | None, seed: int
) -> tuple[Iterator[int], int, bool]:
    """m-subsets of range(n) as masks, how many there are, and whether that is all.

    With trials=None every one of the C(n, m) subsets is yielded, guarded by
    SUBSET_ENUM_LIMIT; otherwise trials subsets drawn by
    random.Random(seed).sample.
    """
    if trials is None:
        total = math.comb(n, m)
        if total > SUBSET_ENUM_LIMIT:
            raise CapacityError(
                f"C({n},{m}) = {total} subsets exceed the exhaustive guard"
                f" ({SUBSET_ENUM_LIMIT}); pass trials= to sample"
            )
        return (mask_of(c) for c in combinations(range(n), m)), total, True
    _chk(trials >= 1, "trials must be positive")
    rng = random.Random(seed)
    return (mask_of(rng.sample(range(n), m)) for _ in range(trials)), trials, False


# ---------------------------------------------------------------------------
# Formula catalog


@dataclass(frozen=True)
class FormulaEntry:
    """A catalog entry; fn takes one parameter per word of the signature, or
    *params when the signature contains '...'."""

    signature: str
    exactness: str  # exact | lower-bound | upper-bound | conjectured
    fn: Callable[..., int]


FORMULAS: dict[str, FormulaEntry] = {}


def _formula(formula_id: str, signature: str, exactness: str):
    def register(fn: Callable[..., int]):
        FORMULAS[formula_id] = FormulaEntry(signature, exactness, fn)
        return fn

    return register


@_formula("thm_cart_grid", "k l", "exact")
def _cart_grid(k, l):
    """cart(P_k, P_l) = k(l-1) for 2 <= k <= l."""
    _chk(2 <= k <= l, "requires 2 <= k <= l")
    return k * (l - 1)


@_formula("thm_cart_cylinder", "k l", "exact")
def _cart_cylinder(k, l):
    """cart(P_k, C_l) = max{l(k-1), k(l-2)} for k >= 2, l >= 3."""
    _chk(k >= 2, "requires k >= 2")
    _chk(l >= 3, "requires l >= 3")
    return max(l * (k - 1), k * (l - 2))


@_formula("thm_cart_torus", "k l", "exact")
def _cart_torus(k, l):
    """cart(C_k, C_l) = k(l-2) for 3 <= k <= l, except k = l odd."""
    _chk(3 <= k <= l, "requires 3 <= k <= l")
    _chk(not (k == l and k % 2 == 1), "equal odd lengths are a separate case")
    return k * (l - 2)


@_formula("thm_cart_torus_odd", "k", "exact")
def _cart_torus_odd(k):
    """cart(C_k, C_k) = k(k-2)+1 for odd k >= 3."""
    _chk(k >= 3 and k % 2 == 1, "requires odd k >= 3")
    return k * (k - 2) + 1


@_formula("prop_cart_multi_cycles", "k1 ... kn", "exact")
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


@_formula("prop_cart_multi_paths", "k1 ... kn", "exact")
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


def _lex_path_value(k: int, gamma_h: int) -> int:
    _chk(k >= 1, "requires k >= 1")
    _chk(k != 2, "k = 2 has no closed form; solve lex_grundy directly")
    _chk(gamma_h >= 2, "requires gamma_h >= 2 (second factor must not be complete)")
    if k % 2 == 0:
        return (k // 2) * gamma_h + 1
    return ((k + 1) // 2) * gamma_h


def _lex_cycle_value(k: int, gamma_h: int) -> int:
    _chk(k >= 4, "requires k >= 4")
    _chk(gamma_h >= 2, "requires gamma_h >= 2 (second factor must not be complete)")
    if k % 2 == 0:
        return (k // 2) * gamma_h
    return (k // 2) * gamma_h + 1


@_formula("cor_lex_path_H", "k gamma_h", "exact")
def _lex_path_h(k, gamma_h):
    """lex(P_k, H) from gamma_h = grundy(H); k >= 1, k != 2, H not complete."""
    return _lex_path_value(k, gamma_h)


@_formula("cor_lex_path_path", "k l", "exact")
def _lex_path_path(k, l):
    """lex(P_k, P_l) for k, l >= 3."""
    _chk(k >= 3, "requires k >= 3")
    _chk(l >= 3, "requires l >= 3")
    return _lex_path_value(k, l - 1)


@_formula("cor_lex_path_cycle", "k l", "exact")
def _lex_path_cycle(k, l):
    """lex(P_k, C_l) for k >= 3, l >= 4 (C_3 is complete, so l = 3 is out)."""
    _chk(k >= 3, "requires k >= 3")
    _chk(l >= 4, "requires l >= 4")
    return _lex_path_value(k, l - 2)


@_formula("cor_lex_cycle_H", "k gamma_h", "exact")
def _lex_cycle_h(k, gamma_h):
    """lex(C_k, H) from gamma_h = grundy(H); k >= 4, H not complete."""
    return _lex_cycle_value(k, gamma_h)


@_formula("cor_lex_cycle_cycle", "k l", "exact")
def _lex_cycle_cycle(k, l):
    """lex(C_k, C_l) for k >= 4, l >= 4."""
    _chk(k >= 4, "requires k >= 4")
    _chk(l >= 4, "requires l >= 4")
    return _lex_cycle_value(k, l - 2)


@_formula("cor_direct_PC", "k l", "lower-bound")
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


@_formula("cor_direct_CC", "k l", "lower-bound")
def _direct_cc(k, l):
    """direct(C_k, C_l) lower bound for 4 <= k <= l, by parity."""
    _chk(4 <= k <= l, "requires 4 <= k <= l")
    if k % 2 == 1:
        return k * l - 2 * k - l + 3
    if l % 2 == 0:
        return k * l - 2 * k - 2 * l + 6
    return k * l - k - 2 * l + 3


@_formula("cor_direct_PP", "k l", "lower-bound")
def _direct_pp(k, l):
    """direct(P_k, P_l) lower bound for 2 <= k <= l, by parity."""
    _chk(2 <= k <= l, "requires 2 <= k <= l")
    if k % 2 == 0:
        return k * l - k
    if l % 2 == 1:
        return k * l - k - l + 3
    return max(k * l - l, k * l - k - l + 3)


@_formula("prop_direct_PP_upper", "k l", "upper-bound")
def _direct_pp_upper(k, l):
    """direct(P_k, P_l) <= kl - k for 2 <= k <= l."""
    _chk(2 <= k <= l, "requires 2 <= k <= l")
    return k * l - k


@_formula("cor_direct_PP_even", "k l", "exact")
def _direct_pp_even(k, l):
    """direct(P_k, P_l) = kl - k for even 2 <= k <= l."""
    _chk(2 <= k <= l, "requires 2 <= k <= l")
    _chk(k % 2 == 0, "requires even k")
    return k * l - k


@_formula("cor_strong_grid", "k l", "exact")
def _strong_grid(k, l):
    """strong(P_k, P_l) = (k-1)(l-1) for k, l >= 2."""
    _chk(k >= 2, "requires k >= 2")
    _chk(l >= 2, "requires l >= 2")
    return (k - 1) * (l - 1)


@_formula("cor_strong_cylinder", "k l", "exact")
def _strong_cylinder(k, l):
    """strong(P_k, C_l) = (k-1)(l-2) for k >= 2, l >= 3."""
    _chk(k >= 2, "requires k >= 2")
    _chk(l >= 3, "requires l >= 3")
    return (k - 1) * (l - 2)


@_formula("cor_strong_torus_upper", "k l", "upper-bound")
def _strong_torus_upper(k, l):
    """strong(C_k, C_l) <= (k-2)(l-1) for 3 <= k <= l."""
    _chk(3 <= k <= l, "requires 3 <= k <= l")
    return (k - 2) * (l - 1)


@_formula("conj_strong_torus", "k l", "conjectured")
def _strong_torus_conj(k, l):
    """strong(C_k, C_l) = (k-2)(l-2) for 3 <= k <= l, if the product conjecture holds."""
    _chk(3 <= k <= l, "requires 3 <= k <= l")
    return (k - 2) * (l - 2)


@_formula("cor_strong_multi_paths", "k1 ... kn", "exact")
def _strong_multi_paths(*params):
    """strong(P_k1, ..., P_kn) = (k1-1)...(kn-1)."""
    _chk(len(params) >= 1, "expects at least one order")
    _chk(all(k >= 2 for k in params), "requires every ki >= 2")
    return math.prod(k - 1 for k in params)


@_formula("cor_strong_multi_paths_cycle", "k1 ... kn l", "exact")
def _strong_multi_paths_cycle(*params):
    """strong(P_k1, ..., P_kn, C_l) = (k1-1)...(kn-1)(l-2); last parameter is l."""
    _chk(len(params) >= 2, "expects path orders followed by a cycle length")
    *ks, l = params
    _chk(all(k >= 2 for k in ks), "requires every ki >= 2")
    _chk(l >= 3, "requires l >= 3")
    return math.prod(k - 1 for k in ks) * (l - 2)


@_formula("gamma_t_path", "k", "exact")
def _gamma_t_path(k):
    """Grundy total domination number of P_k for k >= 2."""
    _chk(k >= 2, "requires k >= 2")
    return k if k % 2 == 0 else k - 1


@_formula("gamma_t_cycle", "l", "exact")
def _gamma_t_cycle(l):
    """Grundy total domination number of C_l for l >= 3."""
    _chk(l >= 3, "requires l >= 3")
    return l - 2 if l % 2 == 0 else l - 1


def formula_value(formula_id: str, params: Iterable[int]) -> tuple[int, str]:
    """Evaluate a catalog entry; returns (value, exactness).

    Preconditions are enforced literally; out-of-range parameters raise a
    ParameterError naming the violated condition rather than extrapolating.
    """
    entry = FORMULAS.get(formula_id)
    if entry is None:
        known = ", ".join(sorted(FORMULAS))
        raise ParameterError(f"unknown formula id '{formula_id}' (known: {known})")
    params = tuple(params)
    _chk(
        all(isinstance(p, int) and not isinstance(p, bool) for p in params),
        "parameters must be integers",
    )
    try:
        count = len(entry.signature.split())
        _chk(
            "..." in entry.signature or len(params) == count,
            f"expects {count} parameter(s) ({entry.signature}), got {len(params)}",
        )
        value = entry.fn(*params)
    except ParameterError as exc:
        raise ParameterError(f"{formula_id}: {exc}") from None
    return value, entry.exactness


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


def _layered_witness(
    kind: str,
    G: Graph,
    seq_g: Sequence[int],
    H: Graph,
    fresh: Sequence[int],
    dependent: Sequence[int],
) -> tuple[list[int], SequenceReport]:
    """Replicate seq_g layer by layer on the kind product of G and H.

    An item of seq_g with no earlier neighbor (the a-value split) walks the
    H-vertices fresh inside its layer, every other item walks dependent.
    Returns the sequence and its check_sequence report on the product.
    """
    desc = product(kind, G, H)
    out: list[int] = []
    chosen = 0
    for d in seq_g:
        out.extend(desc.index(d, h) for h in (dependent if G.adj[d] & chosen else fresh))
        chosen |= 1 << d
    return out, check_sequence(desc.graph, out)


def construct_cartesian_witness(G: Graph, H: Graph, seq_g: Sequence[int]) -> list[int]:
    """Replicate a dominating sequence of G across every H-layer.

    Produces ((d_1,0),...,(d_1,nH-1),...,(d_m,nH-1)) on cart(G, H), of length
    len(seq_g) * |V(H)|. Replication is legal whenever every seq_g item
    footprints some vertex other than itself; an item whose only footprint is
    itself collapses inside its own layer, and the sequence is rejected with
    the failing position named. The replicated length can then be genuinely
    out of reach: every maximum sequence of star(4) contains a self-only
    footprinter, and grundy(cart(star(4), path(3))) is 8, short of 3 * 3.
    """
    _require_sequence(G, seq_g, "closed", "seq_g")
    out, rep = _layered_witness("cartesian", G, seq_g, H, range(H.n), range(H.n))
    if not rep.legal:
        d, h = divmod(out[rep.illegal_at], H.n)
        raise ParameterError(
            f"replicating seq_g over {H.display_name} is illegal at position"
            f" {rep.illegal_at} (factor item {d}, layer {h}); choose a"
            " sequence whose items each footprint a vertex besides themselves"
        )
    assert rep.dominating and rep.length == len(list(seq_g)) * H.n
    return out


def construct_complete_grid_witness(n: int, m: int) -> list[int]:
    """Length n+m-2 sequence on cart(K_n, K_m): first column then first row.

    Walks (a_0,b_0),...,(a_{n-2},b_0), then (a_0,b_1),...,(a_0,b_{m-1}).
    Each column item opens a fresh row; each row item reaches row n-1 in a
    fresh column. Exceeds the layer-replication lower bound max{n, m}. A
    product above MAX_PRODUCT_ORDER vertices raises CapacityError.
    """
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


def construct_lex_witness(
    G: Graph, seq_g: Sequence[int], H: Graph, seq_h: Sequence[int]
) -> list[int]:
    """Witness on lex(G, H) of length a(seq_g)(len(seq_h)-1) + len(seq_g).

    Items of seq_g with no earlier neighbor expand to a full copy of seq_h
    inside their layer; every other item contributes a single vertex. Valid
    for any legal dominating inputs.
    """
    _require_sequence(G, seq_g, "closed", "seq_g")
    _require_sequence(H, seq_h, "closed", "seq_h")
    out, rep = _layered_witness("lexicographic", G, seq_g, H, seq_h, seq_h[:1])
    assert rep.legal and rep.dominating
    return out


def construct_direct_witness(
    G: Graph, seq_g: Sequence[int], H: Graph, total_seq_h: Sequence[int]
) -> list[int]:
    """Witness on direct(G, H) from a dominating sequence of G and a total
    dominating sequence of H.

    Items of seq_g with no earlier neighbor contribute their whole H-layer
    (an independent set, still untouched); every other item walks total_seq_h
    inside its layer. Length a|V(H)| + len(total_seq_h)(len(seq_g) - a) where
    a counts the no-earlier-neighbor items.
    """
    _require_sequence(G, seq_g, "closed", "seq_g")
    _require_sequence(H, total_seq_h, "open", "total_seq_h")
    out, rep = _layered_witness("direct", G, seq_g, H, range(H.n), total_seq_h)
    assert rep.legal and rep.dominating
    return out


def construct_strong_witness(
    G: Graph, seq_g: Sequence[int], H: Graph, seq_h: Sequence[int]
) -> list[int]:
    """The all-pairs witness on strong(G, H), length len(seq_g)*len(seq_h).

    Pair (d_i, d'_j) footprints (u_i, u'_j) where u_i, u'_j are the factor
    footprints, so the full pairing is legal for any legal dominating inputs.
    """
    _require_sequence(G, seq_g, "closed", "seq_g")
    _require_sequence(H, seq_h, "closed", "seq_h")
    out, rep = _layered_witness("strong", G, seq_g, H, seq_h, seq_h)
    assert rep.legal and rep.dominating
    return out


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
    G: Graph,
    H: Graph,
    *,
    exact_cap: int = PEEL_EXACT_CAP,
    g_g: int | None = None,
    g_h: int | None = None,
) -> int:
    """Upper bound for grundy(strong(G, H)) by peeling simplicial vertices.

    A simplicial vertex of G accounts for at most grundy(H) sequence items,
    so it is deleted and grundy(H) is added. When the remaining product is
    small enough it is solved exactly (a single vertex left adds grundy(H),
    as strong(K1, H) is H); if no simplicial vertex remains the
    blow-up bound min{|V| * grundy(H), grundy * |V(H)|} finishes instead.
    g_g and g_h are grundy(G) and grundy(H) when the caller knows them. When
    G.n * H.n <= exact_cap nothing is peeled.
    """
    if g_h is None:
        g_h = grundy(H, witness=False).value
    cur = G
    total = 0
    while cur.n * H.n > exact_cap and cur.n >= 2:
        v = next((u for u in range(cur.n) if is_simplicial(cur, u)), None)
        if v is None:
            if cur is not G or g_g is None:
                g_g = grundy(cur, witness=False).value
            return total + min(cur.n * g_h, g_g * H.n)
        total += g_h
        cur = delete_vertex(cur, v)
    if cur.n == 1:  # strong(K1, H) is H
        return total + g_h
    return total + grundy(product("strong", cur, H).graph, witness=False).value


def _strong_uppers(G: Graph, H: Graph, g_g: int, g_h: int) -> tuple[int, int]:
    """Blow-up and simplicial peeling upper bounds for grundy(strong(G, H)),
    from g_g = grundy(G) and g_h = grundy(H); the peeling bound is the
    better of its two orientations."""
    blowup = min(G.n * g_h, g_g * H.n)
    peel = min(
        strong_simplicial_upper(G, H, g_g=g_g, g_h=g_h),
        strong_simplicial_upper(H, G, g_g=g_h, g_h=g_g),
    )
    return blowup, peel


def product_bounds(kind: str, G: Graph, H: Graph) -> BoundsReport:
    """Every applicable named bound for grundy of the given product.

    Lower bounds are realized by the corresponding construct_* builders. The
    cartesian replication entry is emitted only when a maximum factor
    sequence actually replicates (both orientations are tried, longest
    certified length wins) and is omitted when both collapse; assuming the
    replicated length unconditionally overstates the value on factors whose
    maximum sequences all contain a self-only footprinter. The lexicographic
    kind carries its exact sequence formula in both lists.
    """
    kind = normalize_kind(kind)
    if G.n < 1 or H.n < 1:
        raise ParameterError("product factors must be nonempty")
    lower: list[tuple[str, int]] = []
    upper: list[tuple[str, int]] = []
    # both products of H and G are isomorphic to those of G and H, so the
    # replication bounds try both orientations
    if kind == "cartesian":
        # construct_cartesian_witness builds the product: refuse its order before any solve
        check_product_order(G.n * H.n)
        found = []
        for A, B in ((G, H), (H, G)):
            try:
                found.append(len(construct_cartesian_witness(A, B, grundy(A).witness)))
            except ParameterError:
                pass
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
        g_g = grundy(G, witness=False).value
        g_h = grundy(H, witness=False).value
        blowup, peel = _strong_uppers(G, H, g_g, g_h)
        lower.append(("strong_grundy_product", g_g * g_h))
        upper.append(("strong_min_blowup", blowup))
        upper.append(("strong_simplicial_peeling", peel))
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
    # unless the bounds settled the pair, the product (with witnesses too for
    # a counterexample; the peeling bound's own solves are not counted); and
    # whether the bounds settled it. Records compare without these
    elapsed: float = field(default=0.0, compare=False)
    nodes: int = field(default=0, compare=False)
    settled: bool = field(default=False, compare=False)


@dataclass(frozen=True)
class ScanReport:
    records: tuple[ScanRecord, ...]

    def by_status(self, status: str) -> list[ScanRecord]:
        return [r for r in self.records if r.status == status]

    @property
    def counterexamples(self) -> list[ScanRecord]:
        return self.by_status("counterexample")

    @property
    def skipped(self) -> list[ScanRecord]:
        return self.by_status("skipped")


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
    then gets the blow-up and simplicial peeling upper bounds; when they
    meet the lower bound the pair is settled as an equality without solving
    the product, and an upper bound below it raises InvariantError. Every
    other product is solved and checked against both bounds (its peeling
    bound would be its own value, so the blow-up bound checks the solver
    there); a violation would mean a solver bug and raises InvariantError.
    A counterexample is reported with full witnesses, never asserted away.
    A time budget must be a nonnegative number of seconds.
    """
    if time_budget is not None and not time_budget >= 0:
        raise ParameterError(f"time budget must be nonnegative, got {time_budget}")
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
        peeled = G.n * H.n > PEEL_EXACT_CAP
        # on a smaller product the peeling bound deletes no vertex and would
        # be the product's own value, so only the blow-up bound comes first
        upper = min(_strong_uppers(G, H, g_g, g_h)) if peeled else min(G.n * g_h, g_g * H.n)
        if upper < lower:
            raise InvariantError(
                f"bound violation on {name_g} x {name_h}:"
                f" upper bound {upper} is below lower bound {lower}"
            )
        settled = peeled and upper == lower
        if settled:
            g_p = lower
        else:
            prod_graph = product("strong", G, H).graph
            solves.append(grundy(prod_graph, witness=False))
            g_p = solves[-1].value
            if not peeled:
                upper = min(upper, g_p)
            if not lower <= g_p <= upper:
                raise InvariantError(
                    f"bound violation on {name_g} x {name_h}:"
                    f" expected {lower} <= {g_p} <= {upper}"
                )
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
        settled=settled,
    )


# ---------------------------------------------------------------------------
# Isoperimetric spot checks


@dataclass(frozen=True)
class IsoReport:
    kind: str
    factors: tuple[int, ...]
    r: int
    ball_size: int
    ball_boundary: int
    checked: int
    violations: int
    exhaustive: bool
    examples: tuple[int, ...] = field(default=())


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
    are tested. Violations are reported, not asserted: zero is the expected
    outcome for these proved inequalities, so any hit points at the
    ball/boundary code.
    """
    _chk(kind in ("even-torus", "grid"), "kind must be 'even-torus' or 'grid'")
    factors = tuple(factors)
    _chk(len(factors) >= 1, "at least one factor is required")
    _chk(all(f >= 2 for f in factors), "factors must be at least 2")
    _chk(r >= 0, "r must be non-negative")
    torus = kind == "even-torus"
    order = math.prod(2 * f if torus else f for f in factors)
    check_product_order(order)
    graphs = [cycle(2 * f) if torus else path(f) for f in factors]
    prod_graph = graphs[0]
    for g in graphs[1:]:
        prod_graph = product("cartesian", prod_graph, g).graph
    # vertex 0 is (0, ..., 0): any torus vertex, the grid corner
    ball_mask = ball(prod_graph, 0, r)
    size = ball_mask.bit_count()
    ball_boundary = boundary(prod_graph, ball_mask).bit_count()
    violations = 0
    examples: list[int] = []
    subsets, checked, exhaustive = _subsets(prod_graph.n, size, trials, seed)
    for mask in subsets:
        if boundary(prod_graph, mask).bit_count() < ball_boundary:
            violations += 1
            if len(examples) < 5:
                examples.append(mask)
    return IsoReport(
        kind=kind,
        factors=factors,
        r=r,
        ball_size=size,
        ball_boundary=ball_boundary,
        checked=checked,
        violations=violations,
        exhaustive=exhaustive,
        examples=tuple(examples),
    )
