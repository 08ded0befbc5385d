"""The four standard graph products on a common row-major vertex encoding.

A product vertex (g, h) gets id g * H.n + h. Given factor edges g1g2 and h1h2:

  cartesian      (g1,h1)~(g2,h2)  iff  g1g2 edge and h1=h2, or g1=g2 and h1h2 edge
  direct         iff  g1g2 edge and h1h2 edge
  strong         union of cartesian and direct adjacency
  lexicographic  iff  g1g2 edge, or g1=g2 and h1h2 edge

Rows are built directly: the row of (g, h) is Z(h) placed in layer g (the
H.n bits of vertex g) plus Y(h) placed in every layer g' in N(g), with

  cartesian  Y = {h},   Z = N(h)      strong         Y = N[h],  Z = N(h)
  direct     Y = N(h),  Z = empty     lexicographic  Y = V(H),  Z = N(h)
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityError, ParameterError, quoted
from .graphs import Graph, bit_indices, mask_of, mode_rows

KINDS = ("cartesian", "strong", "direct", "lexicographic")
# Largest product order built: its rows take about order**2 / 8 bytes, 2 MB here
MAX_PRODUCT_ORDER = 4096

_ALIASES = {"lex": "lexicographic", "box": "cartesian", "cart": "cartesian"}


def normalize_kind(kind: str) -> str:
    kind = _ALIASES.get(kind, kind)
    if kind not in KINDS:
        raise ParameterError(f"unknown product kind {quoted(kind)}")
    return kind


@dataclass(frozen=True)
class ProductDescriptor:
    """A built product graph; vertex (g, h) of factors G, H is g * H.n + h."""

    graph: Graph


def check_product_order(order: int) -> None:
    """CapacityError when a product of this order would exceed MAX_PRODUCT_ORDER."""
    if order > MAX_PRODUCT_ORDER:
        raise CapacityError(f"product order {order} exceeds product cap {MAX_PRODUCT_ORDER}")


def product(kind: str, G: Graph, H: Graph) -> ProductDescriptor:
    """Build the requested product of G and H (at most MAX_PRODUCT_ORDER vertices)."""
    kind = normalize_kind(kind)
    nG, nH = G.n, H.n
    if nG < 1 or nH < 1:
        raise ParameterError("product factors must be nonempty")
    check_product_order(nG * nH)
    Z = H.adj
    if kind == "cartesian":
        Y = [1 << h for h in range(nH)]
    elif kind == "direct":
        Y, Z = H.adj, (0,) * nH
    elif kind == "strong":
        Y = mode_rows(H, "closed")
    else:
        Y = ((1 << nH) - 1,) * nH
    rows = []
    for g, nb in enumerate(G.adj):
        # one bit at the base of each layer g' in N(g); times Y(h) it fills them all
        spread = mask_of(u * nH for u in bit_indices(nb))
        rows.extend(z << g * nH | y * spread for y, z in zip(Y, Z))
    name = f"{kind}({G.display_name},{H.display_name})"
    return ProductDescriptor(Graph._from_rows(rows, name))
