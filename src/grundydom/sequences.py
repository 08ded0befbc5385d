"""Legality checking, footprints, and the a-value of vertex sequences.

A sequence is legal in closed mode when every item's closed neighborhood
contributes at least one vertex not covered by earlier items; open mode uses
open neighborhoods instead. The footprint of a covered vertex is the first
item that covered it. The a-value counts items with no earlier item adjacent
to them (the first item always counts).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ParameterError
from .graphs import Graph, bit_indices, is_int, mode_rows


@dataclass
class SequenceReport:
    dominating: bool
    footprints: dict[int, int] = field(default_factory=dict)
    a_value: int = 0
    length: int = 0
    illegal_at: int | None = None

    @property
    def legal(self) -> bool:
        return self.illegal_at is None


def _validated_items(G: Graph, items) -> list[int]:
    items = list(items)
    seen = 0
    for it in items:
        if not is_int(it) or not 0 <= it < G.n:
            raise ParameterError(f"sequence item {it} out of range")
        if seen >> it & 1:
            raise ParameterError(f"repeated vertex {it} in sequence")
        seen |= 1 << it
    return items


def check_sequence(G: Graph, items, mode: str = "closed") -> SequenceReport:
    """Walk the sequence, recording footprints and whether each step was legal.

    The dominating flag only says the covered union reached V(G); a sequence
    is a dominating (respectively total dominating) sequence when it is also
    legal. Illegal items cover nothing, and the walk continues past them so
    the report describes the whole input.
    """
    items = _validated_items(G, items)
    rows = mode_rows(G, mode)

    dominated = 0
    chosen = 0
    illegal_at = None
    a = 0
    footprints: dict[int, int] = {}
    for pos, it in enumerate(items):
        if G.adj[it] & chosen == 0:
            a += 1
        new = rows[it] & ~dominated
        if new == 0 and illegal_at is None:
            illegal_at = pos
        for u in bit_indices(new):
            footprints[u] = it
        dominated |= new
        chosen |= 1 << it
    return SequenceReport(
        dominating=dominated == G.full_mask,
        footprints=footprints,
        a_value=a,
        length=len(items),
        illegal_at=illegal_at,
    )
