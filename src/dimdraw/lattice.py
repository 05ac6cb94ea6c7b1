"""Derivation operators, concept enumeration, and the lattice order.

Extents and intents are handled as bitmasks over the object/attribute
index universes; derivation is intersection-heavy and this keeps it
cheap.  The concept list is canonical: sorted ascending by extent
bitmask, which puts the bottom concept at index 0 and the top at index
n-1 and makes every downstream artifact reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .context import FormalContext
from .errors import ContractViolation, LatticeTooLargeError

DEFAULT_CONCEPT_CAP = 100_000


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Concept:
    """A formal concept (extent, intent) with its extent as a bitmask."""

    extent: frozenset[int]
    intent: frozenset[int]
    extent_mask: int


@dataclass(frozen=True)
class ConceptLattice:
    """All concepts of a context, with their order and covers.

    ``up_masks[i]`` is the bitmask of concept indices j with i <= j
    (including i itself); ``covers`` is the transitive reduction of that
    order.
    """

    concepts: tuple[Concept, ...]
    up_masks: tuple[int, ...]
    covers: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return len(self.concepts)

    @property
    def bottom(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return len(self.concepts) - 1

    def leq(self, i: int, j: int) -> bool:
        """Order by extent inclusion."""
        return bool(self.up_masks[i] >> j & 1)


def derive_objects(ctx: FormalContext, objects: Iterable[int]) -> frozenset[int]:
    """Attributes shared by every object in the set (all of M for the empty set)."""
    rows = ctx.object_rows()
    mask = (1 << ctx.n_attributes) - 1
    for g in objects:
        if not 0 <= g < ctx.n_objects:
            raise IndexError(f"object index {g} out of range")
        mask &= rows[g]
    return frozenset(_bits(mask))


def derive_attributes(ctx: FormalContext, attributes: Iterable[int]) -> frozenset[int]:
    """Objects sharing every attribute in the set (all of G for the empty set)."""
    cols = ctx.attribute_cols()
    mask = (1 << ctx.n_objects) - 1
    for m in attributes:
        if not 0 <= m < ctx.n_attributes:
            raise IndexError(f"attribute index {m} out of range")
        mask &= cols[m]
    return frozenset(_bits(mask))


def transitive_reduction(leq_masks: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """Cover pairs (x, y): x < y with no z strictly between.

    ``leq_masks[i]`` must be the bitmask of all j with i <= j, i
    included; any finite order works, not just lattices.
    """
    masks = list(leq_masks)
    n = len(masks)
    down = [0] * n
    for i in range(n):
        for j in _bits(masks[i]):
            down[j] |= 1 << i
    covers = []
    for i in range(n):
        strict_up = masks[i] & ~(1 << i)
        for j in _bits(strict_up):
            if strict_up & down[j] & ~(1 << j) == 0:
                covers.append((i, j))
    return tuple(covers)


def concepts(ctx: FormalContext, *,
             max_concepts: int = DEFAULT_CONCEPT_CAP) -> ConceptLattice:
    """Enumerate every formal concept of ``ctx`` and build the lattice.

    The extent family is the closure system generated by the attribute
    extents under intersection.  Raises LatticeTooLargeError as soon as
    the enumeration exceeds ``max_concepts``; output is never silently
    truncated.
    """
    n_g, n_m = ctx.n_objects, ctx.n_attributes
    rows = ctx.object_rows()
    cols = ctx.attribute_cols()
    full_g = (1 << n_g) - 1
    full_m = (1 << n_m) - 1

    extents = {full_g}
    frontier = [full_g]
    while frontier:
        fresh = []
        for ext in frontier:
            for col in cols:
                cut = ext & col
                if cut not in extents:
                    extents.add(cut)
                    if len(extents) > max_concepts:
                        raise LatticeTooLargeError(
                            f"more than {max_concepts} concepts; raise the cap "
                            "to enumerate this lattice")
                    fresh.append(cut)
        frontier = fresh

    ordered = sorted(extents)
    concept_list = []
    for ext in ordered:
        intent = full_m
        for g in _bits(ext):
            intent &= rows[g]
        concept_list.append(Concept(
            extent=frozenset(_bits(ext)),
            intent=frozenset(_bits(intent)),
            extent_mask=ext,
        ))

    n = len(ordered)
    up_masks = []
    for i in range(n):
        mask = 0
        ei = ordered[i]
        for j in range(n):
            if ei & ~ordered[j] == 0:
                mask |= 1 << j
        up_masks.append(mask)

    if up_masks[0] != (1 << n) - 1 or up_masks[n - 1] != 1 << (n - 1):
        raise ContractViolation("lattice lost its unique bottom or top")

    return ConceptLattice(
        concepts=tuple(concept_list),
        up_masks=tuple(up_masks),
        covers=transitive_reduction(up_masks),
    )
