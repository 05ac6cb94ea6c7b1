"""Derivation operators, concept enumeration, and the lattice order.

Extents and intents are handled as bitmasks over the object/attribute
index universes; derivation is intersection-heavy and this keeps it
cheap.  The concept list is canonical: sorted ascending by extent
bitmask, which puts the bottom concept at index 0 and the top at index
n-1 and makes every downstream artifact reproducible byte for byte.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .context import FormalContext
from .errors import ContractViolation, LatticeTooLargeError

CONCEPT_CAP = 100_000


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
    """Cover pairs (x, y): x < y with no z strictly between, by x then y.

    ``leq_masks[i]`` must be the bitmask of all j with i <= j, i
    included, and the indices must form a linear extension: ValueError
    when a mask has a bit below its own index.  So the lowest index left
    in x's strict up-set is a cover of x, and each cover clears its up-set.
    """
    masks = list(leq_masks)
    covers = []
    for i, mask in enumerate(masks):
        if mask & ((1 << i) - 1):
            raise ValueError(f"up-set {i} has a bit below its own index; "
                             "indices must form a linear extension")
        rest = mask & ~(1 << i)
        while rest:
            j = (rest & -rest).bit_length() - 1
            covers.append((i, j))
            rest &= ~masks[j]
    return tuple(covers)


def concepts(ctx: FormalContext) -> ConceptLattice:
    """Enumerate every formal concept of ``ctx`` and build the lattice.

    The extent family is the closure system generated by the attribute
    extents under intersection.  Raises LatticeTooLargeError as soon as
    the enumeration exceeds CONCEPT_CAP; output is never silently
    truncated.  A concept's up-set ANDs, per object of its extent, the
    mask of the concepts whose extent holds that object.
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
                    if len(extents) > CONCEPT_CAP:
                        raise LatticeTooLargeError(
                            f"more than {CONCEPT_CAP} concepts, the fixed "
                            "cap on the lattice size")
                    fresh.append(cut)
        frontier = fresh

    ordered = sorted(extents)
    n = len(ordered)
    holders = [0] * n_g
    for j, ext in enumerate(ordered):
        for g in _bits(ext):
            holders[g] |= 1 << j
    concept_list = []
    up_masks = []
    for ext in ordered:
        intent, up = full_m, (1 << n) - 1
        for g in _bits(ext):
            intent &= rows[g]
            up &= holders[g]
        concept_list.append(Concept(
            extent=frozenset(_bits(ext)),
            intent=frozenset(_bits(intent)),
            extent_mask=ext,
        ))
        up_masks.append(up)

    if up_masks[0] != (1 << n) - 1 or up_masks[n - 1] != 1 << (n - 1):
        raise ContractViolation("lattice lost its unique bottom or top")

    return ConceptLattice(
        concepts=tuple(concept_list),
        up_masks=tuple(up_masks),
        covers=transitive_reduction(up_masks),
    )
