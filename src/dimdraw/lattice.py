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
from functools import cached_property, reduce

from .context import _BYTE_TABLE, FormalContext, _bits, _byte_tables
from .errors import ContractViolation, LatticeTooLargeError

CONCEPT_CAP = 100_000


@dataclass(frozen=True)
class Concept:
    """Extent and intent bitmasks of a formal concept; sets derived on read."""

    extent_mask: int
    intent_mask: int

    @cached_property
    def extent(self) -> frozenset[int]:
        return frozenset(_bits(self.extent_mask))

    @cached_property
    def intent(self) -> frozenset[int]:
        return frozenset(_bits(self.intent_mask))


@dataclass(frozen=True)
class ConceptLattice:
    """All concepts of a context; the order and covers are built on first read.

    ``object_masks[g]`` is the bitmask of the concepts whose extent holds
    object g.  ``up_masks[i]`` is the bitmask of the concepts j >= i, i
    included: the AND of ``object_masks`` over the objects of i's extent.
    ``covers`` is its transitive reduction.
    """

    concepts: tuple[Concept, ...]

    @property
    def n(self) -> int:
        return len(self.concepts)

    @cached_property
    def object_masks(self) -> tuple[int, ...]:
        holders = [0] * max(c.extent_mask for c in self.concepts).bit_length()
        for j, c in enumerate(self.concepts):
            for g in _bits(c.extent_mask):
                holders[g] |= 1 << j
        return tuple(holders)

    @cached_property
    def up_masks(self) -> tuple[int, ...]:
        n, holders = self.n, self.object_masks
        up_masks = []
        for c in self.concepts:
            up = (1 << n) - 1
            for g in _bits(c.extent_mask):
                up &= holders[g]
            up_masks.append(up)
        if up_masks[0] != (1 << n) - 1 or up_masks[n - 1] != 1 << (n - 1):
            raise ContractViolation("lattice lost its unique bottom or top")
        return tuple(up_masks)

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        return transitive_reduction(self.up_masks)


def derive_objects(ctx: FormalContext, objects: Iterable[int]) -> frozenset[int]:
    """Attributes shared by every object in the set (all of M for the empty set)."""
    mask = (1 << ctx.n_attributes) - 1
    for g in objects:
        if not (isinstance(g, int) and 0 <= g < ctx.n_objects):
            raise IndexError(f"object index {g} out of range")
        mask &= ctx.rows[g]
    return frozenset(_bits(mask))


def derive_attributes(ctx: FormalContext, attributes: Iterable[int]) -> frozenset[int]:
    """Objects sharing every attribute in the set (all of G for the empty set)."""
    cols = ctx.attribute_cols()
    mask = (1 << ctx.n_objects) - 1
    for m in attributes:
        if not (isinstance(m, int) and 0 <= m < ctx.n_attributes):
            raise IndexError(f"attribute index {m} out of range")
        mask &= cols[m]
    return frozenset(_bits(mask))


def transitive_reduction(leq_masks: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """Cover pairs (x, y): x < y with no z strictly between, by x then y.

    ``leq_masks[i]`` must be the bitmask of all j with i <= j, i
    included, and the indices must form a linear extension: ValueError,
    before any cover, when mask i is not an int, lacks bit i or has one
    outside i..n-1.
    So the lowest index left in x's strict up-set is a cover of x, and
    each cover clears its up-set.
    """
    masks = list(leq_masks)
    for i, mask in enumerate(masks):
        if (not isinstance(mask, int) or not mask >> i & 1 or mask >> len(masks)
                or mask & ((1 << i) - 1)):
            raise ValueError(f"up-set {i} must hold {i} and no index outside "
                             f"{i}..{len(masks) - 1}, as in a linear extension")
    covers = []
    for i, mask in enumerate(masks):
        rest = mask & ~(1 << i)
        while rest:
            j = (rest & -rest).bit_length() - 1
            covers.append((i, j))
            rest &= ~masks[j]
    return tuple(covers)


def concepts(ctx: FormalContext) -> ConceptLattice:
    """Enumerate every formal concept of ``ctx``, sorted by extent mask.

    The extent family is the closure system generated by the attribute
    extents under intersection, built one attribute at a time: after the
    step for attribute i the set holds the intersection of each subset of
    the first i attribute extents, G for the empty one.  Raises
    LatticeTooLargeError after the step that takes the set past
    CONCEPT_CAP; a step at most doubles the set, so no more than twice
    the cap is ever held, and output is never silently truncated.  An
    intent is the AND of its extent's rows: from _BYTE_TABLE concepts on,
    one byte-table lookup per byte of the extent, below that one row per
    object.  The order is left to the lattice's first read of it.
    """
    rows = ctx.rows
    full_g = (1 << ctx.n_objects) - 1
    full_m = (1 << ctx.n_attributes) - 1

    extents = {full_g}
    for col in ctx.attribute_cols():
        extents |= {ext & col for ext in extents}
        if len(extents) > CONCEPT_CAP:
            raise LatticeTooLargeError(
                f"more than {CONCEPT_CAP} concepts, the fixed cap on the "
                "lattice size")

    ordered = sorted(extents)
    concept_list = []
    if len(ordered) >= _BYTE_TABLE:
        tables = _byte_tables(rows, full_m, int.__and__)
        for ext in ordered:
            intent = full_m
            for table, byte in zip(tables, ext.to_bytes(len(tables), "little")):
                intent &= table[byte]
            concept_list.append(Concept(ext, intent))
    else:
        for ext in ordered:
            intent = full_m
            for g in _bits(ext):
                intent &= rows[g]
            concept_list.append(Concept(ext, intent))
    if reduce(int.__and__, ordered) != ordered[0] or ordered[-1] != full_g:
        raise ContractViolation("lattice lost its unique bottom or top")
    return ConceptLattice(tuple(concept_list))
