"""Integer coordinates from a realizer.

Concept C gets the vector of its ranks across the realizer's linear
extensions (0 = bottom).  Every axis is then a permutation of 0..n-1 and
the lattice order coincides with componentwise dominance, which is what
makes any upward linear projection of these points order-faithful.
Coordinates stay exact integers; floating point only enters at the
projection stage.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dimension import Realizer, verify_realizer
from .errors import ContractViolation
from .lattice import ConceptLattice


@dataclass(frozen=True)
class DimEmbedding:
    """Per-concept integer vectors plus the cover edges they will be drawn with."""

    coords: tuple[tuple[int, ...], ...]
    covers: tuple[tuple[int, int], ...]

    @property
    def dim(self) -> int:  # the width of the vectors
        return len(self.coords[0]) if self.coords else 0


def embed(lattice: ConceptLattice, r: Realizer) -> DimEmbedding:
    """Coordinates of every concept: its positions across the extensions.

    Requires a valid realizer, which is verified here.  That alone gives
    dominance equivalence (order iff componentwise <=): coordinate k of
    C is C's rank in extension k, so i is dominated by j exactly when j
    lies above i in every extension, which is what realizing the order
    means.
    """
    if not verify_realizer(lattice, r):
        raise ContractViolation("realizer does not realize the lattice order")
    coords = tuple(zip(*(ext.pos for ext in r.extensions)))
    return DimEmbedding(coords=coords, covers=lattice.covers)
