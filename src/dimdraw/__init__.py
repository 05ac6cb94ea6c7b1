"""Order-dimension based line diagrams for concept lattices and posets.

Pipeline: parse a context (or encode a poset as one), enumerate the
concept lattice, find a minimal Ferrers cover of the non-incident cells,
turn it into a realizer, embed concepts by their ranks, project to the
plane minimizing crossings, repair node/edge touches, and serialize to
SVG, TikZ, or JSON.  ``dimdraw.cli.build_diagram`` runs the whole chain,
the same stages as ``dimdraw draw``.
"""

from .context import (FormalContext, PosetInput, parse_csv, parse_cxt,
                      poset_to_context, write_cxt)
from .dimension import (FerrersCover, LinearExtension, Realizer,
                        certificate_json, ferrers_cover, is_ferrers,
                        order_dimension, realizer_from_cover, verify_realizer)
from .embedding import DimEmbedding, embed
from .errors import (ContractViolation, CycleError, DimDrawError,
                     DimensionUndecided, LatticeTooLargeError, ParseError,
                     RepairFailed, SearchTimeout)
from .lattice import (Concept, ConceptLattice, concepts, derive_attributes,
                      derive_objects, transitive_reduction)
from .projection import (AxisFrame, BestAssignment, Layout, best_assignment,
                         default_frame, normalize, project, repair_incidences)
from .render import LabeledDiagram, label, to_json, to_svg, to_tikz

__version__ = "0.1.0"

__all__ = [
    "AxisFrame", "BestAssignment", "Concept", "ConceptLattice",
    "ContractViolation", "CycleError", "DimDrawError", "DimEmbedding",
    "DimensionUndecided", "FerrersCover", "FormalContext",
    "LabeledDiagram", "LatticeTooLargeError", "Layout", "LinearExtension",
    "ParseError", "PosetInput", "Realizer", "RepairFailed",
    "SearchTimeout", "best_assignment", "certificate_json", "concepts",
    "default_frame", "derive_attributes", "derive_objects",
    "embed", "ferrers_cover", "is_ferrers", "label", "normalize",
    "order_dimension", "parse_csv", "parse_cxt", "poset_to_context", "project",
    "realizer_from_cover", "repair_incidences",
    "to_json", "to_svg", "to_tikz", "transitive_reduction", "verify_realizer",
    "write_cxt",
]
