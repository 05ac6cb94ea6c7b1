"""Diagram labeling and serialization to SVG, TikZ, and JSON.

Labeling is reduced, as in every published line diagram: object g sits
on the concept generated by {g}, attribute m on the concept generated by
{m}, so every name appears exactly once.  All emitters are pure string
builders with fixed number formatting, so identical inputs give byte
identical output.  Internally "up" means greater; only the SVG emitter
flips the y axis, at the last moment, because screen coordinates grow
downward.
"""

from __future__ import annotations

from dataclasses import dataclass

from .context import FormalContext, _json_text
from .dimension import Realizer
from .lattice import ConceptLattice, _bits
from .projection import Layout, _bounds


_WIDTH = 800.0
_HEIGHT = 600.0
_NODE_RADIUS = 4.0
_FONT_SIZE = 11.0
_PADDING_FRACTION = 0.05


@dataclass(frozen=True)
class LabeledDiagram:
    """A layout plus reduced labels and the data needed to serialize it."""

    context: FormalContext
    lattice: ConceptLattice
    layout: Layout
    object_labels: tuple[tuple[str, ...], ...]
    attribute_labels: tuple[tuple[str, ...], ...]
    realizer: Realizer


def label(ctx: FormalContext, lattice: ConceptLattice, layout: Layout,
          realizer: Realizer) -> LabeledDiagram:
    """Attach reduced object/attribute labels to the layout.  The index
    order is a linear extension, so object g's concept is the lowest bit
    of ``lattice.object_masks[g]``, and attribute m's is the highest
    index whose intent holds m."""
    obj_labels: list[list[str]] = [[] for _ in range(lattice.n)]
    for name, holders in zip(ctx.objects, lattice.object_masks):
        obj_labels[(holders & -holders).bit_length() - 1].append(name)

    attr_labels: list[list[str]] = [[] for _ in range(lattice.n)]
    unplaced, i = (1 << ctx.n_attributes) - 1, lattice.n
    while unplaced:  # the bottom concept's intent holds every attribute
        i -= 1
        if held := lattice.concepts[i].intent_mask & unplaced:
            attr_labels[i].extend(ctx.attributes[m] for m in _bits(held))
            unplaced ^= held

    return LabeledDiagram(
        context=ctx, lattice=lattice, layout=layout,
        object_labels=tuple(tuple(ls) for ls in obj_labels),
        attribute_labels=tuple(tuple(ls) for ls in attr_labels),
        realizer=realizer)


def _fit(points, width: float, flip_y: bool) -> list[tuple[float, float]]:
    """Aspect-preserving map of the layout bounding box into a canvas
    ``width`` wide and of the SVG's aspect ratio, inside a padding of
    _PADDING_FRACTION on each side."""
    height = width * _HEIGHT / _WIDTH
    pad_x = width * _PADDING_FRACTION
    pad_y = height * _PADDING_FRACTION
    avail_w = width - 2.0 * pad_x
    avail_h = height - 2.0 * pad_y
    min_x, max_x, min_y, max_y = _bounds(points)
    span_x, span_y = max_x - min_x, max_y - min_y
    scales = []
    if span_x > 0.0:
        scales.append(avail_w / span_x)
    if span_y > 0.0:
        scales.append(avail_h / span_y)
    scale = min(scales) if scales else 1.0
    off_x = pad_x + (avail_w - span_x * scale) / 2.0
    off_y = pad_y + (avail_h - span_y * scale) / 2.0
    fitted = []
    for x, y in points:
        cx = off_x + (x - min_x) * scale
        cy = off_y + (y - min_y) * scale
        fitted.append((cx, height - cy if flip_y else cy))
    return fitted


def to_svg(diagram: LabeledDiagram) -> str:
    """Standalone SVG 1.1 document, 800 x 600; edges beneath nodes, top
    of the lattice at the top of the image."""
    layout = diagram.layout
    pts = _fit(layout.points, _WIDTH, flip_y=True)
    r = _NODE_RADIUS
    fs = _FONT_SIZE

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH:g}" height="{_HEIGHT:g}" '
        f'viewBox="0 0 {_WIDTH:g} {_HEIGHT:g}">',
        '<g stroke="#555555" stroke-width="1">',
    ]
    for u, v in layout.edges:
        out.append(f'<line x1="{pts[u][0]:.2f}" y1="{pts[u][1]:.2f}" '
                   f'x2="{pts[v][0]:.2f}" y2="{pts[v][1]:.2f}"/>')
    out.append('</g>')
    out.append('<g fill="#1f4e79" stroke="#10283d" stroke-width="1">')
    for x, y in pts:
        out.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r:g}"/>')
    out.append('</g>')
    out.append(f'<g font-family="sans-serif" font-size="{fs:g}">')
    for i, (x, y) in enumerate(pts):
        attrs = diagram.attribute_labels[i]
        objs = diagram.object_labels[i]
        if attrs:
            out.append(f'<text x="{x - r - 2:.2f}" y="{y - r - 2:.2f}" '
                       f'text-anchor="end">{_xml_escape(", ".join(attrs))}</text>')
        if objs:
            out.append(f'<text x="{x + r + 2:.2f}" y="{y + r + 2 + 0.8 * fs:.2f}" '
                       f'text-anchor="start">{_xml_escape(", ".join(objs))}</text>')
    out.append('</g>')
    out.append('</svg>')
    return "\n".join(out) + "\n"


# U+FFFD for each character that XML 1.0 excludes: C0 controls but tab,
# LF and CR; U+FFFE, U+FFFF
_EXCLUDED = dict.fromkeys((*range(9), 11, 12, *range(14, 32), 0xFFFE, 0xFFFF),
                          "\ufffd")

# the ten TeX specials, and the excluded characters
_TEX_TEXT = {**{ord(ch): "\\" + ch for ch in "&%$#_{}"},
             ord("\\"): r"\textbackslash{}", ord("~"): r"\textasciitilde{}",
             ord("^"): r"\textasciicircum{}", **_EXCLUDED}


def _tex_escape(text: str) -> str:
    return text.translate(_TEX_TEXT)


# xml.sax.saxutils.escape's three entities, and the excluded characters
_XML_TEXT = {ord("&"): "&amp;", ord("<"): "&lt;", ord(">"): "&gt;", **_EXCLUDED}


def _xml_escape(text: str) -> str:
    return text.translate(_XML_TEXT)


def to_tikz(diagram: LabeledDiagram) -> str:
    """Standalone TikZ document: one node per concept, one draw per edge.

    Coordinates are in a 10-unit-wide box, rounded to 4 decimals.
    """
    layout = diagram.layout
    pts = _fit(layout.points, 10.0, flip_y=False)

    out = [
        r"\documentclass[tikz,border=2pt]{standalone}",
        r"\begin{document}",
        r"\begin{tikzpicture}",
    ]
    for u, v in layout.edges:
        out.append(f"  \\draw ({pts[u][0]:.4f},{pts[u][1]:.4f}) -- "
                   f"({pts[v][0]:.4f},{pts[v][1]:.4f});")
    for i, (x, y) in enumerate(pts):
        out.append(f"  \\node[circle,fill,inner sep=1.5pt] (c{i}) "
                   f"at ({x:.4f},{y:.4f}) {{}};")
    for i, (x, y) in enumerate(pts):
        attrs = diagram.attribute_labels[i]
        objs = diagram.object_labels[i]
        if attrs:
            out.append(f"  \\node[above left,font=\\scriptsize] at "
                       f"({x:.4f},{y:.4f}) {{{_tex_escape(', '.join(attrs))}}};")
        if objs:
            out.append(f"  \\node[below right,font=\\scriptsize] at "
                       f"({x:.4f},{y:.4f}) {{{_tex_escape(', '.join(objs))}}};")
    out.append(r"\end{tikzpicture}")
    out.append(r"\end{document}")
    return "\n".join(out) + "\n"


def to_json(diagram: LabeledDiagram) -> str:
    """Machine-readable layout; see docs/layout-schema.json for the schema."""
    ctx = diagram.context
    layout = diagram.layout
    concepts = []
    for i, concept in enumerate(diagram.lattice.concepts):
        concepts.append({
            "index": i,
            "extent": [ctx.objects[g] for g in _bits(concept.extent_mask)],
            "intent": [ctx.attributes[m] for m in _bits(concept.intent_mask)],
            "x": layout.points[i][0],
            "y": layout.points[i][1],
            "object_labels": list(diagram.object_labels[i]),
            "attribute_labels": list(diagram.attribute_labels[i]),
        })
    doc = {
        "concepts": concepts,
        "edges": [[u, v] for u, v in layout.edges],
        "dimension": diagram.realizer.dim,
        "realizer": [list(ext.order) for ext in diagram.realizer.extensions],
        "crossings": layout.crossings,
    }
    return _json_text(doc)
