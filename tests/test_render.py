import json
import xml.etree.ElementTree as ET
from xml.sax import saxutils

from hypothesis import given, strategies as st

from dimdraw import (FormalContext, best_assignment, concepts, default_frame,
                     embed, label, normalize, order_dimension,
                     realizer_from_cover, repair_incidences, to_json, to_svg,
                     to_tikz)
from dimdraw.render import _xml_escape
from helpers import contra_nominal, life_context


def _diagram(ctx):
    lat = concepts(ctx)
    d, cover = order_dimension(ctx)
    real = realizer_from_cover(ctx, lat, cover)
    layout = repair_incidences(normalize(
        best_assignment(embed(lat, real), default_frame(d)).layout))
    return lat, label(ctx, lat, layout, real)


def test_attribute_a_labels_top_of_life():
    ctx = life_context()
    lat, diagram = _diagram(ctx)
    assert "a" in diagram.attribute_labels[lat.n - 1]  # the top concept


def test_contra_nominal_two_labels():
    ctx = contra_nominal(2)
    lat, diagram = _diagram(ctx)
    # the two middle concepts each carry one object and the other attribute
    for i in (1, 2):
        assert len(diagram.object_labels[i]) == 1
        assert len(diagram.attribute_labels[i]) == 1
        assert diagram.object_labels[i][0] != diagram.attribute_labels[i][0]
    assert diagram.object_labels[lat.n - 1] == ()  # the top concept
    assert diagram.attribute_labels[0] == ()        # the bottom concept


def test_full_single_cell_context_carries_both_labels():
    ctx = FormalContext(("g",), ("m",), frozenset({(0, 0)}))
    lat, diagram = _diagram(ctx)
    assert lat.n == 1
    assert diagram.object_labels[0] == ("g",)
    assert diagram.attribute_labels[0] == ("m",)


def test_labels_partition_objects_and_attributes():
    ctx = life_context()
    _, diagram = _diagram(ctx)
    objs = [name for labels in diagram.object_labels for name in labels]
    attrs = [name for labels in diagram.attribute_labels for name in labels]
    assert sorted(objs) == sorted(ctx.objects)
    assert sorted(attrs) == sorted(ctx.attributes)


def test_svg_node_and_edge_counts():
    ctx = life_context()
    lat, diagram = _diagram(ctx)
    svg = to_svg(diagram)
    assert svg.count("<circle") == 19
    assert svg.count("<line") == len(lat.covers)


def test_svg_is_wellformed_xml():
    _, diagram = _diagram(life_context())
    root = ET.fromstring(to_svg(diagram))
    assert root.tag.endswith("svg")
    assert root.attrib["version"] == "1.1"


def test_svg_top_renders_above_bottom():
    ctx = life_context()
    lat, diagram = _diagram(ctx)
    root = ET.fromstring(to_svg(diagram))
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    ys = [float(c.attrib["cy"]) for c in circles]
    # lattice index 0 is the bottom and the last the top; the y axis is
    # flipped for the screen
    assert ys[lat.n - 1] < ys[0]


def test_svg_deterministic():
    _, diagram = _diagram(life_context())
    assert to_svg(diagram) == to_svg(diagram)


def test_svg_escapes_labels():
    # object and attribute names, and the label texts the SVG parses back
    # to: the characters XML 1.0 excludes (C0 controls but tab, LF and CR;
    # U+FFFE and U+FFFF) read as U+FFFD
    cases = [
        (("a<b", "m&n"), {"a<b", "m&n"}),
        (("a\x0cb", "m\x0bn"), {"a\ufffdb", "m\ufffdn"}),
        (("a\uffffb", "\x00m\x1f\ufffe"), {"a\ufffdb", "\ufffdm\ufffd\ufffd"}),
        (("a\tb>", "\x7f\x85\ufffd"), {"a\tb>", "\x7f\x85\ufffd"}),
    ]
    svgs = []
    for (obj, attr), texts in cases:
        ctx = FormalContext((obj,), (attr,), frozenset({(0, 0)}))
        _, diagram = _diagram(ctx)
        svgs.append(to_svg(diagram))
        root = ET.fromstring(svgs[-1])
        assert {t.text for t in root.iter("{http://www.w3.org/2000/svg}text")} == texts
    assert "a&lt;b" in svgs[0] and "m&amp;n" in svgs[0]


_XML_EXCLUDED = {*range(9), 11, 12, *range(14, 32), 0xFFFE, 0xFFFF}


@given(st.text(st.characters().filter(lambda ch: ord(ch) not in _XML_EXCLUDED)))
def test_xml_escape_matches_saxutils_outside_the_excluded_characters(text):
    assert _xml_escape(text) == saxutils.escape(text)


def test_tikz_counts_and_determinism():
    ctx = life_context()
    lat, diagram = _diagram(ctx)
    tikz = to_tikz(diagram)
    assert tikz.count("\\node[circle,fill") == 19
    assert tikz.count("\\draw ") == len(lat.covers)
    assert tikz == to_tikz(diagram)
    assert tikz.startswith("\\documentclass[tikz")


def test_tikz_escapes_labels():
    ctx = FormalContext(("a_b",), ("m%n",), frozenset({(0, 0)}))
    _, diagram = _diagram(ctx)
    tikz = to_tikz(diagram)
    assert r"a\_b" in tikz and r"m\%n" in tikz


def test_json_round_trip_fields():
    ctx = life_context()
    lat, diagram = _diagram(ctx)
    doc = json.loads(to_json(diagram))
    assert len(doc["concepts"]) == 19
    assert doc["dimension"] == 3
    assert doc["crossings"] == diagram.layout.crossings
    assert len(doc["edges"]) == len(lat.covers)
    assert len(doc["realizer"]) == 3
    assert list(doc.keys()) == ["concepts", "edges", "dimension", "realizer",
                                "crossings"]
    first = doc["concepts"][0]
    assert list(first.keys()) == ["index", "extent", "intent", "x", "y",
                                  "object_labels", "attribute_labels"]


def test_json_agrees_with_svg_and_tikz_on_geometry():
    ctx = contra_nominal(2)
    lat, diagram = _diagram(ctx)
    doc = json.loads(to_json(diagram))
    assert [c["index"] for c in doc["concepts"]] == list(range(lat.n))
    # node counts agree across the three emitters
    assert to_svg(diagram).count("<circle") == len(doc["concepts"])
    assert to_tikz(diagram).count("\\node[circle,fill") == len(doc["concepts"])


def test_emitters_agree_on_coordinates_up_to_the_documented_mapping():
    # JSON carries the raw layout coordinates; SVG fits them into a
    # padded 800x600 canvas with a y flip, TikZ into a 10-unit-wide box.
    # Re-derive both mappings here and compare against the emitted text.
    import re

    ctx = life_context()
    _, diagram = _diagram(ctx)
    doc = json.loads(to_json(diagram))
    raw = [(c["x"], c["y"]) for c in doc["concepts"]]

    def fit(points, width, height, pad_fraction, flip):
        pad_x, pad_y = width * pad_fraction, height * pad_fraction
        avail_w, avail_h = width - 2 * pad_x, height - 2 * pad_y
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        span_x, span_y = max(xs) - min(xs), max(ys) - min(ys)
        scales = [avail_w / span_x] if span_x else []
        scales += [avail_h / span_y] if span_y else []
        scale = min(scales) if scales else 1.0
        off_x = pad_x + (avail_w - span_x * scale) / 2
        off_y = pad_y + (avail_h - span_y * scale) / 2
        out = []
        for x, y in points:
            cx = off_x + (x - min(xs)) * scale
            cy = off_y + (y - min(ys)) * scale
            out.append((cx, height - cy if flip else cy))
        return out

    svg_circles = re.findall(r'<circle cx="([-\d.]+)" cy="([-\d.]+)"',
                             to_svg(diagram))
    expected = fit(raw, 800.0, 600.0, 0.05, True)
    for (got_x, got_y), (exp_x, exp_y) in zip(svg_circles, expected):
        assert abs(float(got_x) - exp_x) < 0.01
        assert abs(float(got_y) - exp_y) < 0.01

    tikz_nodes = re.findall(r'\(c\d+\) at \(([-\d.]+),([-\d.]+)\)',
                            to_tikz(diagram))
    expected = fit(raw, 10.0, 7.5, 0.05, False)
    for (got_x, got_y), (exp_x, exp_y) in zip(tikz_nodes, expected):
        assert abs(float(got_x) - exp_x) < 0.001
        assert abs(float(got_y) - exp_y) < 0.001


def test_json_realizer_none_without_realizer():
    ctx = contra_nominal(2)
    lat = concepts(ctx)
    d, cover = order_dimension(ctx)
    real = realizer_from_cover(ctx, lat, cover)
    layout = normalize(best_assignment(embed(lat, real), default_frame(d)).layout)
    diagram = label(ctx, lat, layout)
    doc = json.loads(to_json(diagram))
    assert doc["realizer"] is None
