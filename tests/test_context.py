import json
import math

import pytest
from hypothesis import given, settings, strategies as st

import dimdraw.cli
import dimdraw.dimension
import dimdraw.render
from dimdraw import (CycleError, FormalContext, ParseError, PosetInput,
                     parse_csv, parse_cxt, poset_to_context, write_cxt)
from dimdraw.context import _json_text, parse_poset_edges
from helpers import (crown_context, life_context, life_csv_text, life_cxt_text,
                     LIFE_ROWS, seeded_context)


def test_parse_smallest_context():
    ctx = parse_cxt("B\n\n1\n1\ng\nm\nX\n")
    assert ctx.objects == ("g",)
    assert ctx.attributes == ("m",)
    assert ctx.incidence == {(0, 0)}


def test_parse_life_incidence_count():
    ctx = parse_cxt(life_cxt_text())
    # oracle: count the crosses in the table by hand / per row
    assert sum(row.count("X") for row in LIFE_ROWS) == 34
    assert len(ctx.incidence) == 34
    assert ctx == life_context()


def test_row_length_mismatch_names_line():
    with pytest.raises(ParseError) as err:
        parse_cxt("B\n\n1\n1\ng\nm\nX.\n")
    assert "row length mismatch" in str(err.value)
    assert err.value.line == 7


def test_malformed_header():
    with pytest.raises(ParseError) as err:
        parse_cxt("A\n\n1\n1\ng\nm\nX\n")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse_cxt("B\nnot blank\n1\n1\ng\nm\nX\n")
    assert err.value.line == 2


def test_malformed_counts():
    with pytest.raises(ParseError) as err:
        parse_cxt("B\n\nzzz\n1\ng\nm\nX\n")
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        parse_cxt("B\n\n1\n-2\ng\nm\nX\n")
    assert err.value.line == 4


def test_truncated_input_names_next_line():
    with pytest.raises(ParseError) as err:
        parse_cxt("B\n\n2\n1\ng")
    assert "unexpected end of input" in str(err.value)


def test_illegal_character():
    with pytest.raises(ParseError) as err:
        parse_cxt("B\n\n1\n1\ng\nm\n?\n")
    assert "illegal character" in str(err.value)
    assert err.value.line == 7


def test_duplicate_names_rejected():
    with pytest.raises(ParseError) as err:
        parse_cxt("B\n\n2\n1\ng\ng\nm\nX\nX\n")
    assert "duplicate object name" in str(err.value)
    assert err.value.line == 6
    with pytest.raises(ParseError) as err:
        parse_cxt("B\n\n1\n2\ng\nm\nm\nXX\n")
    assert str(err.value) == "line 7: duplicate attribute name 'm'"


def test_trailing_content_rejected():
    with pytest.raises(ParseError):
        parse_cxt("B\n\n1\n1\ng\nm\nX\nleftover\n")


def test_round_trip_smallest():
    ctx = parse_cxt("B\n\n1\n1\ng\nm\nX\n")
    assert parse_cxt(write_cxt(ctx)) == ctx


def test_round_trip_life():
    ctx = life_context()
    again = parse_cxt(write_cxt(ctx))
    assert again == ctx
    assert len(again.incidence) == 34


def test_empty_incidence_body_rows():
    ctx = FormalContext(("g1", "g2"), ("m1", "m2"), frozenset())
    text = write_cxt(ctx)
    assert text.split("\n")[8:10] == ["..", ".."]
    assert parse_cxt(text) == ctx


def test_csv_smallest():
    ctx = parse_csv("obj,a\ng,X\n")
    assert ctx.objects == ("g",)
    assert ctx.attributes == ("a",)
    assert ctx.incidence == {(0, 0)}


def test_csv_ragged_row():
    with pytest.raises(ParseError) as err:
        parse_csv("obj,a,b\ng,X\n")
    assert "ragged row" in str(err.value)
    assert err.value.line == 2


def test_csv_one_means_cross():
    assert parse_csv("obj,a\ng,1\n") == parse_csv("obj,a\ng,X\n")
    assert parse_csv("obj,a\ng,x\n") == parse_csv("obj,a\ng,X\n")
    assert parse_csv("obj,a\ng,0\n") == parse_csv("obj,a\ng,.\n")


def test_csv_rejects_unknown_cell():
    with pytest.raises(ParseError):
        parse_csv("obj,a\ng,yes\n")


def test_csv_duplicate_names():
    with pytest.raises(ParseError) as err:
        parse_csv("obj,a,a\ng,X,X\n")
    assert str(err.value) == "line 1: duplicate attribute name 'a'"
    with pytest.raises(ParseError) as err:
        parse_csv("obj,a\ng,X\ng,X\n")
    assert str(err.value) == "line 3: duplicate object name 'g'"


def test_csv_matches_cxt_on_life():
    assert parse_csv(life_csv_text()) == parse_cxt(life_cxt_text())


def test_poset_antichain():
    p = PosetInput(("a", "b"), frozenset())
    ctx = poset_to_context(p)
    assert ctx.objects == ("a", "b")
    assert ctx.incidence == {(0, 0), (1, 1)}


def test_poset_two_chain():
    for relation in ({("a", "b")}, {("a", "a"), ("a", "b")}):  # a < a is harmless
        ctx = poset_to_context(PosetInput(("a", "b"), frozenset(relation)))
        assert ctx.incidence == {(0, 0), (0, 1), (1, 1)}


def test_poset_cycle_rejected_with_witness():
    p = PosetInput(("a", "b"), frozenset({("a", "b"), ("b", "a")}))
    with pytest.raises(CycleError) as err:
        poset_to_context(p)
    assert err.value.witness == ["a", "b", "a"]
    assert str(err.value) == "cycle detected: a < b < a"


def test_poset_transitive_closure_is_reflexive_and_transitive():
    p = PosetInput(("a", "b", "c", "d"),
                   frozenset({("a", "b"), ("b", "c")}))
    ctx = poset_to_context(p)
    n = len(ctx.objects)
    inc = ctx.incidence
    assert all((i, i) in inc for i in range(n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if (i, j) in inc and (j, k) in inc:
                    assert (i, k) in inc
    assert (0, 2) in inc and (0, 3) not in inc


def test_poset_unknown_element_in_pair():
    with pytest.raises(ValueError):
        PosetInput(("a",), frozenset({("a", "zz")}))


def test_context_rejects_out_of_range_cells():
    with pytest.raises(ValueError):
        FormalContext(("g",), ("m",), frozenset({(0, 1)}))


def test_context_rejects_cells_that_are_not_ints():
    with pytest.raises(ValueError, match=r"cell \(0\.0, 0\) is not a pair of ints"):
        FormalContext(("g",), ("m",), frozenset({(0.0, 0)}))


def test_names_that_are_not_strings_are_rejected():
    with pytest.raises(ValueError, match=r"object name \('a', 'b'\) is not a string"):
        FormalContext((("a", "b"),), ("m",), frozenset({(0, 0)}))
    with pytest.raises(ValueError, match="attribute name 7 is not a string"):
        FormalContext(("g",), (7,), frozenset())
    with pytest.raises(ValueError, match="element name None is not a string"):
        PosetInput(("a", None), frozenset())


def test_context_rejects_duplicate_names():
    with pytest.raises(ValueError):
        FormalContext(("g", "g"), ("m",), frozenset())


@pytest.mark.parametrize("name", ["g\rh", "g\nh"])
def test_context_rejects_a_line_break_in_a_name(name):
    with pytest.raises(ValueError, match="contains a line break"):
        FormalContext((name,), ("m",), frozenset())
    with pytest.raises(ValueError, match="contains a line break"):
        FormalContext(("g",), (name,), frozenset())


@pytest.mark.parametrize("suffix, data, message", [
    (".cxt", b"B\n\n1\n1\ng\rh\nm\nX\n", "line 7: illegal character 'm' in row"),
    (".csv", b"name,a\rb\ng,X\n", "line 2: ragged row: expected 2 cells, got 1"),
    (".poset", b"a\r< b\n",
     "line 2: expected 'a < b' or a bare element name, got '< b'"),
], ids=["cxt", "csv", "poset-edges"])
def test_lone_carriage_return_ends_a_line_for_the_library_and_the_cli(
        suffix, data, message, tmp_path, capsys):
    # the library reads the text, and main the file in text mode
    read = {".cxt": parse_cxt, ".csv": parse_csv,
            ".poset": lambda text: poset_to_context(parse_poset_edges(text))}
    with pytest.raises(ParseError) as err:
        read[suffix](data.decode())
    assert str(err.value) == message
    path = tmp_path / f"input{suffix}"
    path.write_bytes(data)
    assert dimdraw.cli.main(["concepts", str(path)]) == 1
    assert capsys.readouterr().err == f"dimdraw: error: {message}\n"


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


# every code point, lone surrogates included, and the characters json escapes
_TEXT = st.text(st.one_of(st.characters(exclude_categories=()),
                          st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\ud800\udfffé✓')),
                max_size=6)
_INTS = st.integers() | st.integers(-2 ** 200, 2 ** 200)
_FLOATS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, 0.1])
_LEAVES = st.none() | st.booleans() | _INTS | _FLOATS | _TEXT


def _containers(children):
    return (st.lists(children, max_size=6)
            | st.lists(children, max_size=6).map(tuple)
            | st.dictionaries(_TEXT, children, max_size=6))


# the writer's fast shapes, and near misses of them, next to arbitrary nesting
_SHAPES = (st.lists(_TEXT, max_size=6) | st.lists(_INTS, max_size=6)
           | st.lists(st.integers() | st.booleans(), max_size=6)
           | st.lists(st.lists(_INTS, min_size=2, max_size=2), max_size=6)
           | st.lists(st.lists(st.integers() | st.booleans(), min_size=1, max_size=3),
                      max_size=6)
           | st.lists(st.lists(_TEXT, max_size=4), max_size=6)
           | st.lists(st.lists(_TEXT | st.none(), max_size=4), max_size=6))
_DOCUMENTS = st.recursive(_LEAVES | _SHAPES, _containers, max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(_DOCUMENTS)
def test_json_text_is_json_dumps_with_indent_two(doc):
    assert _json_text(doc) == _dumps(doc)


@pytest.mark.parametrize("doc", [
    [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], []], [[[]]], (), ((),),
    [1, True], [True, 1], [0, False], [[1, True]], [[True, 1], [2, 3]],
    [[1, 2], [3, 4]], [[1, 2], [3]], [[1, 2, 3]], [(1, 2)], [[1.0, 2]],
    [["a"], []], [["a", "b"], ["c"]], [["a"], [1]], [[], ["a"]],
    {"k": None, "t": True, "f": False}, None, True, 5e-324, -0.0,
    {1: "int key", None: "null key", 2.5: "float key"}, "\ud800\"\\",
])
def test_json_text_edge_cases(doc):
    assert _json_text(doc) == _dumps(doc)


def test_json_text_raises_as_json_does():
    for doc in ({(1, 2): 3}, [object()], {"a": {1, 2}}):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError):
            _json_text(doc)


@pytest.mark.parametrize("ctx", [life_context(), crown_context(12),
                                 seeded_context(14, 14, 0.35, 2)],
                         ids=["life", "crown12", "seeded-14x14-s2"])
def test_json_text_on_the_artifact_documents(ctx, tmp_path, monkeypatch):
    # the certificate, the realizer and the drawing, as the CLI writes them
    documents = []

    def recording(doc):
        documents.append(doc)
        return _json_text(doc)

    for module in (dimdraw.cli, dimdraw.dimension, dimdraw.render):
        monkeypatch.setattr(module, "_json_text", recording)
    path = tmp_path / "input.cxt"
    path.write_text(write_cxt(ctx), encoding="utf-8")
    for args in (["dimension"], ["realizer"], ["draw", "--format", "json"]):
        out = tmp_path / f"{args[0]}.json"
        assert dimdraw.cli.main([args[0], str(path), "-o", str(out), *args[1:]]) == 0
        text = out.read_text(encoding="utf-8")
        assert text == _dumps(documents[-1]) == _dumps(json.loads(text))
    assert [sorted(doc) for doc in documents] == [
        ["dimension", "ferrers_parts", "realizer"], ["dimension", "realizer"],
        ["concepts", "crossings", "dimension", "edges", "realizer"]]
