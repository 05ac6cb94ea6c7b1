import codecs
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

import dimdraw.cli
import dimdraw.lattice
import dimdraw.projection
from dimdraw.cli import DEFAULT_MAX_K, _build_parser, build_diagram, main
from dimdraw.context import parse_poset_edges
from dimdraw.dimension import DEFAULT_TIMEOUT_S
from dimdraw.projection import DEFAULT_SPREAD_DEG
from dimdraw import (CycleError, DimensionUndecided, LatticeTooLargeError,
                     ParseError, concepts, parse_csv, parse_cxt,
                     poset_to_context, to_json, to_svg, to_tikz, write_cxt)
from helpers import (contra_nominal, crown_context, life_context,
                     life_csv_text, life_cxt_text,
                     random_order_context, reference_concept_listing,
                     seeded_context)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _golden(name):
    with open(os.path.join(GOLDEN, name), "rb") as handle:
        return handle.read()


@pytest.fixture
def life_file(tmp_path):
    path = tmp_path / "life.cxt"
    path.write_text(life_cxt_text(), encoding="utf-8")
    return str(path)


def test_dimension_prints_three(life_file, capsys):
    assert main(["dimension", life_file]) == 0
    out = capsys.readouterr().out
    assert "dimension: 3" in out
    # the certificate follows on stdout when no output file is given
    cert = json.loads(out.split("\n", 1)[1])
    assert cert["dimension"] == 3


def test_dimension_certificate_to_file(life_file, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert main(["dimension", life_file, "-o", str(cert_path)]) == 0
    assert "dimension: 3" in capsys.readouterr().out
    cert = json.loads(cert_path.read_text(encoding="utf-8"))
    assert len(cert["ferrers_parts"]) == 3
    assert len(cert["realizer"]["by_index"]) == 3


def test_draw_svg_has_nineteen_nodes(life_file, tmp_path):
    out = tmp_path / "out.svg"
    assert main(["draw", life_file, "--format", "svg", "-o", str(out)]) == 0
    svg = out.read_text(encoding="utf-8")
    assert svg.count("<circle") == 19


def test_concepts_on_crossless_context(tmp_path, capsys):
    path = tmp_path / "empty.cxt"
    path.write_text("B\n\n1\n1\ng\nm\n.\n", encoding="utf-8")
    assert main(["concepts", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("concepts: 2\n")


def test_concepts_list_life(life_file, capsys):
    assert main(["concepts", life_file]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "concepts: 19"
    assert len(out) == 20


def test_realizer_command(life_file, tmp_path, capsys):
    assert main(["realizer", life_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dimension"] == 3
    assert len(doc["realizer"]["by_index"]) == 3
    assert all(sorted(p) == list(range(19)) for p in doc["realizer"]["by_index"])
    # the dimension certificate and the drawing carry the same realizer
    cert_path, drawing_path = tmp_path / "cert.json", tmp_path / "d.json"
    assert main(["dimension", life_file, "-o", str(cert_path)]) == 0
    assert main(["draw", life_file, "--format", "json",
                 "-o", str(drawing_path)]) == 0
    cert = json.loads(cert_path.read_text(encoding="utf-8"))
    drawing = json.loads(drawing_path.read_text(encoding="utf-8"))
    assert cert["realizer"] == doc["realizer"]
    assert drawing["realizer"] == doc["realizer"]["by_index"]


def test_unknown_flag_is_usage_error(life_file, capsys):
    for flag in ("--bogus", "--check-oracle"):  # the oracle is test code now
        assert main(["dimension", life_file, flag]) == 1
        assert "unrecognized arguments: " + flag in capsys.readouterr().err


def test_unreadable_file_is_usage_error(capsys):
    assert main(["dimension", "/nonexistent/nope.cxt"]) == 1
    assert "error" in capsys.readouterr().err


def test_malformed_input_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.cxt"
    path.write_text("Q\n\n1\n1\ng\nm\nX\n", encoding="utf-8")
    assert main(["dimension", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line 1" in err


def test_unknown_extension_requires_format_flag(tmp_path, capsys):
    path = tmp_path / "table.data"
    path.write_text(life_cxt_text(), encoding="utf-8")
    assert main(["dimension", str(path)]) == 1
    assert "--input-format" in capsys.readouterr().err
    assert main(["dimension", str(path), "--input-format", "cxt"]) == 0


def test_load_context_rejects_an_unknown_format(tmp_path):
    # the file would read as the edge list of a < b
    path = tmp_path / "pair.poset"
    path.write_text("a < b\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^unknown input format 'bogus'$"):
        dimdraw.cli.load_context(str(path), "bogus")


def test_load_context_reads_posets_through_the_module_attribute(tmp_path, monkeypatch):
    # a wrapper set on dimdraw.cli.poset_to_context sees every poset that
    # load_context reads; bench/tracing.py times the closure that way
    calls = []
    monkeypatch.setattr(dimdraw.cli, "poset_to_context",
                        lambda p: calls.append(p.elements) or poset_to_context(p))
    path = tmp_path / "pair.poset"
    path.write_text("a < b\n", encoding="utf-8")
    assert dimdraw.cli.load_context(str(path), "poset-edges").rows == (0b11, 0b10)
    assert calls == [("a", "b")]


def test_timeout_zero_is_undecided(life_file, capsys):
    assert main(["dimension", life_file, "--timeout", "0"]) == 2
    err = capsys.readouterr().err
    assert "undecided" in err


@pytest.mark.parametrize("budget", ["0", "1e-9"])
def test_timeout_zero_decides_a_cover_the_seed_completes(tmp_path, capsys, budget):
    path = tmp_path / "contra3.cxt"
    path.write_text(write_cxt(contra_nominal(3)), encoding="utf-8")
    assert main(["dimension", str(path), "--timeout", budget]) == 0
    assert capsys.readouterr().out.startswith("dimension: 3\n")


def test_max_k_exhaustion_is_undecided(life_file, capsys):
    assert main(["dimension", life_file, "--max-k", "2"]) == 2
    assert "undecided" in capsys.readouterr().err


def test_max_k_exhaustion_reports_the_clique_bound(tmp_path, capsys):
    # the six cells (i, i) of contranominal 6 conflict pairwise
    path = tmp_path / "contra6.cxt"
    path.write_text(write_cxt(contra_nominal(6)), encoding="utf-8")
    assert main(["dimension", str(path), "--max-k", "4"]) == 2
    assert "dimension >= 6" in capsys.readouterr().err


def test_twenty_by_twenty_s6_is_decided_within_a_second(tmp_path, capsys):
    path = tmp_path / "s6.cxt"
    path.write_text(write_cxt(seeded_context(20, 20, 0.3, 6)), encoding="utf-8")
    assert main(["dimension", str(path), "--timeout", "1"]) == 0
    assert capsys.readouterr().out.startswith("dimension: 5\n")


def test_timeout_nan_is_rejected(life_file, capsys):
    # a NaN budget would never run out: the search would ignore --timeout
    assert main(["dimension", life_file, "--timeout", "nan"]) == 1
    assert "--timeout" in capsys.readouterr().err
    assert main(["dimension", life_file, "--timeout", "inf"]) == 0
    assert "dimension: 3" in capsys.readouterr().out


def test_invalid_spread_rejected(life_file, capsys):
    # 1e-300 and 1e-15 round every direction to (0, 1)
    for spread in ("95", "nan", "1e-300", "1e-15"):
        assert main(["draw", life_file, "--spread", spread]) == 1
        assert "spread" in capsys.readouterr().err
    assert main(["draw", life_file, "--spread", "1e-9"]) == 0


@pytest.mark.parametrize("command, flag, value, requirement", [
    ("dimension", "--max-k", "0", "must be at least 1"),
    ("realizer", "--max-k", "-1", "must be at least 1"),
    ("draw", "--max-k", "1.5", "invalid int value: '1.5'"),
    ("dimension", "--timeout", "-1", "must be non-negative"),
    ("draw", "--spread", "95", "must be strictly between 0 and 90"),
])
@pytest.mark.parametrize("exists", [True, False], ids=["input", "no-input"])
def test_invalid_flag_is_a_usage_error_before_the_input_is_read(
        life_file, capsys, command, flag, value, requirement, exists):
    path = life_file if exists else "/nonexistent/nope.cxt"
    assert main([command, path, flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: dimdraw {command} ")
    assert err.endswith(
        f"dimdraw {command}: error: argument {flag}: {requirement}\n")


def test_spread_that_merges_points_is_an_input_error(tmp_path, capsys):
    # at 60 degrees the three directions of a 3-axis fan satisfy
    # u(150) + u(30) = u(90), and every permutation of this fan puts two
    # concepts on one point: the user's spread is at fault, not the program
    path = tmp_path / "order3.cxt"
    path.write_text(write_cxt(random_order_context(24, 3, 3924)), encoding="utf-8")
    assert main(["draw", str(path), "--spread", "60"]) == 1
    assert "spread" in capsys.readouterr().err
    assert main(["draw", str(path), "--spread", "59"]) == 0


def test_spread_that_merges_points_in_some_assignments_draws(tmp_path, capsys):
    # at 60 degrees two of the 6 permutations of this fan put two
    # concepts on one point; the search skips them and draws
    path = tmp_path / "s4.cxt"
    path.write_text(write_cxt(seeded_context(7, 7, 0.5, 4)), encoding="utf-8")
    assert main(["draw", str(path), "--spread", "60", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    points = {(c["x"], c["y"]) for c in doc["concepts"]}
    assert len(points) == len(doc["concepts"]) == 19


def test_csv_input(tmp_path, capsys):
    path = tmp_path / "life.csv"
    path.write_text(life_csv_text(), encoding="utf-8")
    assert main(["dimension", str(path)]) == 0
    assert "dimension: 3" in capsys.readouterr().out


def test_poset_edges_parser():
    p = parse_poset_edges("a < b\nb < c\n\n# comment\nd\n")
    assert p.elements == ("a", "b", "c", "d")
    assert p.relation == {("a", "b"), ("b", "c")}
    with pytest.raises(ParseError):
        parse_poset_edges("a <= b\n")


@pytest.mark.parametrize("text, elements", [
    ("b < a\nc\na < c\nb\n", ("b", "a", "c")),
    ("a < b\nc < b\nb < d\n", ("a", "b", "c", "d")),  # first on the right
    ("a < c\na < b\nb < c\n", ("a", "c", "b")),      # twice, then once more
    ("a < b\nb\na\nc\n", ("a", "b", "c")),           # bare after an edge
])
def test_poset_elements_keep_the_order_of_first_appearance(text, elements):
    assert parse_poset_edges(text).elements == elements


def test_poset_input_pipeline(tmp_path, capsys):
    # a 2-antichain completes to the four-element diamond: dimension 2
    path = tmp_path / "anti.poset"
    path.write_text("a\nb\n", encoding="utf-8")
    assert main(["dimension", str(path)]) == 0  # .poset extension inferred
    assert "dimension: 2" in capsys.readouterr().out


@pytest.mark.parametrize("name, text", [
    ("life.cxt", life_cxt_text()),
    ("life.csv", life_csv_text()),
    ("diamond.poset", "a < b\na < c\nb < d\nc < d\n"),
], ids=["cxt", "csv", "poset-edges"])
def test_byte_order_mark_is_ignored(tmp_path, capsys, name, text):
    # a file saved with a UTF-8 byte-order mark reads as the same input:
    # the same listing, the same drawing, the same names
    outputs = []
    for encoding in ("utf-8", "utf-8-sig"):
        path = tmp_path / encoding / name
        path.parent.mkdir()
        path.write_text(text, encoding=encoding)
        assert path.read_bytes().startswith(codecs.BOM_UTF8) == (
            encoding == "utf-8-sig")
        for command in (["concepts"], ["draw", "--format", "json"]):
            assert main([command[0], str(path), *command[1:]]) == 0
            outputs.append(capsys.readouterr())
    assert outputs[:2] == outputs[2:]


def test_poset_cycle_reported(tmp_path, capsys):
    path = tmp_path / "cyc.poset"
    path.write_text("a < b\nb < a\n", encoding="utf-8")
    assert main(["dimension", str(path), "--input-format", "poset-edges"]) == 1
    assert capsys.readouterr().err == "dimdraw: error: cycle detected: a < b < a\n"


def test_draw_json_and_tikz(life_file, tmp_path):
    out_json = tmp_path / "d.json"
    assert main(["draw", life_file, "--format", "json", "-o", str(out_json)]) == 0
    doc = json.loads(out_json.read_text(encoding="utf-8"))
    assert doc["dimension"] == 3

    out_tikz = tmp_path / "d.tex"
    assert main(["draw", life_file, "--format", "tikz", "-o", str(out_tikz)]) == 0
    assert "tikzpicture" in out_tikz.read_text(encoding="utf-8")


def test_draw_deterministic_bytes(life_file, tmp_path):
    # the library pipeline runs the same stages as the command
    diagram = build_diagram(life_context())
    for fmt, name, emit in (("svg", "a.svg", to_svg), ("tikz", "a.tex", to_tikz),
                            ("json", "a.json", to_json)):
        first = tmp_path / ("1" + name)
        second = tmp_path / ("2" + name)
        assert main(["draw", life_file, "--format", fmt, "-o", str(first)]) == 0
        assert main(["draw", life_file, "--format", fmt, "-o", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert emit(diagram).encode("utf-8") == first.read_bytes()


def test_draw_passes_each_flag_to_build_diagram(life_file, tmp_path, capsys):
    out = tmp_path / "life.json"
    assert main(["draw", life_file, "--spread", "30", "--format", "json",
                 "-o", str(out)]) == 0
    assert out.read_bytes() == to_json(
        build_diagram(life_context(), spread=30.0)).encode("utf-8")
    for flag, value, kwargs in (("--max-k", "2", {"max_k": 2}),
                                ("--timeout", "0", {"timeout_per_k": 0.0})):
        assert main(["draw", life_file, flag, value]) == 2
        with pytest.raises(DimensionUndecided) as raised:
            build_diagram(life_context(), **kwargs)
        assert capsys.readouterr() == ("", f"dimdraw: undecided: {raised.value}\n")


@pytest.mark.parametrize("fmt, full_counts", [("svg", 0), ("json", 1)])
def test_crossings_are_counted_at_most_once_after_the_search(
        life_file, tmp_path, monkeypatch, fmt, full_counts):
    # only the JSON emitter reads Layout.crossings; no other stage after
    # the search recounts a drawing
    counter = dimdraw.projection._count_crossings
    search = dimdraw.projection.best_assignment
    calls, searched = [], []

    def counting(points, edges, limit=float("inf")):
        if searched:
            calls.append(limit)
        return counter(points, edges, limit)

    def searching(*args, **kwargs):
        result = search(*args, **kwargs)
        searched.append(True)
        return result

    monkeypatch.setattr(dimdraw.projection, "_count_crossings", counting)
    monkeypatch.setattr("dimdraw.cli.best_assignment", searching)
    out = tmp_path / f"d.{fmt}"
    assert main(["draw", life_file, "--format", fmt, "-o", str(out)]) == 0
    assert searched
    assert calls == [float("inf")] * full_counts


def test_a_dimension_above_the_assignment_cap_is_a_resource_cap(
        life_file, tmp_path, monkeypatch, capsys):
    # life has dimension 3; a cap of 2 stops it before any sweep
    monkeypatch.setattr(dimdraw.projection, "ASSIGNMENT_CAP", 2)
    out = tmp_path / "life.json"
    assert main(["draw", life_file, "--format", "json", "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        "dimdraw: too large: dimension 3 is above the assignment search cap of 2\n")
    assert not out.exists()
    with pytest.raises(LatticeTooLargeError, match="dimension 3 .* cap of 2"):
        build_diagram(life_context())


@pytest.mark.parametrize("command", ["concepts", "dimension", "realizer", "draw"])
def test_the_concept_cap_is_a_resource_cap(tmp_path, monkeypatch, capsys, command):
    # contranominal 4 has 16 concepts, 6 more than the cap
    monkeypatch.setattr(dimdraw.lattice, "CONCEPT_CAP", 10)
    path, out = tmp_path / "contranominal4.cxt", tmp_path / "out"
    path.write_text(write_cxt(contra_nominal(4)), encoding="utf-8")
    assert main([command, str(path), "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "dimdraw: too large: more than 10 concepts, the fixed cap on the "
        "lattice size\n")
    assert not out.exists()


@pytest.mark.parametrize("name, text", [
    ("contranominal9.cxt", write_cxt(contra_nominal(9))),
    ("standard9.poset", "".join(f"a{i} < b{j}\n" for i in range(9)
                                for j in range(9) if i != j)),
], ids=["contranominal-9", "standard-example-9"])
def test_dimension_nine_exits_2_before_the_assignment_search(
        tmp_path, monkeypatch, capsys, name, text):
    # both have 512 concepts; the cap stops draw before any sweep or repair
    def unreached(*args):
        raise AssertionError("a stage after the cap ran")

    monkeypatch.setattr(dimdraw.projection, "_search", unreached)
    monkeypatch.setattr(dimdraw.cli, "repair_incidences", unreached)
    path, out = tmp_path / name, tmp_path / "out.svg"
    path.write_text(text, encoding="utf-8")
    assert main(["draw", str(path), "--max-k", "9", "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "dimdraw: too large: dimension 9 is above the assignment search cap of 8\n")
    assert not out.exists()
    ctx = dimdraw.cli.load_context(str(path), dimdraw.cli._infer_format(str(path)))
    with pytest.raises(LatticeTooLargeError, match="dimension 9 .* cap of 8"):
        build_diagram(ctx, max_k=9)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: dimdraw ") and captured.err == ""
    assert main(["draw", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: dimdraw draw ")
    assert "--spread" in captured.out and captured.err == ""


@pytest.mark.parametrize("argv, error", [
    ([], "dimdraw: error: the following arguments are required: command"),
    (["bogus"], "dimdraw: error: argument command: invalid choice: 'bogus'"),
    (["draw", "LIFE", "--format", "png"],
     "dimdraw draw: error: argument --format: invalid choice: 'png'"),
], ids=["no-command", "unknown-command", "unknown-format"])
def test_a_usage_error_exits_1_with_the_usage_and_the_error(life_file, capsys,
                                                             argv, error):
    # only up to the choice: how the "choose from" list is quoted differs
    # between Python patch releases
    assert main([life_file if arg == "LIFE" else arg for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: dimdraw")
    assert captured.err.endswith("\n")
    assert captured.err.splitlines()[-1].startswith(error)


@pytest.mark.parametrize("command, flags", [
    ("concepts", 0), ("dimension", 2), ("realizer", 2), ("draw", 4)])
def test_help_shows_each_default_from_its_constant(monkeypatch, capsys,
                                                   command, flags):
    # --timeout, --max-k, --format and --spread, in that order
    def defaults_shown(parser):
        with pytest.raises(SystemExit) as exit_:
            parser.parse_args([command, "--help"])
        assert exit_.value.code == 0
        text = " ".join(capsys.readouterr().out.split())  # unwrapped
        return re.findall(r"\(default ([^)]*)\)", text)

    assert (f"{DEFAULT_TIMEOUT_S:g}", DEFAULT_MAX_K, f"{DEFAULT_SPREAD_DEG:g}") == (
        "60", 8, "45")
    assert defaults_shown(_build_parser()) == ["60", "8", "svg", "45"][:flags]
    # a parser built from other constants shows the other values
    monkeypatch.setattr(dimdraw.cli, "DEFAULT_TIMEOUT_S", 7.5)
    monkeypatch.setattr(dimdraw.cli, "DEFAULT_MAX_K", 3)
    monkeypatch.setattr(dimdraw.cli, "DEFAULT_SPREAD_DEG", 30.0)
    assert defaults_shown(_build_parser.__wrapped__()) == [
        "7.5", "3", "svg", "30"][:flags]


def test_one_parser_per_process():
    assert _build_parser() is _build_parser()


def test_importing_the_cli_loads_no_xml_network_email_or_typing_module():
    # -S: a site .pth hook would preload modules and hide their import
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    code = ("import sys; before = set(sys.modules); import dimdraw.cli; "
            "print(*{name.partition('.')[0] for name in set(sys.modules) - before})")
    loaded = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                            env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True).stdout.split()
    assert "dimdraw" in loaded
    assert not {"xml", "urllib", "http", "email", "ssl", "socket",
                "typing"}.intersection(loaded)
    # the runtime is the standard library alone
    assert set(loaded) - set(sys.stdlib_module_names) == {"dimdraw"}


def test_reused_parser_carries_no_option_to_the_next_call(life_file, tmp_path,
                                                          capsys):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert main(["draw", life_file, "--spread", "30", "-o", str(a)]) == 0
    assert main(["draw", life_file, "-o", str(b)]) == 0
    assert b.read_bytes() == _golden("life.svg") != a.read_bytes()
    assert main(["draw"]) == 1
    assert "required: input" in capsys.readouterr().err
    assert main(["dimension", life_file]) == 0
    assert capsys.readouterr().out.startswith("dimension: 3\n")


def _no_order(*_):
    raise AssertionError("the lattice order was built")


def test_concepts_builds_no_order(life_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(dimdraw.lattice, "transitive_reduction", _no_order)
    monkeypatch.setattr(dimdraw.lattice.ConceptLattice, "up_masks",
                        property(_no_order))
    seeded = tmp_path / "seeded.cxt"
    seeded.write_text(write_cxt(seeded_context(20, 20, 0.5, 1)), encoding="utf-8")
    for path, ctx in ((life_file, life_context()),
                      (str(seeded), seeded_context(20, 20, 0.5, 1))):
        assert main(["concepts", path]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == reference_concept_listing(ctx, concepts(ctx))


def test_dimension_and_realizer_build_no_covers(life_file, tmp_path,
                                                monkeypatch, capsys):
    # the realizer is verified against the up-sets, never the covers;
    # random 20x20 .5 s1 is undecided within any short budget, so crown
    # C_12 is the second input
    monkeypatch.setattr(dimdraw.lattice, "transitive_reduction", _no_order)
    crown = tmp_path / "crown12.cxt"
    crown.write_text(write_cxt(crown_context(12)), encoding="utf-8")
    out = tmp_path / "out.json"
    for path, command, golden in (
            (life_file, "dimension", "life.dimension.json"),
            (life_file, "realizer", "life.realizer.json"),
            (str(crown), "dimension", "crown12.dimension.json")):
        assert main([command, path, "-o", str(out)]) == 0, capsys.readouterr().err
        assert out.read_bytes() == _golden(golden)
    assert main(["realizer", str(crown), "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""


def test_draw_builds_the_order_once(life_file, tmp_path, monkeypatch):
    calls = []

    def counted(masks):
        calls.append(len(masks))
        return reduction(masks)

    reduction = dimdraw.lattice.transitive_reduction
    monkeypatch.setattr(dimdraw.lattice, "transitive_reduction", counted)
    out = tmp_path / "life.json"
    assert main(["draw", life_file, "--format", "json", "-o", str(out)]) == 0
    assert out.read_bytes() == _golden("life.json")
    assert calls == [19]


@pytest.mark.parametrize("command", ["concepts", "dimension", "realizer", "draw"])
def test_every_command_checks_the_bottom_and_top(life_file, command,
                                                 monkeypatch, capsys):
    # extents listed out of order put the top, not the bottom, at index 0
    monkeypatch.setattr(dimdraw.lattice, "sorted",
                        lambda masks: sorted(masks, reverse=True), raising=False)
    assert main([command, life_file]) == 3
    assert capsys.readouterr().err == (
        "dimdraw: internal error: lattice lost its unique bottom or top\n")


def _sparse_40x40(tmp_path, cells):
    rows = ["".join("X" if (g, m) in cells else "." for m in range(40))
            for g in range(40)]
    lines = ["B", "", "40", "40", *(f"g{i}" for i in range(40)),
             *(f"m{i}" for i in range(40)), *rows]
    path = tmp_path / "sparse.cxt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_one_cell_40x40_has_dimension_one(tmp_path, capsys):
    path = _sparse_40x40(tmp_path, {(0, 0)})
    assert main(["dimension", path, "-o", str(tmp_path / "cert.json")]) == 0
    assert "dimension: 1" in capsys.readouterr().out


def test_two_cell_40x40_is_decided_without_a_traceback(tmp_path, capsys):
    # about 1600 cells deep: a search that recursed once per cell would
    # end in a RecursionError
    path = _sparse_40x40(tmp_path, {(0, 0), (1, 1)})
    assert main(["dimension", path, "-o", str(tmp_path / "cert.json")]) == 0
    captured = capsys.readouterr()
    assert "dimension: 2" in captured.out
    assert "Traceback" not in captured.err


def test_unexpected_exception_is_one_line_exit_3(life_file, monkeypatch, capsys):
    def broken(ctx):
        raise RuntimeError("stage broke\non two lines")

    monkeypatch.setattr("dimdraw.cli.concepts", broken)
    assert main(["dimension", life_file]) == 3
    err = capsys.readouterr().err
    assert err == "dimdraw: internal error: RuntimeError: stage broke on two lines\n"


_LINE_ENDS = st.sampled_from(("\n", "\r\n", "\r"))


def _documents(alphabet: str, heads=((),)):
    """One of ``heads``, then short lines over ``alphabet``, joined by one
    kind of line end, so that rows come up often enough to reach past
    the first line."""
    lines = st.lists(st.text(alphabet=alphabet, max_size=8), max_size=12)
    return st.builds(lambda head, ls, end: end.join([*head, *ls]),
                     st.sampled_from(heads), lines, _LINE_ENDS)


_STRANGE = "\t\r\x0b\x85 <,#"
_READERS = {".cxt": parse_cxt, ".csv": parse_csv,
            ".poset": lambda text: poset_to_context(parse_poset_edges(text))}


@pytest.mark.parametrize("suffix, documents", [
    (".cxt", _documents("BXx.0123ab" + _STRANGE,
                        ((), ("B", ""), ("B", "", "2", "2"), ("B", "", "1")))),
    (".csv", _documents("Xx10.ab" + _STRANGE)),
    (".poset", _documents("abc" + _STRANGE)),
], ids=["cxt", "csv", "poset-edges"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_arbitrary_input_is_read_or_rejected_in_one_line(suffix, documents, data):
    # a leading byte-order mark is dropped by the library and the CLI alike
    text = data.draw(st.sampled_from(("", "\ufeff"))) + data.draw(documents)
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "input" + suffix)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["concepts", path])
    if code == 0:
        assert err.getvalue() == ""
        assert out.getvalue().startswith("concepts: ")
    else:
        assert code == 1, err.getvalue()
        assert err.getvalue().startswith("dimdraw: error: ")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    # the library reader, given the text, ends its lines where main, which
    # reads the file in text mode, does: the same context or the same error
    try:
        ctx = _READERS[suffix](text)
    except (ParseError, CycleError, ValueError) as exc:
        assert (code, err.getvalue()) == (1, f"dimdraw: error: {exc}\n")
    else:
        assert out.getvalue() == reference_concept_listing(ctx, concepts(ctx))
