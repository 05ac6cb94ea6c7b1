"""Command-line entry point: concepts | dimension | realizer | draw.

Reports go to stdout, diagnostics to stderr, artifacts to --output when
given.  Exit codes: 0 success, also when the reader closes stdout early,
1 usage or input error, 2 timeout or undecided or a resource cap, 3
internal contract violation or any other unexpected exception, reported
as one line.  Identical invocations on identical inputs produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

from .context import (_BYTE_TABLE, FormalContext, _bits, _byte_tables, _json_text,
                      parse_csv, parse_cxt, parse_poset_edges, poset_to_context)
from .dimension import (DEFAULT_TIMEOUT_S, certificate_json, order_dimension,
                        realizer_from_cover, realizer_permutations)
from .embedding import embed
from .errors import (ContractViolation, CycleError, DimensionUndecided,
                     LatticeTooLargeError, ParseError, RepairFailed)
from .lattice import ConceptLattice, concepts
from .projection import (DEFAULT_SPREAD_DEG, best_assignment, default_frame,
                         normalize, repair_incidences)
from .render import LabeledDiagram, label, to_json, to_svg, to_tikz

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNDECIDED = 2
EXIT_CONTRACT = 3

DEFAULT_MAX_K = 8

# name -> (reader of the text, suffixes it is inferred from); the poset
# reader looks poset_to_context up per call, so a wrapper set here applies
_INPUT_FORMATS = {
    "cxt": (parse_cxt, (".cxt",)),
    "csv": (parse_csv, (".csv",)),
    "poset-edges": (lambda text: poset_to_context(parse_poset_edges(text)),
                    (".poset", ".edges")),
}
_EMITTERS = {"svg": to_svg, "tikz": to_tikz, "json": to_json}


def load_context(path: str, input_format: str) -> FormalContext:
    if input_format not in _INPUT_FORMATS:
        raise ValueError(f"unknown input format {input_format!r}")
    with open(path, "r", encoding="utf-8") as handle:
        return _INPUT_FORMATS[input_format][0](handle.read())


def _infer_format(path: str) -> str:
    lowered = path.lower()
    for name, (_, suffixes) in _INPUT_FORMATS.items():
        if lowered.endswith(suffixes):
            return name
    raise ValueError(
        f"cannot infer input format from {path!r}; pass --input-format")


def build_diagram(ctx: FormalContext, *, spread: float = DEFAULT_SPREAD_DEG,
                  timeout_per_k: float | None = DEFAULT_TIMEOUT_S,
                  max_k: int | None = DEFAULT_MAX_K
                  ) -> LabeledDiagram:
    """The drawing pipeline, which ``dimdraw draw`` runs: lattice, dimension,
    realizer, embedding, assignment search, normalization, repair and
    labels.  A dimension above ASSIGNMENT_CAP raises LatticeTooLargeError."""
    lat = concepts(ctx)
    _, cover = order_dimension(ctx, timeout_per_k=timeout_per_k, max_k=max_k)
    real = realizer_from_cover(ctx, lat, cover)
    search = best_assignment(embed(lat, real), default_frame(real.dim, spread))
    return label(ctx, lat, repair_incidences(normalize(search.layout)), real)


def _concept_listing(ctx: FormalContext, lat: ConceptLattice) -> str:
    """The ``dimdraw concepts`` text: a count line, then per concept its
    index and the comma-joined names of its extent and intent.  From
    _BYTE_TABLE concepts on, the names come from byte tables, whose
    entries end each name in a comma; below that, bit by bit."""
    lines = [f"concepts: {lat.n}"]
    if lat.n < _BYTE_TABLE:
        for i, c in enumerate(lat.concepts):
            extent = ",".join(ctx.objects[g] for g in _bits(c.extent_mask))
            intent = ",".join(ctx.attributes[m] for m in _bits(c.intent_mask))
            lines.append(f"{i}\t{{{extent}}}\t{{{intent}}}")
    else:
        objects, attributes = (_byte_tables(names, "", "{}{},".format)
                               for names in (ctx.objects, ctx.attributes))
        entry, g_bytes, m_bytes = list.__getitem__, len(objects), len(attributes)
        for i, c in enumerate(lat.concepts):
            extent = "".join(map(entry, objects, c.extent_mask.to_bytes(g_bytes, "little")))
            intent = "".join(map(entry, attributes,
                                 c.intent_mask.to_bytes(m_bytes, "little")))
            lines.append(f"{i}\t{{{extent[:-1]}}}\t{{{intent[:-1]}}}")
    return "\n".join(lines) + "\n"


def _execute(ns: argparse.Namespace) -> int:
    """Every command: load, the command's stages, then its format."""
    ctx = load_context(ns.input_path,
                       ns.input_format or _infer_format(ns.input_path))
    if ns.command == "draw":
        text = _EMITTERS[ns.output_format](build_diagram(
            ctx, spread=ns.spread, timeout_per_k=ns.timeout, max_k=ns.max_k))
    elif ns.command == "concepts":
        text = _concept_listing(ctx, concepts(ctx))
    else:
        lat = concepts(ctx)
        dim, cover = order_dimension(ctx, timeout_per_k=ns.timeout, max_k=ns.max_k)
        real = realizer_from_cover(ctx, lat, cover)
        if ns.command == "dimension":
            text = certificate_json(ctx, lat, dim, cover, real)
            print(f"dimension: {dim}")
        else:
            text = _json_text({"dimension": dim, "realizer":
                               realizer_permutations(ctx, lat, real)})
    if ns.output is None:
        sys.stdout.write(text)
    else:
        with open(ns.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
    return EXIT_OK


def _checked(convert, accepts, requirement: str):
    """An argparse ``type=`` that converts the text, then rejects a value
    that ``accepts`` refuses, naming the ``requirement``."""
    def parse(text: str):
        value = convert(text)
        if not accepts(value):  # NaN fails every comparison
            raise argparse.ArgumentTypeError(requirement)
        return value
    parse.__name__ = convert.__name__  # as in "invalid int value: '1.5'"
    return parse


@cache  # one parser per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dimdraw",
                                     description="Draw concept lattices and "
                                     "finite posets by order dimension.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, search: bool) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("input_path", metavar="input", help="input file")
        p.add_argument("--input-format", choices=tuple(_INPUT_FORMATS),
                       help="input format (default: inferred from extension)")
        p.add_argument("--output", "-o",
                       help="output file (default: stdout)")
        if search:
            p.add_argument("--timeout", default=DEFAULT_TIMEOUT_S,
                           type=_checked(float, lambda t: t >= 0.0,
                                         "must be non-negative"),
                           help="search budget per k >= 3, in seconds "
                                "(default %(default)g)")
            p.add_argument("--max-k", default=DEFAULT_MAX_K,
                           type=_checked(int, lambda k: k >= 1,
                                         "must be at least 1"),
                           help="largest cover size to try "
                                "(default %(default)s)")
        return p

    command("concepts", "enumerate the concept lattice", search=False)
    command("dimension", "order dimension with certificate", search=True)
    command("realizer", "minimal realizer of the lattice order", search=True)
    p = command("draw", "draw the line diagram", search=True)
    p.add_argument("--format", dest="output_format", default="svg",
                   choices=tuple(_EMITTERS),
                   help="artifact format (default %(default)s)")
    p.add_argument("--spread", default=DEFAULT_SPREAD_DEG,
                   type=_checked(float, lambda s: 0.0 < s < 90.0,
                                 "must be strictly between 0 and 90"),
                   help="half-angle of the projection fan in degrees "
                        "(default %(default)g)")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; returns its exit code.  argparse exits 0 after
    --help and 2 on a usage error, which is exit code 1 here."""
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK

    try:
        return _execute(ns)
    except (ParseError, CycleError, ValueError) as exc:
        print(f"dimdraw: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader stopped reading an answer that was computed; stdout
        # goes to devnull so that the flush at exit raises nothing more
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except OSError as exc:
        print(f"dimdraw: error: cannot read or write: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DimensionUndecided, LatticeTooLargeError) as exc:
        word = "too large" if isinstance(exc, LatticeTooLargeError) else "undecided"
        print(f"dimdraw: {word}: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except (ContractViolation, RepairFailed) as exc:
        print(f"dimdraw: internal error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except Exception as exc:  # a bug, reported as one line and not a traceback
        message = " ".join(str(exc).splitlines())
        print(f"dimdraw: internal error: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
