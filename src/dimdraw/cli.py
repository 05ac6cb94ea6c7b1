"""Command-line entry point: concepts | dimension | realizer | draw.

Reports go to stdout, diagnostics to stderr, artifacts to --output when
given.  Exit codes: 0 success, 1 usage or input error, 2 timeout or
undecided or a resource cap, 3 internal contract violation or any other
unexpected exception, reported as one line.  Identical
invocations on identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .context import (FormalContext, PosetInput, parse_csv, parse_cxt,
                      poset_to_context)
from .dimension import (brute_force_dimension, certificate_json,
                        order_dimension, realizer_from_cover,
                        realizer_permutations)
from .embedding import embed
from .errors import (ContractViolation, CycleError, DimensionUndecided,
                     LatticeTooLargeError, OracleCapExceeded, ParseError,
                     RepairFailed, SearchTimeout)
from .lattice import ConceptLattice, concepts
from .projection import (best_assignment, default_frame, normalize,
                         repair_incidences)
from .render import LabeledDiagram, label, to_json, to_svg, to_tikz

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNDECIDED = 2
EXIT_CONTRACT = 3

DEFAULT_ORACLE_CAP = 10

_FORMATS = ("cxt", "csv", "poset-edges")
_OUTPUT_FORMATS = ("svg", "tikz", "json")


@dataclass
class RunConfig:
    """Validated invocation parameters; built before any pipeline work."""

    input_path: str
    input_format: str
    command: str
    output_format: str = "svg"
    output: str | None = None
    spread: float = 45.0
    timeout: float = 60.0
    max_k: int = 8
    check_oracle: bool = False

    def validate(self) -> None:
        if self.input_format not in _FORMATS:
            raise ValueError(f"unknown input format {self.input_format!r}")
        if self.output_format not in _OUTPUT_FORMATS:
            raise ValueError(f"unknown output format {self.output_format!r}")
        if not 0.0 < self.spread < 90.0:
            raise ValueError("--spread must be strictly between 0 and 90")
        if self.timeout < 0.0:
            raise ValueError("--timeout must be non-negative")
        if self.max_k < 1:
            raise ValueError("--max-k must be at least 1")


def parse_poset_edges(text: str) -> PosetInput:
    """Edge-list poset format: one ``a < b`` pair per line, whitespace
    separated.  A line with a single token declares an isolated element;
    blank lines and ``#`` comments are skipped."""
    elements: list[str] = []
    seen: set[str] = set()
    relation: set[tuple[str, str]] = set()

    def note(name: str) -> None:
        if name not in seen:
            seen.add(name)
            elements.append(name)

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) == 1:
            note(tokens[0])
            continue
        if len(tokens) != 3 or tokens[1] != "<":
            raise ParseError(f"expected 'a < b' or a bare element name, got {line!r}",
                             line=lineno)
        a, _, b = tokens
        note(a)
        note(b)
        relation.add((a, b))

    return PosetInput(tuple(elements), frozenset(relation))


def load_context(path: str, input_format: str) -> FormalContext:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if input_format == "cxt":
        return parse_cxt(text)
    if input_format == "csv":
        return parse_csv(text)
    return poset_to_context(parse_poset_edges(text))


def _infer_format(path: str) -> str:
    lowered = path.lower()
    if lowered.endswith(".cxt"):
        return "cxt"
    if lowered.endswith(".csv"):
        return "csv"
    if lowered.endswith((".poset", ".edges")):
        return "poset-edges"
    raise ValueError(
        f"cannot infer input format from {path!r}; pass --input-format")


def build_diagram(ctx: FormalContext, *, spread: float = 45.0,
                  timeout_per_k: float | None = 60.0,
                  max_k: int | None = 8,
                  repair_eps: float = 1e-3
                  ) -> tuple[LabeledDiagram, bool]:
    """Full drawing pipeline for library use.

    Returns the labeled diagram and whether the crossing-minimization
    search was exhaustive (False means the identity-assignment fallback
    was used because the dimension exceeded the search cap).
    """
    lat = concepts(ctx)
    dim, cover = order_dimension(ctx, timeout_per_k=timeout_per_k, max_k=max_k)
    real = realizer_from_cover(ctx, lat, cover)
    frame = default_frame(dim, spread)
    search = best_assignment(embed(lat, real), frame)
    layout = repair_incidences(normalize(search.layout), repair_eps)
    return label(ctx, lat, layout, real), search.exhaustive


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _oracle_check(cfg: RunConfig, lattice: ConceptLattice, dim: int) -> None:
    if not cfg.check_oracle:
        return
    if lattice.n > DEFAULT_ORACLE_CAP:
        print(f"oracle: skipped ({lattice.n} concepts exceed the cap of "
              f"{DEFAULT_ORACLE_CAP})", file=sys.stderr)
        return
    reference = brute_force_dimension(lattice)
    if reference != dim:
        raise ContractViolation(
            f"oracle disagreement: cover search says {dim}, brute force "
            f"says {reference}")
    print(f"oracle: agreement (dimension {dim})", file=sys.stderr)


def _cmd_concepts(cfg: RunConfig) -> int:
    ctx = load_context(cfg.input_path, cfg.input_format)
    lat = concepts(ctx)
    lines = [f"concepts: {lat.n}"]
    for i, c in enumerate(lat.concepts):
        extent = ",".join(ctx.objects[g] for g in sorted(c.extent))
        intent = ",".join(ctx.attributes[m] for m in sorted(c.intent))
        lines.append(f"{i}\t{{{extent}}}\t{{{intent}}}")
    _emit("\n".join(lines) + "\n", cfg.output)
    return EXIT_OK


def _cmd_dimension(cfg: RunConfig) -> int:
    ctx = load_context(cfg.input_path, cfg.input_format)
    lat = concepts(ctx)
    dim, cover = order_dimension(ctx, timeout_per_k=cfg.timeout,
                                 max_k=cfg.max_k)
    _oracle_check(cfg, lat, dim)
    real = realizer_from_cover(ctx, lat, cover)
    certificate = certificate_json(ctx, lat, dim, cover, real)
    print(f"dimension: {dim}")
    if cfg.output is None:
        sys.stdout.write(certificate)
    else:
        _emit(certificate, cfg.output)
    return EXIT_OK


def _cmd_realizer(cfg: RunConfig) -> int:
    ctx = load_context(cfg.input_path, cfg.input_format)
    lat = concepts(ctx)
    dim, cover = order_dimension(ctx, timeout_per_k=cfg.timeout,
                                 max_k=cfg.max_k)
    _oracle_check(cfg, lat, dim)
    real = realizer_from_cover(ctx, lat, cover)
    doc = {"dimension": dim,
           "realizer": realizer_permutations(ctx, lat, real)}
    _emit(json.dumps(doc, indent=2) + "\n", cfg.output)
    return EXIT_OK


def _cmd_draw(cfg: RunConfig) -> int:
    ctx = load_context(cfg.input_path, cfg.input_format)
    lat = concepts(ctx)
    dim, cover = order_dimension(ctx, timeout_per_k=cfg.timeout,
                                 max_k=cfg.max_k)
    _oracle_check(cfg, lat, dim)
    real = realizer_from_cover(ctx, lat, cover)
    frame = default_frame(dim, cfg.spread)
    search = best_assignment(embed(lat, real), frame)
    if not search.exhaustive:
        print(f"warning: dimension {dim} exceeds the assignment search cap; "
              "using the identity assignment", file=sys.stderr)
    layout = repair_incidences(normalize(search.layout))
    diagram = label(ctx, lat, layout, real)
    if cfg.output_format == "svg":
        text = to_svg(diagram)
    elif cfg.output_format == "tikz":
        text = to_tikz(diagram)
    else:
        text = to_json(diagram)
    _emit(text, cfg.output)
    return EXIT_OK


_COMMANDS = {
    "concepts": _cmd_concepts,
    "dimension": _cmd_dimension,
    "realizer": _cmd_realizer,
    "draw": _cmd_draw,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="dimdraw",
                     description="Draw concept lattices and finite posets by "
                                 "order dimension.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", help="input file")
        p.add_argument("--input-format", choices=_FORMATS, default=None,
                       help="input format (default: inferred from extension)")
        p.add_argument("--output", "-o", default=None,
                       help="output file (default: stdout)")

    def search_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--timeout", type=float, default=60.0,
                       help="search budget per k, in seconds (default 60)")
        p.add_argument("--max-k", type=int, default=8,
                       help="largest cover size to try (default 8)")
        p.add_argument("--check-oracle", action="store_true",
                       help="cross-check the dimension against the "
                            "brute-force oracle on small lattices")

    p = sub.add_parser("concepts", help="enumerate the concept lattice")
    common(p)

    p = sub.add_parser("dimension", help="order dimension with certificate")
    common(p)
    search_flags(p)

    p = sub.add_parser("realizer", help="minimal realizer of the lattice order")
    common(p)
    search_flags(p)

    p = sub.add_parser("draw", help="draw the line diagram")
    common(p)
    search_flags(p)
    p.add_argument("--format", choices=_OUTPUT_FORMATS, default="svg",
                   help="artifact format (default svg)")
    p.add_argument("--spread", type=float, default=45.0,
                   help="half-angle of the projection fan in degrees "
                        "(default 45)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    try:
        input_format = ns.input_format or _infer_format(ns.input)
        cfg = RunConfig(
            input_path=ns.input,
            input_format=input_format,
            command=ns.command,
            output_format=getattr(ns, "format", "svg"),
            output=ns.output,
            spread=getattr(ns, "spread", 45.0),
            timeout=getattr(ns, "timeout", 60.0),
            max_k=getattr(ns, "max_k", 8),
            check_oracle=getattr(ns, "check_oracle", False),
        )
        cfg.validate()
        return _COMMANDS[cfg.command](cfg)
    except (ParseError, CycleError, ValueError) as exc:
        print(f"dimdraw: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"dimdraw: error: cannot read or write: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DimensionUndecided, SearchTimeout, LatticeTooLargeError,
            OracleCapExceeded) as exc:
        print(f"dimdraw: undecided: {exc}", file=sys.stderr)
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
