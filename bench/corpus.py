"""The benchmark's workloads and the seeded input files they are run on.

Every structural instance is pinned: the exact searches inside dimdraw
are exponential, so two structurally different random contexts can
differ in run time by a factor of ten, and a corpus that changed shape
with the benchmark seed would measure the seed instead of the program.
The random contexts are therefore drawn from fixed *structural* seeds
(the ones the pinned answers below were recorded at), as in the ROADMAP's
"random g x m p s" notation: cell (i, j) is incident when
``random.Random(s).random() < p``, drawn in row-major order.

The benchmark seed varies everything the searches do not depend on: the
object, attribute and element names (so parsing, labelling and the
emitted bytes differ), the order of the edge lines in poset files, the
output format each drawing gets, and the order in which a pass visits
the inputs.  The program only ever sees the generated files.
"""

from __future__ import annotations

import os
import random
import string
from dataclasses import dataclass, replace

DRAW_FORMATS = ("svg", "tikz", "json")
_EXTENSIONS = {"cxt": ".cxt", "csv": ".csv", "poset-edges": ".poset"}


@dataclass(frozen=True)
class Item:
    """One structural input with the answers pinned for it.

    ``rows[g]`` is the set of attributes of object g in the context the
    program must derive from the file; for a poset that is (X, X, <=),
    so ``rows[x]`` is the up-set of x.  ``covers`` lists the strict
    cover pairs written to a poset file and is empty for contexts.
    """

    id: str
    file_format: str
    n_attributes: int
    rows: tuple[frozenset[int], ...]
    dim: int | None
    n_concepts: int
    covers: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    items: tuple[Item, ...]
    timeout: float | None
    max_k: int | None


@dataclass(frozen=True)
class Input:
    """An item as the program sees it in one run: names, file, format."""

    item: Item
    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    filename: str
    text: str
    output_format: str | None


def _context(id_, file_format, n_attributes, rows, dim, n_concepts) -> Item:
    return Item(id_, file_format, n_attributes,
                tuple(frozenset(r) for r in rows), dim, n_concepts)


def contranominal(n: int) -> Item:
    rows = [set(range(n)) - {i} for i in range(n)]
    return _context(f"contranominal-{n}", "cxt", n, rows, n, 2 ** n)


def crown(n: int) -> Item:
    rows = [{i, (i + 1) % n} for i in range(n)]
    return _context(f"crown-{n}", "cxt", n, rows, 3, 2 * n + 2)


def chain(n: int) -> Item:
    """Staircase context: object i has attributes i..n-1; its lattice is a chain."""
    rows = [set(range(i, n)) for i in range(n)]
    return _context(f"chain-{n}", "cxt", n, rows, 1, n)


def random_context(g: int, m: int, p: float, s: int, dim: int, n_concepts: int,
                   file_format: str = "cxt") -> Item:
    r = random.Random(s)
    rows = [{j for j in range(m) if r.random() < p} for _ in range(g)]
    return _context(f"random-{g}x{m}-p{p}-s{s}", file_format, m, rows, dim,
                    n_concepts)


def two_dimensional_poset(n: int, s: int, n_concepts: int) -> Item:
    """The intersection of two seeded random linear orders of n elements.

    Its dimension is 2 unless it is a chain, which is refused here.
    """
    r = random.Random(s)
    first = list(range(n))
    second = list(range(n))
    r.shuffle(first)
    r.shuffle(second)
    pos1 = {v: i for i, v in enumerate(first)}
    pos2 = {v: i for i, v in enumerate(second)}
    below = {(x, y) for x in range(n) for y in range(n)
             if pos1[x] < pos1[y] and pos2[x] < pos2[y]}
    if len(below) == n * (n - 1) // 2:
        raise ValueError(f"poset {n} s{s} is a chain, so its dimension is 1")
    covers = tuple(sorted(
        (x, y) for x, y in below
        if not any((x, z) in below and (z, y) in below for z in range(n))))
    rows = [{y for y in range(n) if y == x or (x, y) in below} for x in range(n)]
    return replace(_context(f"poset2d-{n}-s{s}", "poset-edges", n, rows, 2, n_concepts),
                   covers=covers)


# The d and concept counts of the random inputs were recorded at the
# structural seed shown; the others follow from the construction.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            "draw-highdim", "draw",
            (contranominal(4), contranominal(5),
             random_context(10, 10, 0.5, 0, 4, 31),
             random_context(10, 10, 0.5, 1, 4, 33),
             random_context(10, 10, 0.5, 2, 4, 28),
             random_context(12, 12, 0.5, 0, 5, 59),
             random_context(12, 12, 0.5, 3, 4, 60)),
            timeout=10.0, max_k=6),
        Workload(
            "dimension-refute", "dimension",
            (crown(12), crown(14),
             random_context(14, 14, 0.35, 0, 4, 53),
             random_context(14, 14, 0.35, 2, 5, 78),
             random_context(14, 14, 0.35, 4, 5, 83)),
            timeout=20.0, max_k=6),
        Workload(
            "dimension-witness", "dimension",
            (two_dimensional_poset(16, 0, 21), two_dimensional_poset(20, 0, 26),
             two_dimensional_poset(24, 0, 42), chain(16), chain(20)),
            timeout=30.0, max_k=6),
        Workload(
            "concepts-large", "concepts",
            (random_context(20, 20, 0.5, 1, None, 600),
             random_context(24, 24, 0.5, 1, None, 1087, file_format="csv"),
             random_context(30, 16, 0.6, 1, None, 1578)),
            timeout=None, max_k=None),
    )
}


def _names(r: random.Random, prefix: str, count: int) -> tuple[str, ...]:
    seen: set[str] = set()
    out = []
    while len(out) < count:
        name = prefix + "".join(r.choice(string.ascii_lowercase) for _ in range(6))
        if name not in seen:
            seen.add(name)
            out.append(name)
    return tuple(out)


def _cxt_text(objects, attributes, rows) -> str:
    lines = ["B", "", str(len(objects)), str(len(attributes))]
    lines.extend(objects)
    lines.extend(attributes)
    lines.extend("".join("X" if m in row else "." for m in range(len(attributes)))
                 for row in rows)
    return "\n".join(lines) + "\n"


def _csv_text(objects, attributes, rows) -> str:
    lines = ["name," + ",".join(attributes)]
    for name, row in zip(objects, rows):
        lines.append(name + "," + ",".join(
            "X" if m in row else "" for m in range(len(attributes))))
    return "\n".join(lines) + "\n"


def _poset_text(elements, covers, r: random.Random) -> str:
    # Elements are declared first, in index order, so the parser numbers
    # them exactly as the item does; only the edge lines are shuffled.
    edges = [f"{elements[x]} < {elements[y]}" for x, y in covers]
    r.shuffle(edges)
    return "\n".join(["# two-dimensional poset", *elements, *edges]) + "\n"


def make_inputs(workload: Workload, seed: int) -> list[Input]:
    """The inputs of one run, in the order a pass visits them."""
    r = random.Random(f"{workload.name}:{seed}")
    inputs = []
    for position, item in enumerate(workload.items):
        objects = _names(r, "g", len(item.rows))
        if item.file_format == "poset-edges":
            attributes = objects
            text = _poset_text(objects, item.covers, r)
        else:
            attributes = _names(r, "m", item.n_attributes)
            writer = _csv_text if item.file_format == "csv" else _cxt_text
            text = writer(objects, attributes, item.rows)
        fmt = (DRAW_FORMATS[(position + seed) % len(DRAW_FORMATS)]
               if workload.command == "draw" else None)
        inputs.append(Input(item, objects, attributes,
                            item.id + _EXTENSIONS[item.file_format], text, fmt))
    r.shuffle(inputs)
    return inputs


def write_inputs(inputs: list[Input], directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for inp in inputs:
        with open(os.path.join(directory, inp.filename), "w",
                  encoding="utf-8", newline="") as handle:
            handle.write(inp.text)
