"""Formal-context input and output: every text reader of the package.

Three text formats are read.  The Burmeister ``.cxt`` dialect accepted
here is, line by line::

    B
    <blank>
    <number of objects>
    <number of attributes>
    <one object name per line>
    <one attribute name per line>
    <one row per object, one character per attribute: 'X' or '.'>

CSV cross tables use a comma separator with no quoting, so names must not
contain commas (documented limitation).  The header row lists the
attributes (its first cell is ignored); every other row starts with the
object name.  ``X``, ``x`` and ``1`` mark an incident cell; an empty
cell, ``0`` or ``.`` a non-incident one.

Arbitrary finite posets are read by ``parse_poset_edges``, one ``a < b``
pair per line, and enter the pipeline through ``poset_to_context``, which
encodes an order (X, <=) as the context (X, X, <=).  The concept lattice
of that context is the Dedekind-MacNeille completion of the poset, and
completion preserves the order dimension, so the rest of the pipeline
applies unchanged.
"""

from __future__ import annotations

import graphlib
import json
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str
from math import isfinite

from .errors import CycleError, ParseError

_CSV_INCIDENT = frozenset({"X", "x", "1"})
_CSV_EMPTY = frozenset({"", "0", "."})


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# entries of a full table of ``_byte_tables``: a caller builds the
# tables only to decode at least this many masks, which pays for them
_BYTE_TABLE = 256


def _byte_tables(values: Sequence, unit, fold: Callable) -> list[list]:
    """Tables that decode a mask over ``values`` one byte at a time.

    Table k maps byte k of ``mask.to_bytes(len(tables), "little")`` to
    the fold of values 8k..8k+7 over the byte's set bits, lowest index
    first: ``fold(... fold(unit, v_low) ..., v_high)``, and ``unit`` for
    byte 0.  A table has up to _BYTE_TABLE entries; entry b is built from
    the entry without b's highest bit.
    """
    tables = []
    for k in range(0, len(values), 8):
        table = [unit]
        for value in values[k:k + 8]:
            table += [fold(rest, value) for rest in table]
        tables.append(table)
    return tables


def _check_names(names: tuple[str, ...], kind: str) -> None:
    seen = set()
    for name in names:
        if not isinstance(name, str):
            raise ValueError(f"{kind} name {name!r} is not a string")
        if "\n" in name or "\r" in name:
            raise ValueError(f"{kind} name {name!r} contains a line break")
        if name in seen:
            raise ValueError(f"duplicate {kind} name {name!r}")
        seen.add(name)


@dataclass(frozen=True)
class FormalContext:
    """A cross table: objects, attributes, and one attribute mask per object.

    ``rows[g]`` has bit m set when object g has attribute m.  Names are
    opaque strings; all computation downstream runs on the dense indices,
    in input order.  Equality and hashing go by the names and the rows.
    """

    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    rows: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "attributes", tuple(self.attributes))
        object.__setattr__(self, "rows", tuple(self.rows))
        _check_names(self.objects, "object")
        _check_names(self.attributes, "attribute")
        if len(self.rows) != len(self.objects):
            raise ValueError(f"{len(self.rows)} rows for {len(self.objects)} objects")
        for g, row in enumerate(self.rows):
            if not isinstance(row, int) or row < 0 or row >> len(self.attributes):
                raise ValueError(f"row {g} ({row!r}) is not a mask over "
                                 f"{len(self.attributes)} attributes")

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)

    @cached_property
    def incidence(self) -> frozenset[tuple[int, int]]:
        """The incident (object, attribute) index pairs, derived on first read."""
        return frozenset((g, m) for g, row in enumerate(self.rows) for m in _bits(row))

    def attribute_cols(self) -> tuple[int, ...]:
        """Per-attribute bitmask over object indices."""
        cols = [0] * len(self.attributes)
        for g, row in enumerate(self.rows):
            for m in _bits(row):
                cols[m] |= 1 << g
        return tuple(cols)


@dataclass(frozen=True)
class PosetInput:
    """A finite order given by element names and a set of (x, y) pairs, x <= y.

    Acyclicity of the reflexive-transitive closure is checked by
    ``poset_to_context``, which is the only consumer.
    """

    elements: tuple[str, ...]
    relation: frozenset[tuple[str, str]]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "relation", frozenset(self.relation))
        _check_names(self.elements, "element")
        known = set(self.elements)
        # sorted, so the pair named does not follow the hash seed; by repr,
        # since a pair may hold names that are not strings
        for x, y in sorted(self.relation, key=repr):
            if x not in known or y not in known:
                raise ValueError(f"relation pair ({x!r}, {y!r}) names unknown element")


def _lines(text: str) -> list[str]:
    """The lines of the text as Python reads a ``utf-8-sig`` file in text
    mode: one leading U+FEFF is dropped, and ``\\r\\n``, ``\\r`` and
    ``\\n`` each end a line."""
    text = text.removeprefix("\ufeff")
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def parse_poset_edges(text: str) -> PosetInput:
    """Edge-list poset format: one ``a < b`` pair per line, whitespace
    separated; no name contains ``<``, so ``a<b`` is an error.  A line
    with a single token declares an isolated element; blank lines and
    ``#`` comments are skipped."""
    elements: dict[str, None] = {}  # keys in order of first appearance
    relation: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if (not (len(tokens) == 1 or len(tokens) == 3 and tokens[1] == "<")
                or any("<" in name for name in tokens[::2])):
            raise ParseError(f"expected 'a < b' or a bare element name, got {line!r}",
                             line=lineno)
        if len(tokens) == 3:
            relation.add((tokens[0], tokens[2]))
        # a bare name is both tokens[0] and tokens[-1]; a key keeps its place
        elements[tokens[0]] = elements[tokens[-1]] = None
    return PosetInput(tuple(elements), frozenset(relation))


def _unique_names(kind: str):
    """A pass-through for names read one at a time that raises ParseError,
    at the given line, on the first name it has seen before."""
    seen: set[str] = set()

    def unique(name: str, line: int) -> str:
        if name in seen:
            raise ParseError(f"duplicate {kind} name {name!r}", line=line)
        seen.add(name)
        return name
    return unique


def _parse_count(raw: str, line: int, what: str) -> int:
    try:
        value = int(raw.strip())
    except ValueError:
        raise ParseError(f"malformed {what}: {raw!r}", line=line) from None
    if value < 0:
        raise ParseError(f"negative {what}: {value}", line=line)
    return value


def parse_cxt(text: str) -> FormalContext:
    """Parse Burmeister ``.cxt`` text into a context.

    Raises ParseError (with a 1-based line number) on a malformed header,
    a count mismatch, a row length mismatch, an illegal row character, or
    a duplicate name.
    """
    lines = _lines(text)

    def need(i: int, what: str) -> str:
        if i >= len(lines):
            raise ParseError(f"unexpected end of input, expected {what}",
                             line=len(lines) + 1)
        return lines[i]

    if need(0, "header 'B'").strip() != "B":
        raise ParseError("malformed header, expected 'B'", line=1)
    if need(1, "blank line").strip() != "":
        raise ParseError("malformed header, expected blank line after 'B'", line=2)
    n_objects = _parse_count(need(2, "object count"), 3, "object count")
    n_attributes = _parse_count(need(3, "attribute count"), 4, "attribute count")

    def names(kind: str, start: int, count: int) -> tuple[str, ...]:
        unique = _unique_names(kind)
        return tuple(unique(need(i, f"{kind} name"), i + 1)
                     for i in range(start, start + count))

    objects = names("object", 4, n_objects)
    attributes = names("attribute", 4 + n_objects, n_attributes)
    base = 4 + n_objects + n_attributes
    rows = [0] * n_objects
    for g in range(n_objects):
        row = need(base + g, "incidence row")
        lineno = base + g + 1
        if len(row) != n_attributes:
            raise ParseError(
                f"row length mismatch: expected {n_attributes} cells, got {len(row)}",
                line=lineno)
        for m, ch in enumerate(row):
            if ch == "X":
                rows[g] |= 1 << m
            elif ch != ".":
                raise ParseError(f"illegal character {ch!r} in row", line=lineno)

    for extra in range(base + n_objects, len(lines)):
        if lines[extra].strip():
            raise ParseError("unexpected trailing content", line=extra + 1)

    return FormalContext(objects, attributes, rows)


def write_cxt(ctx: FormalContext) -> str:
    """Serialize a context; ``parse_cxt(write_cxt(ctx)) == ctx``."""
    out = ["B", "", str(ctx.n_objects), str(ctx.n_attributes)]
    out.extend(ctx.objects)
    out.extend(ctx.attributes)
    for row in ctx.rows:
        out.append("".join(
            "X" if row >> m & 1 else "." for m in range(ctx.n_attributes)))
    return "\n".join(out) + "\n"


def _json_text(doc) -> str:
    """Exactly ``json.dumps(doc, indent=2) + "\\n"``, but without a generator
    per value: flat lists of str or of int, lists of [int, int] cells and
    lists of name lists are each written in one join."""
    return _json_value(doc, "\n") + "\n"


def _json_value(o, nl: str) -> str:
    """The JSON text of o, its nested lines two spaces deeper than nl."""
    t = type(o)
    if t is str:
        return _json_str(o)
    if t is int:
        return int.__repr__(o)
    if t is float and isfinite(o):
        return float.__repr__(o)
    if (t is list or t is dict) and not o:
        return "{}" if t is dict else "[]"
    inner = nl + "  "
    if t is list:
        kinds = set(map(type, o))
        kind = kinds.pop() if len(kinds) == 1 else None
        leaves = set(map(type, chain.from_iterable(o))) if kind is list else None
        if kind is str or kind is int:
            items = map(_json_str if kind is str else int.__repr__, o)
        elif leaves == {int} and set(map(len, o)) == {2}:
            items = map(f"[{inner}  %d,{inner}  %d{inner}]".__mod__, map(tuple, o))
        elif leaves == {str}:
            sep = f",{inner}  "
            items = (f"[{inner}  {sep.join(map(_json_str, x))}{inner}]" if x
                     else "[]" for x in o)
        else:
            items = (_json_value(x, inner) for x in o)
        return f"[{inner}{(',' + inner).join(items)}{nl}]"
    if t is dict and set(map(type, o)) == {str}:
        items = (f"{_json_str(k)}: {_json_value(v, inner)}" for k, v in o.items())
        return f"{{{inner}{(',' + inner).join(items)}{nl}}}"
    # None, bools, NaN, infinities, tuples, subclasses, other keys and types
    return json.dumps(o, indent=2).replace("\n", nl)


def parse_csv(text: str) -> FormalContext:
    """Parse a CSV cross table (see module docstring for the dialect)."""
    lines = _lines(text)
    while lines and lines[-1].strip() == "":
        lines.pop()
    if not lines:
        raise ParseError("empty CSV input", line=1)

    header = [cell.strip() for cell in lines[0].split(",")]
    unique = _unique_names("attribute")
    attributes = [unique(name, 1) for name in header[1:]]

    n_cols = len(header)
    objects: list[str] = []
    rows: list[int] = []
    unique = _unique_names("object")
    for lineno, raw in enumerate(lines[1:], start=2):
        cells = [cell.strip() for cell in raw.split(",")]
        if len(cells) != n_cols:
            raise ParseError(
                f"ragged row: expected {n_cols} cells, got {len(cells)}", line=lineno)
        objects.append(unique(cells[0], lineno))
        row = 0
        for m, cell in enumerate(cells[1:]):
            if cell in _CSV_INCIDENT:
                row |= 1 << m
            elif cell not in _CSV_EMPTY:
                raise ParseError(f"unrecognized cell value {cell!r}", line=lineno)
        rows.append(row)

    return FormalContext(tuple(objects), tuple(attributes), rows)


def poset_to_context(p: PosetInput) -> FormalContext:
    """Encode a poset as the context (X, X, <=) of its completion.

    ``graphlib`` closes the order: in reverse topological order, an
    element's up-set is the element together with the up-sets of its
    direct successors, and the up-sets are the rows of the context.  A
    pair x < x is skipped.  A cycle raises CycleError with the first
    cycle that graphlib's depth-first search meets, roots and successors
    in index order, named and closed: a cycle of input pairs.
    """
    n = len(p.elements)
    idx = {name: i for i, name in enumerate(p.elements)}
    sorter = graphlib.TopologicalSorter(dict.fromkeys(range(n), ()))
    succ: list[list[int]] = [[] for _ in range(n)]
    for i, j in sorted((idx[x], idx[y]) for x, y in p.relation if x != y):
        sorter.add(j, i)
        succ[i].append(j)
    try:
        order = list(sorter.static_order())
    except graphlib.CycleError as exc:
        raise CycleError([p.elements[i] for i in exc.args[1]]) from None
    reach = [0] * n
    for v in reversed(order):
        up = 1 << v
        for w in succ[v]:
            up |= reach[w]
        reach[v] = up

    return FormalContext(p.elements, p.elements, reach)
