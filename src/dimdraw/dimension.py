"""Order dimension via Ferrers-relation covers of the non-incidence cells.

A relation F on G x M is Ferrers when its rows, read as attribute sets,
are totally ordered by inclusion (a staircase).  The minimum number of
Ferrers relations whose union is the complement of the incidence
relation equals the order dimension of the concept lattice, and the
complement of each part is a Ferrers superset of the incidence whose
concept lattice is a chain; ranking concepts along those chains yields
the linear extensions of a realizer.

Deciding dimension >= 3 is NP-complete, so the cover search is exact
branch-and-bound with an explicit time budget; running out of budget is
an *undecided* outcome, never reported as a dimension.

Search order (this fixes the deterministic "first witness" contract):
non-incident cells are indexed row-major.  For k >= 3 the search starts
from a greedy clique of Cogis's conflict graph (two cells conflict when
both opposite corners are incident, so no part holds both), with clique
cell i alone in part i; a clique of more than k cells refutes k with no
search.  For k = 2 every part starts empty.  The branching variable is
the uncovered cell with the fewest admissible parts, lowest index on
ties; parts are tried in ascending index, and while several parts are
still empty only the lowest-indexed empty one is branched on.  On
success each part is grown into a maximal staircase by scanning cells
in row-major order, so returned parts may overlap.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

from .context import FormalContext, _json_text
from .errors import (ContractViolation, DimensionUndecided, OracleCapExceeded,
                     SearchTimeout)
from .lattice import ConceptLattice, _bits

Cell = tuple[int, int]

DEFAULT_TIMEOUT_S = 60.0
ORACLE_ELEMENT_CAP = 10
ORACLE_EXTENSION_CAP = 100_000


def _cell_rows(n_objects: int, n_attributes: int,
               cells: Iterable[Cell]) -> list[int]:
    rows = [0] * n_objects
    for g, m in cells:
        if not (0 <= g < n_objects and 0 <= m < n_attributes):
            raise ValueError(f"cell ({g}, {m}) out of range")
        rows[g] |= 1 << m
    return rows


def is_ferrers(n_objects: int, n_attributes: int, cells: Iterable[Cell]) -> bool:
    """Whether the cell set is a Ferrers relation.

    Tested here through the staircase characterization: the row sets must
    form a chain under inclusion.  (Equivalently: (g,m) and (h,n) present
    imply (g,n) or (h,m) present; the test suite cross-checks the two.)
    """
    rows = _cell_rows(n_objects, n_attributes, cells)
    distinct = sorted(set(rows), key=lambda r: (bin(r).count("1"), r))
    for small, big in zip(distinct, distinct[1:]):
        if small & ~big:
            return False
    return True


@dataclass(frozen=True)
class FerrersCover:
    """Ferrers relations whose union is the non-incidence cell set."""

    parts: tuple[frozenset[Cell], ...]

    @property
    def k(self) -> int:
        return len(self.parts)


@dataclass(frozen=True)
class LinearExtension:
    """A total order on concept indices; ``order[rank]`` lists bottom first."""

    order: tuple[int, ...]
    pos: tuple[int, ...]

    def __post_init__(self):
        n = len(self.order)
        if sorted(self.order) != list(range(n)):
            raise ValueError("extension is not a permutation of 0..n-1")
        if any(self.pos[c] != r for r, c in enumerate(self.order)):
            raise ValueError("pos is inconsistent with order")

    @classmethod
    def from_order(cls, order: Sequence[int]) -> "LinearExtension":
        order = tuple(order)
        pos = [0] * len(order)
        for rank, c in enumerate(order):
            pos[c] = rank
        return cls(order=order, pos=tuple(pos))


@dataclass(frozen=True)
class Realizer:
    """Linear extensions whose intersection is the lattice order."""

    extensions: tuple[LinearExtension, ...]

    @property
    def dim(self) -> int:
        return len(self.extensions)


class _Cells:
    """The non-incident cells of one context, indexed row-major, and the
    tables that every cover search of the context reads: ``col_inc[m]``
    masks the rows incident to attribute m, ``row_cells[g]`` the cells of
    row g, and ``cols_of_row[a]`` the cells whose attribute is incident
    to row a.
    """

    def __init__(self, non_rows: Sequence[int], inc_rows: Sequence[int]):
        self.cells = tuple((g, m) for g in range(len(non_rows))
                           for m in _bits(non_rows[g]))
        width = max((r.bit_length() for r in (*non_rows, *inc_rows)), default=0)
        row_cells = [0] * len(non_rows)
        col_cells = [0] * width
        for c, (g, m) in enumerate(self.cells):
            row_cells[g] |= 1 << c
            col_cells[m] |= 1 << c
        col_inc = [0] * width
        cols_of_row = [0] * len(inc_rows)
        for g, row in enumerate(inc_rows):
            for m in _bits(row):
                col_inc[m] |= 1 << g
                cols_of_row[g] |= col_cells[m]
        self.row_cells = tuple(row_cells)
        self.col_inc = tuple(col_inc)
        self.cols_of_row = tuple(cols_of_row)

    @cached_property
    def clique(self) -> tuple[int, ...]:
        """A clique of Cogis's conflict graph on the cells: the largest of
        the greedy cliques grown from each cell, in order of falling
        degree, adding the candidate of highest degree (lowest index on
        ties) until none is left.

        Cells (g, m) and (h, n) conflict when (g, n) and (h, m) are both
        incident, so no part holds two of them: the neighbours of (g, m)
        are the cells of the rows incident to m that lie in
        ``cols_of_row[g]``.
        """
        rows_of_col = [0] * len(self.col_inc)
        for m, col in enumerate(self.col_inc):
            for h in _bits(col):
                rows_of_col[m] |= self.row_cells[h]
        adjacent = [rows_of_col[m] & self.cols_of_row[g] for g, m in self.cells]
        degree = [a.bit_count() for a in adjacent]
        order = sorted(range(len(self.cells)), key=lambda c: -degree[c])
        rank = {c: r for r, c in enumerate(order)}
        best: list[int] = []
        for start in order:
            if degree[start] < len(best):
                break  # no clique through start can be larger
            clique, candidates = [start], adjacent[start]
            while candidates:
                c = min(_bits(candidates), key=rank.__getitem__)
                clique.append(c)
                candidates &= adjacent[c]
            if len(clique) > len(best):
                best = clique
        return tuple(best)


class _CoverSearch:
    """Exact assignment of the cells of ``table`` to k staircase parts.

    A part is kept *feasible*: extendable to a Ferrers relation inside
    the non-incidence set.  Feasibility of a row-mask set S holds iff the
    "must sit strictly above" digraph on nonempty rows is acyclic, where
    row b must sit strictly above row a whenever S_b meets the incidence
    row of a.  (Placing rows bottom-up, each row's staircase entry is the
    union of the part rows at or below it, which fits iff every such row
    individually fits.)

    Each part keeps the reachability closure of that digraph: ``above[g]``
    is the bitmask of nonempty part rows that must sit strictly above row
    g, directly or through other rows.  It is kept for every row, in the
    part or not, because a row's out-edges do not depend on its own
    cells.  Adding cell (g, m) adds the edges a -> g for the rows a
    incident to m, so the cell fits iff no such row already sits above
    g: one AND of ``above[g]`` with ``col_inc[m]``.  Committing the cell
    gives every row that is, or reaches, a row incident to m the rows
    ``gain`` = g and ``above[g]`` as well, in O(rows).

    Each part also keeps one cell mask, ``fits[j]``: bit c is set iff
    cell c fits part j's closure.  Committing (g, m) clears, in the rows
    whose closure took in ``gain``, the cells whose attribute is incident
    to a row of ``gain``: a few big-int operations, no loop over cells.
    The trail keeps the old closure and mask for the undo.  A cell (h, n)
    whose opposite corners (g, n) and (h, m) are both incident can never
    share a part with (g, m), and it needs no test of its own: h is
    incident to m, so g now sits above h, and g is incident to n.
    """

    def __init__(self, table: _Cells, k: int, deadline: float | None):
        self.table = table
        self.k = k
        self.deadline = deadline
        n_g = len(table.row_cells)
        self.part_rows = [[0] * n_g for _ in range(k)]
        self.above = [[0] * n_g for _ in range(k)]
        self.uncovered = (1 << len(table.cells)) - 1
        self.fits = [self.uncovered] * k
        self.n_used = 0
        self.nodes = 0

    def _fits(self, above: Sequence[int], g: int, m: int) -> bool:
        """Whether cell (g, m) keeps the part with this closure feasible."""
        return not above[g] & self.table.col_inc[m]

    def _grow(self, above: Sequence[int], g: int, m: int) -> tuple[list[int], int]:
        """The closure after adding the fitting cell (g, m), and the cells
        of the rows whose closure took in the gain."""
        col = self.table.col_inc[m]
        row_cells = self.table.row_cells
        gain = (1 << g) | above[g]
        grown = []
        hit = 0
        for h, a in enumerate(above):
            if (a | (1 << h)) & col:
                a |= gain
                hit |= row_cells[h]
            grown.append(a)
        return grown, hit

    def _assign(self, c: int, j: int):
        g, m = self.table.cells[c]
        opened = j == self.n_used
        if opened:
            self.n_used += 1
        self.part_rows[j][g] |= 1 << m
        self.uncovered &= ~(1 << c)
        old_above, old_fits = self.above[j], self.fits[j]
        self.above[j], hit = self._grow(old_above, g, m)
        # a row whose closure took in the gain loses its cells whose
        # attribute is incident to a row of the gain
        blocked = 0
        for a in _bits((1 << g) | old_above[g]):
            blocked |= self.table.cols_of_row[a]
        self.fits[j] = old_fits & ~(hit & blocked)
        return c, j, opened, old_above, old_fits

    def _undo(self, trail) -> None:
        c, j, opened, above, fits = trail
        self.above[j], self.fits[j] = above, fits
        g, m = self.table.cells[c]
        self.part_rows[j][g] &= ~(1 << m)
        self.uncovered |= 1 << c
        if opened:
            self.n_used -= 1

    def _branch(self) -> tuple[int, int] | None:
        """The uncovered cell with the fewest admissible parts and the
        bitmask of those parts, or None when some cell has none left.

        ``at_least[t]`` holds the uncovered cells admissible in at least t
        used parts, so the fewest-options cells are the first nonempty
        ``at_least[t] & ~at_least[t + 1]``, and the lowest of them wins.
        """
        n = self.n_used
        at_least = [self.uncovered] + [0] * (n + 1)
        for j in range(n):
            fits = self.fits[j]
            for t in range(j + 1, 0, -1):
                at_least[t] |= at_least[t - 1] & fits
        for t in range(n + 1):
            fewest = at_least[t] & ~at_least[t + 1]
            if fewest:
                break
        if t == 0 and n == self.k:
            return None
        low = fewest & -fewest
        options = 1 << n if n < self.k else 0
        for j in range(n):
            if self.fits[j] & low:
                options |= 1 << j
        return low.bit_length() - 1, options

    def _dfs(self) -> bool:
        """Depth-first search over an explicit stack of frames
        [cell, parts not yet tried, trail of the part being tried]."""
        stack: list[list] = []
        while True:
            self.nodes += 1
            if self.deadline is not None and time.monotonic() > self.deadline:
                raise SearchTimeout("Ferrers cover search ran out of budget")
            if self.uncovered == 0:
                return True
            branch = self._branch()
            if branch is not None:
                stack.append([*branch, None])
            while stack:
                frame = stack[-1]
                if frame[2] is not None:
                    self._undo(frame[2])
                options = frame[1]
                if options:
                    low = options & -options
                    frame[1] = options ^ low
                    frame[2] = self._assign(frame[0], low.bit_length() - 1)
                    break
                stack.pop()
            else:
                return False

    def seed(self, clique: Sequence[int]) -> None:
        """Put clique cell i in part i.  The cells need distinct parts and
        parts are interchangeable, so a search from here finds a cover iff
        one exists."""
        for j, c in enumerate(clique):
            self._assign(c, j)

    def maximalize(self, j: int) -> list[int]:
        """Grow part j from its kept closure into a maximal staircase,
        scanning cells in row-major order; return its rows."""
        rows, above = self.part_rows[j], self.above[j]
        for g, m in self.table.cells:
            if not rows[g] >> m & 1 and self._fits(above, g, m):
                rows[g] |= 1 << m
                above = self._grow(above, g, m)[0]
        self.above[j] = above
        return rows

    def run(self) -> list[list[int]] | None:
        if self.table.cells and not self._dfs():
            return None
        return self.part_rows


def _check_cover(ctx: FormalContext, cover: FerrersCover) -> None:
    """Invariants asserted on every successful search exit."""
    n_g, n_m = ctx.n_objects, ctx.n_attributes
    union: set[Cell] = set()
    for part in cover.parts:
        if part & ctx.incidence:
            raise ContractViolation("cover part overlaps the incidence relation")
        if not is_ferrers(n_g, n_m, part):
            raise ContractViolation("cover part is not a Ferrers relation")
        union |= part
    non_incidence = {(g, m) for g in range(n_g) for m in range(n_m)
                     if (g, m) not in ctx.incidence}
    if union != non_incidence:
        raise ContractViolation("cover union differs from the non-incidence cells")


def _rows(ctx: FormalContext) -> tuple[list[int], list[int]]:
    """The non-incidence and the incidence of each object, as row masks."""
    inc_rows = ctx.object_rows()
    full = (1 << ctx.n_attributes) - 1
    return [full & ~r for r in inc_rows], inc_rows


@lru_cache(maxsize=1)
def _cells(ctx: FormalContext) -> _Cells:
    """The cell table of the last context: every k >= 2 of one
    ``order_dimension`` searches it, and every k >= 3 starts from its
    clique."""
    return _Cells(*_rows(ctx))


def ferrers_cover(ctx: FormalContext, k: int, *,
                  timeout: float | None = DEFAULT_TIMEOUT_S) -> FerrersCover | None:
    """Exact search for k Ferrers relations covering all non-incident cells.

    Returns the first witness under the documented search order, or None
    when no k-part cover exists (a completed search, not a heuristic).
    Raises SearchTimeout when the budget runs out before either outcome.
    k = 1 needs no search: the answer is decided by whether the incidence
    is Ferrers.  For k >= 3 the search starts from a conflict clique, one
    cell per part, and a clique of more than k cells refutes k unsearched.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k == 1:
        # The only 1-part cover is the whole non-incidence set, and the
        # complement of a staircase is a staircase.
        if not is_ferrers(ctx.n_objects, ctx.n_attributes, ctx.incidence):
            return None
        result = [_rows(ctx)[0]]
    else:
        deadline = None if timeout is None else time.monotonic() + timeout
        search = _CoverSearch(_cells(ctx), k, deadline)
        if k >= 3:
            if len(search.table.clique) > k:
                return None
            search.seed(search.table.clique)
        if search.run() is None:
            return None
        result = [search.maximalize(j) for j in range(k)]
    parts = tuple(
        frozenset((g, m) for g in range(ctx.n_objects) for m in _bits(rows[g]))
        for rows in result)
    cover = FerrersCover(parts)
    _check_cover(ctx, cover)
    return cover


def order_dimension(ctx: FormalContext, *,
                    timeout_per_k: float | None = DEFAULT_TIMEOUT_S,
                    max_k: int | None = None) -> tuple[int, FerrersCover]:
    """Smallest k admitting a Ferrers cover, with the witness cover.

    Each k from 1 up to ``max_k`` goes to ``ferrers_cover`` with its own
    budget; k = 1 succeeds exactly when the incidence relation is itself
    Ferrers (the lattice is a chain).  The witness is that function's
    first cover.  An exhausted budget raises DimensionUndecided carrying
    the proven lower bound, which a conflict clique can raise past
    ``max_k``; it is never misreported as an answer.
    """
    n_non = ctx.n_objects * ctx.n_attributes - len(ctx.incidence)
    hard_cap = max(1, n_non)
    limit = hard_cap if max_k is None else min(max_k, hard_cap)
    for k in range(1, limit + 1):
        try:
            cover = ferrers_cover(ctx, k, timeout=timeout_per_k)
        except SearchTimeout:
            raise DimensionUndecided(k, f"search budget exhausted at k = {k}") \
                from None
        if cover is not None:
            return k, cover
    raise DimensionUndecided(max(1, limit + 1, len(_cells(ctx).clique)),
                             f"max-k {limit} exhausted")


def linear_extension_from_ferrers(ctx: FormalContext, part: Iterable[Cell],
                                  lattice: ConceptLattice) -> LinearExtension:
    """Linear extension induced by one Ferrers part of a cover.

    The complement J = (G x M) \\ F is a Ferrers relation containing the
    incidence, so its concept lattice is a chain, and each concept maps
    to its closure under J.  The rows of F are nested, so that closure is
    fixed by the most cells of F that one object of the extent holds (0
    for an empty extent): a larger count gives a larger closure.  Concepts
    are ranked by that count, ties broken by canonical concept index.
    Both keys grow along the order, since extents do and the index order
    is a linear extension, so the ranking is a linear extension of the
    lattice order for any part, cover or not.
    """
    n_g, n_m = ctx.n_objects, ctx.n_attributes
    part = frozenset(part)
    sizes = [row.bit_count() for row in _cell_rows(n_g, n_m, part)]
    if part & ctx.incidence:
        raise ContractViolation(
            "part overlaps the incidence relation; its complement cannot "
            "contain the incidence")
    if not is_ferrers(n_g, n_m, part):
        raise ContractViolation("part is not a Ferrers relation")
    level = [max((sizes[g] for g in _bits(c.extent_mask)), default=0)
             for c in lattice.concepts]
    return LinearExtension.from_order(
        sorted(range(lattice.n), key=lambda c: (level[c], c)))


def verify_realizer(lattice: ConceptLattice, r: Realizer) -> bool:
    """True iff the extensions' intersection is exactly the lattice order."""
    n = lattice.n
    if not r.extensions:
        return False
    if any(len(ext.order) != n for ext in r.extensions):
        return False
    inter = [(1 << n) - 1] * n
    for ext in r.extensions:
        suffix = 0
        up = [0] * n
        for rank in range(n - 1, -1, -1):
            suffix |= 1 << ext.order[rank]
            up[ext.order[rank]] = suffix
        for i in range(n):
            inter[i] &= up[i]
    return tuple(inter) == lattice.up_masks


def realizer_from_cover(ctx: FormalContext, lattice: ConceptLattice,
                        cover: FerrersCover) -> Realizer:
    """One linear extension per cover part, verified before returning."""
    exts = tuple(linear_extension_from_ferrers(ctx, part, lattice)
                 for part in cover.parts)
    result = Realizer(exts)
    if not verify_realizer(lattice, result):
        raise ContractViolation("cover-induced extensions do not realize the order")
    return result


def _all_linear_extensions(up_masks: Sequence[int], cap: int) -> list[tuple[int, ...]]:
    n = len(up_masks)
    down = [0] * n
    for i in range(n):
        for j in _bits(up_masks[i] & ~(1 << i)):
            down[j] |= 1 << i
    out: list[tuple[int, ...]] = []
    order: list[int] = []

    def rec(placed: int) -> None:
        if len(order) == n:
            out.append(tuple(order))
            if len(out) > cap:
                raise OracleCapExceeded(
                    f"more than {cap} linear extensions; the brute-force "
                    "oracle refuses this order")
            return
        for v in range(n):
            if placed >> v & 1 or down[v] & ~placed:
                continue
            order.append(v)
            rec(placed | (1 << v))
            order.pop()

    rec(0)
    return out


def brute_force_dimension(order: ConceptLattice | Sequence[int]) -> int:
    """Exact dimension by exhausting linear-extension subsets.

    Independent of the Ferrers machinery by construction: enumerates all
    linear extensions of the order and finds the smallest subset whose
    intersection is the order.  Accepts a ConceptLattice or raw up-set
    bitmasks, so it also serves arbitrary finite orders.  Orders beyond
    the ORACLE_*_CAP sizes raise OracleCapExceeded.
    """
    up = tuple(order.up_masks) if isinstance(order, ConceptLattice) else tuple(order)
    n = len(up)
    if n == 0:
        raise ValueError("order must have at least one element")
    if n > ORACLE_ELEMENT_CAP:
        raise OracleCapExceeded(
            f"{n} elements exceed the oracle cap of {ORACLE_ELEMENT_CAP}")
    extensions = _all_linear_extensions(up, ORACLE_EXTENSION_CAP)

    ext_up: list[tuple[int, ...]] = []
    for ext in extensions:
        suffix = 0
        masks = [0] * n
        for rank in range(n - 1, -1, -1):
            suffix |= 1 << ext[rank]
            masks[ext[rank]] = suffix
        ext_up.append(tuple(masks))

    target = up
    for size in range(1, len(extensions) + 1):
        for combo in combinations(range(len(extensions)), size):
            ok = True
            for i in range(n):
                acc = (1 << n) - 1
                for e in combo:
                    acc &= ext_up[e][i]
                if acc != target[i]:
                    ok = False
                    break
            if ok:
                return size
    raise ContractViolation("intersection of all extensions missed the order")


def realizer_permutations(ctx: FormalContext, lattice: ConceptLattice,
                          real: Realizer) -> dict:
    """Realizer as JSON-ready permutations, by concept index and by
    intent labels (attribute names, in input order)."""
    labels = [[ctx.attributes[m] for m in sorted(c.intent)]
              for c in lattice.concepts]
    return {
        "by_index": [list(ext.order) for ext in real.extensions],
        "by_intent": [[labels[c] for c in ext.order] for ext in real.extensions],
    }


def certificate_json(ctx: FormalContext, lattice: ConceptLattice,
                     dim: int, cover: FerrersCover, real: Realizer) -> str:
    """Dimension certificate: d, the cells of each part, and the realizer
    permutations both by concept index and by intent labels."""
    doc = {
        "dimension": dim,
        "ferrers_parts": [
            [[g, m] for g, m in sorted(part)] for part in cover.parts
        ],
        "realizer": realizer_permutations(ctx, lattice, real),
    }
    return _json_text(doc)
