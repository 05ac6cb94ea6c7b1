"""Order dimension via Ferrers-relation covers of the non-incidence cells.

A relation F on G x M is Ferrers when its rows, read as attribute sets,
are totally ordered by inclusion (a staircase).  The minimum number of
Ferrers relations whose union is the complement of the incidence
relation equals the order dimension of the concept lattice, and the
complement of each part is a Ferrers superset of the incidence whose
concept lattice is a chain; ranking concepts along those chains yields
the linear extensions of a realizer.

k = 1 and k = 2 need no search.  The only 1-part cover is the whole
non-incidence, and a relation has Ferrers dimension at most 2 iff
Cogis's conflict graph on its non-incident cells is bipartite (Cogis
1982; Doignon, Ducamp and Falmagne 1984): two cells conflict when both
opposite corners are incident, so no part holds both.  Both are decided
in polynomial time, outside any budget.  Deciding dimension >= 3 is
NP-complete, so for k >= 3 the cover search is exact branch-and-bound
with an explicit time budget; running out of budget is an *undecided*
outcome, never reported as a dimension.

Witness order (this fixes the deterministic "first witness" contract):
non-incident cells are indexed row-major.  For k = 2 the conflict graph
is coloured component by component in cell-index order, breadth first
from the lowest cell of each, which takes colour 0; part j holds colour
class j, its rows placed in a topological order, lowest ready row
first, each part row the union of the class rows placed up to it.  For
k >= 3 the search starts from a greedy clique of the conflict graph,
with clique cell i alone in part i; a clique of more than k cells
refutes k with no search.  The branching variable is the uncovered cell
with the fewest admissible parts, lowest index on ties; parts are tried
in ascending index, and while several parts are still empty only the
lowest-indexed empty one is branched on.  On success each part is grown
into a maximal staircase by scanning cells in row-major order.  Parts
of either kind may overlap.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import count

from .context import FormalContext, _json_text
from .errors import ContractViolation, DimensionUndecided, SearchTimeout
from .lattice import ConceptLattice, _bits

Cell = tuple[int, int]

DEFAULT_TIMEOUT_S = 60.0


def _is_staircase(rows: Iterable[int]) -> bool:
    """Whether the rows, read as attribute sets, form a chain under inclusion."""
    distinct = sorted(set(rows), key=int.bit_count)  # equal sizes: not a chain
    return not any(small & ~big for small, big in zip(distinct, distinct[1:]))


def is_ferrers(n_objects: int, n_attributes: int, cells: Iterable[Cell]) -> bool:
    """Whether the cell set is a Ferrers relation.

    Tested here through the staircase characterization: the row sets must
    form a chain under inclusion.  (Equivalently: (g,m) and (h,n) present
    imply (g,n) or (h,m) present; the test suite cross-checks the two.)
    """
    rows = [0] * n_objects
    for g, m in cells:
        if not (isinstance(g, int) and isinstance(m, int)
                and 0 <= g < n_objects and 0 <= m < n_attributes):
            raise ValueError(f"cell ({g}, {m}) out of range")
        rows[g] |= 1 << m
    return _is_staircase(rows)


@dataclass(frozen=True)
class FerrersCover:
    """Ferrers relations whose union is the non-incidence cell set, as the
    search builds them: ``rows[j][g]`` is the attribute mask of object g
    in part j.  ``parts``, their (g, m) cell sets, are derived on read."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.rows)

    @cached_property
    def parts(self) -> tuple[frozenset[Cell], ...]:
        return tuple(frozenset((g, m) for g, r in enumerate(p) for m in _bits(r))
                     for p in self.rows)


@dataclass(frozen=True)
class LinearExtension:
    """A total order on concept indices; ``order[rank]`` lists bottom first."""

    order: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(self.order))
        if (not all(isinstance(c, int) for c in self.order)
                or sorted(self.order) != list(range(len(self.order)))):
            raise ValueError("extension is not a permutation of 0..n-1")

    @cached_property
    def pos(self) -> tuple[int, ...]:
        """``pos[c]``: the rank of concept c, derived on first read."""
        return tuple(sorted(range(len(self.order)), key=self.order.__getitem__))


@dataclass(frozen=True)
class Realizer:
    """Linear extensions whose intersection is the lattice order."""

    extensions: tuple[LinearExtension, ...]

    @property
    def dim(self) -> int:
        return len(self.extensions)


class _Cells:
    """The non-incident cells of one context, indexed row-major, and the
    tables that the colouring and every cover search of the context
    read: ``col_inc[m]`` masks the rows incident to attribute m,
    ``row_cells[g]`` the cells of row g, and ``cols_of_row[a]`` the cells
    whose attribute is incident to row a.
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
    def adjacent(self) -> tuple[int, ...]:
        """Cogis's conflict graph on the cells, as one neighbour mask per
        cell.  Cells (g, m) and (h, n) conflict when (g, n) and (h, m) are
        both incident, so no part holds two of them: the neighbours of
        (g, m) are the cells of the rows incident to m that lie in
        ``cols_of_row[g]``.
        """
        rows_of_col = [0] * len(self.col_inc)
        for m, col in enumerate(self.col_inc):
            for h in _bits(col):
                rows_of_col[m] |= self.row_cells[h]
        return tuple(rows_of_col[m] & self.cols_of_row[g] for g, m in self.cells)

    @cached_property
    def clique(self) -> tuple[int, ...]:
        """A clique of the conflict graph: the largest of the greedy
        cliques grown from each cell, in order of falling degree, adding
        the candidate of highest degree (lowest index on ties) until none
        is left.  The cells are grouped into one mask per degree, highest
        first, so that candidate is the lowest cell of the first group
        that meets the candidates."""
        adjacent = self.adjacent
        degree = [a.bit_count() for a in adjacent]
        order = sorted(range(len(self.cells)), key=lambda c: -degree[c])
        groups: dict[int, int] = {}
        for c in order:
            groups[degree[c]] = groups.get(degree[c], 0) | 1 << c
        best: list[int] = []
        for start in order:
            if degree[start] < len(best):
                break  # no clique through start can be larger
            clique, candidates = [start], adjacent[start]
            while candidates:
                for group in groups.values():
                    hit = group & candidates
                    if hit:
                        break
                c = (hit & -hit).bit_length() - 1
                clique.append(c)
                candidates &= adjacent[c]
            if len(clique) > len(best):
                best = clique
        return tuple(best)

    def two_colouring(self) -> tuple[int, int] | None:
        """The two colour classes of the conflict graph as cell masks, or
        None when an odd cycle leaves it without one.

        Components are coloured in cell-index order, breadth first from
        their lowest cell, which takes colour 0; a frontier cell with a
        neighbour of its own colour closes an odd cycle.
        """
        classes = [0, 0]
        uncoloured = (1 << len(self.cells)) - 1
        while uncoloured:
            frontier, side = uncoloured & -uncoloured, 0
            while frontier:
                classes[side] |= frontier
                uncoloured &= ~frontier
                reached = 0
                for c in _bits(frontier):
                    reached |= self.adjacent[c]
                if reached & classes[side]:
                    return None
                frontier, side = reached & uncoloured, side ^ 1
        return classes[0], classes[1]

    def staircase(self, cells: int) -> list[int]:
        """The rows of a Ferrers part inside the non-incidence that holds
        the given conflict-free cells.

        Row b must sit above row a when the cells of b meet the incidence
        of a, that is, when a is incident to one of their attributes.
        The rows are placed in a topological order of that relation,
        lowest ready row first, and each part row is the union of the
        cells' rows placed so far.
        """
        n_g = len(self.row_cells)
        rows, below = [0] * n_g, [0] * n_g
        for c in _bits(cells):
            g, m = self.cells[c]
            rows[g] |= 1 << m
            below[g] |= self.col_inc[m]
        part, unplaced, union = [0] * n_g, (1 << n_g) - 1, 0
        while unplaced:
            g = next((g for g in _bits(unplaced) if not below[g] & unplaced), None)
            if g is None:
                raise ContractViolation("colour class rows form a cycle")
            union |= rows[g]
            part[g] = union
            unplaced ^= 1 << g
        return part


class _CoverSearch:
    """Exact assignment of the cells of ``table`` to k staircase parts:
    ``run`` decides whether the committed cells extend to a cover.

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

    def __init__(self, table: _Cells, k: int, deadline: float):
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

    def run(self) -> bool:
        """Whether the parts extend to a cover, by depth-first search over
        an explicit stack of frames [cell, parts not yet tried, trail of
        the part being tried]; on True ``part_rows`` holds the cover."""
        stack: list[list] = []
        while True:
            self.nodes += 1
            if self.uncovered == 0:
                return True
            if time.monotonic() > self.deadline:
                raise SearchTimeout("Ferrers cover search ran out of budget")
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
        """Grow part j into a maximal staircase: commit each cell that
        fits it and that it lacks, in row-major order; return its rows."""
        rows = self.part_rows[j]
        for c, (g, m) in enumerate(self.table.cells):
            if self.fits[j] >> c & 1 and not rows[g] >> m & 1:
                self._assign(c, j)
        return rows


def _rows(ctx: FormalContext) -> tuple[list[int], tuple[int, ...]]:
    """The non-incidence and the incidence of each object, as row masks."""
    full = (1 << ctx.n_attributes) - 1
    return [full & ~r for r in ctx.rows], ctx.rows


def _check_cover(ctx: FormalContext, cover: FerrersCover) -> None:
    """The one check of a cover, on each witness that ``ferrers_cover``
    returns and each cover that ``realizer_from_cover`` reads."""
    non_rows, inc_rows = _rows(ctx)
    union = [0] * len(non_rows)
    for rows in cover.rows:
        if len(rows) != len(union):
            raise ContractViolation(f"cover part has {len(rows)} rows, not {len(union)}")
        if any(map(int.__and__, rows, inc_rows)):
            raise ContractViolation("cover part overlaps the incidence relation")
        if not _is_staircase(rows):
            raise ContractViolation("cover part is not a Ferrers relation")
        union = list(map(int.__or__, union, rows))
    if union != non_rows:
        raise ContractViolation("cover union differs from the non-incidence cells")


@lru_cache(maxsize=1)
def _cells(ctx: FormalContext) -> _Cells:
    """The cell table of the last context: k = 2 of one
    ``order_dimension`` colours its conflict graph, and every k >= 3
    searches it from its clique."""
    return _Cells(*_rows(ctx))


def ferrers_cover(ctx: FormalContext, k: int, *,
                  timeout: float | None = DEFAULT_TIMEOUT_S) -> FerrersCover | None:
    """Exact search for k Ferrers relations covering all non-incident cells.

    Returns the first witness under the documented witness order, or None
    when no k-part cover exists (a proof, not a heuristic).  k = 1 and
    k = 2 need no search and ignore the budget: k = 1 is decided by
    whether the incidence is Ferrers, and k = 2 by two-colouring the
    conflict graph, whose odd cycle refutes it.  For k >= 3 the search
    starts from a conflict clique, one cell per part; a clique of more
    than k cells refutes k unsearched, one covering every empty cell is
    a cover at any budget, and SearchTimeout is raised when a budget
    other than None runs out first.  A k that is not an int of at least
    1, or a negative or NaN budget, raises ValueError.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be at least 1 and an int, not {k!r}")
    if timeout is not None and not timeout >= 0.0:  # NaN fails too
        raise ValueError("the search budget must be at least 0 seconds")
    if k == 1:
        # The only 1-part cover is the whole non-incidence set, and the
        # complement of a staircase is a staircase.
        non_rows, inc_rows = _rows(ctx)
        if not _is_staircase(inc_rows):
            return None
        result = [non_rows]
    elif k == 2:
        table = _cells(ctx)
        classes = table.two_colouring()
        if classes is None:
            return None
        result = [table.staircase(cells) for cells in classes]
    else:
        table = _cells(ctx)
        if len(table.clique) > k:
            return None
        deadline = math.inf if timeout is None else time.monotonic() + timeout
        search = _CoverSearch(table, k, deadline)
        search.seed(table.clique)
        if not search.run():
            return None
        result = [search.maximalize(j) for j in range(k)]
    cover = FerrersCover(tuple(map(tuple, result)))
    _check_cover(ctx, cover)
    return cover


def order_dimension(ctx: FormalContext, *,
                    timeout_per_k: float | None = DEFAULT_TIMEOUT_S,
                    max_k: int | None = None) -> tuple[int, FerrersCover]:
    """Smallest k admitting a Ferrers cover, with the witness cover.

    Each k from 1 up to ``max_k`` goes to ``ferrers_cover``, and each
    k >= 3 with its own budget; k = 1 succeeds exactly when the incidence
    relation is itself Ferrers (the lattice is a chain), and k = 2 when
    the conflict graph is bipartite.  The witness is that function's
    first cover.  An exhausted budget raises DimensionUndecided carrying
    the proven lower bound, which a conflict clique can raise past
    ``max_k``; it is never misreported as an answer.  A ``max_k`` that is
    not an int of at least 1, or a negative or NaN budget, raises ValueError.
    """
    if max_k is not None and (not isinstance(max_k, int) or max_k < 1):
        raise ValueError(f"max_k must be at least 1 and an int, not {max_k!r}")
    # one part per non-incident cell covers, so k stops by their number
    for k in count(1) if max_k is None else range(1, max_k + 1):
        try:
            cover = ferrers_cover(ctx, k, timeout=timeout_per_k)
        except SearchTimeout:
            raise DimensionUndecided(k, f"search budget exhausted at k = {k}") \
                from None
        if cover is not None:
            return k, cover
    raise DimensionUndecided(max(max_k + 1, len(_cells(ctx).clique)),
                             f"max-k {max_k} exhausted")


def _extension(rows: Sequence[int], lattice: ConceptLattice) -> LinearExtension:
    """Linear extension induced by one Ferrers part, given by its rows.

    The complement J = (G x M) \\ F is a Ferrers relation containing the
    incidence, so its concept lattice is a chain, and each concept maps
    to its closure under J.  The rows of F are nested, so that closure is
    fixed by the most cells of F that one object of the extent holds (0
    for an empty extent): a larger count gives a larger closure.  Concepts
    are ranked by that count, ties broken by canonical concept index.
    Both keys grow along the order, since extents do and the index order
    is a linear extension, so the ranking is a linear extension of the
    lattice order for any part, cover or not.  The objects are visited
    by falling count, and each gives its count to the concepts holding
    it that have none yet; the order is read off one concept mask per
    count, counts ascending.
    """
    sizes = [row.bit_count() for row in rows]
    unranked, levels = (1 << lattice.n) - 1, {}
    for g in sorted(range(len(sizes)), key=lambda g: -sizes[g]):
        got = lattice.object_masks[g] & unranked
        if got:
            levels[sizes[g]] = levels.get(sizes[g], 0) | got
            unranked ^= got
    levels[0] = levels.get(0, 0) | unranked
    return LinearExtension([c for level in reversed(levels.values())
                            for c in _bits(level)])


def verify_realizer(lattice: ConceptLattice, r: Realizer) -> bool:
    """True iff the extensions' intersection is exactly the lattice order."""
    n = lattice.n
    if not r.extensions:
        return False
    if any(len(ext.order) != n for ext in r.extensions):
        return False
    inter = [(1 << n) - 1] * n
    for ext in r.extensions:
        up = 0  # the concepts at or above c in this extension
        for c in reversed(ext.order):
            up |= 1 << c
            inter[c] &= up
    return tuple(inter) == lattice.up_masks


def realizer_from_cover(ctx: FormalContext, lattice: ConceptLattice,
                        cover: FerrersCover) -> Realizer:
    """One linear extension per part of a checked cover, verified."""
    _check_cover(ctx, cover)
    result = Realizer(tuple(_extension(rows, lattice) for rows in cover.rows))
    if not verify_realizer(lattice, result):
        raise ContractViolation("cover-induced extensions do not realize the order")
    return result


def realizer_permutations(ctx: FormalContext, lattice: ConceptLattice,
                          real: Realizer) -> dict:
    """Realizer as JSON-ready permutations, by concept index and by
    intent labels (attribute names, in input order)."""
    labels = [[ctx.attributes[m] for m in _bits(c.intent_mask)]
              for c in lattice.concepts]
    return {
        "by_index": [list(ext.order) for ext in real.extensions],
        "by_intent": [[labels[c] for c in ext.order] for ext in real.extensions],
    }


def certificate_json(ctx: FormalContext, lattice: ConceptLattice,
                     dim: int, cover: FerrersCover, real: Realizer) -> str:
    """Dimension certificate: d, each part's cells row-major, and the
    realizer permutations both by concept index and by intent labels."""
    doc = {
        "dimension": dim,
        "ferrers_parts": [
            [[g, m] for g, row in enumerate(rows) for m in _bits(row)]
            for rows in cover.rows
        ],
        "realizer": realizer_permutations(ctx, lattice, real),
    }
    return _json_text(doc)
