"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's bitmask machinery:
they work from raw definitions (set comprehensions, quantifiers, dense
sampling, parametric line intersection) so that agreement with the
implementation is meaningful evidence.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import add

import dimdraw.lattice
from dimdraw import (ConceptLattice, CycleError, FormalContext,
                     LatticeTooLargeError, LinearExtension, PosetInput,
                     RepairFailed, order_dimension, realizer_from_cover)
from dimdraw.dimension import _Cells, _CoverSearch
from dimdraw.lattice import _bits
from dimdraw.projection import (_REPAIR_MAX_STEPS, _REPAIR_ROUNDS, REPAIR_EPS,
                                _segment_distance)

# ---------------------------------------------------------------------------
# The classic 8x9 "living beings and water" demo context: 19 concepts,
# 32 cover edges, order dimension 3.

LIFE_OBJECTS = tuple("12345678")
LIFE_ATTRIBUTES = tuple("abcdefghi")
LIFE_ROWS = (
    "XX....X..",
    "XX....XX.",
    "XXX...XX.",
    "X.X...XXX",
    "XX.X.X...",
    "XXXX.X...",
    "X.XXX....",
    "X.XX.X...",
)

# A known 3-part staircase cover of its non-incident cells, written as
# per-row attribute letters (column a is index 0 ... i is index 8).
_LIFE_PART_1 = ("cefhi", "cei", "ei", "e", "cei", "ei", "", "ei")
_LIFE_PART_2 = ("i", "i", "", "", "ghi", "ghi", "bfghi", "bghi")
_LIFE_PART_3 = ("def", "def", "def", "bdef", "e", "", "", "e")

# A reference realizer of the 19-element lattice, as chains of the
# conventional concept letters (S = bottom ... A = top), and the rank
# vectors they induce.  Reference listings of these coordinates show
# D = (15,16,7), which duplicates E and cannot be a rank vector (each
# axis is a permutation); the fixture pins the value recomputed from
# the chains themselves.
LIFE_CHAIN_1 = "S Q O R P N H L K C M I G F J E B D A".split()
LIFE_CHAIN_2 = "S P O M J H F B R K I D N G Q L E C A".split()
LIFE_CHAIN_3 = "S R Q N I L G E P M K J D O H F C B A".split()
LIFE_LETTER_COORDS = {
    "A": (18, 18, 18), "B": (16, 7, 17), "C": (9, 17, 16), "D": (17, 11, 12),
    "E": (15, 16, 7), "F": (13, 6, 15), "G": (12, 13, 6), "H": (6, 5, 14),
    "I": (11, 10, 4), "J": (14, 4, 11), "K": (8, 9, 10), "L": (7, 15, 5),
    "M": (10, 3, 9), "N": (5, 12, 3), "O": (2, 2, 13), "P": (4, 1, 8),
    "Q": (1, 14, 2), "R": (3, 8, 1), "S": (0, 0, 0),
}


def context_from_pairs(objects, attributes, pairs) -> FormalContext:
    """The context whose incident (object, attribute) index pairs are
    ``pairs``: the one way the tests build a context from cells."""
    rows = [0] * len(objects)
    for g, m in pairs:
        rows[g] |= 1 << m
    return FormalContext(objects, attributes, rows)


def life_context() -> FormalContext:
    incidence = frozenset(
        (g, m)
        for g, row in enumerate(LIFE_ROWS)
        for m, ch in enumerate(row) if ch == "X")
    return context_from_pairs(LIFE_OBJECTS, LIFE_ATTRIBUTES, incidence)


def life_cxt_text() -> str:
    lines = ["B", "", "8", "9"]
    lines.extend(LIFE_OBJECTS)
    lines.extend(LIFE_ATTRIBUTES)
    lines.extend(LIFE_ROWS)
    return "\n".join(lines) + "\n"


def life_csv_text() -> str:
    lines = ["name," + ",".join(LIFE_ATTRIBUTES)]
    for name, row in zip(LIFE_OBJECTS, LIFE_ROWS):
        lines.append(name + "," + ",".join(ch if ch == "X" else "" for ch in row))
    return "\n".join(lines) + "\n"


def life_ferrers_parts() -> tuple[frozenset, frozenset, frozenset]:
    parts = []
    for spec_rows in (_LIFE_PART_1, _LIFE_PART_2, _LIFE_PART_3):
        cells = set()
        for g, letters in enumerate(spec_rows):
            for ch in letters:
                cells.add((g, LIFE_ATTRIBUTES.index(ch)))
        parts.append(frozenset(cells))
    return tuple(parts)


# ---------------------------------------------------------------------------
# Other stock contexts and orders.

def contra_nominal(n: int) -> FormalContext:
    """([n], [n], !=): Boolean lattice 2^n, order dimension n."""
    names = tuple(str(i) for i in range(1, n + 1))
    incidence = frozenset((i, j) for i in range(n) for j in range(n) if i != j)
    return context_from_pairs(names, names, incidence)


def chain_context(n: int) -> FormalContext:
    """Strict n x n staircase; its concept lattice is a chain of n + 1."""
    names = tuple(str(i) for i in range(1, n + 1))
    incidence = frozenset((i, j) for i in range(n) for j in range(n) if j < i)
    return context_from_pairs(names, tuple("c" + x for x in names), incidence)


def grid_context(n: int) -> FormalContext:
    """Direct sum of two strict staircases: product of two (n+1)-chains."""
    objects = tuple(f"a{i}" for i in range(n)) + tuple(f"b{i}" for i in range(n))
    attributes = tuple(f"p{i}" for i in range(n)) + tuple(f"q{i}" for i in range(n))
    incidence = set()
    for i in range(n):
        for j in range(n):
            if j < i:
                incidence.add((i, j))
                incidence.add((n + i, n + j))
    for g in range(n):
        for m in range(n, 2 * n):
            incidence.add((g, m))
    for g in range(n, 2 * n):
        for m in range(n):
            incidence.add((g, m))
    return context_from_pairs(objects, attributes, incidence)


def crown_context(n: int) -> FormalContext:
    """Crown C_n: object i is incident to attributes i and i + 1 mod n."""
    incidence = frozenset((i, m) for i in range(n) for m in (i, (i + 1) % n))
    return context_from_pairs(tuple(f"g{i}" for i in range(n)),
                              tuple(f"m{i}" for i in range(n)), incidence)


def seeded_context(n_g: int, n_m: int, p: float, seed: int) -> FormalContext:
    """Random g x m p s: cell (i, j) is incident when the next draw of
    random.Random(s) is below p, drawn in row-major order."""
    r = random.Random(seed)
    incidence = frozenset((i, j) for i in range(n_g) for j in range(n_m)
                          if r.random() < p)
    return context_from_pairs(tuple(f"g{i}" for i in range(n_g)),
                              tuple(f"m{j}" for j in range(n_m)), incidence)


def random_order_context(n: int, k: int, seed: int) -> FormalContext:
    """(X, X, <=) of the intersection of k seeded random linear orders of
    n elements, each drawn by one shuffle of random.Random(s)."""
    r = random.Random(seed)
    positions = []
    for _ in range(k):
        order = list(range(n))
        r.shuffle(order)
        positions.append({v: i for i, v in enumerate(order)})
    incidence = frozenset((x, y) for x in range(n) for y in range(n)
                          if all(pos[x] <= pos[y] for pos in positions))
    names = tuple(f"x{i}" for i in range(n))
    return context_from_pairs(names, names, incidence)


def reference_poset_rows(p: PosetInput) -> list[int]:
    """The up-set masks of ``p`` by one iterative depth-first search,
    roots and successors in index order: leaving an element v sets its
    up-set to v together with the up-sets of its direct successors.  A
    pair x < x is skipped.  An edge back into the open path raises
    CycleError, naming that path from the edge's target, closed.  The
    reference for ``poset_to_context``."""
    n = len(p.elements)
    idx = {name: i for i, name in enumerate(p.elements)}
    succ: list[list[int]] = [[] for _ in range(n)]
    for i, j in sorted((idx[x], idx[y]) for x, y in p.relation if x != y):
        succ[i].append(j)
    reach = [0] * n  # 0 until the element is left
    for root in range(n):
        if reach[root]:
            continue
        path, open_mask, todo = [root], 1 << root, [iter(succ[root])]
        while todo:
            for w in todo[-1]:
                if open_mask >> w & 1:
                    cycle = path[path.index(w):] + [w]
                    raise CycleError([p.elements[i] for i in cycle])
                if not reach[w]:
                    path.append(w)
                    open_mask |= 1 << w
                    todo.append(iter(succ[w]))
                    break
            else:
                v = path.pop()
                open_mask ^= 1 << v
                todo.pop()
                up = 1 << v
                for w in succ[v]:
                    up |= reach[w]
                reach[v] = up
    return reach


def digraph_extendable(allowance, rows, g0: int, m0: int) -> bool:
    """Whether the part ``rows`` plus cell (g0, m0) can still grow into a
    Ferrers relation inside the cells ``allowance``: the digraph on the
    part's nonempty rows, with an edge a -> b when row b holds a cell
    outside the allowance of row a, must be acyclic."""
    grown = list(rows)
    grown[g0] |= 1 << m0
    active = [g for g in range(len(rows)) if grown[g]]
    succ = {a: [b for b in active if b != a and grown[b] & ~allowance[a]]
            for a in active}
    state = {}

    def acyclic_from(a) -> bool:
        state[a] = "open"
        for b in succ[a]:
            if state.get(b) == "open" or (b not in state and not acyclic_from(b)):
                return False
        state[a] = "done"
        return True

    return all(a in state or acyclic_from(a) for a in active)


def search_closure(search, rows):
    """Closure of a part of ``search`` given by its rows, rebuilt one cell
    at a time from empty, or None if the part is infeasible.

    Every subset of a feasible part is feasible, so adding the cells one
    at a time fails exactly when the whole part does.
    """
    above = [0] * len(search.table.row_cells)
    for g, row in enumerate(rows):
        for m in range(row.bit_length()):
            if row >> m & 1:
                if above[g] & search.table.col_inc[m]:
                    return None
                above = search._grow(above, g, m)[0]
    return above


def search_extendable(search, rows, g0: int, m0: int) -> bool:
    """Whether the part ``rows`` plus cell (g0, m0) stays feasible, by the
    search's closure test on a rebuilt closure."""
    above = search_closure(search, rows)
    return above is not None and not above[g0] & search.table.col_inc[m0]


def cell_conflicts(table):
    """Cogis's conflict graph on the cells of a cell table, from the
    pairwise definition: bit b of entry a is set when cells a = (g, m) and
    b = (h, n) have both opposite corners (g, n) and (h, m) incident, so
    that no Ferrers part inside the non-incidence can hold both."""
    inc = table.col_inc
    return [sum(1 << b for b, (h, n) in enumerate(table.cells)
                if inc[n] >> g & 1 and inc[m] >> h & 1)
            for g, m in table.cells]


def reference_clique(table) -> tuple[int, ...]:
    """``_Cells.clique`` with the next cell picked one candidate at a
    time: the largest of the greedy cliques grown from each cell, in
    order of falling degree, adding the candidate of highest degree
    (lowest index on ties) until none is left.  The reference for the
    clique's cells and their order."""
    adjacent = table.adjacent
    degree = [a.bit_count() for a in adjacent]
    order = sorted(range(len(table.cells)), key=lambda c: -degree[c])
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


def scan_branch(search):
    """The cover search's branching choice by a scan over every uncovered
    cell: the cell with the fewest admissible parts, lowest index on
    ties, and the bitmask of those parts, or None when some cell has none.

    A part is admissible for a cell when the cell fits the part's closure
    and conflicts with none of its cells; the part not yet opened counts
    for every cell.
    """
    used = search.n_used
    open_extra = 1 if used < search.k else 0
    conflicts = cell_conflicts(search.table)
    best = None
    for c, (g, m) in enumerate(search.table.cells):
        if not search.uncovered >> c & 1:
            continue
        parts = 0
        for j in range(used):
            rows = search.part_rows[j]
            clash = any(conflicts[c] >> c2 & 1 and rows[h] >> n & 1
                        for c2, (h, n) in enumerate(search.table.cells))
            if not search.above[j][g] & search.table.col_inc[m] and not clash:
                parts |= 1 << j
        count = bin(parts).count("1") + open_extra
        if count == 0:
            return None
        if best is None or count < best[0]:
            best = (count, c, parts)
    _, c, parts = best
    if open_extra:
        parts |= 1 << used
    return c, parts


def cell_table(ctx: FormalContext) -> _Cells:
    """A new cell table of ``ctx``, built outside the package's memo."""
    full = (1 << ctx.n_attributes) - 1
    return _Cells([full & ~r for r in ctx.rows], ctx.rows)


def cover_search(ctx: FormalContext, k: int) -> _CoverSearch:
    """The cover search for k parts of ``ctx`` with every part empty and
    no budget."""
    return _CoverSearch(cell_table(ctx), k, math.inf)


def plain_order_dimension(ctx: FormalContext) -> int:
    """The dimension by trying k = 1, 2, ... with the cover search from
    empty parts until one finds a cover: the reference for
    ``order_dimension``, whose ``ferrers_cover`` runs no search for k = 2
    (it two-colours the conflict graph), starts each k >= 3 from a
    conflict clique and refutes the k below the clique unsearched."""
    k = 1
    while not cover_search(ctx, k).run():
        k += 1
    return k


def chain_extent_order(ctx: FormalContext, part, lattice) -> tuple[int, ...]:
    """The concept order induced by a Ferrers part, built from its
    definition: map each concept to its closure under the complement J
    of the part, rank the distinct closures (a chain, checked here) by
    inclusion, and break ties by concept index."""
    n_g, n_m = ctx.n_objects, ctx.n_attributes
    j_rows = [sum(1 << m for m in range(n_m) if (g, m) not in part)
              for g in range(n_g)]

    def chain_extent(extent_mask: int) -> int:
        intent = (1 << n_m) - 1
        for g in range(n_g):
            if extent_mask >> g & 1:
                intent &= j_rows[g]
        return sum(1 << g for g in range(n_g) if intent & ~j_rows[g] == 0)

    mapped = [chain_extent(c.extent_mask) for c in lattice.concepts]
    levels = sorted(set(mapped))
    for small, big in zip(levels, levels[1:]):
        assert not small & ~big, "chain closure produced incomparable levels"
    rank = {ext: r for r, ext in enumerate(levels)}
    return tuple(sorted(range(lattice.n), key=lambda c: (rank[mapped[c]], c)))


def reference_extension(rows, lattice) -> LinearExtension:
    """``dimension._extension`` one concept at a time: each concept's
    level is the largest part-row size over the objects of its extent (0
    for an empty extent), and the concepts are sorted by level, then by
    index.  The reference for the extension's order."""
    sizes = [row.bit_count() for row in rows]
    level = [max((sizes[g] for g in _bits(c.extent_mask)), default=0)
             for c in lattice.concepts]
    return LinearExtension(sorted(range(lattice.n), key=lambda c: (level[c], c)))


def minimal_realizer(ctx: FormalContext, lattice):
    """The verified realizer of the minimum cover that ``order_dimension``
    finds, one linear extension per part."""
    return realizer_from_cover(ctx, lattice, order_dimension(ctx)[1])


def s3_up_masks() -> list[int]:
    """The 6-element standard example: atoms 0..2, coatoms 3..5,
    atom i below coatom j iff i != j."""
    masks = []
    for i in range(3):
        up = 1 << i
        for j in range(3):
            if i != j:
                up |= 1 << (3 + j)
        masks.append(up)
    for j in range(3):
        masks.append(1 << (3 + j))
    return masks


def diamond_up_masks() -> list[int]:
    """Bottom 0, incomparable 1 and 2, top 3."""
    return [0b1111, 0b1010, 0b1100, 0b1000]


def random_context(rng: random.Random, max_objects: int = 5,
                   max_attributes: int = 5) -> FormalContext:
    n_g = rng.randint(1, max_objects)
    n_m = rng.randint(1, max_attributes)
    density = rng.choice((0.25, 0.5, 0.75))
    incidence = frozenset((g, m) for g in range(n_g) for m in range(n_m)
                          if rng.random() < density)
    return context_from_pairs(tuple(f"g{i}" for i in range(n_g)),
                              tuple(f"m{j}" for j in range(n_m)), incidence)


# ---------------------------------------------------------------------------
# Independent oracles.

def reference_extents(ctx: FormalContext) -> set[int]:
    """The extent masks by a breadth-first frontier: each new extent is
    cut by every attribute extent until no cut is new.  The reference for
    ``lattice.concepts``, which closes one attribute at a time; it raises
    LatticeTooLargeError as soon as the set passes ``lattice.CONCEPT_CAP``.
    """
    cols = ctx.attribute_cols()
    full_g = (1 << ctx.n_objects) - 1
    extents = {full_g}
    frontier = [full_g]
    while frontier:
        fresh = []
        for ext in frontier:
            for col in cols:
                cut = ext & col
                if cut not in extents:
                    extents.add(cut)
                    if len(extents) > dimdraw.lattice.CONCEPT_CAP:
                        raise LatticeTooLargeError(
                            f"more than {dimdraw.lattice.CONCEPT_CAP} concepts")
                    fresh.append(cut)
        frontier = fresh
    return extents


def brute_concepts(ctx: FormalContext) -> set[tuple[frozenset, frozenset]]:
    """All concepts by checking closure of every object subset directly."""
    found = set()
    for mask in range(1 << ctx.n_objects):
        extent = {g for g in range(ctx.n_objects) if mask >> g & 1}
        intent = {m for m in range(ctx.n_attributes)
                  if all((g, m) in ctx.incidence for g in extent)}
        closure = {g for g in range(ctx.n_objects)
                   if all((g, m) in ctx.incidence for m in intent)}
        if closure == extent:
            found.add((frozenset(extent), frozenset(intent)))
    return found


def leq(lattice, i: int, j: int) -> bool:
    """Whether concept i lies below concept j, by extent inclusion."""
    return lattice.concepts[i].extent <= lattice.concepts[j].extent


def brute_covers(lattice) -> set[tuple[int, int]]:
    """Cover pairs by the definition, via a double loop over ``leq``."""
    n = lattice.n
    covers = set()
    for x in range(n):
        for y in range(n):
            if x == y or not leq(lattice, x, y):
                continue
            if any(z not in (x, y) and leq(lattice, x, z) and leq(lattice, z, y)
                   for z in range(n)):
                continue
            covers.add((x, y))
    return covers


ORACLE_ELEMENT_CAP = 10
ORACLE_EXTENSION_CAP = 100_000


def _all_linear_extensions(up_masks) -> list[tuple[int, ...]]:
    n = len(up_masks)
    down = [0] * n
    for i in range(n):
        for j in range(n):
            if j != i and up_masks[i] >> j & 1:
                down[j] |= 1 << i
    out: list[tuple[int, ...]] = []
    order: list[int] = []

    def rec(placed: int) -> None:
        if len(order) == n:
            out.append(tuple(order))
            if len(out) > ORACLE_EXTENSION_CAP:
                raise ValueError(f"more than {ORACLE_EXTENSION_CAP} linear "
                                 "extensions; the oracle refuses this order")
            return
        for v in range(n):
            if placed >> v & 1 or down[v] & ~placed:
                continue
            order.append(v)
            rec(placed | (1 << v))
            order.pop()

    rec(0)
    return out


def brute_force_dimension(order) -> int:
    """Exact dimension by exhausting linear-extension subsets.

    Independent of the Ferrers machinery by construction: enumerates all
    linear extensions of the order and finds the smallest subset whose
    intersection is the order.  Accepts a ConceptLattice or raw up-set
    bitmasks, so it also serves arbitrary finite orders.  Orders beyond
    the ORACLE_*_CAP sizes raise ValueError.
    """
    up = tuple(order.up_masks) if isinstance(order, ConceptLattice) else tuple(order)
    n = len(up)
    if not 0 < n <= ORACLE_ELEMENT_CAP:
        raise ValueError(f"the oracle takes 1 to {ORACLE_ELEMENT_CAP} "
                         f"elements, not {n}")
    extensions = _all_linear_extensions(up)

    ext_up: list[tuple[int, ...]] = []
    for ext in extensions:
        suffix = 0
        masks = [0] * n
        for rank in range(n - 1, -1, -1):
            suffix |= 1 << ext[rank]
            masks[ext[rank]] = suffix
        ext_up.append(tuple(masks))

    for size in range(1, len(extensions) + 1):
        for combo in combinations(range(len(extensions)), size):
            if all(reduce(int.__and__, (ext_up[e][i] for e in combo)) == up[i]
                   for i in range(n)):
                return size
    raise AssertionError("intersection of all extensions missed the order")


def reference_concept_listing(ctx: FormalContext, lattice) -> str:
    """The ``dimdraw concepts`` text built from frozensets, in the
    lattice's concept order: each extent decoded bit by bit, each intent
    by the definition, and the names of both in ``sorted()`` index order.
    The reference for the CLI listing, which walks the masks instead."""
    lines = [f"concepts: {lattice.n}"]
    for i, c in enumerate(lattice.concepts):
        extent = frozenset(g for g in range(ctx.n_objects)
                           if c.extent_mask >> g & 1)
        intent = frozenset(m for m in range(ctx.n_attributes)
                           if all((g, m) in ctx.incidence for g in extent))
        objects = ",".join(ctx.objects[g] for g in sorted(extent))
        attributes = ",".join(ctx.attributes[m] for m in sorted(intent))
        lines.append(f"{i}\t{{{objects}}}\t{{{attributes}}}")
    return "\n".join(lines) + "\n"


def reference_labels(ctx: FormalContext, lattice):
    """(object_labels, attribute_labels) found by closure: object g on
    the concept whose extent is {g}'' and attribute m on the one whose
    extent is {m}', each looked up by its extent.  The reference for
    ``render.label``, which reads the concepts off the lattice's masks."""
    by_extent = {c.extent_mask: i for i, c in enumerate(lattice.concepts)}
    rows = ctx.rows
    cols = ctx.attribute_cols()
    full_g = (1 << ctx.n_objects) - 1

    obj_labels: list[list[str]] = [[] for _ in range(lattice.n)]
    for g, name in enumerate(ctx.objects):
        intent = rows[g]
        extent = full_g
        for m in range(ctx.n_attributes):
            if intent >> m & 1:
                extent &= cols[m]
        obj_labels[by_extent[extent]].append(name)

    attr_labels: list[list[str]] = [[] for _ in range(lattice.n)]
    for m, name in enumerate(ctx.attributes):
        attr_labels[by_extent[cols[m]]].append(name)
    return (tuple(tuple(ls) for ls in obj_labels),
            tuple(tuple(ls) for ls in attr_labels))


def pairwise_up_masks(extent_masks) -> list[int]:
    """The lattice order by the O(n^2) pairwise extent test, the
    reference for the up-sets of ``lattice.concepts``: bit j of entry i
    is set when extent i is a subset of extent j."""
    ordered = list(extent_masks)
    n = len(ordered)
    up_masks = []
    for i in range(n):
        mask = 0
        ei = ordered[i]
        for j in range(n):
            if ei & ~ordered[j] == 0:
                mask |= 1 << j
        up_masks.append(mask)
    return up_masks


def down_mask_covers(leq_masks) -> tuple[tuple[int, int], ...]:
    """Cover pairs from down-sets, for any finite order given as up-set
    masks: the reference for ``lattice.transitive_reduction``.  j covers i
    when no element of i's strict up-set lies strictly below j."""
    def bits(mask):
        return [k for k in range(mask.bit_length()) if mask >> k & 1]

    masks = list(leq_masks)
    n = len(masks)
    down = [0] * n
    for i in range(n):
        for j in bits(masks[i]):
            down[j] |= 1 << i
    covers = []
    for i in range(n):
        strict_up = masks[i] & ~(1 << i)
        for j in bits(strict_up):
            if strict_up & down[j] & ~(1 << j) == 0:
                covers.append((i, j))
    return tuple(covers)


def complement(n_objects: int, n_attributes: int, cells) -> frozenset:
    """All cells of G x M not in the given set."""
    return frozenset((g, m) for g in range(n_objects)
                     for m in range(n_attributes)) - frozenset(cells)


def quantifier_is_ferrers(cells) -> bool:
    """The raw two-pair condition: (g,m),(h,n) present implies (g,n) or (h,m)."""
    cells = set(cells)
    for (g, m) in cells:
        for (h, n) in cells:
            if (g, n) not in cells and (h, m) not in cells:
                return False
    return True


def cell_rows(n_objects: int, cells) -> tuple[int, ...]:
    """The rows of a set of (g, m) cells, as a cover part holds them:
    row g is the mask of the attributes m with (g, m) in the set."""
    return tuple(sum(1 << m for h, m in cells if h == g) for g in range(n_objects))


def _solve(p, q, r, s):
    """Determinant and the numerators of t and u in p + t(q-p) = r + u(s-r)."""
    det = (q[0] - p[0]) * (r[1] - s[1]) - (q[1] - p[1]) * (r[0] - s[0])
    nt = (r[0] - p[0]) * (r[1] - s[1]) - (r[1] - p[1]) * (r[0] - s[0])
    nu = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return det, nt, nu


def oracle_crossings(points, edges) -> int:
    """Segment crossings via the parametric 2x2 solve, counting unordered
    edge pairs that meet at interior parameters of both segments.

    The float solve decides a pair only where rounding cannot: lines far
    from parallel with t and u clear of the segment ends, or parallel
    lines far apart.  Every other pair is solved again exactly, with
    each point taken as the rational its floats store, so an endpoint
    within rounding of another edge is decided correctly.
    """
    total = 0
    for (a, b), (c, d) in combinations(edges, 2):
        if a in (c, d) or b in (c, d):
            continue
        p, q, r, s = ends = (points[a], points[b], points[c], points[d])
        det, nt, nu = _solve(*ends)
        # bounds |det|, |nt| and |nu|
        scale = (math.dist(p, q) + math.dist(p, r)) * (math.dist(r, s)
                                                       + math.dist(p, q))
        if abs(det) > 1e-6 * scale:
            t, u = nt / det, nu / det
            if all(min(abs(v), abs(1.0 - v)) > 1e-8 for v in (t, u)):
                total += 0.0 < t < 1.0 and 0.0 < u < 1.0
                continue
        elif abs(nt) > 1e-3 * scale:
            continue  # parallel lines apart: |t| > 1000
        det, nt, nu = _solve(*((Fraction(x), Fraction(y)) for x, y in ends))
        total += det != 0 and 0 < nt / det < 1 and 0 < nu / det < 1
    return total


def _disjoint_pairs(edges) -> list[tuple[int, int, list[tuple[int, int]]]]:
    """Every unordered pair of edges that share no endpoint, grouped by the
    earlier edge (a, b) as (a, b, [later edges (c, d)]), in edge order."""
    return [(a, b, [edge for edge in edges[i + 1:]
                    if a not in edge and b not in edge])
            for i, (a, b) in enumerate(edges)]


def all_pairs_crossings(points, edges, limit: float = math.inf) -> int:
    """The float crossing count without the sweep, the reference for
    ``projection._count_crossings``: the same orientation test, in the
    same operand order, on every pair of edges that share no endpoint.
    Counting stops once ``limit`` is reached."""
    # The operand order of each orientation product is fixed: on
    # near-collinear pairs the rounding decides the sign, and with it the
    # count and the chosen assignment.
    total = 0
    for a, b, later in _disjoint_pairs(edges):
        p1x, p1y = points[a]
        p2x, p2y = points[b]
        vx, vy = p2x - p1x, p2y - p1y
        for c, d in later:
            q1x, q1y = points[c]
            q2x, q2y = points[d]
            ux, uy = q2x - q1x, q2y - q1y
            if ((ux * (p1y - q1y) - uy * (p1x - q1x))
                    * (ux * (p2y - q1y) - uy * (p2x - q1x)) < 0
                    and (vx * (q1y - p1y) - vy * (q1x - p1x))
                    * (vx * (q2y - p1y) - vy * (q2x - p1x)) < 0):
                total += 1
                if total >= limit:
                    return total
    return total


def generator_points(e, frame, assignment):
    """The projected points by the generator formula, one sum of d
    products per coordinate, added left to right from 0: the reference
    for ``projection._points``.  This is what ``sum`` computed before
    Python 3.12, which compensates float sums."""
    dirs = [frame.directions[j] for j in assignment]
    d = len(dirs)
    return tuple((reduce(add, (c[i] * dirs[i][0] for i in range(d)), 0),
                  reduce(add, (c[i] * dirs[i][1] for i in range(d)), 0))
                 for c in e.coords)


def oracle_point_segment_distance(p, a, b, samples: int = 4096) -> float:
    """Distance to a segment by dense sampling of the parameter."""
    best = float("inf")
    for i in range(samples + 1):
        t = i / samples
        x = a[0] + t * (b[0] - a[0])
        y = a[1] + t * (b[1] - a[1])
        d = ((p[0] - x) ** 2 + (p[1] - y) ** 2) ** 0.5
        if d < best:
            best = d
    return best


def closed_form_point_segment_distance(p, a, b) -> float:
    vx, vy = b[0] - a[0], b[1] - a[1]
    wx, wy = p[0] - a[0], p[1] - a[1]
    norm2 = vx * vx + vy * vy
    if norm2 <= 0.0:
        return (wx * wx + wy * wy) ** 0.5
    t = max(0.0, min(1.0, (wx * vx + wy * vy) / norm2))
    dx, dy = wx - t * vx, wy - t * vy
    return (dx * dx + dy * dy) ** 0.5


def reference_repair(layout):
    """``projection.repair_incidences`` without its x-window and with the
    duplicate test written out: every node is measured against every edge
    not incident to it whose y-range comes within twice the threshold, and
    a candidate is refused when any *other* node already sits on it.  The
    reference for the repair's points and for its ``RepairFailed``."""
    points = [tuple(p) for p in layout.points]
    edges = layout.edges
    if not points or not edges:
        return layout

    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    diag = math.hypot(x_hi - x_lo, max(ys) - min(ys))
    if diag <= 0.0:
        diag = 1.0
    threshold = REPAIR_EPS * diag
    delta = 2.0 * threshold
    window = 2.0 * threshold
    near = [[(u, v) for u, v in edges
             if node != u and node != v
             and min(ys[u], ys[v]) - window <= y <= max(ys[u], ys[v]) + window]
            for node, y in enumerate(ys)]

    def touching(node: int, p):
        return ((u, v) for u, v in near[node]
                if _segment_distance(p, points[u], points[v]) < threshold)

    def clear_at(node: int, x: float) -> bool:
        candidate = (x, points[node][1])
        return (not any(p == candidate
                        for other, p in enumerate(points) if other != node)
                and next(touching(node, candidate), None) is None)

    def nudge(nodes) -> bool:
        moved = False
        for node in nodes:
            base_x = points[node][0]
            candidates = (x for k in range(1, _REPAIR_MAX_STEPS + 1)
                          for x in (base_x + k * delta, base_x - k * delta)
                          if x_lo <= x <= x_hi)
            x = next((x for x in candidates if clear_at(node, x)), None)
            if x is not None:
                points[node] = (x, points[node][1])
                moved = True
        return moved

    for round_no in range(_REPAIR_ROUNDS + 1):
        offenders = [(node, edge) for node, p in enumerate(points)
                     for edge in touching(node, p)]
        if not offenders:
            return replace(layout, points=tuple(points))
        if (round_no == _REPAIR_ROUNDS
                or not nudge(sorted({n for n, _ in offenders}))):
            raise RepairFailed(offenders)


def order_isomorphisms(letters, letter_leq, lattice, limit: int = 2):
    """Backtracking search for order isomorphisms letter -> concept index.

    ``letter_leq`` is a dict on letter pairs.  Used to place the
    reference realizer chains onto the computed lattice.
    """
    n = lattice.n
    letter_sig = {}
    for c in letters:
        down = sum(1 for d in letters if letter_leq[(d, c)])
        up = sum(1 for d in letters if letter_leq[(c, d)])
        letter_sig[c] = (down, up)
    concept_sig = {}
    for i in range(n):
        down = sum(1 for j in range(n) if leq(lattice, j, i))
        up = sum(1 for j in range(n) if leq(lattice, i, j))
        concept_sig[i] = (down, up)

    ordering = sorted(letters, key=lambda c: (letter_sig[c], c))
    found: list[dict] = []

    def extend(mapping: dict) -> None:
        if len(found) >= limit:
            return
        if len(mapping) == len(letters):
            found.append(dict(mapping))
            return
        c = ordering[len(mapping)]
        for i in range(n):
            if i in mapping.values() or concept_sig[i] != letter_sig[c]:
                continue
            if all(letter_leq[(c, d)] == leq(lattice, i, k)
                   and letter_leq[(d, c)] == leq(lattice, k, i)
                   for d, k in mapping.items()):
                mapping[c] = i
                extend(mapping)
                del mapping[c]

    extend({})
    return found


def life_letter_map(lattice) -> dict[str, int]:
    """The unique order isomorphism from the reference chain letters onto
    the computed 19-concept lattice."""
    letters = sorted(LIFE_LETTER_COORDS)
    pos = [{c: i for i, c in enumerate(chain)}
           for chain in (LIFE_CHAIN_1, LIFE_CHAIN_2, LIFE_CHAIN_3)]
    letter_leq = {(x, y): all(p[x] <= p[y] for p in pos)
                  for x in letters for y in letters}
    isos = order_isomorphisms(letters, letter_leq, lattice, limit=2)
    assert len(isos) == 1, f"expected a unique isomorphism, found {len(isos)}"
    return isos[0]
