import hashlib
import json
import math
import random

import pytest

from dimdraw import (ContractViolation, DimensionUndecided, FerrersCover,
                     LinearExtension, Realizer, SearchTimeout,
                     certificate_json, concepts, ferrers_cover, is_ferrers,
                     order_dimension, realizer_from_cover, verify_realizer)
from dimdraw.dimension import (_Cells, _cells, _check_cover, _CoverSearch,
                               _extension)
from helpers import (ORACLE_ELEMENT_CAP, brute_force_dimension,
                     cell_conflicts, cell_rows, cell_table, chain_context,
                     chain_extent_order, complement, context_from_pairs,
                     contra_nominal,
                     cover_search, crown_context, diamond_up_masks,
                     digraph_extendable, leq, life_context, life_ferrers_parts,
                     life_letter_map, minimal_realizer, plain_order_dimension,
                     quantifier_is_ferrers, random_context,
                     random_order_context, reference_clique,
                     reference_extension, s3_up_masks, scan_branch,
                     search_closure, search_extendable, seeded_context,
                     LIFE_CHAIN_1, LIFE_CHAIN_2, LIFE_CHAIN_3)


def _non_incidence(ctx):
    return {(g, m) for g in range(ctx.n_objects) for m in range(ctx.n_attributes)
            if (g, m) not in ctx.incidence}


def _is_linear_extension(lattice, ext):
    return all(ext.pos[i] <= ext.pos[j]
               for i in range(lattice.n) for j in range(lattice.n)
               if leq(lattice, i, j))


# ---------------------------------------------------------------------------
# is_ferrers / complement

def test_empty_relation_is_ferrers():
    assert is_ferrers(3, 3, frozenset())


def test_full_row_is_ferrers():
    assert is_ferrers(3, 3, {(1, 0), (1, 1), (1, 2)})


def test_diagonal_violates_ferrers():
    assert not is_ferrers(2, 2, {(0, 0), (1, 1)})
    assert not quantifier_is_ferrers({(0, 0), (1, 1)})


@pytest.mark.parametrize("cell", [(2, 0), (0, 3), (-1, 0), (0, -1), (0, 1.0),
                                  (0.0, 1)])
def test_is_ferrers_rejects_a_cell_out_of_range(cell):
    with pytest.raises(ValueError, match=rf"cell \({cell[0]}, {cell[1]}\) out of range"):
        is_ferrers(2, 3, {(0, 0), cell})


def test_characterizations_agree_on_random_relations():
    rng = random.Random(5)
    for _ in range(300):
        n_g, n_m = rng.randint(1, 6), rng.randint(1, 6)
        cells = frozenset((g, m) for g in range(n_g) for m in range(n_m)
                          if rng.random() < 0.4)
        assert is_ferrers(n_g, n_m, cells) == quantifier_is_ferrers(cells)


def test_complement_involution_and_empty():
    assert complement(2, 2, frozenset()) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    rng = random.Random(6)
    for _ in range(50):
        cells = frozenset((g, m) for g in range(3) for m in range(4)
                          if rng.random() < 0.5)
        assert complement(3, 4, complement(3, 4, cells)) == cells


def test_complement_preserves_ferrers():
    rng = random.Random(9)
    for _ in range(200):
        n_g, n_m = rng.randint(1, 6), rng.randint(1, 6)
        # random staircase: rows are prefixes of one column permutation
        columns = rng.sample(range(n_m), n_m)
        widths = sorted(rng.randint(0, n_m) for _ in range(n_g))
        cells = frozenset((g, columns[i]) for g, width in enumerate(widths)
                          for i in range(width))
        assert is_ferrers(n_g, n_m, cells)
        assert is_ferrers(n_g, n_m, complement(n_g, n_m, cells))


def test_known_cover_parts_are_ferrers_and_cover():
    ctx = life_context()
    parts = life_ferrers_parts()
    union = set()
    for part in parts:
        assert is_ferrers(8, 9, part)
        assert quantifier_is_ferrers(part)
        assert not part & ctx.incidence
        union |= part
    assert union == _non_incidence(ctx)


def test_extendability_predicate_matches_exhaustive_enumeration():
    # the cover search is exact iff this predicate is: "part + cell can
    # still grow into a Ferrers relation inside the non-incidence set"
    from itertools import combinations

    rng = random.Random(123)
    for _ in range(150):
        n_g, n_m = rng.randint(1, 4), rng.randint(1, 4)
        allowance = [0] * n_g
        cells = []
        for g in range(n_g):
            for m in range(n_m):
                if rng.random() < 0.6:
                    allowance[g] |= 1 << m
                    cells.append((g, m))
        if not cells:
            continue
        full = (1 << n_m) - 1
        search = _CoverSearch(_Cells(allowance, [full & ~r for r in allowance]),
                              1, math.inf)
        chosen = rng.sample(cells, rng.randint(0, min(len(cells) - 1, 5)))
        candidate = rng.choice([c for c in cells if c not in chosen])
        part_rows = [0] * n_g
        for g, m in chosen:
            part_rows[g] |= 1 << m
        got = search_extendable(search, part_rows, candidate[0], candidate[1])
        assert got == digraph_extendable(allowance, part_rows, *candidate)
        committed = set(chosen) | {candidate}
        rest = [c for c in cells if c not in committed]
        want = any(
            is_ferrers(n_g, n_m, committed | set(extra))
            for r in range(len(rest) + 1)
            for extra in combinations(rest, r))
        assert got == want, (allowance, chosen, candidate)


def test_maintained_closure_matches_rebuild_and_digraph_test():
    # a random walk of _assign / _undo: after every step each part's
    # maintained closure equals a fresh rebuild, every candidate verdict
    # equals the digraph test, and each part's mask of admissible cells
    # holds exactly the cells it fits without a conflict
    rng = random.Random(77)
    for _ in range(60):
        ctx = seeded_context(rng.randint(2, 6), rng.randint(2, 6),
                             rng.choice((0.25, 0.4, 0.55)), rng.randrange(10 ** 6))
        k = rng.randint(2, 3)
        search = cover_search(ctx, k)
        cells = search.table.cells
        if not cells:
            continue
        allowance = [(1 << ctx.n_attributes) - 1 & ~r for r in ctx.rows]
        conflicts = cell_conflicts(search.table)
        trails = []
        for _ in range(25):
            if trails and (rng.random() < 0.3 or not search.uncovered):
                search._undo(trails.pop())
            else:
                c = rng.choice([c for c in range(len(cells))
                                if search.uncovered >> c & 1])
                parts = sum(1 << j for j in range(search.n_used)
                            if search.fits[j] >> c & 1)
                if search.n_used < k:
                    parts |= 1 << search.n_used
                if not parts:
                    continue
                j = rng.choice([j for j in range(k) if parts >> j & 1])
                trails.append(search._assign(c, j))
            for j in range(k):
                rows = search.part_rows[j]
                above = search.above[j]
                assert above == search_closure(search, rows)
                part_cells = sum(1 << c for c, (g, m) in enumerate(cells)
                                 if rows[g] >> m & 1)
                for c, (g, m) in enumerate(cells):
                    fits = not above[g] & search.table.col_inc[m]
                    assert fits == digraph_extendable(allowance, rows, g, m)
                    admissible = fits and not conflicts[c] & part_cells
                    assert bool(search.fits[j] >> c & 1) == admissible


def test_branch_matches_per_cell_scan():
    # on random _assign / _undo walks, the branch read from the per-part
    # masks is the per-cell scan's: the same cell, the same parts, and
    # None in the same states
    rng = random.Random(2024)
    outcomes = set()
    for _ in range(80):
        ctx = seeded_context(rng.randint(2, 7), rng.randint(2, 7),
                             rng.choice((0.25, 0.4, 0.55)), rng.randrange(10 ** 6))
        k = rng.randint(2, 4)
        search = cover_search(ctx, k)
        cells = search.table.cells
        if not cells:
            continue
        trails = []
        for _ in range(30):
            if not search.uncovered:
                search._undo(trails.pop())
                continue
            branch = search._branch()
            assert branch == scan_branch(search)
            outcomes.add(branch is None)
            # the root always branches, so a dead end has a step to undo
            if branch is None or trails and rng.random() < 0.25:
                search._undo(trails.pop())
                continue
            c, parts = branch
            if rng.random() < 0.5:
                c = rng.choice([c for c in range(len(cells))
                                if search.uncovered >> c & 1])
                parts = sum(1 << j for j in range(search.n_used)
                            if search.fits[j] >> c & 1)
                if search.n_used < k:
                    parts |= 1 << search.n_used
                if not parts:
                    continue
            j = rng.choice([j for j in range(k) if parts >> j & 1])
            trails.append(search._assign(c, j))
    assert outcomes == {False, True}


def test_conflicts_match_pairwise_definition():
    # the masks carry no conflict term: on random _assign / _undo walks no
    # cell admissible in a part conflicts with a cell of that part, since
    # committing a cell already blocks every cell in conflict with it
    rng = random.Random(31)
    for _ in range(100):
        ctx = random_context(rng, 7, 7)
        k = rng.randint(2, 3)
        search = cover_search(ctx, k)
        cells = search.table.cells
        conflicts = cell_conflicts(search.table)
        for a, (g, m) in enumerate(cells):
            want = 0
            for b, (h, n) in enumerate(cells):
                if (g, n) in ctx.incidence and (h, m) in ctx.incidence:
                    want |= 1 << b
            assert conflicts[a] == want, (ctx, (g, m))
        if not cells:
            continue
        trails = []
        for _ in range(20):
            if trails and (rng.random() < 0.3 or not search.uncovered):
                search._undo(trails.pop())
            else:
                c = rng.choice([c for c in range(len(cells))
                                if search.uncovered >> c & 1])
                parts = [j for j in range(search.n_used)
                         if search.fits[j] >> c & 1]
                parts += [search.n_used] if search.n_used < k else []
                if not parts:
                    continue
                trails.append(search._assign(c, rng.choice(parts)))
            for j in range(k):
                rows = search.part_rows[j]
                part_cells = sum(1 << c for c, (g, m) in enumerate(cells)
                                 if rows[g] >> m & 1)
                for c in range(len(cells)):
                    if search.fits[j] >> c & 1:
                        assert not conflicts[c] & part_cells, (ctx, j, c)


@pytest.mark.parametrize("ctx, nodes", [
    (crown_context(12), {2: 93, 3: 121}),
    (crown_context(14), {2: 135, 3: 169}),
    (seeded_context(14, 14, 0.35, 2), {2: 3, 3: 19, 4: 2630, 5: 125}),
    (random_order_context(24, 2, 0), {2: 413}),
    (crown_context(40), {2: 1409, 3: 1521}),
], ids=["crown-12", "crown-14", "random-14x14-p.35-s2", "poset2d-24-s0",
        "crown-40"])
def test_search_tree_is_pinned(ctx, nodes):
    # node counts of the first search that used a per-part closure; the
    # same predicate and branching order must visit the same tree
    d = max(nodes)
    for k, want in nodes.items():
        search = cover_search(ctx, k)
        found = search.run()
        assert (search.nodes, found) == (want, k == d)


@pytest.mark.parametrize("ctx, k, nodes", [
    (seeded_context(14, 14, 0.35, 2), 4, (2630, 148)),
    (seeded_context(14, 14, 0.35, 4), 4, (2028, 173)),
    (seeded_context(20, 20, 0.3, 6), 4, (9061, 16)),
], ids=["random-14x14-p.35-s2", "random-14x14-p.35-s4", "random-20x20-p.3-s6"])
def test_seeded_refutation_is_pinned(ctx, k, nodes):
    # node counts of the plain refutation and of the one with the
    # conflict clique pre-placed, clique cell i in part i
    plain, seeded = cover_search(ctx, k), cover_search(ctx, k)
    seeded.seed(seeded.table.clique)
    assert not plain.run() and not seeded.run()
    assert (plain.nodes, seeded.nodes) == nodes


def test_one_part_cover_is_the_non_incidence_or_none():
    rng = random.Random(17)
    for _ in range(200):
        ctx = random_context(rng, 5, 5)
        cover = ferrers_cover(ctx, 1)
        search = cover_search(ctx, 1)
        if not search.run():
            assert cover is None
            continue
        rows = search.part_rows
        search.maximalize(0)
        assert cover.parts == (frozenset(
            (g, m) for g in range(ctx.n_objects) for m in range(ctx.n_attributes)
            if rows[0][g] >> m & 1),)
        assert cover.parts[0] == _non_incidence(ctx)


def test_maximalize_matches_a_scan_with_rebuilt_closures():
    # committing each cell that the part's fits mask holds, in row-major
    # order, grows the same rows as testing each cell against a closure
    # rebuilt from the part's rows
    rng = random.Random(30)
    grown = 0
    for _ in range(60):
        ctx = seeded_context(rng.randint(3, 7), rng.randint(3, 7),
                             rng.choice((0.3, 0.5, 0.7)), rng.randrange(10 ** 6))
        k = max(3, order_dimension(ctx)[0])
        search = cover_search(ctx, k)
        search.seed(search.table.clique)
        assert search.run()
        for j in range(k):
            expected = list(search.part_rows[j])
            for g, m in search.table.cells:
                if (not expected[g] >> m & 1
                        and search_extendable(search, expected, g, m)):
                    expected[g] |= 1 << m
            before = sum(map(int.bit_count, search.part_rows[j]))
            assert search.maximalize(j) == expected, ctx
            grown += sum(map(int.bit_count, expected)) - before
    assert grown >= 100


# ---------------------------------------------------------------------------
# ferrers_cover / order_dimension

def test_two_chain_single_part_cover():
    ctx = context_from_pairs(("a", "b"), ("p", "q"),
                             frozenset({(0, 0), (1, 0), (1, 1)}))
    cover = ferrers_cover(ctx, 1)
    assert cover is not None
    assert set().union(*cover.parts) == _non_incidence(ctx)


def test_life_has_no_two_part_cover():
    assert ferrers_cover(life_context(), 2) is None


def test_life_three_part_cover_is_valid():
    ctx = life_context()
    cover = ferrers_cover(ctx, 3)
    assert cover is not None
    union = set()
    for part in cover.parts:
        assert quantifier_is_ferrers(part)
        assert not part & ctx.incidence
        union |= part
    assert union == _non_incidence(ctx)


def test_chain_dimension_is_one():
    for n in (1, 2, 4):
        d, cover = order_dimension(chain_context(n))
        assert d == 1
        assert len(cover.parts) == 1


def test_full_context_dimension_is_one():
    ctx = context_from_pairs(("g",), ("m",), frozenset({(0, 0)}))
    d, cover = order_dimension(ctx)
    assert d == 1


def test_contra_nominal_dimensions():
    for n in (2, 3, 4):
        d, _ = order_dimension(contra_nominal(n))
        assert d == n


def test_life_dimension_three():
    d, cover = order_dimension(life_context())
    assert d == 3
    assert len(cover.parts) == 3


def test_cover_monotone_in_k():
    rng = random.Random(11)
    for _ in range(40):
        ctx = random_context(rng, 4, 4)
        d, _ = order_dimension(ctx)
        assert ferrers_cover(ctx, d + 1) is not None


def test_search_is_deterministic():
    ctx = life_context()
    first = ferrers_cover(ctx, 3)
    second = ferrers_cover(ctx, 3)
    assert first == second


def test_timeout_raises_searchtimeout():
    # k = 2 is decided outside the budget; life's 3-cell clique leaves
    # k = 3 to the search
    assert ferrers_cover(life_context(), 2, timeout=0.0) is None
    with pytest.raises(SearchTimeout):
        ferrers_cover(life_context(), 3, timeout=0.0)


@pytest.mark.parametrize("budget", [0.0, 1e-9])
def test_a_cover_the_seed_completes_needs_no_budget(budget):
    # contranominal 3's 3-cell clique covers every non-incident cell, so
    # the search succeeds at its first node, before the deadline is read
    ctx = contra_nominal(3)
    assert ferrers_cover(ctx, 3, timeout=budget) == ferrers_cover(ctx, 3)
    assert order_dimension(ctx, timeout_per_k=budget)[0] == 3


@pytest.mark.parametrize("budget", [0.0, None])
def test_a_context_without_empty_cells_has_empty_parts_at_three(budget):
    # the search has nothing to cover: it succeeds at its first node,
    # before the deadline is read
    ctx = context_from_pairs(("g0", "g1"), ("m0", "m1"),
                             {(g, m) for g in range(2) for m in range(2)})
    cover = ferrers_cover(ctx, 3, timeout=budget)
    assert cover.rows == ((0, 0), (0, 0), (0, 0))
    assert cover.parts == (frozenset(),) * 3


def test_timeout_becomes_undecided_with_lower_bound():
    with pytest.raises(DimensionUndecided) as err:
        order_dimension(life_context(), timeout_per_k=0.0)
    assert err.value.known_lower_bound == 3
    assert "undecided" in str(err.value)


def test_max_k_exhaustion_is_undecided():
    # once k = 2 is refuted, the n-cell clique of contranominal n proves
    # d >= n, whatever max-k allowed
    for n, max_k in ((3, 2), (6, 2), (6, 4)):
        with pytest.raises(DimensionUndecided) as err:
            order_dimension(contra_nominal(n), max_k=max_k)
        assert err.value.known_lower_bound == n
        assert f"max-k {max_k} exhausted" in str(err.value)
    # a max-k above the 3 non-incident cells of contranominal 3 is never
    # reached: one part per cell is a cover
    assert order_dimension(contra_nominal(3), max_k=50)[0] == 3


_REFERENCE_CONTEXTS = (
    [seeded_context(n, n, p, s) for n in (6, 10) for p in (0.35, 0.5)
     for s in range(3)]
    + [seeded_context(14, 14, 0.35, s) for s in range(5)]
    + [seeded_context(14, 14, 0.5, 0)]
    + [crown_context(n) for n in range(4, 17)]
    + [contra_nominal(n) for n in range(2, 7)]
    + [random_order_context(n, 2, s) for n in (8, 16, 24) for s in (0, 1)])


def test_order_dimension_matches_plain_k_loop():
    # the searches from a conflict clique give the d of the searches from
    # empty parts; the witness is a checked cover that realizes the order,
    # and the oracle agrees on the small lattices
    small = 0
    for ctx in _REFERENCE_CONTEXTS:
        d, cover = order_dimension(ctx)
        assert d == cover.k == plain_order_dimension(ctx)
        _check_cover(ctx, cover)
        lat = concepts(ctx)
        assert realizer_from_cover(ctx, lat, cover).dim == d
        if lat.n <= ORACLE_ELEMENT_CAP:
            assert brute_force_dimension(lat) == d
            small += 1
    assert small >= 5


_TRANSPOSE_CONTEXTS = (
    [life_context(), crown_context(8), crown_context(12), contra_nominal(4),
     contra_nominal(5)]
    + [seeded_context(n_g, n_m, p, s)
       for n_g, n_m in ((6, 6), (8, 8), (8, 12), (10, 10))
       for p in (0.3, 0.5, 0.7) for s in range(4)])


def test_transpose_has_the_same_dimension():
    # the transposed context has the dual lattice, which is realized by
    # the reversed extensions; both searches return a checked cover
    dims = set()
    for ctx in _TRANSPOSE_CONTEXTS:
        dual = context_from_pairs(ctx.attributes, ctx.objects,
                                  frozenset((m, g) for g, m in ctx.incidence))
        d, cover = order_dimension(ctx)
        d_dual, dual_cover = order_dimension(dual)
        assert d == d_dual, ctx
        _check_cover(ctx, cover)
        _check_cover(dual, dual_cover)
        dims.add(d)
    assert dims == {2, 3, 4, 5}


def test_clique_cells_pairwise_conflict():
    for ctx in [*_REFERENCE_CONTEXTS, life_context(), seeded_context(20, 12, 0.4, 5)]:
        table = cell_table(ctx)
        clique = table.clique
        conflicts = cell_conflicts(table)
        assert clique and len(set(clique)) == len(clique)
        for i, a in enumerate(clique):
            for b in clique[i + 1:]:
                assert conflicts[a] >> b & 1, (ctx, a, b)
    assert len(cell_table(contra_nominal(6)).clique) == 6
    assert len(cell_table(seeded_context(20, 12, 0.4, 5)).clique) == 5


_DENSITIES = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7)


def test_clique_matches_the_per_candidate_reference():
    # the degree groups pick the cells one candidate at a time would:
    # crowns and contranominal scales tie every degree, and the random
    # contexts include the two largest of the cover-search frontier
    contexts = ([crown_context(n) for n in range(3, 25)]
                + [contra_nominal(n) for n in range(1, 10)]
                + [seeded_context(n_g, n_m, p, s) for n_g, n_m in
                   ((6, 6), (10, 8), (12, 12), (14, 14), (20, 12))
                   for p in _DENSITIES for s in range(3)]
                + [seeded_context(25, 25, 0.3, 0), seeded_context(40, 40, 0.2, 0),
                   *_REFERENCE_CONTEXTS, life_context(),
                   context_from_pairs((), ("m",), frozenset()),
                   context_from_pairs(("g",), ("m",), frozenset({(0, 0)}))])
    for ctx in contexts:
        table = cell_table(ctx)
        assert table.clique == reference_clique(table), ctx
    assert reference_clique(cell_table(contexts[-1])) == ()


def test_seeded_search_refutes_exactly_when_no_cover_exists():
    # ferrers_cover starts each k >= 3 from the conflict clique and
    # refutes the k below it unsearched; it finds a cover iff the search
    # from empty parts does
    for ctx in _REFERENCE_CONTEXTS:
        d, _ = order_dimension(ctx)
        assert len(cell_table(ctx).clique) <= d
        for k in range(2, d + 1):
            assert ((ferrers_cover(ctx, k) is None)
                    == (not cover_search(ctx, k).run())), (ctx, k)


def test_clique_larger_than_k_refutes_without_a_search(monkeypatch):
    # the six diagonal cells of contranominal 6 conflict pairwise
    runs = []
    run = _CoverSearch.run

    def counting(search):
        runs.append(search.k)
        return run(search)

    monkeypatch.setattr(_CoverSearch, "run", counting)
    ctx = contra_nominal(6)
    assert [ferrers_cover(ctx, k) is None for k in (3, 4, 5)] == [True] * 3
    assert runs == []
    assert order_dimension(ctx)[0] == 6
    assert runs == [6]


def _noisy_orders():
    """Random 2-dimensional orders of 8-16 elements with 1-3 cells of
    their incidence toggled, drawn after the order by a second
    random.Random(s)."""
    out = []
    for n in (8, 12, 16):
        for s in range(30):
            base, r = random_order_context(n, 2, s), random.Random(s)
            incidence = set(base.incidence)
            for _ in range(r.randint(1, 3)):
                incidence ^= {(r.randrange(n), r.randrange(n))}
            out.append(context_from_pairs(base.objects, base.attributes,
                                          frozenset(incidence)))
    return out


def test_two_colouring_finds_a_cover_exactly_when_the_search_does():
    # k = 2 two-colours the conflict graph; the search from empty parts
    # is the reference, and each cover found is checked by ferrers_cover
    contexts = [seeded_context(n_g, n_m, p, s) for n_g in range(3, 10)
                for n_m in range(3, 10) for p in (0.2, 0.35, 0.5, 0.65, 0.8)
                for s in range(2)]
    contexts += [random_order_context(n, 2, s) for n in (8, 16, 24)
                 for s in range(5)]
    contexts += _noisy_orders()
    found = 0
    for ctx in contexts:
        cover = ferrers_cover(ctx, 2)
        assert (cover is None) == (not cover_search(ctx, 2).run()), ctx
        found += cover is not None
    assert (found, len(contexts)) == (371, 595)


def test_two_part_cover_builds_no_search(monkeypatch):
    # k = 2 is refuted or witnessed by the colouring alone; only life's
    # k = 3 builds a search
    built = []
    init = _CoverSearch.__init__

    def recording(search, table, k, deadline):
        built.append(k)
        init(search, table, k, deadline)

    monkeypatch.setattr(_CoverSearch, "__init__", recording)
    for ctx in (random_order_context(24, 2, 0), crown_context(40),
                seeded_context(12, 12, 0.2, 0), life_context()):
        ferrers_cover(ctx, 2, timeout=0.0)
    assert built == []
    assert order_dimension(random_order_context(16, 2, 0))[0] == 2
    assert order_dimension(life_context())[0] == 3
    assert built == [3]


def _odd_cycle(ctx):
    """An odd cycle of cells, each conflicting with the next by the raw
    corner definition, found by a breadth-first search of the pairwise
    conflicts, or None when the conflict graph is bipartite."""
    cells = sorted(_non_incidence(ctx))

    def conflict(a, b):
        (g, m), (h, n) = a, b
        return (g, n) in ctx.incidence and (h, m) in ctx.incidence

    parent, depth = {}, {}
    for root in cells:
        if root in depth:
            continue
        parent[root], depth[root], layer = None, 0, [root]
        while layer:
            following = []
            for a in layer:
                for b in cells:
                    if not conflict(a, b):
                        continue
                    if b not in depth:
                        parent[b], depth[b] = a, depth[a] + 1
                        following.append(b)
                    elif depth[b] == depth[a]:
                        # the tree paths from a and b meet at a common
                        # ancestor; with the edge a - b they close a cycle
                        left, right = [a], [b]
                        while left[-1] != right[-1]:
                            left.append(parent[left[-1]])
                            right.append(parent[right[-1]])
                        return left + right[-2::-1]
            layer = following
    return None


@pytest.mark.parametrize("n", [4, 5, 6, 9, 12, 24, 40])
def test_crowns_are_refuted_at_two_by_an_odd_cycle(n):
    ctx = crown_context(n)
    cycle = _odd_cycle(ctx)
    assert cycle is not None and len(cycle) % 2 == 1
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert (a[0], b[1]) in ctx.incidence and (b[0], a[1]) in ctx.incidence
    assert cell_table(ctx).two_colouring() is None
    assert ferrers_cover(ctx, 2) is None
    assert order_dimension(ctx)[0] == 3


def test_staircase_rejects_a_colour_class_whose_rows_form_a_cycle():
    # in the 2 x 2 identity, (0, 1) puts row 0 above row 1 and (1, 0)
    # row 1 above row 0: the two cells conflict, so no class holds both
    table = cell_table(context_from_pairs(("g0", "g1"), ("m0", "m1"),
                                          {(0, 0), (1, 1)}))
    assert table.cells == ((0, 1), (1, 0))
    with pytest.raises(ContractViolation, match="colour class rows form a cycle"):
        table.staircase(0b11)


def test_two_dimensional_witness_is_pinned():
    # poset2d-16-s0: the parts grown from the two colour classes
    d, cover = order_dimension(random_order_context(16, 2, 0))
    parts = [sorted(part) for part in cover.parts]
    assert d == 2 and [len(part) for part in parts] == [120, 78]
    assert hashlib.sha256(repr(parts).encode()).hexdigest() == (
        "d63cf73ea9cf0ab17fe444d3ff8833ff7fdfb19a9f3893425f15e08cc7259e96")


@pytest.mark.parametrize("n_g", [10, 12])
def test_sparse_twelve_columns_are_decided_at_three(n_g):
    # random 12x12 and 10x12 .2 s0: the search from empty parts did not
    # refute k = 2 within 20 s; the colouring does, and the 3-cell clique
    # seeds the k = 3 witness
    ctx = seeded_context(n_g, 12, 0.2, 0)
    d, cover = order_dimension(ctx, timeout_per_k=1)
    assert d == cover.k == 3


def test_twenty_by_twenty_s6_is_decided():
    # from its 4-cell clique the search finds a 5-cover in 278 nodes; the
    # search from empty parts did not finish k = 5 within 60 s
    d, cover = order_dimension(seeded_context(20, 20, 0.3, 6), timeout_per_k=1)
    assert d == cover.k == 5


def test_order_dimension_pre_places_the_clique(monkeypatch):
    # every search order_dimension runs from a seeded state holds clique
    # cell i alone in part i: here k = 4 (refuted) and k = 5 (found)
    placed = []
    run = _CoverSearch.run

    def recording(search):
        if search.n_used:
            placed.append([[c for c, (g, m) in enumerate(search.table.cells)
                            if search.part_rows[j][g] >> m & 1]
                           for j in range(search.n_used)])
        return run(search)

    monkeypatch.setattr(_CoverSearch, "run", recording)
    ctx = seeded_context(14, 14, 0.35, 2)
    assert order_dimension(ctx)[0] == 5
    clique = cell_table(ctx).clique
    assert len(clique) == 4
    assert placed == [[[c] for c in clique]] * 2


def _counting_tables(monkeypatch) -> list:
    """Count ``_Cells`` constructions from an empty ``_cells`` memo, so a
    table kept by an earlier test hides none."""
    built = []
    init = _Cells.__init__

    def counting(table, non_rows, inc_rows):
        built.append(len(non_rows))
        init(table, non_rows, inc_rows)

    _cells.cache_clear()
    monkeypatch.setattr(_Cells, "__init__", counting)
    return built


def test_conflict_clique_is_computed_once_per_context(monkeypatch):
    # k = 2 colours the conflict graph of the one cell table, k = 3 is
    # refuted by its 4-cell clique, and k = 4 and k = 5 start from that
    # clique
    built = _counting_tables(monkeypatch)
    d, cover = order_dimension(seeded_context(14, 14, 0.35, 2))
    assert built == [14]
    parts = [sorted(part) for part in cover.parts]
    assert d == 5 and [len(part) for part in parts] == [51, 30, 47, 57, 47]
    # the witness of the search that built the clique once per k
    assert hashlib.sha256(repr(parts).encode()).hexdigest() == (
        "4409a0992597958b4acc0d975cb0435288454d7eb64f6f2f83f0dc90818fc2b3")


def test_max_k_bound_reads_the_same_clique(monkeypatch):
    # contranominal 6: k = 3 and k = 4 refuted by the clique, and the
    # exhausted max-k reports the bound from that clique
    built = _counting_tables(monkeypatch)
    with pytest.raises(DimensionUndecided) as err:
        order_dimension(contra_nominal(6), max_k=4)
    assert err.value.known_lower_bound == 6
    assert len(built) == 1
    _cells.cache_clear()
    with pytest.raises(DimensionUndecided):
        order_dimension(contra_nominal(6), max_k=2)
    assert len(built) == 2


def test_one_part_cover_builds_no_cell_table(monkeypatch):
    # k = 1 reads only the rows
    built = _counting_tables(monkeypatch)
    for n in (1, 4, 12):
        assert order_dimension(chain_context(n))[0] == 1
    assert built == []


def test_seeded_search_timeout_is_undecided_at_its_k(monkeypatch):
    # the 4-clique of 14x14 .35 s2 skips k = 3; the seeded search at k = 4
    # runs out of budget
    run = _CoverSearch.run

    def timing_out(search):
        if search.n_used:
            raise SearchTimeout("Ferrers cover search ran out of budget")
        return run(search)

    monkeypatch.setattr(_CoverSearch, "run", timing_out)
    with pytest.raises(DimensionUndecided) as err:
        order_dimension(seeded_context(14, 14, 0.35, 2))
    assert err.value.known_lower_bound == 4


def test_k_must_be_positive():
    with pytest.raises(ValueError):
        ferrers_cover(life_context(), 0)


@pytest.mark.parametrize("ctx, k", [
    # a 3-cell clique is more than 2.5 parts: this was a refutation
    (seeded_context(8, 8, .5, 1), 2.5),
    (seeded_context(8, 8, .5, 1), 3.0),
    (crown_context(12), 2.5),
    (life_context(), "3"),
])
def test_k_must_be_an_int(ctx, k):
    with pytest.raises(ValueError, match="k must be at least 1 and an int"):
        ferrers_cover(ctx, k)


@pytest.mark.parametrize("max_k", [3.0, 2.5, "3"])
def test_max_k_must_be_an_int(max_k):
    with pytest.raises(ValueError, match="max_k must be at least 1 and an int"):
        order_dimension(seeded_context(8, 8, .5, 1), max_k=max_k)


@pytest.mark.parametrize("max_k", [0, -3])
def test_max_k_must_be_positive(max_k):
    with pytest.raises(ValueError, match="max_k must be at least 1"):
        order_dimension(life_context(), max_k=max_k)


@pytest.mark.parametrize("budget", [float("nan"), -1.0, -0.001])
def test_a_negative_or_nan_budget_is_rejected(budget):
    # a NaN deadline is never passed, so it would turn the budget off;
    # k = 1 and k = 2 need no budget and still reject it
    for k in (1, 2, 3):
        with pytest.raises(ValueError, match="budget must be at least 0"):
            ferrers_cover(life_context(), k, timeout=budget)
    with pytest.raises(ValueError, match="budget must be at least 0"):
        order_dimension(life_context(), timeout_per_k=budget)


@pytest.mark.parametrize("budget", [0.0, float("inf"), None])
def test_a_zero_infinite_or_absent_budget_is_accepted(budget):
    assert ferrers_cover(life_context(), 2, timeout=budget) is None
    if budget != 0.0:  # a zero budget runs out at k = 3
        assert order_dimension(life_context(), timeout_per_k=budget)[0] == 3


# ---------------------------------------------------------------------------
# linear extensions and realizers

def test_extension_from_empty_part_on_chain_is_the_chain():
    ctx = chain_context(3)
    lat = concepts(ctx)
    ext = _extension((0,) * ctx.n_objects, lat)
    assert ext.order == tuple(range(lat.n))


def test_extension_ranks_match_chain_closures():
    # ranking by the most part cells held by an object of the extent
    # gives the order of ranking the closures under the part's
    # complement along their chain: on every witness part, and on the
    # sub-parts of the empty part, each single cell and the Ferrers parts
    # of the unseeded search before maximalize
    unfinished = 0
    for ctx in _REFERENCE_CONTEXTS:
        lat = concepts(ctx)
        d, cover = order_dimension(ctx)
        search = cover_search(ctx, d)
        assert search.run()
        cells = search.table.cells
        found = [frozenset((g, m) for g, m in cells if rows[g] >> m & 1)
                 for rows in search.part_rows]
        found = [part for part in found
                 if is_ferrers(ctx.n_objects, ctx.n_attributes, part)]
        unfinished += len(found)
        singles = [frozenset([cell]) for cell in cells]
        for part in (*cover.parts, frozenset(), *singles, *found):
            ext = _extension(cell_rows(ctx.n_objects, part), lat)
            assert ext.order == chain_extent_order(ctx, part, lat), (ctx, part)
    assert unfinished >= 100


def test_extension_matches_the_per_concept_reference():
    # every part of every witness on the seeded contexts, random rows that
    # form no part, and the corners: a bottom concept with an empty
    # extent, a context with no objects, and a part with every row empty
    checked = 0
    for ctx in _REFERENCE_CONTEXTS:
        lat = concepts(ctx)
        for rows in order_dimension(ctx)[1].rows:
            assert _extension(rows, lat) == reference_extension(rows, lat), ctx
            checked += 1
    rng = random.Random(0)
    contexts = [seeded_context(n_g, n_m, p, s) for n_g, n_m in ((5, 7), (12, 10))
                for p in _DENSITIES for s in range(3)]
    contexts += [contra_nominal(5), context_from_pairs((), ("m", "n"), frozenset())]
    for ctx in contexts:
        lat = concepts(ctx)
        parts = [[rng.getrandbits(ctx.n_attributes) for _ in range(ctx.n_objects)]
                 for _ in range(4)]
        for rows in [*parts, [0] * ctx.n_objects]:
            assert _extension(rows, lat) == reference_extension(rows, lat), ctx
    assert checked > 100
    assert concepts(contra_nominal(5)).concepts[0].extent_mask == 0
    assert _extension((), concepts(contexts[-1])).order == (0,)


def test_extensions_from_known_parts_are_linear_extensions():
    ctx = life_context()
    lat = concepts(ctx)
    rows = [cell_rows(ctx.n_objects, part) for part in life_ferrers_parts()]
    for part in rows:
        ext = _extension(part, lat)
        assert _is_linear_extension(lat, ext)
        assert ext.pos[0] == 0                  # the bottom concept
        assert ext.pos[lat.n - 1] == lat.n - 1  # the top concept
    real = Realizer(tuple(_extension(part, lat) for part in rows))
    assert verify_realizer(lat, real)


def test_part_overlapping_incidence_is_rejected():
    ctx, cover = _life_cover()
    bad = _with_part(cover, 0, cover.parts[0] | {min(ctx.incidence)})
    with pytest.raises(ContractViolation, match="overlaps the incidence"):
        realizer_from_cover(ctx, concepts(ctx), bad)


def test_non_ferrers_part_is_rejected():
    # contranominal 2 has the empty cells (0, 0) and (1, 1); they conflict
    ctx = contra_nominal(2)
    bad = FerrersCover(((0b01, 0b10),))
    with pytest.raises(ContractViolation, match="not a Ferrers relation"):
        realizer_from_cover(ctx, concepts(ctx), bad)


def test_realizer_sizes():
    ctx = chain_context(3)
    real = minimal_realizer(ctx, concepts(ctx))
    assert real.dim == 1

    cn2 = contra_nominal(2)
    real = minimal_realizer(cn2, concepts(cn2))
    assert real.dim == 2

    life = life_context()
    lat = concepts(life)
    real = minimal_realizer(life, lat)
    assert real.dim == 3
    assert verify_realizer(lat, real)


def test_verify_reference_chains_on_life():
    lat = concepts(life_context())
    iso = life_letter_map(lat)
    exts = tuple(
        LinearExtension([iso[c] for c in chain])
        for chain in (LIFE_CHAIN_1, LIFE_CHAIN_2, LIFE_CHAIN_3))
    assert verify_realizer(lat, Realizer(exts))


def test_single_extension_fails_on_non_chain():
    lat = concepts(contra_nominal(2))
    ext = LinearExtension(range(lat.n))
    assert not verify_realizer(lat, Realizer((ext,)))


def test_duplicated_extension_fails_on_antichain_completion():
    lat = concepts(contra_nominal(2))
    ext = LinearExtension((0, 1, 2, 3))
    assert not verify_realizer(lat, Realizer((ext, ext)))


def _random_extension(lattice, rng):
    """A random linear extension: each step places a random concept whose
    lower covers are all placed."""
    order, placed = [], 0
    while len(order) < lattice.n:
        ready = [c for c in range(lattice.n) if not placed >> c & 1
                 and all(placed >> d & 1 for d in range(lattice.n)
                         if d != c and leq(lattice, d, c))]
        c = rng.choice(ready)
        order.append(c)
        placed |= 1 << c
    return LinearExtension(order)


def _pairwise_realizes(lattice, extensions):
    """i <= j iff pos[i] <= pos[j] in every extension, for every pair."""
    return bool(extensions) and all(
        leq(lattice, i, j) == all(e.pos[i] <= e.pos[j] for e in extensions)
        for i in range(lattice.n) for j in range(lattice.n))


def test_verify_realizer_matches_the_pairwise_reference():
    rng = random.Random(33)
    decided_by_second = 0
    for s in range(40):
        ctx = seeded_context(2 + s % 5, 2 + 3 * s % 5, (0.3, 0.5, 0.7)[s % 3], s)
        lat = concepts(ctx)
        real = minimal_realizer(ctx, lat)
        perm = list(range(lat.n))
        rng.shuffle(perm)
        candidates = [real.extensions,
                      tuple(_random_extension(lat, rng) for _ in range(rng.randint(1, 4))),
                      (LinearExtension(perm),) + real.extensions]
        if real.dim >= 2:
            # the first extension is the realizer's, so the verdict turns
            # on the second, a random linear extension
            for _ in range(4):
                second = _random_extension(lat, rng)
                exts = (real.extensions[0], second) + real.extensions[2:]
                candidates.append(exts)
                if (second not in real.extensions[:1]
                        and not _pairwise_realizes(lat, exts)):
                    decided_by_second += 1
        for exts in candidates:
            assert verify_realizer(lat, Realizer(exts)) == _pairwise_realizes(lat, exts)
    assert decided_by_second >= 10


def test_extension_validation():
    # a float equal to an index would pass a sorted() test and fail
    # later, in the bit shifts of verify_realizer and embed
    for order in ((0, 0, 1), [0.0, 1.0], (1, 0.0), ("0",), (0, None)):
        with pytest.raises(ValueError, match="not a permutation"):
            LinearExtension(order)


def test_extension_is_its_order():
    # one field: the ranks are derived from it, and a list is stored as a
    # tuple, so the value hashes like any other frozen one
    ext = LinearExtension([2, 0, 1])
    assert ext.order == (2, 0, 1)
    assert ext.pos == (1, 2, 0)
    assert ext == LinearExtension((2, 0, 1))
    assert hash(ext) == hash(LinearExtension((2, 0, 1)))
    with pytest.raises(TypeError):
        LinearExtension(order=(0, 1), pos=(0,))


# ---------------------------------------------------------------------------
# Certification failures: one mutation of a valid cover or realizer of life

def _life_cover():
    ctx = life_context()
    cover = FerrersCover(tuple(cell_rows(ctx.n_objects, part)
                               for part in life_ferrers_parts()))
    _check_cover(ctx, cover)
    return ctx, cover


def _with_part(cover, i, part):
    """The cover with part i replaced by the rows of the given cells."""
    rows = cell_rows(len(cover.rows[i]), part)
    return FerrersCover(cover.rows[:i] + (rows,) + cover.rows[i + 1:])


def test_check_cover_rejects_an_incident_cell_in_a_part():
    ctx, cover = _life_cover()
    bad = _with_part(cover, 0, cover.parts[0] | {min(ctx.incidence)})
    with pytest.raises(ContractViolation, match="overlaps the incidence"):
        _check_cover(ctx, bad)


def test_check_cover_rejects_two_conflicting_cells_in_a_part():
    ctx, cover = _life_cover()
    n_g, n_m = ctx.n_objects, ctx.n_attributes
    # a non-incident cell of another part that conflicts with part 0
    cell = min(c for part in cover.parts[1:] for c in part
               if not is_ferrers(n_g, n_m, cover.parts[0] | {c}))
    bad = _with_part(cover, 0, cover.parts[0] | {cell})
    with pytest.raises(ContractViolation, match="not a Ferrers relation"):
        _check_cover(ctx, bad)


def test_check_cover_rejects_a_dropped_cell():
    ctx, cover = _life_cover()
    n_g, n_m = ctx.n_objects, ctx.n_attributes
    others = cover.parts[1].union(*cover.parts[2:])
    # a cell only part 0 covers, whose removal leaves part 0 Ferrers
    cell = min(c for c in cover.parts[0] - others
               if is_ferrers(n_g, n_m, cover.parts[0] - {c}))
    bad = _with_part(cover, 0, cover.parts[0] - {cell})
    with pytest.raises(ContractViolation, match="union differs"):
        _check_cover(ctx, bad)


def test_realizer_from_cover_rejects_a_dropped_part():
    ctx, cover = _life_cover()
    lat = concepts(ctx)
    assert realizer_from_cover(ctx, lat, cover).dim == 3
    with pytest.raises(ContractViolation, match="union differs"):
        realizer_from_cover(ctx, lat, FerrersCover(cover.rows[1:]))


def test_realizer_from_cover_rejects_a_part_with_the_wrong_row_count():
    ctx, cover = _life_cover()
    bad = FerrersCover(cover.rows[:2] + (cover.rows[2][:-1],))
    with pytest.raises(ContractViolation, match="has 7 rows, not 8"):
        realizer_from_cover(ctx, concepts(ctx), bad)


def test_realizer_from_cover_verifies_what_the_extensions_give(monkeypatch):
    # the cover passes its check, but extensions that all give one order
    # intersect to a chain, which life's lattice is not
    ctx, cover = _life_cover()
    lat = concepts(ctx)
    monkeypatch.setattr("dimdraw.dimension._extension",
                        lambda rows, lattice: LinearExtension(range(lattice.n)))
    with pytest.raises(ContractViolation, match="do not realize"):
        realizer_from_cover(ctx, lat, cover)


def test_verify_realizer_rejects_empty_and_short_extensions():
    ctx, cover = _life_cover()
    lat = concepts(ctx)
    real = realizer_from_cover(ctx, lat, cover)
    assert verify_realizer(lat, real)
    assert not verify_realizer(lat, Realizer(()))
    short = LinearExtension([c for c in real.extensions[0].order if c != lat.n - 1])
    assert not verify_realizer(lat, Realizer((short,) + real.extensions[1:]))


# ---------------------------------------------------------------------------
# brute-force oracle

def test_brute_force_chain():
    masks = [0] * 5
    for i in range(5):
        for j in range(i, 5):
            masks[i] |= 1 << j
    assert brute_force_dimension(masks) == 1


def test_brute_force_diamond():
    assert brute_force_dimension(diamond_up_masks()) == 2


def test_brute_force_standard_example_three():
    assert brute_force_dimension(s3_up_masks()) == 3


def test_brute_force_accepts_lattice():
    lat = concepts(contra_nominal(2))
    assert brute_force_dimension(lat) == 2


def test_oracle_agreement_sampled_4x4():
    # together with the exhaustive 3x3 sweep in the acceptance suite this
    # covers over a thousand contexts of up to 4 objects and 4 attributes
    rng = random.Random(21)
    for _ in range(500):
        ctx = random_context(rng, 4, 4)
        lat = concepts(ctx)
        if lat.n > 10:
            continue
        d, _ = order_dimension(ctx)
        assert d == brute_force_dimension(lat)


# ---------------------------------------------------------------------------
# certificate

def test_certificate_document():
    ctx = life_context()
    lat = concepts(ctx)
    d, cover = order_dimension(ctx)
    real = realizer_from_cover(ctx, lat, cover)
    doc = json.loads(certificate_json(ctx, lat, d, cover, real))
    assert doc["dimension"] == 3
    assert len(doc["ferrers_parts"]) == 3
    covered = {tuple(cell) for part in doc["ferrers_parts"] for cell in part}
    assert covered == _non_incidence(ctx)
    assert len(doc["realizer"]["by_index"]) == 3
    assert all(sorted(perm) == list(range(19))
               for perm in doc["realizer"]["by_index"])
    by_intent = doc["realizer"]["by_intent"]
    assert by_intent[0][0] == list("abcdefghi")  # bottom concept has full intent
    assert by_intent[0][-1] == ["a"]             # top concept: attribute a only
