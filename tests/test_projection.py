import math
import os
import random
import threading
from itertools import permutations

import pytest

import dimdraw.projection as projection
from dimdraw import (AxisFrame, ContractViolation, DimEmbedding, FormalContext, Layout,
                     LinearExtension, Realizer, RepairFailed,
                     best_assignment, concepts,
                     default_frame, embed, normalize, order_dimension,
                     project, realizer_from_cover, repair_incidences)
from helpers import (all_pairs_crossings, closed_form_point_segment_distance,
                     contra_nominal, generator_points, grid_context, life_context,
                     oracle_crossings, oracle_point_segment_distance,
                     random_context, random_order_context, reference_repair,
                     seeded_context)

SQ2 = math.sqrt(2.0) / 2.0


def _embedding(ctx):
    lat = concepts(ctx)
    d, cover = order_dimension(ctx)
    return lat, embed(lat, realizer_from_cover(ctx, lat, cover))


# ---------------------------------------------------------------------------
# frames

def test_default_frame_single_axis():
    frame = default_frame(1)
    assert len(frame.directions) == 1
    x, y = frame.directions[0]
    assert abs(x) < 1e-12 and abs(y - 1.0) < 1e-12


def test_default_frame_two_axes():
    frame = default_frame(2, 45.0)
    (x1, y1), (x2, y2) = frame.directions
    assert abs(x1 + SQ2) < 1e-12 and abs(y1 - SQ2) < 1e-12
    assert abs(x2 - SQ2) < 1e-12 and abs(y2 - SQ2) < 1e-12


def test_default_frame_three_axes_descending():
    frame = default_frame(3, 45.0)
    angles = [math.degrees(math.atan2(y, x)) for x, y in frame.directions]
    assert angles == pytest.approx([135.0, 90.0, 45.0])


def test_default_frame_is_exactly_mirror_symmetric():
    # direction d-1-j is built as (-x, y) of direction j, bit for bit,
    # and the middle direction of an odd fan is exactly vertical
    for spread in (1e-6, 10.0, 45.0, 59.0, 60.0, 80.0, 89.9):
        for d in range(1, 10):
            dirs = default_frame(d, spread).directions
            for j in range(d // 2):
                x, y = dirs[j]
                assert x < 0.0
                assert ([v.hex() for v in dirs[d - 1 - j]]
                        == [(-x).hex(), y.hex()])
            if d % 2:
                assert [v.hex() for v in dirs[d // 2]] == [0.0.hex(), 1.0.hex()]


def test_default_frame_validation():
    with pytest.raises(ValueError):
        default_frame(0)
    with pytest.raises(ValueError):
        default_frame(2, 0.0)
    with pytest.raises(ValueError):
        default_frame(2, 90.0)


@pytest.mark.parametrize("direction", [(0.5, -0.5), (1.0, 0.0), (0.0, -0.0),
                                       (0.0, math.nan)])
def test_frame_rejects_a_direction_that_does_not_point_up(direction):
    # a caller's frame is an input error, not a broken upward invariant
    with pytest.raises(ValueError, match="does not point upward"):
        AxisFrame(((-0.6, 0.8), direction))


def test_best_assignment_rejects_a_frame_with_too_few_directions():
    _, emb = _embedding(life_context())  # d = 3
    with pytest.raises(ValueError, match="permute the frame directions"):
        best_assignment(emb, default_frame(2))


def test_best_assignment_rejects_a_frame_with_too_many_directions():
    # a 4-direction fan on d = 3 would draw with 3 of them, and skip
    # complements by the wrong mirror
    _, emb = _embedding(life_context())
    with pytest.raises(ValueError, match="permute the frame directions"):
        best_assignment(emb, default_frame(4))


# ---------------------------------------------------------------------------
# project

def test_origin_projects_to_origin():
    ctx = contra_nominal(2)
    _, emb = _embedding(ctx)
    layout = project(emb, default_frame(2), (0, 1))
    assert layout.points[0] == (0.0, 0.0)


def test_single_axis_contribution():
    emb = DimEmbedding(coords=((0, 0), (1, 0)), covers=((0, 1),))
    layout = project(emb, default_frame(2), (0, 1))
    x, y = layout.points[1]
    assert abs(x + SQ2) < 1e-12 and abs(y - SQ2) < 1e-12


def test_boolean_square_is_axis_aligned_rhombus():
    # realizer-rank coordinates of 2^2 are (0,0), (1,2), (2,1), (3,3);
    # projecting through the symmetric fan yields a rhombus whose
    # diagonals are axis-aligned (all four sides equal)
    ctx = contra_nominal(2)
    _, emb = _embedding(ctx)
    layout = project(emb, default_frame(2), (0, 1))
    pts = layout.points
    bottom, top = pts[0], pts[3]
    left, right = sorted((pts[1], pts[2]))
    assert abs(bottom[0] - top[0]) < 1e-9        # vertical diagonal
    assert abs(left[1] - right[1]) < 1e-9        # horizontal diagonal
    sides = {round(math.dist(a, b), 9)
             for a, b in ((bottom, left), (bottom, right),
                          (top, left), (top, right))}
    assert len(sides) == 1


def test_projection_is_upward_on_covers():
    rng = random.Random(8)
    for _ in range(40):
        ctx = random_context(rng)
        _, emb = _embedding(ctx)
        layout = project(emb, default_frame(emb.dim), tuple(range(emb.dim)))
        for lo, hi in layout.edges:
            assert layout.points[lo][1] < layout.points[hi][1]


def test_assignment_must_be_permutation():
    ctx = contra_nominal(2)
    _, emb = _embedding(ctx)
    with pytest.raises(ValueError):
        project(emb, default_frame(2), (0, 0))


# ---------------------------------------------------------------------------
# crossings

def test_diamond_has_no_crossings():
    ctx = contra_nominal(2)
    _, emb = _embedding(ctx)
    layout = project(emb, default_frame(2), (0, 1))
    assert layout.crossings == 0 == oracle_crossings(layout.points, layout.edges)


def test_explicit_x_crossing():
    layout = Layout(points=((0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)),
                    edges=((0, 1), (2, 3)))
    assert layout.crossings == 1
    assert oracle_crossings(layout.points, layout.edges) == 1


def test_contra_nominal_three_crossings_match_oracle():
    ctx = contra_nominal(3)
    _, emb = _embedding(ctx)
    layout = project(emb, default_frame(3), (0, 1, 2))
    assert len(layout.edges) == 12  # 66 unordered edge pairs
    oracle = oracle_crossings(layout.points, layout.edges)
    assert layout.crossings == oracle == 2


def test_crossings_are_derived_from_each_stages_points():
    # Layout.crossings is counted from the layout's own points, so it
    # follows every stage that moves them; on seeds 1, 8 and 9 repair
    # moves nodes and changes the count
    for seed in range(12):
        _, emb = _embedding(seeded_context(7, 7, 0.5, seed))
        projected = best_assignment(emb, default_frame(emb.dim)).layout
        normalized = normalize(projected)
        repaired = repair_incidences(normalized)
        for layout in (projected, normalized, repaired):
            assert layout.crossings == oracle_crossings(layout.points,
                                                        layout.edges)


def test_crossings_invariant_under_translation_and_scaling():
    ctx = contra_nominal(3)
    _, emb = _embedding(ctx)
    layout = project(emb, default_frame(3), (0, 1, 2))
    moved = Layout(points=tuple((3.5 + 2.0 * x, -1.25 + 2.0 * y)
                                for x, y in layout.points),
                   edges=layout.edges)
    assert moved.crossings == layout.crossings
    # negating x negates every orientation product exactly, which is why
    # the assignment search sweeps one member of each complement pair
    for ctx in (life_context(), contra_nominal(4)):
        _, emb = _embedding(ctx)
        frame = default_frame(emb.dim)
        for perm in permutations(range(emb.dim)):
            layout = project(emb, frame, perm)
            mirrored = Layout(points=tuple((-x, y) for x, y in layout.points),
                              edges=layout.edges)
            assert mirrored.crossings == layout.crossings


def _stress_layouts():
    """Hand-built (points, edges) pairs aimed at the sweep's filters."""
    line = ((0.0, 0.0), (0.0, 1.0), (0.0, 2.0), (0.0, 3.0), (0.0, 1.5))
    along = ((0, 1), (2, 3), (0, 2), (1, 3), (4, 3))
    # collinear edges along one axis, disjoint and overlapping
    yield line, along
    yield tuple((y, x) for x, y in line), along
    # y-ranges touching at one height: a horizontal edge crossed by a
    # vertical one, a vertical edge standing on it, and edges meeting the
    # horizontal one's height from below
    yield (((0.0, 1.0), (2.0, 1.0), (1.0, 0.0), (1.0, 2.0), (1.5, 1.0),
            (1.5, 3.0), (2.5, 0.0), (3.0, 1.0), (1.8, 0.0), (1.2, 1.0)),
           ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9)))
    # x-ranges apart and x-ranges touching at one value, y-ranges shared
    yield (((0.0, 0.0), (1.0, 3.0), (2.0, 0.0), (3.0, 3.0), (1.0, 1.0),
            (2.0, 2.5)), ((0, 1), (2, 3), (4, 5)))
    # an X of two downward edges, and a y-mirrored, downward drawing
    yield ((0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0)), ((0, 1), (2, 3))
    # 0.0 and -0.0 mixed on horizontal and vertical edges through the
    # origin, so segment bounds tie at signed zeros: two crossings there,
    # and edges standing on the others' interiors or lying along them
    yield (((0.0, -1.0), (-0.0, 1.0), (-1.0, 0.0), (1.0, -0.0), (-0.0, -0.0),
            (0.0, 2.0), (-1.0, -0.0), (1.0, 0.0), (0.0, 0.0), (-0.0, 0.5)),
           ((0, 1), (2, 3), (4, 5), (6, 7), (8, 3), (9, 1), (2, 8)))
    _, emb = _embedding(seeded_context(7, 7, 0.5, 9))
    layout = best_assignment(emb, default_frame(emb.dim)).layout
    yield tuple((x, -y) for x, y in layout.points), layout.edges


def test_sweep_matches_all_pairs_count():
    # the sweep skips the pairs whose bounding boxes are apart; on every
    # permutation of seeded embeddings, at wide, narrow and almost
    # collinear fans, and on hand-built layouts, it must give the all-pairs
    # count, and min(count, limit) under every limit
    layouts = list(_stress_layouts())
    assert [all_pairs_crossings(*pe) for pe in layouts[:6]] == [0, 0, 1, 0, 1, 2]
    for seed in range(12):
        _, emb = _embedding(seeded_context(7, 7, 0.5, seed))
        for spread in (45.0, 10.0, 80.0, 1e-6):
            frame = default_frame(emb.dim, spread)
            layouts += [(project(emb, frame, perm).points, emb.covers)
                        for perm in permutations(range(emb.dim))]
    for points, edges in layouts:
        full = all_pairs_crossings(points, edges)
        assert projection._count_crossings(points, edges) == full
        for limit in range(full + 2):
            assert projection._count_crossings(points, edges,
                                               limit) == min(full, limit)


def _corpus_embeddings():
    """Contranominal 4 and 5, life, and random 12x12 .5 s0 and s3."""
    for ctx in (contra_nominal(4), contra_nominal(5), life_context(),
                seeded_context(12, 12, 0.5, 0), seeded_context(12, 12, 0.5, 3)):
        yield _embedding(ctx)[1]


def _points_or_none(emb, frame, perm):
    """The projected points of ``perm``, or None when two concepts merge."""
    try:
        return project(emb, frame, perm).points
    except ValueError:
        return None


def test_points_match_the_generator_formula_bit_for_bit():
    # the column sums add the same products in the same order as the old
    # generator sums, so every coordinate keeps its bits, signed zeros
    # included, on every Python version
    for emb in _corpus_embeddings():
        frame = default_frame(emb.dim)
        for perm in permutations(range(emb.dim)):
            got = project(emb, frame, perm).points
            want = generator_points(emb, frame, perm)
            assert ([(x.hex(), y.hex()) for x, y in got]
                    == [(x.hex(), y.hex()) for x, y in want])


def test_complement_layout_is_the_exact_mirror():
    # on the symmetric fan the complement p'[i] = d-1-p[i] of every
    # permutation draws exactly (-x, y) of p's points, so both merge
    # points or neither does, and both have the same crossings
    for emb in _corpus_embeddings():
        for spread in (45.0, 10.0, 80.0, 60.0, 1e-6):
            frame = default_frame(emb.dim, spread)
            for perm in permutations(range(emb.dim)):
                mirror = tuple(emb.dim - 1 - j for j in perm)
                if mirror < perm:
                    continue
                points = _points_or_none(emb, frame, perm)
                mirrored = _points_or_none(emb, frame, mirror)
                if points is None:
                    assert mirrored is None
                    continue
                assert mirrored == tuple((-x, y) for x, y in points)
                assert (all_pairs_crossings(points, emb.covers)
                        == all_pairs_crossings(mirrored, emb.covers))


# ---------------------------------------------------------------------------
# best_assignment

def test_best_assignment_single_axis_identity():
    ctx = FormalContext(("g",), ("m",), frozenset())
    _, emb = _embedding(ctx)
    assert emb.dim == 1
    result = best_assignment(emb, default_frame(1))
    assert result.assignment == (0,)
    assert result.exhaustive


def test_grid_lattice_reaches_zero_crossings():
    ctx = grid_context(3)  # product of two 4-chains, 16 concepts
    lat, emb = _embedding(ctx)
    assert lat.n == 16 and emb.dim == 2
    result = best_assignment(emb, default_frame(2))
    assert result.layout.crossings == 0


def test_best_not_worse_than_identity_on_life():
    _, emb = _embedding(life_context())
    identity = project(emb, default_frame(3), (0, 1, 2))
    result = best_assignment(emb, default_frame(3))
    assert result.layout.crossings <= identity.crossings


def test_best_assignment_matches_exhaustive_reevaluation():
    # the search visits one permutation of each complement pair and stops
    # counting a candidate once it cannot win; the answer must still be
    # the lex-first permutation of minimum count, recounted here by the
    # independent oracle.  Contranominal 5 has near-collinear edge pairs,
    # which the last bits of the fan's directions decide
    pinned = {"contra4": ((1, 2, 0, 3), 20), "contra5": ((1, 3, 0, 4, 2), 132)}
    for name, ctx in (("contra3", contra_nominal(3)), ("contra4", contra_nominal(4)),
                      ("contra5", contra_nominal(5)), ("life", life_context()),
                      ("grid3", grid_context(3))):
        _, emb = _embedding(ctx)
        frame = default_frame(emb.dim)
        result = best_assignment(emb, frame)
        counts = {}
        for perm in permutations(range(emb.dim)):
            layout = project(emb, frame, perm)
            counts[perm] = oracle_crossings(layout.points, layout.edges)
        first = min(counts, key=counts.get)  # counts is in lex order
        assert result.assignment == first
        assert result.layout.crossings == counts[first]
        assert result.layout == project(emb, frame, first)
        if name in pinned:
            assert (result.assignment, result.layout.crossings) == pinned[name]


def test_best_assignment_is_the_lex_first_minimum_on_random_contexts():
    # only the lex-smaller member of each complement pair is visited; the
    # answer must be the lex-first minimum over all d! permutations
    for seed in range(40):
        _, emb = _embedding(seeded_context(7, 7, 0.5, seed))
        frame = default_frame(emb.dim)
        counts = {perm: all_pairs_crossings(project(emb, frame, perm).points, emb.covers)
                  for perm in permutations(range(emb.dim))}
        first = min(counts, key=counts.get)  # counts is in lex order
        result = best_assignment(emb, frame)
        assert (result.assignment, result.layout.crossings) == (first, counts[first])


def test_best_assignment_sweeps_one_member_of_each_complement_pair(monkeypatch):
    # on the symmetric fan the search projects the lex-smaller member of
    # each complement pair once, in lex order: d!/2 layouts; on a frame
    # that is not mirror symmetric, every permutation
    visited = []
    points = projection._points

    def recording(e, columns, assignment):
        visited.append(assignment)
        return points(e, columns, assignment)

    monkeypatch.setattr(projection, "_points", recording)
    _, emb = _embedding(contra_nominal(4))
    best_assignment(emb, default_frame(4))
    assert visited == [perm for perm in permutations(range(4))
                       if perm < tuple(3 - j for j in perm)]
    assert len(visited) == 12
    visited.clear()
    # a frame built from lists is stored as float pairs and still
    # recognised as mirror symmetric
    best_assignment(emb, AxisFrame([list(xy) for xy in default_frame(4).directions]))
    assert visited == [perm for perm in permutations(range(4))
                       if perm < tuple(3 - j for j in perm)]
    visited.clear()
    best_assignment(emb, AxisFrame(((-0.8, 0.6), (-0.3, 0.95), (0.2, 0.98),
                                    (0.8, 0.6))))
    assert visited == list(permutations(range(4)))


def test_best_assignment_layout_is_the_projection_of_its_assignment():
    # the winner's layout is built from the points the search counted;
    # it must be what project draws for the winning assignment
    for emb in _corpus_embeddings():
        for spread in (45.0, 10.0, 80.0):
            frame = default_frame(emb.dim, spread)
            result = best_assignment(emb, frame)
            assert result.layout == project(emb, frame, result.assignment)


def test_best_assignment_is_pinned_at_dimension_four_and_five():
    # the draw-highdim inputs random 12x12 .5 s0 (d = 5) and s3 (d = 4),
    # drawn from the realizer of the cover search that starts from a
    # conflict clique; the all-pairs counter over every permutation gives
    # the same minimum
    for seed, want in ((0, ((2, 1, 3, 4, 0), 415)), (3, ((1, 2, 3, 0), 296))):
        _, emb = _embedding(seeded_context(12, 12, 0.5, seed))
        result = best_assignment(emb, default_frame(emb.dim))
        assert (result.assignment, result.layout.crossings) == want


def test_best_assignment_skips_permutations_that_merge_points():
    # at 60 degrees the identity and its complement put two concepts of
    # random 7x7 .5 s4 on one point; the search takes the minimum of the
    # others
    _, emb = _embedding(seeded_context(7, 7, 0.5, 4))
    frame = default_frame(emb.dim, 60.0)
    counts = {}
    for perm in permutations(range(emb.dim)):
        if (points := _points_or_none(emb, frame, perm)) is not None:
            counts[perm] = all_pairs_crossings(points, emb.covers)
    assert sorted(set(permutations(range(emb.dim))) - set(counts)) == [
        (0, 1, 2), (2, 1, 0)]
    result = best_assignment(emb, frame)
    assert (result.layout.crossings, result.assignment) == min(
        (count, perm) for perm, count in counts.items())


def test_best_assignment_counts_every_permutation_of_an_asymmetric_frame():
    # a frame that is not mirror symmetric gives a complement its own
    # count, so no permutation is skipped
    frame = AxisFrame(((-0.8, 0.6), (-0.1, 0.995), (0.5, 0.866)))
    for ctx in (life_context(), seeded_context(7, 7, 0.5, 1)):
        _, emb = _embedding(ctx)
        counts = {perm: all_pairs_crossings(project(emb, frame, perm).points,
                                            emb.covers)
                  for perm in permutations(range(emb.dim))}
        first = min(counts, key=counts.get)  # counts is in lex order
        result = best_assignment(emb, frame)
        assert (result.assignment, result.layout.crossings) == (first, counts[first])


def test_best_assignment_rejects_a_spread_that_merges_points_everywhere():
    # u(150) + u(30) = u(90): at 60 degrees every permutation of the
    # 3-axis fan puts two concepts of this order on one point
    _, emb = _embedding(random_order_context(24, 3, 3924))
    with pytest.raises(ValueError, match="every axis assignment"):
        best_assignment(emb, default_frame(3, 60.0))
    assert best_assignment(emb, default_frame(3, 59.0)).exhaustive


def test_best_assignment_is_pinned_on_contranominal_six():
    # the Boolean lattice 2^6, recorded before the search paired each
    # permutation with its complement
    _, emb = _embedding(contra_nominal(6))
    result = best_assignment(emb, default_frame(6))
    assert (result.assignment, result.layout.crossings) == ((2, 3, 0, 1, 4, 5), 812)


def test_best_assignment_cap_falls_back_to_identity():
    # a realizer may repeat extensions, so a valid 9-axis embedding of a
    # 2-chain is easy to build
    from helpers import chain_context
    ctx = chain_context(1)
    lat = concepts(ctx)
    ext = LinearExtension((0, 1))
    emb = embed(lat, Realizer((ext,) * 9))
    result = best_assignment(emb, default_frame(9))
    assert not result.exhaustive
    assert result.assignment == tuple(range(9))


# ---------------------------------------------------------------------------
# the search split across forked children

def _split(monkeypatch, cpus: int) -> list[int]:
    """Let the search see ``cpus`` CPUs and split any input; returns the
    pids that os.fork gives the parent."""
    forked = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(projection, "_SHARE_WORK", 1)
    monkeypatch.setattr(os, "fork", recording)
    return forked


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _bits(result):
    return (result.assignment, [(x.hex(), y.hex()) for x, y in result.layout.points],
            result.layout.crossings)


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("ctx, want", [
    (contra_nominal(5), ((1, 3, 0, 4, 2), 132)),
    (seeded_context(12, 12, 0.5, 0), ((2, 1, 3, 4, 0), 415)),
    (seeded_context(7, 7, 0.5, 18), ((0, 2, 1), 7)),
], ids=["contra5", "random12-s0", "random7-s18-tied"])
def test_split_search_gives_the_serial_winner_bit_for_bit(monkeypatch, ctx, want, cpus):
    # random 7x7 .5 s18 sweeps three permutations; the second and third
    # tie at 7 crossings, so with two shares the child's (0, 2, 1) must
    # beat the parent's (1, 0, 2)
    _, emb = _embedding(ctx)
    frame = default_frame(emb.dim)
    serial = best_assignment(emb, frame)
    assert (serial.assignment, serial.layout.crossings) == want
    forked = _split(monkeypatch, cpus)
    assert _bits(best_assignment(emb, frame)) == _bits(serial)
    assert len(forked) == cpus - 1
    _assert_no_child_left()


def test_split_search_sweeps_a_share_again_when_its_child_delivers_nothing(
        monkeypatch):
    _, emb = _embedding(contra_nominal(5))
    frame = default_frame(5)
    serial = best_assignment(emb, frame)
    parent, search, swept = os.getpid(), projection._search, []

    def child_dies(e, columns, perms):
        if os.getpid() != parent:
            os._exit(0)
        swept.append(perms)
        return search(e, columns, perms)

    forked = _split(monkeypatch, 2)
    monkeypatch.setattr(projection, "_search", child_dies)
    assert _bits(best_assignment(emb, frame)) == _bits(serial)
    assert len(forked) == 1 and len(swept) == 2
    _assert_no_child_left()


def test_split_search_reaps_its_child_when_the_parent_share_raises(monkeypatch):
    _, emb = _embedding(contra_nominal(5))
    parent, search = os.getpid(), projection._search

    def parent_fails(e, columns, perms):
        if os.getpid() == parent:
            raise ContractViolation("the parent's share failed")
        return search(e, columns, perms)

    forked = _split(monkeypatch, 2)
    monkeypatch.setattr(projection, "_search", parent_fails)
    with pytest.raises(ContractViolation, match="parent's share"):
        best_assignment(emb, default_frame(5))
    assert len(forked) == 1
    _assert_no_child_left()


def test_search_splits_only_where_a_share_outweighs_a_fork(monkeypatch):
    # swept permutations x covers^2: contranominal 5 (60 x 80^2) and
    # random 12x12 .5 s3 (12 x 139^2) split in two, contranominal 4 and
    # life do not; one CPU, a live thread or a missing fork keeps it serial
    def shares(ctx):
        _, emb = _embedding(ctx)
        return projection._n_shares([None] * (math.factorial(emb.dim) // 2),
                                    len(emb.covers))

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert [shares(ctx) for ctx in (contra_nominal(5), seeded_context(12, 12, 0.5, 3),
                                    contra_nominal(4), life_context())] == [2, 2, 1, 1]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert shares(contra_nominal(5)) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10,))
    thread.start()
    try:
        assert shares(contra_nominal(5)) == 1
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()
    monkeypatch.delattr(os, "fork")
    assert shares(contra_nominal(5)) == 1


# ---------------------------------------------------------------------------
# normalize / repair

def test_normalize_unit_box():
    _, emb = _embedding(life_context())
    layout = normalize(project(emb, default_frame(3), (0, 1, 2)))
    xs = [p[0] for p in layout.points]
    ys = [p[1] for p in layout.points]
    assert min(xs) == 0.0 and max(xs) == 1.0
    assert min(ys) == 0.0 and max(ys) == 1.0


def test_normalize_degenerate_axis():
    from helpers import chain_context
    _, emb = _embedding(chain_context(2))  # a chain: vertical segment, no x span
    layout = normalize(project(emb, default_frame(1), (0,)))
    assert all(p[0] == 0.0 for p in layout.points)
    assert [p[1] for p in layout.points] == [0.0, 0.5, 1.0]


def test_repair_leaves_clean_layout_unchanged():
    _, emb = _embedding(contra_nominal(2))
    layout = normalize(best_assignment(emb, default_frame(2)).layout)
    repaired = repair_incidences(layout)
    assert repaired.points == layout.points


def test_repair_three_chain_covers_only():
    # covers of a chain skip the transitive pair, so the middle node only
    # touches its own edges and nothing moves
    from helpers import chain_context
    _, emb = _embedding(chain_context(2))
    layout = normalize(project(emb, default_frame(1), (0,)))
    repaired = repair_incidences(layout)
    assert repaired.points == layout.points


def test_repair_moves_node_off_foreign_edge():
    eps = projection.REPAIR_EPS
    layout = Layout(points=((0.0, 0.0), (1.0, 1.0), (0.5, 0.5), (1.0, 0.0)),
                    edges=((0, 1), (3, 2)))
    repaired = repair_incidences(layout)
    diag = math.sqrt(2.0)
    delta = 2.0 * eps * diag
    moved = repaired.points[2]
    assert moved[1] == 0.5
    assert abs(abs(moved[0] - 0.5) - delta) < 1e-12
    dist = oracle_point_segment_distance(moved, repaired.points[0],
                                         repaired.points[1])
    assert dist >= eps * diag - 1e-9
    assert repaired.points[0] == layout.points[0]
    assert repaired.points[1] == layout.points[1]


def test_repair_moves_node_just_beyond_a_foreign_edge_end():
    # node 2 sits 0.7 thresholds above the top end of edge (0, 1), so its
    # y lies outside that edge's y-range yet it touches the edge
    threshold = projection.REPAIR_EPS * math.sqrt(2.0)
    layout = Layout(points=((0.0, 0.0), (0.5, 0.5), (0.5, 0.5 + 0.7 * threshold),
                            (1.0, 1.0)),
                    edges=((0, 1), (2, 3)))
    repaired = repair_incidences(layout).points
    assert repaired != layout.points
    for node, p in enumerate(repaired):
        for u, v in layout.edges:
            if node not in (u, v):
                assert closed_form_point_segment_distance(
                    p, repaired[u], repaired[v]) >= threshold


def test_repair_is_idempotent_after_moving():
    layout = Layout(points=((0.0, 0.0), (1.0, 1.0), (0.5, 0.5), (1.0, 0.0)),
                    edges=((0, 1), (3, 2)))
    once = repair_incidences(layout)
    twice = repair_incidences(once)
    assert once.points == twice.points


def test_repair_preserves_upwardness():
    rng = random.Random(17)
    for _ in range(30):
        ctx = random_context(rng)
        _, emb = _embedding(ctx)
        layout = repair_incidences(normalize(
            best_assignment(emb, default_frame(emb.dim)).layout))
        for lo, hi in layout.edges:
            assert layout.points[lo][1] < layout.points[hi][1]


def test_repair_failure_lists_offenders():
    # a comb of parallel vertical edges spaced tighter than the nudge
    # step, so no candidate position clears the middle node
    eps = projection.REPAIR_EPS
    points = [(0.0, 0.0), (1.0, 1.0)]   # spans the unit box
    edges = []
    diag = math.sqrt(2.0)
    delta = 2.0 * eps * diag
    x = 0.2
    while x < 0.8:
        lo = len(points)
        points.append((x, 0.1))
        points.append((x, 0.9))
        edges.append((lo, lo + 1))
        x += 0.9 * delta
    node = len(points)
    points.append((0.5, 0.5))
    layout = Layout(points=tuple(points), edges=tuple(edges))
    with pytest.raises(RepairFailed) as err:
        repair_incidences(layout)
    # the middle node sits on the comb's edge 118 alone; every other node
    # is an endpoint or clear, and the list is that of the last scan
    assert len(edges) == 236 and edges[118] == (238, 239)
    assert err.value.offenders == [(node, (238, 239))]


@pytest.mark.parametrize("n_offenders", [1, 10, 11, 400])
def test_repair_failure_message_lists_the_first_ten_offenders(n_offenders):
    # every point on one vertical line leaves no candidate inside the
    # bounding box, so round 0 fails on each node strictly inside the
    # one long edge
    top = n_offenders + 1
    layout = Layout(points=tuple((0.0, float(y)) for y in range(top + 1)),
                    edges=((0, top),))
    with pytest.raises(RepairFailed) as err:
        repair_incidences(layout)
    offenders = [(node, (0, top)) for node in range(1, top)]
    assert err.value.offenders == offenders
    listed = ", ".join(f"node {n} on edge {e}" for n, e in offenders[:10])
    more = (f", and {n_offenders - 10} more ({n_offenders} in all)"
            if n_offenders > 10 else "")
    assert str(err.value) == (
        f"could not clear node/edge incidences: {listed}{more}")


def _repair_outcome(repair, layout):
    """The repaired points, or the offenders of the RepairFailed raised."""
    try:
        return repair(layout).points
    except RepairFailed as err:
        return err.offenders


def _x_window_layout():
    """A unit-box layout with a node on a vertical edge at x = 0.5, and
    nodes and edges whose x lies exactly at, one float inside and one
    float outside that edge's x-window on each side.  The window's margin
    equals the nudge step, so the first candidates land on its bounds too."""
    window = 2.0 * (projection.REPAIR_EPS * math.hypot(1.0, 1.0))
    # the largest x whose window reaches back to 0.5, and the smallest
    # whose window reaches forward to it
    right, left = 0.5 + window, 0.5 - window
    while right - window > 0.5:
        right = math.nextafter(right, 0.0)
    while math.nextafter(right, 1.0) - window <= 0.5:
        right = math.nextafter(right, 1.0)
    while left + window < 0.5:
        left = math.nextafter(left, 1.0)
    while math.nextafter(left, 0.0) + window >= 0.5:
        left = math.nextafter(left, 0.0)
    points = [(0.0, 0.0), (1.0, 1.0), (0.5, 0.1), (0.5, 0.9), (0.5, 0.5)]
    edges = [(2, 3)]
    for bound, outward in ((right, 1.0), (left, 0.0)):
        for x, y in ((bound, 0.3), (math.nextafter(bound, 0.5), 0.4),
                     (math.nextafter(bound, outward), 0.6)):
            points += [(x, y), (x, y + 0.2)]
            edges.append((len(points) - 2, len(points) - 1))
    return Layout(points=tuple(points), edges=tuple(edges))


def _unnormalized_layout():
    """Points near 2**53, where floats are 2 apart and the nudge step is
    0.8, so a step of one delta rounds back onto the node's own x.  Node 3
    lies on edge (4, 5) and node 6 on edge (2, 3); node 3 moves first,
    which takes edge (2, 3) off node 6, whose first candidate is then its
    own point.  That candidate is clear, because the duplicate test skips
    the node itself."""
    b = 2.0 ** 53
    return Layout(points=((b, 0.0), (b + 240, 320.0), (b + 120, 100.0),
                          (b + 120, 200.0), (b + 110, 190.0), (b + 130, 210.0),
                          (b + 120, 160.0)),
                  edges=((2, 3), (4, 5)))


def test_repair_matches_the_reference_without_the_x_window():
    # the x-window skips only pairs at least twice the threshold apart and
    # the duplicate test still skips the node itself, so repair makes the
    # reference's moves, and fails where it fails, with the same offenders
    layouts = []
    for size in (6, 8, 10):
        for p in (0.3, 0.5, 0.7):
            for seed in range(4):
                _, emb = _embedding(seeded_context(size, size, p, seed))
                for spread in (45.0, 10.0, 80.0, 1e-3):
                    try:
                        best = best_assignment(emb, default_frame(emb.dim, spread))
                    except ValueError:
                        continue
                    layouts.append(normalize(best.layout))
    assert len(layouts) > 100
    _, emb = _embedding(seeded_context(10, 10, 0.7, 8))
    failing = normalize(best_assignment(emb, default_frame(emb.dim, 80.0)).layout)
    hand_built = (_x_window_layout(), _unnormalized_layout())
    for layout in layouts + [failing, *hand_built]:
        assert (_repair_outcome(repair_incidences, layout)
                == _repair_outcome(reference_repair, layout))
    assert _repair_outcome(repair_incidences, failing) == [(66, (16, 17))]
    moved = [_repair_outcome(repair_incidences, layout) for layout in hand_built]
    assert moved[0][4] != (0.5, 0.5)
    assert moved[1][3] == (2.0 ** 53 + 122, 200.0)
    assert moved[1][6] == (2.0 ** 53 + 120, 160.0)


def test_repair_scans_each_node_edge_pair_once_per_round(monkeypatch):
    # a drawing that needs no repair takes one scan, which measures each
    # node only against the edges not incident to it whose y-range comes
    # within twice the threshold of its y, and whose x-range comes within
    # twice the threshold of its x; every skipped edge is at least the
    # threshold away, and no second scan confirms
    _, emb = _embedding(contra_nominal(4))
    layout = normalize(best_assignment(emb, default_frame(emb.dim)).layout)
    calls = []
    distance = projection._segment_distance

    def counted(p, a, b):
        calls.append((p, a, b))
        return distance(p, a, b)

    monkeypatch.setattr(projection, "_segment_distance", counted)
    repaired = repair_incidences(layout)
    assert repaired.points == layout.points
    points = layout.points
    window = 2 * projection.REPAIR_EPS * math.hypot(1.0, 1.0)
    pairs, y_skipped, x_skipped = [], [], []
    for node, (x, y) in enumerate(points):
        for u, v in layout.edges:
            if node in (u, v):
                continue
            low, high = sorted((points[u][1], points[v][1]))
            left, right = sorted((points[u][0], points[v][0]))
            if not low - window <= y <= high + window:
                y_skipped.append((node, (u, v)))
            elif not (x - window <= right and left <= x + window):
                x_skipped.append((node, (u, v)))
            else:
                pairs.append((node, (u, v)))
    assert len(calls) == len(pairs) > 0 and y_skipped and x_skipped
    assert calls == [(points[node], points[u], points[v]) for node, (u, v) in pairs]
    assert all(closed_form_point_segment_distance(points[node], points[u], points[v])
               >= window / 2 for node, (u, v) in y_skipped + x_skipped)
