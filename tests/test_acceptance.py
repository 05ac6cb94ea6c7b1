"""Acceptance criteria, one test per criterion, each printing a
PASS/FAIL line (visible with ``pytest -s`` or in failure reports)."""

import json
import random
import time
from contextlib import contextmanager

from dimdraw import (LinearExtension, Realizer,
                     best_assignment, concepts, default_frame, embed,
                     ferrers_cover, is_ferrers, normalize, order_dimension,
                     parse_cxt, realizer_from_cover, repair_incidences,
                     verify_realizer, write_cxt)
from dimdraw.cli import main
from helpers import (brute_force_dimension,
                     closed_form_point_segment_distance, context_from_pairs,
                     contra_nominal, leq,
                     life_context, life_cxt_text, life_letter_map,
                     quantifier_is_ferrers, random_context, s3_up_masks,
                     LIFE_CHAIN_1, LIFE_CHAIN_2, LIFE_CHAIN_3,
                     LIFE_LETTER_COORDS)


@contextmanager
def criterion(number: int, title: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{title}]: FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} [{title}]: PASS ({elapsed:.2f}s)")


def _non_incidence(ctx):
    return {(g, m) for g in range(ctx.n_objects)
            for m in range(ctx.n_attributes) if (g, m) not in ctx.incidence}


def test_criterion_1_concept_count():
    with criterion(1, "8x9 demo context has exactly 19 concepts"):
        started = time.perf_counter()
        lat = concepts(life_context())
        assert lat.n == 19
        assert time.perf_counter() - started < 1.0


def test_criterion_2_dimension_three():
    with criterion(2, "demo context dimension 3 with verified cover, no 2-cover"):
        started = time.perf_counter()
        ctx = life_context()
        d, cover = order_dimension(ctx)
        assert d == 3
        union = set()
        for part in cover.parts:
            assert quantifier_is_ferrers(part)
            assert not part & ctx.incidence
            union |= part
        assert union == _non_incidence(ctx)
        assert ferrers_cover(ctx, 2) is None  # completed exhaustive search
        assert time.perf_counter() - started < 30.0


def test_criterion_3_coordinate_fixture():
    with criterion(3, "reference realizer reproduces the rank coordinates"):
        started = time.perf_counter()
        lat = concepts(life_context())
        iso = life_letter_map(lat)
        real = Realizer(tuple(
            LinearExtension([iso[c] for c in chain])
            for chain in (LIFE_CHAIN_1, LIFE_CHAIN_2, LIFE_CHAIN_3)))
        assert verify_realizer(lat, real)
        emb = embed(lat, real)
        for letter, expected in LIFE_LETTER_COORDS.items():
            assert emb.coords[iso[letter]] == expected, letter
        # Reference listings show D = (15,16,7), duplicating E; rank
        # vectors cannot repeat (each axis is a permutation), so the
        # value recomputed from the chains is the one pinned here.
        assert emb.coords[iso["D"]] == (17, 11, 12)
        assert emb.coords[iso["E"]] == (15, 16, 7)
        assert emb.coords[iso["D"]] != emb.coords[iso["E"]]
        assert emb.coords[iso["A"]] == (18, 18, 18)
        assert emb.coords[iso["S"]] == (0, 0, 0)
        assert emb.coords[iso["B"]] == (16, 7, 17)
        assert time.perf_counter() - started < 1.0


def test_criterion_4_contra_nominal_scales():
    with criterion(4, "contra-nominal scales: 2^n concepts, dimension n"):
        for n in (2, 3, 4):
            started = time.perf_counter()
            ctx = contra_nominal(n)
            assert concepts(ctx).n == 2 ** n
            d, _ = order_dimension(ctx, timeout_per_k=300.0)
            assert d == n
            if n == 4:
                assert time.perf_counter() - started < 300.0


def test_criterion_5_standard_example_witness():
    with criterion(5, "6-element standard example has dimension 3"):
        started = time.perf_counter()
        assert brute_force_dimension(s3_up_masks()) == 3
        assert time.perf_counter() - started < 1.0


def test_criterion_6_oracle_equivalence_3x3():
    with criterion(6, "all 512 3x3 contexts agree with the brute-force oracle"):
        started = time.perf_counter()
        for bits in range(512):
            incidence = frozenset((g, m) for g in range(3) for m in range(3)
                                  if bits >> (g * 3 + m) & 1)
            ctx = context_from_pairs(("g0", "g1", "g2"), ("m0", "m1", "m2"),
                                     incidence)
            d, _ = order_dimension(ctx)
            assert d == brute_force_dimension(concepts(ctx)), bits
        assert time.perf_counter() - started < 600.0


def test_criterion_7_property_suite():
    with criterion(7, "property suite on fixtures plus 500 random contexts"):
        rng = random.Random(20240601)
        fixtures = [life_context(), contra_nominal(2), contra_nominal(3)]
        cases = fixtures + [random_context(rng) for _ in range(500)]
        for ctx in cases:
            # parse/write round trip
            assert parse_cxt(write_cxt(ctx)) == ctx

            lat = concepts(ctx)
            d, cover = order_dimension(ctx)

            # Ferrers complement closure on every cover part
            for part in cover.parts:
                assert is_ferrers(ctx.n_objects, ctx.n_attributes, part)
                comp = {(g, m) for g in range(ctx.n_objects)
                        for m in range(ctx.n_attributes) if (g, m) not in part}
                assert is_ferrers(ctx.n_objects, ctx.n_attributes, comp)

            # realizer intersection equals the lattice order
            real = realizer_from_cover(ctx, lat, cover)
            for i in range(lat.n):
                for j in range(lat.n):
                    meets = all(ext.pos[i] <= ext.pos[j]
                                for ext in real.extensions)
                    assert meets == leq(lat, i, j)

            # dominance equivalence of the embedding
            emb = embed(lat, real)
            for i in range(lat.n):
                for j in range(lat.n):
                    dominated = all(a <= b for a, b in zip(emb.coords[i],
                                                           emb.coords[j]))
                    assert dominated == leq(lat, i, j)

            # upward cover edges in the laid-out diagram, before and
            # after repair
            layout = normalize(best_assignment(emb, default_frame(d)).layout)
            for lo, hi in layout.edges:
                assert layout.points[lo][1] < layout.points[hi][1]
            repaired = repair_incidences(layout)
            for lo, hi in repaired.edges:
                assert repaired.points[lo][1] < repaired.points[hi][1]

            # no node within tolerance of a non-incident edge after repair
            pts = repaired.points
            if pts:
                xs = [p[0] for p in pts]
                ys = [p[1] for p in pts]
                diag = ((max(xs) - min(xs)) ** 2
                        + (max(ys) - min(ys)) ** 2) ** 0.5 or 1.0
                threshold = 1e-3 * diag
                for node in range(lat.n):
                    for u, v in repaired.edges:
                        if node in (u, v):
                            continue
                        dist = closed_form_point_segment_distance(
                            pts[node], pts[u], pts[v])
                        assert dist >= threshold, (node, (u, v))


def test_criterion_8_byte_determinism(tmp_path):
    with criterion(8, "two draw runs emit byte-identical SVG/TikZ/JSON"):
        source = tmp_path / "life.cxt"
        source.write_text(life_cxt_text(), encoding="utf-8")
        for fmt, suffix in (("svg", ".svg"), ("tikz", ".tex"), ("json", ".json")):
            first = tmp_path / f"first{suffix}"
            second = tmp_path / f"second{suffix}"
            assert main(["draw", str(source), "--format", fmt,
                         "-o", str(first)]) == 0
            assert main(["draw", str(source), "--format", fmt,
                         "-o", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes()
        # the JSON artifact is well-formed and complete
        doc = json.loads((tmp_path / "first.json").read_text(encoding="utf-8"))
        assert len(doc["concepts"]) == 19 and doc["dimension"] == 3
