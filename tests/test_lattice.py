import random

import pytest

import dimdraw.lattice
from dimdraw import (ContractViolation, LatticeTooLargeError,
                     concepts, derive_attributes, derive_objects,
                     transitive_reduction, write_cxt)
from dimdraw.cli import main
from dimdraw.lattice import ConceptLattice
from helpers import (brute_concepts, brute_covers, chain_context,
                     context_from_pairs, contra_nominal, crown_context,
                     down_mask_covers, leq, life_context, pairwise_up_masks,
                     random_context, reference_concept_listing,
                     reference_extents, seeded_context)


def _attr_idx(ctx, names):
    return {ctx.attributes.index(n) for n in names}


def test_derive_empty_object_set_gives_all_attributes():
    ctx = life_context()
    assert derive_objects(ctx, set()) == frozenset(range(9))
    assert derive_attributes(ctx, set()) == frozenset(range(8))


def test_derive_life_object_seven():
    ctx = life_context()
    # row "7" of the table reads X.XXX....
    assert derive_objects(ctx, {6}) == frozenset(_attr_idx(ctx, "acde"))


def test_derive_life_attribute_e_and_a():
    ctx = life_context()
    e = ctx.attributes.index("e")
    assert derive_attributes(ctx, {e}) == frozenset({6})
    a = ctx.attributes.index("a")
    assert derive_attributes(ctx, {a}) == frozenset(range(8))


def test_derive_shared_attribute_survives_full_extent():
    ctx = life_context()
    a = ctx.attributes.index("a")
    assert a in derive_objects(ctx, range(8))


def test_derive_out_of_range():
    ctx = life_context()
    with pytest.raises(IndexError):
        derive_objects(ctx, {99})
    with pytest.raises(IndexError):
        derive_attributes(ctx, {99})


def test_derive_rejects_an_index_that_is_not_an_int():
    ctx = life_context()
    for g in (1.5, 1.0, "1", None):
        with pytest.raises(IndexError, match=f"^object index {g} out of range$"):
            derive_objects(ctx, [g])
    for m in (0.5, 0.0, "0", None):
        with pytest.raises(IndexError, match=f"^attribute index {m} out of range$"):
            derive_attributes(ctx, [m])


def test_life_has_nineteen_concepts():
    assert concepts(life_context()).n == 19


def test_contra_nominal_three_is_boolean_cube():
    lat = concepts(contra_nominal(3))
    assert lat.n == 8
    assert len(lat.covers) == 12


def test_smallest_contexts():
    full = context_from_pairs(("g",), ("m",), frozenset({(0, 0)}))
    lat = concepts(full)
    assert lat.n == 1
    assert len(brute_concepts(full)) == 1

    empty = context_from_pairs(("g",), ("m",), frozenset())
    lat = concepts(empty)
    assert lat.n == 2
    assert len(brute_concepts(empty)) == 2


def test_concepts_match_brute_force_on_all_3x3():
    for bits in range(512):
        inc = frozenset((g, m) for g in range(3) for m in range(3)
                        if bits >> (g * 3 + m) & 1)
        ctx = context_from_pairs(("g0", "g1", "g2"), ("m0", "m1", "m2"), inc)
        lat = concepts(ctx)
        got = {(c.extent, c.intent) for c in lat.concepts}
        assert got == brute_concepts(ctx)


def test_concepts_match_brute_force_on_sampled_4x4():
    rng = random.Random(42)
    for _ in range(200):
        ctx = random_context(rng, 4, 4)
        lat = concepts(ctx)
        got = {(c.extent, c.intent) for c in lat.concepts}
        assert got == brute_concepts(ctx)


def test_canonical_order_and_extremes():
    lat = concepts(life_context())
    masks = [c.extent_mask for c in lat.concepts]
    assert masks == sorted(masks)
    top = lat.n - 1
    assert lat.concepts[0].extent == frozenset()
    assert lat.concepts[top].extent == frozenset(range(8))
    assert lat.up_masks[0] == (1 << lat.n) - 1
    assert lat.up_masks[top] == 1 << top


def test_closure_properties_sampled():
    rng = random.Random(7)
    for _ in range(100):
        ctx = random_context(rng)
        subset = frozenset(g for g in range(ctx.n_objects) if rng.random() < 0.5)
        primed = derive_objects(ctx, subset)
        double = derive_attributes(ctx, primed)
        assert subset <= double
        assert derive_objects(ctx, double) == primed


def test_transitive_reduction_chain_and_cube():
    lat3 = concepts(chain_context(2))  # 3-chain
    assert lat3.n == 3
    assert len(lat3.covers) == 2

    cube = concepts(contra_nominal(3))
    assert len(cube.covers) == 12


def test_life_covers_match_double_loop_oracle():
    lat = concepts(life_context())
    oracle = brute_covers(lat)
    assert set(lat.covers) == oracle
    assert len(lat.covers) == 32


def test_covers_oracle_on_random_contexts():
    rng = random.Random(13)
    for _ in range(50):
        lat = concepts(random_context(rng))
        assert set(lat.covers) == brute_covers(lat)
        # reachability closure of covers equals the strict order
        n = lat.n
        adj = [0] * n
        for lo, hi in lat.covers:
            adj[lo] |= 1 << hi
        reach = [adj[i] | (1 << i) for i in range(n)]
        for k in range(n):
            for i in range(n):
                if reach[i] >> k & 1:
                    reach[i] |= reach[k]
        assert tuple(reach) == lat.up_masks


def test_transitive_reduction_direct_input():
    # 4-chain given directly as up-set masks
    masks = [0b1111, 0b1110, 0b1100, 0b1000]
    assert transitive_reduction(masks) == ((0, 1), (1, 2), (2, 3))


def test_transitive_reduction_rejects_non_linear_extension():
    # index 1 lies below index 0, so the lowest index is no longer a cover
    with pytest.raises(ValueError, match="linear extension"):
        transitive_reduction([0b01, 0b11])
    with pytest.raises(ValueError, match="linear extension"):
        transitive_reduction([0b111, 0b110, 0b101])
    # an up-set without its own index never clears it, and a bit past
    # the last index reads a mask that is not there
    for masks in ([3, 1], [0b11, 0], [0b101], [0b1, 0b110], [-1]):
        with pytest.raises(ValueError, match="linear extension"):
            transitive_reduction(masks)


def test_transitive_reduction_rejects_a_mask_that_is_not_an_int():
    for masks in ([1.0], [0b11, 2.0], ["1"], [None]):
        with pytest.raises(ValueError, match="linear extension"):
            transitive_reduction(masks)


def _seeded_120():
    """120 seeded contexts of 2 to 12 objects and attributes."""
    return [seeded_context(2 + s % 11, 2 + 7 * s % 11,
                           (0.25, 0.5, 0.75)[s % 3], s) for s in range(120)]


def test_order_matches_pairwise_and_down_mask_references():
    # the up-sets and covers are the tuples the pairwise extent test and
    # the down-set reduction give, in the same order
    contexts = _seeded_120()
    contexts += [seeded_context(20, 20, 0.5, 1), contra_nominal(6),
                 crown_context(12), chain_context(5), life_context(),
                 context_from_pairs(("g",), ("m",), frozenset()),
                 context_from_pairs(("g", "h"), ("m",), {(0, 0), (1, 0)})]
    for ctx in contexts:
        lat = concepts(ctx)
        extents = [c.extent_mask for c in lat.concepts]
        assert lat.up_masks == tuple(pairwise_up_masks(extents))
        assert lat.covers == down_mask_covers(lat.up_masks)
    assert lat.n == 1 and lat.covers == ()
    assert concepts(contexts[120]).n == 600


def test_object_masks_are_the_up_sets_of_the_object_concepts():
    # the concepts holding g are those above g's object concept, which
    # is what verify_realizer checks the extensions against
    contexts = _seeded_120() + [crown_context(12), contra_nominal(5),
                                context_from_pairs((), ("m",), frozenset())]
    for ctx in contexts:
        lat = concepts(ctx)
        extents = [c.extent_mask for c in lat.concepts]
        assert len(lat.object_masks) == ctx.n_objects
        for g in range(ctx.n_objects):
            closure = derive_attributes(ctx, derive_objects(ctx, {g}))
            object_concept = extents.index(sum(1 << h for h in closure))
            assert lat.object_masks[g] == lat.up_masks[object_concept], (ctx, g)
    assert "object_masks" in vars(lat)


def _byte_edges():
    """Contexts with 0, 1, 7, 8, 9, 16 and 17 objects and attributes,
    contranominal 7, 8 and 9 (128, 256 and 512 concepts), one with names
    the listing does not escape, and 1 x 3000 and 9 x 300 contexts."""
    sizes = (0, 1, 7, 8, 9, 16, 17)
    contexts = [seeded_context(g, m, 0.5, 31 * g + m) for g in sizes for m in sizes]
    contexts += [contra_nominal(n) for n in (7, 8, 9)]
    names = ("", ",", "{", "}", "\t", "a b", "7", "8", "9")
    contexts.append(context_from_pairs(names, names[::-1], contra_nominal(9).incidence))
    contexts += [seeded_context(1, 3000, 0.5, 0), seeded_context(9, 300, 0.5, 0)]
    return contexts


def test_concepts_are_mask_native(tmp_path, capsys):
    # the sets are derived from the masks, and the CLI listing and the
    # intents, which decode the masks bit by bit below 256 concepts and by
    # byte tables from 256 on, are the ones the references give
    path = tmp_path / "ctx.cxt"
    edges = _byte_edges()
    assert {concepts(ctx).n >= 256 for ctx in edges} == {False, True}
    for ctx in _seeded_120() + edges:
        lat = concepts(ctx)
        for c in lat.concepts:
            assert c.extent == frozenset(g for g in range(ctx.n_objects)
                                         if c.extent_mask >> g & 1)
            assert c.intent == derive_objects(ctx, c.extent)
        path.write_text(write_cxt(ctx), encoding="utf-8")
        assert main(["concepts", str(path)]) == 0
        assert capsys.readouterr().out == reference_concept_listing(ctx, lat)


def test_lazy_order_checks_its_bottom_and_top_rows():
    # a concept list out of extent order has no bottom at index 0
    lat = concepts(life_context())
    assert "up_masks" not in vars(lat)
    with pytest.raises(ContractViolation, match="unique bottom or top"):
        ConceptLattice(lat.concepts[::-1]).up_masks


def test_incomparable_pairs():
    def incomparable(lat):
        return {(i, j) for i in range(lat.n) for j in range(i + 1, lat.n)
                if not leq(lat, i, j) and not leq(lat, j, i)}

    lat = concepts(contra_nominal(2))
    assert incomparable(lat) == {(1, 2)}
    chain = concepts(chain_context(3))
    assert lat.n == 4
    assert incomparable(chain) == set()


def test_concept_cap_is_explicit(monkeypatch):
    # contranominal n has 2^n concepts: a cap below that raises, in the
    # closure and in the frontier reference alike, and a cap of 2^n passes
    for n, cap in ((4, 10), (5, 17), (5, 31)):
        monkeypatch.setattr(dimdraw.lattice, "CONCEPT_CAP", cap)
        with pytest.raises(LatticeTooLargeError, match=f"more than {cap} concepts"):
            concepts(contra_nominal(n))
        with pytest.raises(LatticeTooLargeError):
            reference_extents(contra_nominal(n))
    for n in (4, 5):
        monkeypatch.setattr(dimdraw.lattice, "CONCEPT_CAP", 2 ** n)
        lat = concepts(contra_nominal(n))
        assert lat.n == 2 ** n
        assert {c.extent_mask for c in lat.concepts} == reference_extents(
            contra_nominal(n))


def test_concepts_match_the_frontier_reference():
    # one closure step per attribute against the breadth-first frontier,
    # on seeded contexts and on no objects, no attributes, neither, and
    # empty and full incidence
    rng = random.Random(30)
    contexts = [random_context(rng, 9, 9) for _ in range(400)]
    contexts += [context_from_pairs((), ("m", "n"), ()),
                 context_from_pairs(("g", "h"), (), ()),
                 context_from_pairs((), (), ()),
                 context_from_pairs(("g", "h"), ("m", "n", "o"), ()),
                 context_from_pairs(("g", "h"), ("m", "n", "o"),
                                    {(g, m) for g in range(2) for m in range(3)}),
                 seeded_context(20, 20, 0.5, 1), contra_nominal(7), life_context()]
    for ctx in contexts:
        extents = [c.extent_mask for c in concepts(ctx).concepts]
        assert extents == sorted(reference_extents(ctx)), ctx
