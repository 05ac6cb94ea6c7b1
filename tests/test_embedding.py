import random

import pytest

from dimdraw import (ContractViolation, LinearExtension, Realizer, concepts,
                     embed, order_dimension, realizer_from_cover,
                     verify_realizer)
from helpers import (chain_context, leq, life_context, life_letter_map,
                     minimal_realizer, random_context, LIFE_CHAIN_1,
                     LIFE_CHAIN_2, LIFE_CHAIN_3, LIFE_LETTER_COORDS)

LETTERS = sorted(LIFE_LETTER_COORDS)


def _letter_extension(chain):
    return LinearExtension([LETTERS.index(c) for c in chain])


def test_positions_on_first_reference_chain():
    pos = _letter_extension(LIFE_CHAIN_1).pos
    assert pos[LETTERS.index("S")] == 0
    assert pos[LETTERS.index("A")] == 18
    assert pos[LETTERS.index("E")] == 15


def test_positions_singleton():
    assert LinearExtension((0,)).pos == (0,)


def test_embed_reproduces_reference_coordinates():
    lat = concepts(life_context())
    iso = life_letter_map(lat)
    real = Realizer(tuple(
        LinearExtension([iso[c] for c in chain])
        for chain in (LIFE_CHAIN_1, LIFE_CHAIN_2, LIFE_CHAIN_3)))
    emb = embed(lat, real)
    assert emb.dim == 3
    for letter, expected in LIFE_LETTER_COORDS.items():
        assert emb.coords[iso[letter]] == expected


def test_embed_two_chain():
    ctx = chain_context(1)  # two concepts
    lat = concepts(ctx)
    real = minimal_realizer(ctx, lat)
    emb = embed(lat, real)
    assert emb.coords == ((0,), (1,))


def test_embed_rejects_invalid_realizer():
    lat = concepts(life_context())
    ext = LinearExtension(range(lat.n))
    with pytest.raises(ContractViolation):
        embed(lat, Realizer((ext,)))


def test_axes_are_permutations_and_coords_injective():
    rng = random.Random(3)
    for _ in range(60):
        ctx = random_context(rng)
        lat = concepts(ctx)
        d, cover = order_dimension(ctx)
        emb = embed(lat, realizer_from_cover(ctx, lat, cover))
        for axis in range(emb.dim):
            ranks = sorted(c[axis] for c in emb.coords)
            assert ranks == list(range(lat.n))
        assert len(set(emb.coords)) == lat.n


def test_dominance_equivalence_both_directions():
    rng = random.Random(4)
    for _ in range(60):
        ctx = random_context(rng)
        lat = concepts(ctx)
        d, cover = order_dimension(ctx)
        emb = embed(lat, realizer_from_cover(ctx, lat, cover))
        for i in range(lat.n):
            for j in range(lat.n):
                dominated = all(a <= b for a, b in zip(emb.coords[i],
                                                       emb.coords[j]))
                assert dominated == leq(lat, i, j)


def test_embedding_is_deterministic():
    ctx = life_context()
    lat = concepts(ctx)
    real = minimal_realizer(ctx, lat)
    assert embed(lat, real).coords == embed(lat, real).coords
    assert verify_realizer(lat, real)
