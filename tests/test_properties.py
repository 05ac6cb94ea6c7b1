"""Property suites over randomly generated inputs."""

import json
import string

from hypothesis import given, settings, strategies as st

from dimdraw import (CycleError, PosetInput, certificate_json,
                     concepts, derive_attributes, derive_objects,
                     ferrers_cover, is_ferrers, order_dimension, parse_csv,
                     parse_cxt, poset_to_context, realizer_from_cover,
                     write_cxt)
from helpers import complement, context_from_pairs, leq, quantifier_is_ferrers

_SAFE = string.ascii_letters + string.digits + "_-"


@st.composite
def contexts(draw, max_objects=5, max_attributes=5, safe_names=False):
    n_g = draw(st.integers(0, max_objects))
    n_m = draw(st.integers(0, max_attributes))
    if safe_names:
        name = st.text(alphabet=_SAFE, min_size=1, max_size=6)
    else:
        name = st.text(
            alphabet=st.characters(blacklist_characters="\n\r"), max_size=6)
    objects = draw(st.lists(name, min_size=n_g, max_size=n_g, unique=True))
    attributes = draw(st.lists(name, min_size=n_m, max_size=n_m, unique=True))
    if n_g and n_m:
        cells = draw(st.frozensets(st.tuples(st.integers(0, n_g - 1),
                                             st.integers(0, n_m - 1))))
    else:
        cells = frozenset()
    return context_from_pairs(tuple(objects), tuple(attributes), cells)


@st.composite
def cell_relations(draw, max_objects=6, max_attributes=6):
    n_g = draw(st.integers(1, max_objects))
    n_m = draw(st.integers(1, max_attributes))
    cells = draw(st.frozensets(st.tuples(st.integers(0, n_g - 1),
                                         st.integers(0, n_m - 1))))
    return n_g, n_m, cells


@given(contexts())
def test_cxt_round_trip(ctx):
    assert parse_cxt(write_cxt(ctx)) == ctx


@given(contexts(safe_names=True))
def test_csv_and_cxt_agree_on_the_same_table(ctx):
    rows = ctx.rows
    lines = [",".join(["name"] + list(ctx.attributes))]
    for g, obj in enumerate(ctx.objects):
        cells = ["X" if rows[g] >> m & 1 else ""
                 for m in range(ctx.n_attributes)]
        lines.append(",".join([obj] + cells))
    csv_ctx = parse_csv("\n".join(lines) + "\n")
    assert csv_ctx == parse_cxt(write_cxt(ctx))


@given(contexts(), st.data())
def test_derivation_closure_properties(ctx, data):
    if ctx.n_objects:
        subset = frozenset(data.draw(st.sets(
            st.integers(0, ctx.n_objects - 1))))
    else:
        subset = frozenset()
    primed = derive_objects(ctx, subset)
    double = derive_attributes(ctx, primed)
    assert subset <= double
    assert derive_objects(ctx, double) == primed


@given(cell_relations())
def test_ferrers_characterizations_agree(rel):
    n_g, n_m, cells = rel
    assert is_ferrers(n_g, n_m, cells) == quantifier_is_ferrers(cells)


@given(cell_relations())
def test_ferrers_complement_closure(rel):
    n_g, n_m, cells = rel
    assert is_ferrers(n_g, n_m, cells) == \
        is_ferrers(n_g, n_m, complement(n_g, n_m, cells))


@given(cell_relations())
def test_complement_involution(rel):
    n_g, n_m, cells = rel
    assert complement(n_g, n_m, complement(n_g, n_m, cells)) == cells


@settings(max_examples=50, deadline=None)
@given(contexts(max_objects=4, max_attributes=4))
def test_realizer_extensions_preserve_order(ctx):
    lat = concepts(ctx)
    d, cover = order_dimension(ctx)
    real = realizer_from_cover(ctx, lat, cover)
    assert real.dim == d
    for ext in real.extensions:
        for i in range(lat.n):
            for j in range(lat.n):
                if leq(lat, i, j):
                    assert ext.pos[i] <= ext.pos[j]
                    assert (ext.pos[i] < ext.pos[j]) == (i != j)


@settings(max_examples=60, deadline=None)
@given(contexts(max_objects=6, max_attributes=6, safe_names=True))
def test_cover_cells_are_read_off_its_rows(ctx):
    # every witness up to one part past the dimension: the cells derived
    # on read, and the certificate's row-major cells, are the sorted cells
    # of the rows the search built
    lat = concepts(ctx)
    d, _ = order_dimension(ctx)
    for k in range(1, d + 2):
        cover = ferrers_cover(ctx, k)
        if cover is None:
            continue
        assert cover.k == k and all(len(rows) == ctx.n_objects
                                    for rows in cover.rows)
        assert cover.parts == tuple(
            frozenset((g, m) for g in range(ctx.n_objects)
                      for m in range(ctx.n_attributes) if rows[g] >> m & 1)
            for rows in cover.rows)
        real = realizer_from_cover(ctx, lat, cover)
        doc = json.loads(certificate_json(ctx, lat, k, cover, real))
        assert doc["ferrers_parts"] == [[list(c) for c in sorted(part)]
                                        for part in cover.parts]


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=16))))
def test_poset_cycle_iff_rejected_else_closure(case):
    # self-pairs x < x are allowed in the input and must stay harmless
    n, pairs = case
    names = tuple(f"e{i}" for i in range(n))
    relation = frozenset((names[a], names[b]) for a, b in pairs)
    reach = []  # plain reachability over the pairs other than x < x
    for i in range(n):
        seen, todo = {i}, [i]
        while todo:
            v = todo.pop()
            for a, b in pairs:
                if a == v != b and b not in seen:
                    seen.add(b)
                    todo.append(b)
        reach.append(seen)
    cyclic = any(i in reach[j] for i in range(n) for j in reach[i] if j != i)
    try:
        ctx = poset_to_context(PosetInput(names, relation))
    except CycleError as err:
        assert cyclic
        witness = err.witness
        assert len(witness) >= 3 and witness[0] == witness[-1]
        assert all(step in relation for step in zip(witness, witness[1:]))
        return
    assert not cyclic
    assert ctx.incidence == {(i, j) for i in range(n) for j in reach[i]}


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12))
def test_poset_closure_is_reflexive_transitive(pairs):
    from dimdraw import CycleError
    names = tuple(f"e{i}" for i in range(6))
    relation = frozenset((names[a], names[b]) for a, b in pairs)
    try:
        ctx = poset_to_context(PosetInput(names, relation))
    except CycleError:
        return  # cyclic inputs are rejected; nothing further to check
    inc = ctx.incidence
    n = len(names)
    assert all((i, i) in inc for i in range(n))
    for i in range(n):
        for j in range(n):
            if (i, j) in inc:
                for k in range(n):
                    if (j, k) in inc:
                        assert (i, k) in inc
