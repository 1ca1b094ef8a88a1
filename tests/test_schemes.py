"""Flag configurations: bases, condition rows, dictionary, splitting."""

import dataclasses
import json
from collections import Counter
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secantdim import schemes
from secantdim.linalg import DEFAULT_MODULUS, FieldConfig, matrix_from_rows, rank
from secantdim.monomials import derivative_rows, evaluation_row, graded_basis
from secantdim.schemes import (
    SchemePoint,
    SchemeSpec,
    _row_bound,
    add_v_spans,
    best_scheme_dimension,
    castelnuovo_check,
    project_from_h1,
    projected_scheme,
    residual_trace,
    sample_scheme,
    scheme_basis,
    scheme_basis_size,
    scheme_from_dict,
    scheme_ideal_dimension,
    scheme_to_dict,
    span_rows,
    v_span_dimensions,
    verify_dictionary,
)
from secantdim.terracini import (
    SampleConfig,
    SegreVeroneseParams,
    derived_rng,
    draw_projective_point,
)

MOD = FieldConfig()
CFG = SampleConfig(seed=0, trials=2)


def _generic_point(nvars, seed, on_h_index=None):
    rng = derived_rng(seed)
    return draw_projective_point(
        rng, nvars, MOD.modulus, zero_coord=on_h_index, nonzero_tail=nvars - 1
    )


def restricted_basis(n, m, d):
    """The flag basis of degree d+1 listed explicitly, as a reference.

    Vanishing to order d on H1 forces b-degree >= d, and through H2 forces
    divisibility by some a_i or by b_0; what survives in degree d+1 is
    a_i * (degree-d monomial in b) for each i, then b_0 * (degree-d
    monomial in b). Exactly (n+1) * C(m+d, d) monomials, in that order.
    """
    ydeg = graded_basis(m + 1, d).monomials
    out = []
    for i in range(n):
        prefix = (0,) * i + (1,) + (0,) * (n - 1 - i)
        out.extend(prefix + beta for beta in ydeg)
    out.extend((0,) * n + (beta[0] + 1,) + beta[1:] for beta in ydeg)
    return tuple(out)


def test_restricted_basis_shape():
    basis = restricted_basis(1, 2, 3)
    assert len(basis) == 20
    # first block: a_0 times the ten cubic b-monomials
    assert all(mono[0] == 1 and sum(mono[1:]) == 3 for mono in basis[:10])
    # second block: b_0 times the ten cubic b-monomials
    assert all(mono[0] == 0 and mono[1] >= 1 for mono in basis[10:])
    assert len(restricted_basis(2, 1, 3)) == 12


def test_restricted_basis_matches_filtered_graded_basis():
    # the generic filter lists the flag basis in the explicit order
    for n, m, d in [(1, 2, 3), (2, 1, 3), (2, 2, 4), (3, 1, 2), (3, 3, 5)]:
        spec = SchemeSpec(n=n, m=m, d=d, fat_h1=d, include_h2=True)
        assert scheme_basis(spec, d + 1) == restricted_basis(n, m, d)


def test_scheme_basis_without_flag_components():
    spec = SchemeSpec(n=0, m=2, d=3)
    assert scheme_basis(spec, 3) == graded_basis(3, 3).monomials
    cone = SchemeSpec(n=1, m=2, d=3, fat_h1=3)
    # degree-3 cone basis: only pure-b monomials survive
    assert all(mono[0] == 0 for mono in scheme_basis(cone, 3))
    assert len(scheme_basis(cone, 3)) == 10


def test_double_point_rows_generic_rank():
    basis = restricted_basis(1, 2, 3)
    point = _generic_point(4, 5)
    rows = derivative_rows(basis, point, MOD)
    assert len(rows) == 4
    assert rank(matrix_from_rows(rows, len(basis), MOD), MOD) == 4


def test_double_point_value_row_is_dependent():
    # Euler with modulus > degree: the evaluation row lies in the span of
    # the partial rows
    basis = restricted_basis(2, 2, 3)
    point = _generic_point(5, 6)
    rows = derivative_rows(basis, point, MOD)
    with_value = np.vstack([rows, evaluation_row(basis, point, MOD)])
    cols = len(basis)
    assert rank(matrix_from_rows(rows, cols, MOD), MOD) == rank(
        matrix_from_rows(with_value, cols, MOD), MOD
    )


def test_double_point_on_h1_kills_all_rows():
    # with b = 0 every basis monomial and every partial has positive
    # b-degree left, so the whole block vanishes
    basis = restricted_basis(2, 2, 3)
    point = (3, 8, 0, 0, 0)
    rows = derivative_rows(basis, point, MOD)
    assert all(all(x == 0 for x in row) for row in rows)


def test_w_space_rows_closed_form():
    # on the flag basis a span through H1 imposes n+1 conditions: the
    # values at anchor + e_i for each mu variable i, then the value at the
    # anchor
    n, m, d = 2, 2, 3
    basis = restricted_basis(n, m, d)
    anchor = _generic_point(n + m + 1, 7)
    rows = span_rows(basis, n, anchor, MOD)
    assert len(rows) == n + 1
    for i in range(n):
        shifted = tuple(c + (v == i) for v, c in enumerate(anchor))
        assert rows[i].tolist() == evaluation_row(basis, shifted, MOD).tolist()
    assert rows[n].tolist() == evaluation_row(basis, anchor, MOD).tolist()
    assert rank(matrix_from_rows(rows, len(basis), MOD), MOD) == n + 1


def test_w_space_rows_rejects_anchor_on_h1():
    with pytest.raises(ValueError):
        span_rows(restricted_basis(2, 2, 3), 2, (1, 2, 0, 0, 0), MOD)


def test_span_rows_on_pure_b_basis_is_one_evaluation():
    cone = SchemeSpec(n=1, m=2, d=3, fat_h1=3)
    basis = scheme_basis(cone, 3)
    anchor = _generic_point(4, 8)
    rows = span_rows(basis, 1, anchor, MOD)
    assert len(rows) == 1
    assert rows[0].tolist() == evaluation_row(basis, anchor, MOD).tolist()


def test_scheme_ideal_dimension_frozen_values():
    params = SegreVeroneseParams(1, 2, 3)
    rng = derived_rng(9)
    empty = sample_scheme(params, 0, 0, rng, MOD.modulus)
    assert scheme_ideal_dimension(empty, 4, MOD) == 20
    two = sample_scheme(params, 2, 0, derived_rng(10), MOD.modulus)
    assert scheme_ideal_dimension(two, 4, MOD) == 12
    crowded = sample_scheme(params, 2, 12, derived_rng(11), MOD.modulus)
    assert scheme_ideal_dimension(crowded, 4, MOD) == 0


def test_scheme_spec_validation():
    with pytest.raises(ValueError):
        SchemeSpec(n=1, m=2, d=3, fat_h1=2)
    with pytest.raises(ValueError):
        SchemeSpec(n=1, m=2, d=3, double_points=(SchemePoint((1, 2, 3)),))
    with pytest.raises(ValueError):
        SchemeSpec(n=1, m=2, d=3, double_points=(SchemePoint((0, 0, 0, 0)),))
    with pytest.raises(ValueError):
        SchemeSpec(
            n=2, m=1, d=3, double_points=(SchemePoint((1, 2, 3, 4), on_h=True),)
        )
    with pytest.raises(ValueError):
        SchemeSpec(n=1, m=2, d=3, w_anchors=((5, 0, 0, 0),))
    with pytest.raises(ValueError):
        SchemeSpec(n=1, m=2, d=3, v_spans=(0,))
    with pytest.raises(ValueError):
        SchemeSpec(n=0, m=2, d=3, fat_h1=3)


def test_verify_dictionary_values():
    check = verify_dictionary(SegreVeroneseParams(1, 2, 3), 2, CFG)
    assert (check.lhs, check.rhs) == (12, 12)
    check = verify_dictionary(SegreVeroneseParams(1, 1, 3), 0, CFG)
    assert (check.lhs, check.rhs) == (8, 8)
    check = verify_dictionary(SegreVeroneseParams(2, 1, 3), 3, CFG)
    assert (check.lhs, check.rhs) == (0, 0)


def test_add_v_spans_invariance():
    params = SegreVeroneseParams(1, 2, 3)
    spec = sample_scheme(params, 2, 0, derived_rng(12), MOD.modulus)
    spanned = add_v_spans(spec)
    assert spanned.v_spans == (0, 1)
    assert scheme_ideal_dimension(spec, 4, MOD) == 12
    assert scheme_ideal_dimension(spanned, 4, MOD) == 12


def test_add_v_spans_edge_cases():
    params = SegreVeroneseParams(1, 2, 3)
    empty = sample_scheme(params, 0, 1, derived_rng(13), MOD.modulus)
    assert add_v_spans(empty) is empty
    bare = SchemeSpec(
        n=1,
        m=2,
        d=3,
        double_points=(SchemePoint(_generic_point(4, 14)),),
    )
    with pytest.raises(ValueError):
        add_v_spans(bare)


def test_residual_trace_component_bookkeeping():
    params = SegreVeroneseParams(2, 2, 3)
    spec = add_v_spans(
        sample_scheme(params, 3, 1, derived_rng(15), MOD.modulus, specialize=True)
    )
    pair = residual_trace(spec, 4)
    res, tr = pair.residual, pair.trace
    assert (pair.residual_degree, pair.trace_degree) == (3, 4)
    # residual: 1 double off H, 2 on-H doubles now simple, H2 gone,
    # spans kept, frame unchanged
    assert res.n == 2 and not res.include_h2 and res.fat_h1 == 3
    assert len(res.double_points) == 1 and len(res.simple_points) == 2
    assert len(res.v_spans) == 3 and len(res.w_anchors) == 1
    # trace: frame drops a_1; 2 traced doubles, their spans kept as spans,
    # the off-H double's span and the free anchor become trace anchors
    assert tr.n == 1 and tr.include_h2 and tr.fat_h1 == 3
    assert len(tr.double_points) == 2 and len(tr.v_spans) == 2
    assert len(tr.w_anchors) == 2
    on_h = [pt for pt in spec.double_points if pt.on_h]
    assert tr.double_points[0].coords == on_h[0].coords[:1] + on_h[0].coords[2:]


def test_residual_trace_collapse_to_points():
    # n = 1: the trace frame loses H1, spans collapse to their anchors
    params = SegreVeroneseParams(1, 2, 3)
    spec = add_v_spans(
        sample_scheme(params, 2, 1, derived_rng(16), MOD.modulus, specialize=True)
    )
    pair = residual_trace(spec, 4)
    tr = pair.trace
    assert tr.n == 0 and tr.fat_h1 == 0 and tr.include_h2
    assert len(tr.double_points) == 1  # the on-H double point
    # the off-H double's span and the free anchor land as simple points
    assert len(tr.simple_points) == 2
    assert tr.v_spans == () and tr.w_anchors == ()


def test_residual_trace_requires_a_block():
    with pytest.raises(ValueError):
        residual_trace(SchemeSpec(n=0, m=2, d=3), 4)


def test_trace_spans_at_double_points_are_base_locus():
    # numerically: removing the traced spans anchored at trace double
    # points does not change the trace dimension
    params = SegreVeroneseParams(2, 2, 3)
    spec = add_v_spans(
        sample_scheme(params, 3, 1, derived_rng(17), MOD.modulus, specialize=True)
    )
    tr = residual_trace(spec, 4).trace
    stripped = dataclasses.replace(tr, v_spans=())
    assert scheme_ideal_dimension(tr, 4, MOD) == scheme_ideal_dimension(
        stripped, 4, MOD
    )


@st.composite
def split_specs(draw):
    """Any valid configuration with n >= 1. Coordinates are small, so points
    often land on H = {a_{n-1} = 0} and on each other, and a double point
    on H may carry the on_h label False, as a free draw that hit H does."""
    n, m, d = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 3))
    coords = st.tuples(*[st.integers(0, 2)] * (n + m + 1)).filter(any)
    off_h1 = coords.filter(lambda c: any(c[n:]))
    doubles = tuple(
        SchemePoint(c, c[n - 1] == 0 and draw(st.booleans()))
        for c in draw(st.lists(coords, max_size=3))
    )
    simples = tuple(draw(st.lists(coords, max_size=3)))
    points = [pt.coords for pt in doubles] + list(simples)
    spannable = [i for i, c in enumerate(points) if any(c[n:])]
    v_spans = (
        draw(st.lists(st.sampled_from(spannable), max_size=3)) if spannable else []
    )
    return SchemeSpec(
        n=n,
        m=m,
        d=d,
        fat_h1=draw(st.sampled_from((0, d))),
        include_h2=draw(st.booleans()),
        double_points=doubles,
        simple_points=simples,
        w_anchors=tuple(draw(st.lists(off_h1, max_size=2))),
        v_spans=tuple(v_spans),
    )


def _span_anchors(spec):
    indexed = [pt.coords for pt in spec.double_points] + list(spec.simple_points)
    return [indexed[i] for i in spec.v_spans] + list(spec.w_anchors)


# a span anchored at a simple point on H
SPAN_AT_SIMPLE_ON_H = SchemeSpec(
    n=2, m=1, d=3, simple_points=((1, 0, 2, 3),), v_spans=(0,)
)
# a double point drawn freely that lands on H; left double in the residual
# it would break the bound in degree 2: total 3 > residual 0 + trace 2
FREE_DOUBLE_ON_H = SchemeSpec(
    n=1, m=1, d=1, include_h2=True, double_points=(SchemePoint((0, 0, 1)),)
)


@settings(max_examples=300, deadline=None)
@given(split_specs())
@example(SPAN_AT_SIMPLE_ON_H)
@example(FREE_DOUBLE_ON_H)
def test_residual_trace_splits_every_component_by_coordinates(spec):
    h = spec.n - 1
    pair = residual_trace(spec, 4)
    res, tr = pair.residual, pair.trace

    def on_h(coords):
        return coords[h] == 0

    def drop(coords):
        return coords[:h] + coords[h + 1 :]

    doubles = [pt.coords for pt in spec.double_points]
    # a double point off H stays double; on H it leaves a simple point in
    # the residual and a double point in the trace
    assert [pt.coords for pt in res.double_points] == [
        c for c in doubles if not on_h(c)
    ]
    assert [pt.coords for pt in tr.double_points] == [
        drop(c) for c in doubles if on_h(c)
    ]
    # a simple point goes to the residual off H and to the trace on H
    assert Counter(res.simple_points) == Counter(
        [c for c in doubles if on_h(c)]
        + [c for c in spec.simple_points if not on_h(c)]
    )
    traced = [drop(c) for c in spec.simple_points if on_h(c)]
    # every span passes whole to the residual and meets H in the span
    # through the image of its anchor, a point once H1 is gone (n = 1)
    assert Counter(_span_anchors(res)) == Counter(_span_anchors(spec))
    images = [drop(c) for c in _span_anchors(spec)]
    if spec.n > 1:
        assert Counter(_span_anchors(tr)) == Counter(images)
    else:
        assert _span_anchors(tr) == []
        traced += images
    # trace points are kept once, and not where a double point absorbs them
    assert len(set(tr.simple_points)) == len(tr.simple_points)
    assert set(tr.simple_points) == set(traced) - {
        pt.coords for pt in tr.double_points
    }
    # the flag stays in the residual, H2 only in the trace
    assert (res.n, res.fat_h1, res.include_h2) == (spec.n, spec.fat_h1, False)
    assert (tr.n, tr.fat_h1, tr.include_h2) == (
        h,
        spec.fat_h1 if h else 0,
        spec.include_h2,
    )


@settings(max_examples=100, deadline=None)
@given(split_specs())
@example(SPAN_AT_SIMPLE_ON_H)
@example(FREE_DOUBLE_ON_H)
def test_castelnuovo_bound_holds_for_every_configuration(spec):
    # an exact-sequence inequality: no configuration and no field violates it
    for degree in range(1, 6):
        assert castelnuovo_check(spec, degree, FieldConfig(modulus=7)).holds


def test_castelnuovo_frozen_split():
    params = SegreVeroneseParams(1, 2, 3)
    spec = add_v_spans(
        sample_scheme(params, 2, 0, derived_rng(18), MOD.modulus, specialize=True)
    )
    check = castelnuovo_check(spec, 4, MOD)
    assert (check.total, check.residual, check.trace) == (12, 6, 6)
    assert check.holds


def test_projection_frozen_values():
    params = SegreVeroneseParams(1, 2, 3)
    spec = add_v_spans(
        sample_scheme(params, 2, 0, derived_rng(19), MOD.modulus, specialize=True)
    )
    residual = residual_trace(spec, 4).residual
    check = project_from_h1(residual, MOD)
    # image in P^2: one double point and one simple point against the ten
    # cubic monomials: 10 - 3 - 1 = 6
    assert (check.residual_dim, check.projected_dim) == (6, 6)
    assert check.projected.n == 0 and check.projected.m == 2
    assert len(check.projected.double_points) == 1
    assert len(check.projected.simple_points) == 1


def test_projection_rejects_non_cone():
    spec = SchemeSpec(n=1, m=2, d=3, fat_h1=0)
    with pytest.raises(ValueError):
        project_from_h1(spec, MOD)
    flagged = SchemeSpec(n=1, m=2, d=3, fat_h1=3, include_h2=True)
    with pytest.raises(ValueError):
        project_from_h1(flagged, MOD)


def test_projection_empty_cone_counts():
    # no double points: projected scheme is t simple points in P^m
    params = SegreVeroneseParams(2, 2, 3)
    spec = sample_scheme(params, 0, 1, derived_rng(20), MOD.modulus)
    residual = dataclasses.replace(spec, include_h2=False)
    check = project_from_h1(residual, MOD)
    assert check.projected_dim == 10 - 1
    assert check.equal


def _reference_span_rows(basis, n, anchor, cfg):
    """The coefficients of F(qa + mu, qb) in the chart variables mu, one
    row per chart monomial, as a plain loop expanding each monomial term by
    term: the row space span_rows must have."""
    qa, qb = anchor[:n], anchor[n:]
    rows = {}
    for col, mono in enumerate(basis):
        alpha, beta = mono[:n], mono[n:]
        bval = 1
        for q, e in zip(qb, beta):
            bval = cfg.reduce(bval * cfg.reduce(q) ** e)
        terms = [((), 1)]
        for a_i, q_i in zip(alpha, qa):
            power = [cfg.reduce(cfg.reduce(q_i) ** k) for k in range(a_i + 1)]
            terms = [
                (gamma + (g,), cfg.reduce(c * comb(a_i, g) * power[a_i - g]))
                for gamma, c in terms
                for g in range(a_i + 1)
            ]
        for gamma, c in terms:
            if c:
                row = rows.setdefault(gamma, [0] * len(basis))
                row[col] = cfg.reduce(c * bval)
    return [rows[gamma] for gamma in sorted(rows, reverse=True)]


def assert_canonical_scalars(array, cfg):
    """int64 residues over GF(p); over Q, plain Python integers."""
    if cfg.is_modular:
        assert array.dtype == np.int64
        assert ((0 <= array) & (array < cfg.modulus)).all()
    else:
        assert array.dtype == object
        assert all(type(x) is int for x in array.flat)


@st.composite
def span_cases(draw):
    """A scheme basis and an anchor off H1, often with zero coordinates."""
    n, m, d = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    spec = SchemeSpec(
        n=n,
        m=m,
        d=d,
        fat_h1=draw(st.sampled_from((0, d))),
        include_h2=draw(st.booleans()),
    )
    basis = scheme_basis(spec, draw(st.sampled_from((d, d + 1))))
    coord = st.one_of(st.just(0), st.integers(-(10**12), 10**12))
    anchor = draw(st.lists(coord, min_size=n + m + 1, max_size=n + m + 1))
    if not any(anchor[n:]):
        anchor[n] = 1
    return basis, n, tuple(anchor)


SPAN_FIELDS = (MOD, FieldConfig(modulus=7), MOD.to_rational())


def assert_same_row_space(rows, reference, cols, cfg):
    """rows and reference have one rank, and stacked they have it still."""
    ranks = [
        rank(matrix_from_rows(block, cols, cfg), cfg)
        for block in (rows, reference, list(rows) + list(reference))
    ]
    assert ranks[0] == ranks[1] == ranks[2]


def lattice_size(basis, n):
    """C(D + n, n), D the largest a-degree of the basis."""
    top = max(sum(mono[:n]) for mono in basis)
    return comb(top + n, n)


@settings(max_examples=200, deadline=None)
@given(span_cases(), st.sampled_from(SPAN_FIELDS))
def test_span_rows_match_the_loop_expansion(case, cfg):
    basis, n, anchor = case
    rows = span_rows(basis, n, anchor, cfg)
    assert len(rows) == lattice_size(basis, n)
    reference = _reference_span_rows(basis, n, anchor, cfg)
    assert_same_row_space(rows.tolist(), reference, len(basis), cfg)
    assert_canonical_scalars(rows, cfg)


@st.composite
def span_stacks(draw):
    """A scheme basis and a stack of one to four anchors off H1, with zeros
    and with coordinates beyond int64."""
    basis, n, anchor = draw(span_cases())
    coord = st.one_of(
        st.just(0),
        st.integers(-(10**12), 10**12),
        st.integers(-(2**80), 2**80),
    )
    anchors = st.lists(coord, min_size=len(anchor), max_size=len(anchor)).filter(
        lambda coords: any(coords[n:])
    )
    return basis, n, draw(st.lists(anchors.map(tuple), min_size=1, max_size=4))


@settings(max_examples=200, deadline=None)
@given(span_stacks(), st.sampled_from(SPAN_FIELDS))
# 10^12 - 1 is divisible by 7: the anchor's b-part vanishes mod p only, so
# the anchor is still off H1
@example((((1, 0, 1),), 1, [(0, 0, 999_999_999_999)]), FieldConfig(modulus=7))
def test_span_rows_on_a_stack_are_each_anchors_rows_in_turn(case, cfg):
    basis, n, anchors = case
    rows = span_rows(basis, n, anchors, cfg)
    per_anchor = lattice_size(basis, n)
    assert len(rows) == per_anchor * len(anchors)
    for k, anchor in enumerate(anchors):
        block = rows[k * per_anchor : (k + 1) * per_anchor].tolist()
        assert block == span_rows(basis, n, anchor, cfg).tolist()
        reference = _reference_span_rows(basis, n, anchor, cfg)
        assert_same_row_space(block, reference, len(basis), cfg)
    assert_canonical_scalars(rows, cfg)


@pytest.mark.parametrize("modulus", [3, 5])
def test_span_rows_refuse_a_modulus_up_to_the_a_degree(modulus):
    # the lattice's Vandermonde matrix needs the characteristic above D,
    # here D = 5 on the fat-free basis of degree 5
    basis = scheme_basis(SchemeSpec(n=2, m=1, d=5), 5)
    with pytest.raises(ValueError, match="must exceed"):
        span_rows(basis, 2, (1, 2, 3, 4), FieldConfig(modulus=modulus))
    assert len(span_rows(basis, 2, (1, 2, 3, 4), FieldConfig(modulus=7))) == 21


@st.composite
def flag_specs(draw):
    """A frame with or without the flag components, n = 0 included."""
    n, m, d = draw(st.integers(0, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    fat = draw(st.sampled_from((0, d))) if n else 0
    spec = SchemeSpec(n=n, m=m, d=d, fat_h1=fat, include_h2=draw(st.booleans()))
    return spec, draw(st.integers(0, d + 2))


@settings(max_examples=200, deadline=None)
@given(flag_specs())
def test_scheme_basis_size_counts_the_basis(case):
    spec, degree = case
    assert scheme_basis_size(spec, degree) == len(scheme_basis(spec, degree))


def test_scheme_basis_size_counts_the_restricted_basis():
    for n, m, d in [(1, 2, 3), (2, 1, 3), (3, 10, 10)]:
        spec = SchemeSpec(n=n, m=m, d=d, fat_h1=d, include_h2=True)
        assert scheme_basis_size(spec, d + 1) == (n + 1) * comb(m + d, d)


@st.composite
def proof_configurations(draw):
    """Every (spec, degree) the theorem suite computes for one case: the
    plain and the specialized draw, the spanned one, both halves of its
    split and the projected residual."""
    n, m, d = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    q, t = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    seed = draw(st.integers(0, 2**32))
    params = SegreVeroneseParams(n, m, d)
    s = (n + 1) * q
    plain = sample_scheme(params, s, t, derived_rng(seed, 0), MOD.modulus)
    special = sample_scheme(
        params, s, t, derived_rng(seed, 1), MOD.modulus, specialize=True
    )
    spanned = add_v_spans(special)
    split = residual_trace(spanned, d + 1)
    return [
        (plain, d + 1),
        (special, d + 1),
        (spanned, d + 1),
        (split.residual, split.residual_degree),
        (split.trace, split.trace_degree),
        (projected_scheme(split.residual), d),
    ]


@settings(max_examples=60, deadline=None)
@given(proof_configurations())
def test_scheme_json_round_trip(configurations):
    for spec, _ in configurations:
        data = scheme_to_dict(spec)
        assert scheme_from_dict(data) == spec
        assert scheme_from_dict(json.loads(json.dumps(data))) == spec


@settings(max_examples=60, deadline=None)
@given(proof_configurations())
def test_scheme_rows_never_exceed_the_row_bound(configurations):
    built = []

    def counted(rows, cols, cfg):
        built.append(len(rows))
        return matrix_from_rows(rows, cols, cfg)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schemes, "matrix_from_rows", counted)
        for spec, degree in configurations:
            built.clear()
            scheme_ideal_dimension(spec, degree, MOD)
            assert sum(built) <= _row_bound(spec, degree)


@settings(max_examples=60, deadline=None)
@given(proof_configurations())
def test_scheme_matrix_takes_one_kernel_call_per_kind_of_row(configurations):
    # double points, simple points and spans each reach their row kernel
    # all at once, never point by point; the spans reach evaluation_row
    # through their one span_rows call. calls is keyed by the chain of
    # kernels a call was made in.
    calls = Counter()
    inside = []

    def counted(name, kernel):
        def call(*args):
            calls[(*inside, name)] += 1
            inside.append(name)
            try:
                return kernel(*args)
            finally:
                inside.pop()

        return call

    with pytest.MonkeyPatch.context() as mp:
        for name in ("derivative_rows", "evaluation_row", "span_rows",
                     "matrix_from_rows"):
            mp.setattr(schemes, name, counted(name, getattr(schemes, name)))
        for spec, degree in configurations:
            calls.clear()
            scheme_ideal_dimension(spec, degree, MOD)
            assert max(calls.values(), default=0) <= 1
            assert all(
                len(chain) == 1 or chain == ("span_rows", "evaluation_row")
                for chain in calls
            )


def v_span_cases(modulus):
    """Configurations with v-spans, drawn from range(modulus): every
    specialized spanned case of the theorem suite at n, m <= 2, d in {3, 4},
    q in {1, 2} and t in {0, 1, 2} (n = 1 frames among them); one without
    double points, whose v-spans sit at simple points; and flag-free ones,
    whose v-spans raise the rank, with their degree and whether they do."""
    cases = []
    for n, m, d, q, t in product((1, 2), (1, 2), (3, 4), (1, 2), (0, 1, 2)):
        params = SegreVeroneseParams(n, m, d)
        rng = derived_rng(n, m, d, q, t, modulus)
        special = sample_scheme(
            params, (n + 1) * q, t, rng, modulus, specialize=True
        )
        cases.append((add_v_spans(special), d + 1, False))
    rng = derived_rng(modulus, 1)
    # (n, m, d, fat_h1, double points, simple points), one free anchor each
    for n, m, d, fat, doubles, simples in [
        (2, 1, 3, 3, 0, 3),
        (2, 2, 3, 0, 2, 1),
        (1, 2, 3, 0, 1, 2),
    ]:
        points = [
            draw_projective_point(rng, n + m + 1, modulus, nonzero_tail=m + 1)
            for _ in range(doubles + simples + 1)
        ]
        spec = SchemeSpec(
            n=n,
            m=m,
            d=d,
            fat_h1=fat,
            double_points=tuple(map(SchemePoint, points[:doubles])),
            simple_points=tuple(points[doubles:-1]),
            w_anchors=tuple(points[-1:]),
            v_spans=tuple(range(doubles + simples)),
        )
        cases.append((spec, d + 1, fat == 0))
    return cases


@pytest.mark.parametrize(
    "cfg",
    [
        FieldConfig(modulus=7),
        FieldConfig(modulus=11),
        MOD,
        MOD.to_rational(),
    ],
    ids=["p7", "p11", "default", "exact"],
)
def test_v_span_dimensions_equal_two_eliminations(cfg):
    raised = 0
    for spec, degree, raises in v_span_cases(cfg.modulus):
        bare = dataclasses.replace(spec, v_spans=())
        pair = v_span_dimensions(spec, degree, cfg)
        assert pair == (
            scheme_ideal_dimension(bare, degree, cfg),
            scheme_ideal_dimension(spec, degree, cfg),
        )
        if raises:
            # the prefix rank is not the full rank
            assert pair[0] > pair[1]
            raised += 1
    assert raised == 2


@pytest.mark.parametrize("modulus", [7, 11, MOD.modulus])
def test_condition_matrix_has_exactly_the_row_bound(modulus):
    # every span imposes C(D + n, n) rows, so the bound is the row count,
    # and the count above the v-spans is the bound without them
    field = FieldConfig(modulus=modulus)
    for spec, degree, _ in v_span_cases(modulus):
        mat, above = schemes._condition_matrix(spec, degree, field)
        assert mat.rows == _row_bound(spec, degree)
        bare = dataclasses.replace(spec, v_spans=())
        assert above == _row_bound(bare, degree)


BEST_CASES = [
    # (n, m, d, s, t); the last two stay above the floor at every draw
    (1, 1, 3, 2, 1),
    (1, 2, 3, 2, 1),
    (2, 2, 3, 3, 0),
    (1, 2, 3, 5, 0),
    (2, 3, 2, 5, 0),
]


@pytest.mark.parametrize("modulus", [MOD.modulus, 7])
@pytest.mark.parametrize("trials", [1, 2, 3, 4])
@pytest.mark.parametrize("n, m, d, s, t", BEST_CASES)
def test_best_scheme_dimension_is_the_min_over_all_trials(
    n, m, d, s, t, trials, modulus
):
    # over GF(7) special draws are common, so the minimum often comes from
    # a later trial than the first
    params = SegreVeroneseParams(n, m, d)
    field = FieldConfig(modulus=modulus)
    cfg = SampleConfig(seed=3, trials=trials, field=field)
    key = (cfg.seed, 17)
    reference = min(
        scheme_ideal_dimension(
            sample_scheme(params, s, t, derived_rng(*key, k), modulus),
            d + 1,
            field,
        )
        for k in range(trials)
    )
    assert best_scheme_dimension(params, s, t, cfg, key) == reference


def test_best_scheme_dimension_goes_on_while_above_the_floor(monkeypatch):
    # trial 0 is pushed one above the generic value, which sits at the
    # floor here; trial 1 reaches the floor again, so trials 2 and 3 are
    # never drawn
    params = SegreVeroneseParams(1, 2, 3)
    real = schemes.scheme_ideal_dimension
    calls = []

    def raised_first(spec, degree, cfg):
        calls.append(spec)
        return real(spec, degree, cfg) + (len(calls) == 1)

    monkeypatch.setattr(schemes, "scheme_ideal_dimension", raised_first)
    cfg = SampleConfig(seed=3, trials=4)
    best = best_scheme_dimension(params, 2, 1, cfg, (3, 17))
    generic = real(calls[0], 4, MOD)
    floor = scheme_basis_size(calls[0], 4) - _row_bound(calls[0], 4)
    assert best == generic == floor
    assert len(calls) == 2
