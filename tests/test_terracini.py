"""Tangent blocks and sampled secant dimensions."""

import tracemalloc
from bisect import bisect_left
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secantdim import linalg, terracini
from secantdim.expected import expected_secant_dim, thresholds
from secantdim.linalg import (
    DEFAULT_MODULUS,
    EXACT_RATIONAL,
    MAX_MATRIX_ENTRIES,
    FieldConfig,
    matrix_from_rows,
    rank,
    rank_profile,
)
from secantdim.monomials import bihomogeneous_basis, derivative_rows, evaluation_row
from secantdim.terracini import (
    MAX_COUNT_DIGITS,
    PointPair,
    SampleConfig,
    SegreVeroneseParams,
    best_ranks,
    derived_rng,
    ideal_dim_bidegree,
    _count_exceeds,
    random_point_pair,
    sample_point_pairs,
    secant_dimension,
    singular_products,
    stacked_tangent_matrix,
    tangent_block,
)

MOD = FieldConfig()
CFG = SampleConfig(seed=0, trials=2)


def test_params_derived_counts():
    params = SegreVeroneseParams(1, 2, 3)
    assert params.coefficient_count == 20
    assert params.ambient_dim == 19
    assert params.variety_dim == 3
    with pytest.raises(ValueError):
        SegreVeroneseParams(0, 2, 3)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 40),
    st.integers(1, 40),
    st.integers(1, 40),
    st.integers(-1, 1),
    st.sampled_from((0, 1, 2, 10**6, None)),
)
def test_count_exceeds_matches_the_full_binomial(n, m, d, shift, cap):
    count = (n + 1) * comb(m + d, d)
    # None puts the cap next to the count, where an off-by-one would show
    cap = count + shift if cap is None else cap
    assert _count_exceeds(n, m, d, cap) == (count > cap)


def test_params_refuse_a_count_too_long_to_print():
    # 2C(2k, k) has 4299 digits at k = 7143, 4300 at 7145 and 4301 at 7146;
    # reports print N and the thresholds in full
    for k in (7143, 7145):
        params = SegreVeroneseParams(1, k, k)
        assert len(str(params.ambient_dim)) <= MAX_COUNT_DIGITS
    with pytest.raises(ValueError, match="digits"):
        SegreVeroneseParams(1, 7146, 7146)


def test_tangent_block_segre_quadric():
    # (1,1,1) at ((1:0),(1:0)): rows are the four partials of
    # (x0y0, x0y1, x1y0, x1y1); the value row x-Euler = y-Euler kills one
    block = tangent_block(
        SegreVeroneseParams(1, 1, 1), PointPair((1, 0), (1, 0)), MOD
    )
    assert (block.rows, block.cols) == (4, 4)
    assert block.entries.tolist() == [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ]
    assert rank(block, MOD) == 3


def test_tangent_block_rank_bounded_by_euler():
    rng = derived_rng(42)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        d = int(rng.integers(1, 5))
        params = SegreVeroneseParams(n, m, d)
        pt = random_point_pair(params, rng, MOD.modulus)
        block = tangent_block(params, pt, MOD)
        assert block.rows == n + m + 2
        assert rank(block, MOD) <= n + m + 1


def test_euler_relation_is_exact_on_blocks():
    # d * sum_i P_i (x-partial row i) - sum_j Q_j (y-partial row j) = 0
    rng = derived_rng(43)
    p = MOD.modulus
    for _ in range(10):
        n, m, d = 2, 2, 3
        params = SegreVeroneseParams(n, m, d)
        pt = random_point_pair(params, rng, p)
        block = tangent_block(params, pt, MOD)
        for col in range(block.cols):
            x_part = sum(
                pt.p[i] * int(block.entries[i, col]) for i in range(n + 1)
            )
            y_part = sum(
                pt.q[j] * int(block.entries[n + 1 + j, col])
                for j in range(m + 1)
            )
            assert (d * x_part - y_part) % p == 0


def _hand_made_points(params, p):
    """Points whose leading P^m coordinates vanish in GF(p): plain zeros,
    and nonzero multiples of p, which vanish mod p but not over Q."""
    x = tuple(range(1, params.n + 2))
    ys = (
        (0,) * params.m + (3,),
        (0, 4) + (1,) * (params.m - 1),
        tuple(p * (j + 1) for j in range(params.m)) + (5,),
    )
    return [PointPair(x, y) for y in ys]


@pytest.mark.parametrize(
    "field",
    [
        FieldConfig(modulus=7),
        FieldConfig(modulus=11),
        FieldConfig(modulus=DEFAULT_MODULUS),
        FieldConfig(modulus=7, backend=EXACT_RATIONAL),
    ],
    ids=["p7", "p11", "default", "exact"],
)
@pytest.mark.parametrize(
    "n, m, d", [(1, 1, 3), (2, 1, 2), (1, 2, 3), (2, 3, 2), (2, 2, 1), (1, 3, 4)]
)
def test_reduced_stack_has_every_prefix_rank_of_the_full_blocks(n, m, d, field):
    # the Euler-redundant row is dropped at the first y-coordinate nonzero
    # in the field; at the hand-made points that is not y_0, and over GF(7)
    # the leading multiples of 7 do not count as nonzero
    params = SegreVeroneseParams(n, m, d)
    rng = derived_rng(45, n, m, d)
    points = [random_point_pair(params, rng, field.modulus) for _ in range(12)]
    for i, pt in enumerate(_hand_made_points(params, field.modulus)):
        points.insert(4 * i, pt)
    full = matrix_from_rows(
        np.vstack([tangent_block(params, pt, field).entries for pt in points]),
        params.coefficient_count,
        field,
    )
    reduced = stacked_tangent_matrix(params, points, field)
    kept = n + m + 1
    assert reduced.rows == kept * len(points)
    assert rank(reduced, field) == rank(full, field)
    full_profile = rank_profile(full, field)
    reduced_profile = rank_profile(reduced, field)
    steps = range(len(points) + 1)
    assert [bisect_left(reduced_profile, s * kept) for s in steps] == [
        bisect_left(full_profile, s * (kept + 1)) for s in steps
    ]
    # a prefix can fill every column before it reaches a hand-made point
    for pt in points:
        assert rank(stacked_tangent_matrix(params, [pt], field), field) == rank(
            tangent_block(params, pt, field), field
        )


def test_reduced_stack_refuses_a_point_that_vanishes_in_the_field():
    params = SegreVeroneseParams(1, 1, 3)
    point = PointPair((1, 2), (7, 14))
    assert stacked_tangent_matrix(params, [point], MOD).rows == 3
    with pytest.raises(ValueError, match="vanish"):
        stacked_tangent_matrix(params, [point], FieldConfig(modulus=7))


@pytest.mark.parametrize("cell, s, most", [((3, 3, 4), 21, 26), ((22, 3, 3), 18, 21)])
def test_stacked_tangent_matrix_builds_within_its_byte_budget(cell, s, most):
    # the build's traced peak per entry of the matrix it returns, caches
    # warm. The int64 entries take 8 bytes and the partials' temporaries
    # about two matrices more; one more matrix-sized temporary would not fit
    params = SegreVeroneseParams(*cell)
    points = sample_point_pairs(params, s, CFG, 0)
    stacked_tangent_matrix(params, points, MOD)
    tracemalloc.start()
    try:
        mat = stacked_tangent_matrix(params, points, MOD)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (mat.rows * mat.cols) <= most


def test_generic_block_rank_is_full():
    params = SegreVeroneseParams(1, 2, 3)
    pt = random_point_pair(params, derived_rng(1), MOD.modulus)
    assert rank(tangent_block(params, pt, MOD), MOD) == 4


def test_secant_dimension_frozen_values():
    assert secant_dimension(SegreVeroneseParams(1, 2, 3), 1, CFG) == 3
    assert secant_dimension(SegreVeroneseParams(1, 2, 3), 4, CFG) == 15
    assert secant_dimension(SegreVeroneseParams(2, 1, 3), 3, CFG) == 11


def test_ideal_dim_bidegree_frozen_values():
    params = SegreVeroneseParams(1, 2, 3)
    assert ideal_dim_bidegree(params, 0, CFG) == 20
    assert ideal_dim_bidegree(params, 2, CFG) == 12
    assert ideal_dim_bidegree(params, 6, CFG) == 0


def test_secant_dimension_rejects_empty_sample():
    with pytest.raises(ValueError):
        secant_dimension(SegreVeroneseParams(1, 1, 3), 0, CFG)
    with pytest.raises(ValueError):
        ideal_dim_bidegree(SegreVeroneseParams(1, 1, 3), -1, CFG)


@pytest.mark.parametrize("first_trial", [3, -1])
def test_sample_config_refuses_a_first_trial_outside_its_trials(first_trial):
    with pytest.raises(ValueError, match="first_trial"):
        SampleConfig(seed=0, trials=3, first_trial=first_trial)


def test_small_modulus_rejected():
    tiny = SampleConfig(seed=0, trials=1, field=FieldConfig(modulus=3))
    with pytest.raises(ValueError):
        secant_dimension(SegreVeroneseParams(1, 1, 3), 1, tiny)


def test_dimension_monotone_with_bounded_steps():
    for params in (SegreVeroneseParams(1, 2, 3), SegreVeroneseParams(2, 2, 3)):
        prev = 0
        for s in range(1, 8):
            dim = secant_dimension(params, s, CFG)
            assert dim <= expected_secant_dim(params, s)
            assert prev <= dim <= prev + params.variety_dim + 1
            prev = dim
        assert prev == params.ambient_dim  # fills by the end of the range


@pytest.mark.parametrize(
    "n, m, d", [(1, 1, 3), (1, 2, 3), (2, 1, 3), (2, 3, 2), (1, 2, 4)]
)
def test_one_pass_matches_each_secant_dimension(n, m, d):
    params = SegreVeroneseParams(n, m, d)
    s_values = range(1, 9)
    ranks = best_ranks(params, s_values, CFG)
    assert ranks == {s: secant_dimension(params, s, CFG) + 1 for s in s_values}
    prev = 0
    for s in s_values:
        assert prev <= ranks[s] <= prev + params.variety_dim + 1
        prev = ranks[s]


def test_one_pass_checks_its_size_first():
    # (10, 10, 10) at s = 50 would be a 1100 x 2032316 matrix
    params = SegreVeroneseParams(10, 10, 10)
    assert 50 * 22 * params.coefficient_count > MAX_MATRIX_ENTRIES
    with pytest.raises(ValueError, match="entry limit"):
        best_ranks(params, (1, 50), CFG)
    with pytest.raises(ValueError):
        best_ranks(SegreVeroneseParams(1, 1, 3), (), CFG)


def test_one_pass_builds_each_trial_in_one_kernel_call(monkeypatch):
    # s = 5 at (2, 3, 2) is a defect, so no trial reaches the cap and every
    # trial builds its matrix from all five points in one call
    calls = []

    def counted(monomials, point, cfg):
        calls.append(len(point))
        return derivative_rows(monomials, point, cfg)

    monkeypatch.setattr(terracini, "derivative_rows", counted)
    cfg = SampleConfig(seed=0, trials=3)
    ranks = best_ranks(SegreVeroneseParams(2, 3, 2), (2, 5), cfg)
    assert ranks == {2: 12, 5: 29}
    assert calls == [5, 5, 5]


def test_trials_and_seeds_stable_on_certified_cells():
    params = SegreVeroneseParams(2, 1, 3)
    values = {
        (
            secant_dimension(params, 2, SampleConfig(seed=seed, trials=trials)),
            secant_dimension(params, 3, SampleConfig(seed=seed, trials=trials)),
        )
        for seed in (0, 1, 2)
        for trials in (1, 2)
    }
    assert values == {(7, 11)}


def test_value_rows_never_raise_rank():
    # tangent rows span the value row: appending it cannot change the rank
    rng = derived_rng(44)
    monos_cache = {}
    for _ in range(20):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        d = int(rng.integers(2, 4))
        s = int(rng.integers(1, 4))
        params = SegreVeroneseParams(n, m, d)
        key = (n, m, d)
        if key not in monos_cache:
            monos_cache[key] = bihomogeneous_basis(n, m, 1, d).combined()
        monos = monos_cache[key]
        points = [random_point_pair(params, rng, MOD.modulus) for _ in range(s)]
        plain = []
        with_values = []
        for pt in points:
            block = tangent_block(params, pt, MOD)
            rows = [list(block.row(i)) for i in range(block.rows)]
            plain.extend(rows)
            with_values.extend(rows)
            with_values.append(evaluation_row(monos, pt.p + pt.q, MOD))
        cols = len(monos)
        assert rank(matrix_from_rows(plain, cols, MOD), MOD) == rank(
            matrix_from_rows(with_values, cols, MOD), MOD
        )


def test_sample_points_reproducible_and_backend_independent():
    params = SegreVeroneseParams(2, 2, 3)
    exact_cfg = SampleConfig(seed=9, trials=2, field=MOD.to_rational())
    mod_cfg = SampleConfig(seed=9, trials=2, field=MOD)
    assert sample_point_pairs(params, 3, mod_cfg, 0) == sample_point_pairs(
        params, 3, exact_cfg, 0
    )
    assert sample_point_pairs(params, 3, mod_cfg, 0) != sample_point_pairs(
        params, 3, mod_cfg, 1
    )


@pytest.mark.parametrize("modulus", [DEFAULT_MODULUS, 7, 11])
def test_singular_products_never_bound_below_a_sampled_rank(modulus):
    # N + 1 - k bounds the generic rank, which no sampled rank exceeds, at
    # any prime the points are drawn with
    cfg = SampleConfig(seed=0, trials=2, field=FieldConfig(modulus))
    bounds = []
    for n, m, d in product((1, 2), (1, 2), (1, 2, 3, 4)):
        params = SegreVeroneseParams(n, m, d)
        s_values = range(1, thresholds(params).s2 + 2)
        ranks = best_ranks(params, s_values, cfg)
        for s in s_values:
            k = singular_products(params, sample_point_pairs(params, s, cfg, 0))
            if k is not None:
                assert params.coefficient_count - k >= ranks[s]
                bounds.append(k)
    assert any(bounds)


@pytest.mark.parametrize(
    "cell, s, k, bound",
    [
        # a conic through the five b_k times a (1, 1)-form through the five
        # points; e = 1 and e = 3 have no Q or no G by counts
        ((1, 2, 3), 5, 1, 19),
        # unbalanced: linear forms in x through the a_k times cubics in y
        # through the b_k, rank s(n + 1 + C - s) with C = C(m + d, d)
        ((10, 2, 3), 9, 2, 9 * (11 + 10 - 9)),
        # the Segre product: rank s(n + m + 2 - s)
        ((3, 3, 1), 2, 4, 2 * (3 + 3 + 2 - 2)),
    ],
)
def test_singular_products_meet_the_sampled_rank(monkeypatch, cell, s, k, bound):
    shapes = []

    def kernel(values, p):
        shapes.append(values.shape)
        return linalg.kernel_mod(values, p)

    monkeypatch.setattr(terracini, "kernel_mod", kernel)
    params = SegreVeroneseParams(*cell)
    assert singular_products(params, sample_point_pairs(params, s, CFG, 0)) == k
    assert best_ranks(params, (s,), CFG)[s] == params.coefficient_count - k == bound
    if cell == (1, 2, 3):
        # the conics' 5 x 6 evaluations, then the (1, 1)-forms' 5 x 6
        assert shapes == [(5, 6), (5, 6)]


@pytest.mark.parametrize(
    "cell, s, k",
    [
        ((1, 2, 3), 5, 1),
        ((10, 2, 3), 9, 2),
        ((3, 3, 1), 2, 4),
        # no e has both a Q and a G by counts
        ((2, 3, 2), 5, 0),
        # full rank 25, below the bound N + 1 - k = 26
        ((2, 2, 3), 5, 4),
    ],
)
def test_one_rank_over_q_under_the_bound_is_the_certified_rank(
    monkeypatch, cell, s, k
):
    params = SegreVeroneseParams(*cell)
    exact = SampleConfig(seed=0, trials=2, field=FieldConfig(backend=EXACT_RATIONAL))
    assert singular_products(params, sample_point_pairs(params, s, exact, 0)) == k
    bounded = best_ranks(params, (s,), exact)
    monkeypatch.setattr(terracini, "singular_products", lambda params, points: None)
    assert best_ranks(params, (s,), exact) == bounded


def test_singular_products_refuse_a_draw_with_two_equal_b():
    params = SegreVeroneseParams(1, 2, 3)
    points = sample_point_pairs(params, 5, CFG, 0)
    points[3] = PointPair(points[3].p, points[0].q)
    # the five b_k impose only four conditions on conics
    assert singular_products(params, points) is None


def test_singular_products_skip_the_d2_fixture_cells_by_counts(monkeypatch):
    def refuse(*args):
        raise AssertionError("an elimination ran")

    monkeypatch.setattr(linalg, "_eliminate", refuse)
    for n, m in ((2, 3), (3, 4), (4, 3), (2, 5)):
        params = SegreVeroneseParams(n, m, 2)
        # from s = max(n, m) + 1, C(m + 1, 1) <= s and n + 1 <= s, so neither
        # e has both a Q and a G; the fixture's candidates all lie here
        for s in range(max(n, m) + 1, thresholds(params).s2 + 2):
            points = sample_point_pairs(params, s, CFG, 0)
            assert singular_products(params, points) == 0
