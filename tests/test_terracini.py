"""Tangent blocks and sampled secant dimensions."""

import pytest

from secantdim.expected import expected_secant_dim
from secantdim.linalg import FieldConfig, matrix_from_rows, rank
from secantdim.monomials import bihomogeneous_basis, evaluation_row
from secantdim.terracini import (
    MAX_PASS_ENTRIES,
    PointPair,
    SampleConfig,
    SegreVeroneseParams,
    best_ranks,
    derived_rng,
    ideal_dim_bidegree,
    random_point_pair,
    sample_point_pairs,
    secant_dimension,
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


def test_tangent_block_segre_quadric():
    # (1,1,1) at ((1:0),(1:0)): rows are the four partials of
    # (x0y0, x0y1, x1y0, x1y1); the value row x-Euler = y-Euler kills one
    block = tangent_block(
        SegreVeroneseParams(1, 1, 1), PointPair((1, 0), (1, 0)), MOD
    )
    assert (block.rows, block.cols) == (4, 4)
    assert block.entries == (
        1, 0, 0, 0,
        0, 0, 1, 0,
        1, 0, 0, 0,
        0, 1, 0, 0,
    )
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
                pt.p[i] * block.entries[i * block.cols + col] for i in range(n + 1)
            )
            y_part = sum(
                pt.q[j] * block.entries[(n + 1 + j) * block.cols + col]
                for j in range(m + 1)
            )
            assert (d * x_part - y_part) % p == 0


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
    assert 50 * 22 * params.coefficient_count > MAX_PASS_ENTRIES
    with pytest.raises(ValueError, match="entry limit"):
        best_ranks(params, (1, 50), CFG)
    with pytest.raises(ValueError):
        best_ranks(SegreVeroneseParams(1, 1, 3), (), CFG)


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
