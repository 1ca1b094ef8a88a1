"""Monomial bases: counts, ordering determinism, and derivative evaluation."""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secantdim.linalg import EXACT_RATIONAL, FieldConfig
from secantdim.monomials import (
    bihomogeneous_basis,
    derivative_rows,
    evaluation_row,
    graded_basis,
)

MOD = FieldConfig()
RAT = FieldConfig(backend=EXACT_RATIONAL)


def monomial_eval(mono, point, cfg):
    """Value of the monomial at the point; the scalar reference for the row
    kernels."""
    if len(mono) != len(point):
        raise ValueError("point length does not match the variable count")
    value = 1
    for coord, e in zip(point, mono):
        value = cfg.reduce(value * cfg.reduce(int(coord)) ** e)
    return value


def partial_eval(mono, var, point, cfg):
    """First partial derivative with respect to one variable, evaluated."""
    if len(mono) != len(point):
        raise ValueError("point length does not match the variable count")
    if not 0 <= var < len(mono):
        raise ValueError("variable index out of range")
    e = mono[var]
    if e == 0:
        return 0
    lowered = mono[:var] + (e - 1,) + mono[var + 1 :]
    return cfg.reduce(e * monomial_eval(lowered, point, cfg))


def test_bihomogeneous_counts():
    assert len(bihomogeneous_basis(1, 1, 1, 1).monomials) == 4
    assert len(bihomogeneous_basis(1, 2, 1, 3).monomials) == 20
    assert len(bihomogeneous_basis(2, 1, 1, 3).monomials) == 12


def test_graded_counts():
    assert len(graded_basis(2, 3).monomials) == 4
    assert len(graded_basis(4, 4).monomials) == 35
    assert len(graded_basis(1, 5).monomials) == 1


def test_counts_match_binomials_on_a_grid():
    for n in range(1, 4):
        for m in range(1, 4):
            for a in range(0, 3):
                for b in range(0, 4):
                    basis = bihomogeneous_basis(n, m, a, b)
                    assert len(basis.monomials) == comb(n + a, a) * comb(m + b, b)
    for nvars in range(1, 6):
        for t in range(0, 7):
            assert len(graded_basis(nvars, t).monomials) == comb(
                nvars - 1 + t, t
            )


def test_every_monomial_has_the_right_degrees():
    basis = bihomogeneous_basis(2, 3, 1, 4)
    for xe, ye in basis.monomials:
        assert sum(xe) == 1 and sum(ye) == 4
        assert len(xe) == 3 and len(ye) == 4


def test_enumeration_is_deterministic():
    first = bihomogeneous_basis(2, 2, 1, 3)
    second = bihomogeneous_basis(2, 2, 1, 3)
    assert first.monomials == second.monomials
    assert graded_basis(4, 5).monomials == graded_basis(4, 5).monomials
    assert first.combined()[0] == (1, 0, 0, 3, 0, 0)


def test_partial_eval_power():
    assert partial_eval((2,), 0, (3,), FieldConfig(modulus=7)) == 6


def test_partial_eval_product_rule():
    assert partial_eval((1, 1), 0, (5, 9), MOD) == 9
    assert partial_eval((1, 1), 1, (5, 9), MOD) == 5


def test_partial_eval_missing_variable():
    assert partial_eval((0, 3), 0, (4, 5), MOD) == 0


def test_partial_eval_exact_backend_signs():
    assert partial_eval((3, 1), 0, (-2, 5), RAT) == 3 * 4 * 5
    assert monomial_eval((3, 1), (-2, 5), RAT) == -40


def test_partial_eval_input_validation():
    with pytest.raises(ValueError):
        partial_eval((1, 1), 2, (1, 1), MOD)
    with pytest.raises(ValueError):
        partial_eval((1, 1), 0, (1,), MOD)
    with pytest.raises(ValueError):
        graded_basis(0, 2)
    with pytest.raises(ValueError):
        bihomogeneous_basis(0, 1, 1, 1)


def test_euler_identity_on_small_bases():
    # sum_v point_v * dM/dv(point) = deg(M) * M(point), per monomial
    point = (3, 7, 11, 2)
    for t in range(1, 5):
        monos = graded_basis(4, t).monomials
        rows = derivative_rows(monos, point, MOD)
        values = evaluation_row(monos, point, MOD)
        p = MOD.modulus
        for col in range(len(monos)):
            lhs = sum(point[v] * rows[v][col] for v in range(4)) % p
            assert lhs == t * values[col] % p


def test_rows_match_scalar_evaluation():
    monos = bihomogeneous_basis(1, 2, 1, 3).combined()
    point = (2, 3, 5, 7, 11)
    rows = derivative_rows(monos, point, MOD)
    for var in range(len(point)):
        for col, mono in enumerate(monos):
            assert rows[var][col] == partial_eval(mono, var, point, MOD)
    values = evaluation_row(monos, point, MOD)
    for col, mono in enumerate(monos):
        assert values[col] == monomial_eval(mono, point, MOD)


@st.composite
def bases_and_points(draw):
    """A graded or bihomogeneous basis and a point, often with zeros."""
    if draw(st.booleans()):
        nvars = draw(st.integers(1, 5))
        monos = graded_basis(nvars, draw(st.integers(0, 4))).monomials
    else:
        n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        a, b = draw(st.integers(0, 2)), draw(st.integers(0, 3))
        monos = bihomogeneous_basis(n, m, a, b).combined()
        nvars = n + m + 2
    coord = st.one_of(st.just(0), st.integers(-(10**12), 10**12))
    point = draw(st.lists(coord, min_size=nvars, max_size=nvars))
    return monos, tuple(point)


FIELDS = (MOD, FieldConfig(modulus=7), RAT, FieldConfig(modulus=7).to_rational())


@settings(max_examples=200, deadline=None)
@given(bases_and_points(), st.sampled_from(FIELDS))
def test_row_kernels_match_the_scalar_reference(case, cfg):
    monos, point = case
    rows = derivative_rows(monos, point, cfg)
    assert rows.tolist() == [
        [partial_eval(mono, var, point, cfg) for mono in monos]
        for var in range(len(point))
    ]
    values = evaluation_row(monos, point, cfg)
    assert values.tolist() == [monomial_eval(mono, point, cfg) for mono in monos]
    assert_canonical_scalars(rows, cfg)
    assert_canonical_scalars(values, cfg)


def assert_canonical_scalars(array, cfg):
    """int64 residues over GF(p); over Q, plain Python integers, never numpy
    scalars, whose products would overflow."""
    if cfg.is_modular:
        assert array.dtype == np.int64
        assert ((0 <= array) & (array < cfg.modulus)).all()
    else:
        assert array.dtype == object
        assert all(type(x) is int for x in array.flat)


@st.composite
def bases_and_point_stacks(draw):
    """A basis and a stack of one to four points, with zeros and with
    coordinates beyond int64."""
    monos, point = draw(bases_and_points())
    coord = st.one_of(
        st.just(0),
        st.integers(-(10**12), 10**12),
        st.integers(-(2**80), 2**80),
    )
    points = st.lists(coord, min_size=len(point), max_size=len(point))
    return monos, draw(st.lists(points.map(tuple), min_size=1, max_size=4))


@settings(max_examples=200, deadline=None)
@given(bases_and_point_stacks(), st.sampled_from(FIELDS))
def test_row_kernels_on_a_stack_match_the_scalar_reference(case, cfg):
    # a stack's rows are each point's rows, point by point
    monos, points = case
    rows = derivative_rows(monos, points, cfg)
    assert rows.tolist() == [
        [partial_eval(mono, var, point, cfg) for mono in monos]
        for point in points
        for var in range(len(point))
    ]
    values = evaluation_row(monos, points, cfg)
    assert values.tolist() == [
        [monomial_eval(mono, point, cfg) for mono in monos] for point in points
    ]
    assert_canonical_scalars(rows, cfg)
    assert_canonical_scalars(values, cfg)
