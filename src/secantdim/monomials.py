"""Monomial bases in a fixed lexicographic order, plus derivative evaluation.

Exponent vectors are plain tuples, one entry per variable, with the x-block
before the y-block. Enumeration is lexicographic, descending on the leading
variable, so column indexing is reproducible across runs and backends.

The row builders are numpy kernels that take every point of a matrix at
once, as a 2-D stack with one point per row; one point is the one-row case.
A basis becomes gather indices into a flattened power table once (a
cache keyed by the basis); the whole stack gets one power table of canonical
scalars (int64 residues for GF(p), Python integers for Q), and a kernel
returns one array of them. A value row is the product over the variables of
one gather each; a partial row is E[:, v] times the lowered monomials
E - e_v, multiplied out the same way. The tests check the kernels against a
scalar reference.

A call leaves nothing allocated behind it, CPython's free lists included.
Small tuples are built from lists or at a length known in advance, never
by tuple(genexpr) or tuple(map(...)): that resize path takes a new block
and frees it to the free list of the final size, which keeps up to 2,000
tuples of a size. For the same reason no kernel calls np.moveaxis, whose
axis normalisation is such a tuple(genexpr); swapaxes gives the same view.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterator, Sequence

import numpy as np

from .linalg import FieldConfig

ExponentVector = tuple[int, ...]


def _exponent_vectors(nvars: int, degree: int) -> Iterator[ExponentVector]:
    if nvars == 1:
        yield (degree,)
        return
    for lead in range(degree, -1, -1):
        for tail in _exponent_vectors(nvars - 1, degree - lead):
            yield (lead,) + tail


@dataclass(frozen=True)
class GradedBasis:
    """All degree-t monomials in nvars variables."""

    nvars: int
    t: int
    monomials: tuple[ExponentVector, ...]


@dataclass(frozen=True)
class BiBasis:
    """Bidegree-(a,b) monomials on P^n x P^m, stored as (x-part, y-part)."""

    n: int
    m: int
    a: int
    b: int
    monomials: tuple[tuple[ExponentVector, ExponentVector], ...]

    def combined(self) -> tuple[ExponentVector, ...]:
        """Each pair flattened to a single exponent vector over x then y."""
        return tuple([xe + ye for xe, ye in self.monomials])


def graded_basis(nvars: int, t: int) -> GradedBasis:
    if nvars < 1 or t < 0:
        raise ValueError("need nvars >= 1 and t >= 0")
    monos = tuple(list(_exponent_vectors(nvars, t)))
    assert len(monos) == comb(nvars - 1 + t, t)
    return GradedBasis(nvars, t, monos)


def bihomogeneous_basis(n: int, m: int, a: int, b: int) -> BiBasis:
    if n < 1 or m < 1 or a < 0 or b < 0:
        raise ValueError("need n, m >= 1 and a, b >= 0")
    xs = list(_exponent_vectors(n + 1, a))
    ys = list(_exponent_vectors(m + 1, b))
    monos = tuple([(xe, ye) for xe in xs for ye in ys])
    return BiBasis(n, m, a, b, monos)


def frozen_array(array: np.ndarray) -> np.ndarray:
    """A read-only row-major copy, safe to share from a cache."""
    array = np.array(array, order="C")
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class _Exponents:
    """A basis as gather indices into a flattened power table.

    With E the k x nvars exponent matrix of the basis, value[v, j] locates
    point[v]^E[j, v] in a table with width columns, and lowered[v, i] does
    the same for the i-th distinct lowered monomial: E_j - e_v where
    E[j, v] >= 1, the constant where E[j, v] = 0. down[v, j] is the index of
    the one at (v, j), and scale[v, j] = E[j, v] is the factor a partial in
    variable v brings down.
    """

    width: int
    scale: np.ndarray
    value: np.ndarray
    lowered: np.ndarray
    down: np.ndarray


# entries kept by each per-basis cache: here the layouts, in schemes the
# flag bases and in terracini the tangent bases. A verify theorem report on
# n, m <= 3, d in {3, 4} asks for 66 layouts (0.42 MB), 48 flag bases and
# 18 tangent bases, about 0.63 MB in all, so a warm report misses none
CACHE_SIZE = 128


@lru_cache(maxsize=CACHE_SIZE)
def _exponents(monomials: tuple[ExponentVector, ...]) -> _Exponents:
    exps = np.array(monomials, dtype=np.int64).T
    nvars = exps.shape[0]
    width = int(exps.max(initial=0)) + 1
    offsets = width * np.arange(nvars)[:, None]
    # the constant stands in where E[j, v] = 0; np.unique sorts it first
    lower = exps.T - np.eye(nvars, dtype=np.int64)[:, None]
    drops = np.where(exps[..., None] > 0, lower, 0).reshape(-1, nvars)
    lows, down = np.unique(drops, axis=0, return_inverse=True)
    arrays = (exps, offsets + exps, offsets + lows.T, down.reshape(nvars, -1))
    return _Exponents(width, *map(frozen_array, arrays))


_python_int = np.frompyfunc(int, 1, 1)


def power_table(
    point: Sequence[int] | Sequence[Sequence[int]], maxdeg: int, cfg: FieldConfig
) -> np.ndarray:
    """table[..., v, e] = point[..., v]^e for e <= maxdeg, as canonical
    scalars; point holds integers in an array of shape (..., nvars)."""
    coords = cfg.array(point)
    if coords.dtype == object:
        # Python integers, whatever the input held, so no power overflows
        coords = _python_int(coords)
    table = np.empty(coords.shape + (maxdeg + 1,), dtype=cfg.dtype)
    table[..., 0] = 1
    for e in range(1, maxdeg + 1):
        table[..., e] = cfg.reduce(table[..., e - 1] * coords)
    return table


def _gather(
    monomials: Sequence[ExponentVector],
    point: Sequence[int] | Sequence[Sequence[int]],
    cfg: FieldConfig,
) -> tuple[_Exponents, np.ndarray, tuple[int, ...]]:
    """The basis layout, the power tables of the points flattened to one row
    per point, and the shape of the stack less its coordinate axis."""
    exps = _exponents(tuple(monomials))
    table = power_table(point, exps.width - 1, cfg)
    if table.ndim < 2 or table.shape[-2] != exps.scale.shape[0]:
        raise ValueError("point length does not match the variable count")
    lead = table.shape[:-2]
    return exps, table.reshape(-1, table.shape[-2] * exps.width), lead


def evaluation_row(
    monomials: Sequence[ExponentVector],
    point: Sequence[int] | Sequence[Sequence[int]],
    cfg: FieldConfig,
) -> np.ndarray:
    """Values of every monomial at each point, in basis order: one row per
    point of a 2-D stack, or one 1-D row for one point.

    One gather per variable from the power tables, multiplied out.
    """
    if not monomials:
        return np.zeros(np.shape(point)[:-1] + (0,), dtype=cfg.dtype)
    exps, table, lead = _gather(monomials, point, cfg)
    values = cfg.product(table[:, exps.value].swapaxes(0, 1))
    return values.reshape(lead + (len(monomials),))


def derivative_rows(
    monomials: Sequence[ExponentVector],
    point: Sequence[int] | Sequence[Sequence[int]],
    cfg: FieldConfig,
) -> np.ndarray:
    """Each monomial's first partials at every point, one row per variable.

    point is one point or a 2-D stack of points, one per row; the rows run
    point by point, each point's nvars partials together in variable order.
    The partial in v is E[:, v] times the lowered monomials E - e_v, each
    multiplied out once, as evaluation_row multiplies out the basis.
    """
    if not monomials:
        return np.zeros((int(np.prod(np.shape(point))), 0), dtype=cfg.dtype)
    exps, table, _ = _gather(monomials, point, cfg)
    lowered = cfg.product(table[:, exps.lowered].swapaxes(0, 1))
    return cfg.reduce(exps.scale * lowered[:, exps.down]).reshape(-1, len(monomials))
