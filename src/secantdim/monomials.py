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
one gather each, and the partial rows use the lowered exponents E - e_v
scaled by E[:, v]. The tests check the kernels against a scalar reference.
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
        return tuple(xe + ye for xe, ye in self.monomials)


def graded_basis(nvars: int, t: int) -> GradedBasis:
    if nvars < 1 or t < 0:
        raise ValueError("need nvars >= 1 and t >= 0")
    monos = tuple(_exponent_vectors(nvars, t))
    assert len(monos) == comb(nvars - 1 + t, t)
    return GradedBasis(nvars, t, monos)


def bihomogeneous_basis(n: int, m: int, a: int, b: int) -> BiBasis:
    if n < 1 or m < 1 or a < 0 or b < 0:
        raise ValueError("need n, m >= 1 and a, b >= 0")
    xs = tuple(_exponent_vectors(n + 1, a))
    ys = tuple(_exponent_vectors(m + 1, b))
    monos = tuple((xe, ye) for xe in xs for ye in ys)
    return BiBasis(n, m, a, b, monos)


def frozen_array(array: np.ndarray) -> np.ndarray:
    """A read-only row-major copy, safe to share from a cache."""
    array = np.array(array, order="C")
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class _Exponents:
    """A basis as gather indices into a flattened power table.

    With E the k x nvars exponent matrix of the basis, value[v, j] and
    lowered[v, j] locate point[v]^E[j, v] and
    point[v]^max(E[j, v] - 1, 0) in a table with width columns, and
    scale[v, j] = E[j, v] is the factor a partial in variable v brings down.
    """

    width: int
    scale: np.ndarray
    value: np.ndarray
    lowered: np.ndarray


# entries kept by each per-basis cache: here the layouts, in schemes the
# flag bases and in terracini the tangent bases. A verify theorem report on
# n, m <= 3, d in {3, 4} asks for 66 layouts, 48 flag bases and 18 tangent
# bases, about 0.55 MB in all, so a warm report misses none
CACHE_SIZE = 128


@lru_cache(maxsize=CACHE_SIZE)
def _exponents(monomials: tuple[ExponentVector, ...]) -> _Exponents:
    exps = np.array(monomials, dtype=np.int64).T
    width = int(exps.max(initial=0)) + 1
    offsets = width * np.arange(exps.shape[0])[:, None]
    arrays = (exps, offsets + exps, offsets + np.maximum(exps - 1, 0))
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
    values = cfg.product(np.moveaxis(table[:, exps.value], 1, 0))
    return values.reshape(lead + (len(monomials),))


def derivative_rows(
    monomials: Sequence[ExponentVector],
    point: Sequence[int] | Sequence[Sequence[int]],
    cfg: FieldConfig,
) -> np.ndarray:
    """Each monomial's first partials at every point, one row per variable.

    point is one point or a 2-D stack of points, one per row; the rows run
    point by point, each point's nvars partials together in variable order.
    The partial in v is E[:, v] times the product over u of
    point[u]^(E - e_v)[:, u]: the lowered power in v, times the running
    products of every other variable's power from either side.
    """
    if not monomials:
        return np.zeros((int(np.prod(np.shape(point))), 0), dtype=cfg.dtype)
    exps, table, _ = _gather(monomials, point, cfg)
    nvars, cols = exps.scale.shape
    values = table[:, exps.value]
    rows = cfg.reduce(exps.scale * table[:, exps.lowered])
    # row v takes every other variable's power: a running product over the
    # variables before v, then one over the variables after it
    for order in (range(nvars), range(nvars - 1, -1, -1)):
        acc = values[:, order[0]]
        for v in order[1:]:
            rows[:, v] = cfg.reduce(rows[:, v] * acc)
            acc = cfg.reduce(acc * values[:, v])
    return rows.reshape(-1, cols)
