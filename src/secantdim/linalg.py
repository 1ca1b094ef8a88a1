"""Exact dense rank computation over a prime field or the rationals.

The modular backend is the workhorse: scalars live in [0, p) with p < 2^31,
so any product of two of them fits in a signed 64-bit intermediate and numpy
row operations stay exact. The exact-rational backend trades speed for
characteristic-zero certainty; it is the escalation path when a deficient
modular rank needs confirmation.

Ranks are always taken at explicit points, so over GF(p) a computed rank can
only undercount the generic characteristic-zero rank. "computed == expected"
therefore certifies; "computed < expected" is only a candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence, Union

import numpy as np

Scalar = Union[int, Fraction]

MODULAR = "modular"
EXACT_RATIONAL = "exact-rational"
BACKENDS = (MODULAR, EXACT_RATIONAL)

# Largest prime below 2^30: leaves headroom for 64-bit multiply-accumulate.
DEFAULT_MODULUS = 1073741789

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(value: int) -> bool:
    """Deterministic Miller-Rabin; exact for every integer below 3.3e24."""
    if value < 2:
        return False
    for base in _MR_BASES:
        if value % base == 0:
            return value == base
    odd = value - 1
    twos = 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for base in _MR_BASES:
        x = pow(base, odd, value)
        if x in (1, value - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % value
            if x == value - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldConfig:
    """Choice of scalar field: GF(modulus) or exact rationals.

    The modulus doubles as the coordinate-sampling range for both backends,
    so escalating a modular run to exact arithmetic reuses the same points.
    """

    modulus: int = DEFAULT_MODULUS
    backend: str = MODULAR

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if not 2 < self.modulus < 2**31:
            raise ValueError("modulus must lie in (2, 2^31) for 64-bit safety")
        if not is_prime(self.modulus):
            raise ValueError(f"modulus {self.modulus} is not prime")

    @property
    def is_modular(self) -> bool:
        return self.backend == MODULAR

    def to_rational(self) -> "FieldConfig":
        """Same coordinate range, exact-rational arithmetic."""
        return FieldConfig(modulus=self.modulus, backend=EXACT_RATIONAL)


DEFAULT_FIELD = FieldConfig()


def require_headroom(cfg: FieldConfig, degree: int) -> None:
    """Reject a modulus too small for Euler-identity row elimination.

    Dropping the value row of a double point is only valid when the working
    degree is invertible in the field.
    """
    if cfg.is_modular and cfg.modulus <= degree:
        raise ValueError(
            f"modulus {cfg.modulus} must exceed the working degree {degree}"
        )


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix; entries row-major, canonical for the backend."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match rows * cols")

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]


def matrix_from_rows(
    rows: Sequence[Sequence[Scalar]], cols: int, cfg: FieldConfig
) -> Matrix:
    """Assemble a Matrix, reducing every entry to canonical form."""
    flat: list = []
    for row in rows:
        if len(row) != cols:
            raise ValueError("ragged row in matrix construction")
        if cfg.is_modular:
            p = cfg.modulus
            flat.extend(int(x) % p for x in row)
        else:
            flat.extend(Fraction(x) for x in row)
    return Matrix(len(rows), cols, tuple(flat))


def rank(mat: Matrix, cfg: FieldConfig) -> int:
    """Rank by Gaussian elimination with first-nonzero pivoting."""
    return len(_pivot_columns(mat, cfg, transpose=False))


def rank_profile(mat: Matrix, cfg: FieldConfig) -> list[int]:
    """Row rank profile: the rows independent of every row above them.

    These are the pivot columns of the transpose, in increasing order, so
    the rank of the first k rows is bisect_left(profile, k).
    """
    return _pivot_columns(mat, cfg, transpose=True)


def _pivot_columns(mat: Matrix, cfg: FieldConfig, transpose: bool) -> list[int]:
    if mat.rows == 0 or mat.cols == 0:
        return []
    if cfg.is_modular:
        grid = np.array(mat.entries, dtype=np.int64).reshape(mat.rows, mat.cols)
        # copy() lays the transpose out row-major again for the row operations
        return _rank_modular(grid.T.copy() if transpose else grid, cfg.modulus)
    lists = [list(mat.row(i)) for i in range(mat.rows)]
    if transpose:
        lists = [list(col) for col in zip(*lists)]
    return _rank_exact(lists)


def ideal_dimension(mat: Matrix, cfg: FieldConfig) -> int:
    """Dimension of the solution space of the homogeneous system: cols - rank."""
    return mat.cols - rank(mat, cfg)


def _rank_modular(grid: np.ndarray, p: int) -> list[int]:
    """Pivot columns of an echelon form over GF(p)."""
    grid = grid % p
    nrows, ncols = grid.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = -1
        for i in range(r, nrows):
            if grid[i, c]:
                pivot = i
                break
        if pivot < 0:
            continue
        if pivot != r:
            grid[[r, pivot]] = grid[[pivot, r]]
        inv = pow(int(grid[r, c]), -1, p)
        grid[r, c:] = grid[r, c:] * inv % p
        below = grid[r + 1 :, c]
        if below.size:
            # products stay under p^2 < 2^60, safe in int64
            grid[r + 1 :, c:] = (grid[r + 1 :, c:] - np.outer(below, grid[r, c:])) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _scale_to_integers(row: Sequence[Scalar]) -> list[int]:
    fracs = [Fraction(x) for x in row]
    den = 1
    for f in fracs:
        den = den * f.denominator // gcd(den, f.denominator)
    ints = [int(f * den) for f in fracs]
    return _normalize(ints)


def _normalize(row: list[int]) -> list[int]:
    g = 0
    for x in row:
        g = gcd(g, x)
    if g > 1:
        row = [x // g for x in row]
    return row


def _rank_exact(rows: list[list[Scalar]]) -> list[int]:
    """Pivot columns of a fraction-free echelon form over the integers,
    gcd-normalized each step."""
    work = [_scale_to_integers(row) for row in rows]
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), -1)
        if pivot < 0:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        prow = work[r]
        lead = prow[c]
        for i in range(r + 1, len(work)):
            head = work[i][c]
            if not head:
                continue
            work[i] = _normalize(
                [lead * x - head * y for x, y in zip(work[i], prow)]
            )
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return pivots
