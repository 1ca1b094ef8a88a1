"""Exact dense rank computation over a prime field or the rationals.

The modular backend is the workhorse: scalars live in [0, p) with p < 2^31,
so any product of two of them fits in a signed 64-bit intermediate and numpy
row operations stay exact. The exact-rational backend trades speed for
characteristic-zero certainty; it is the escalation step when a deficient
modular rank needs confirmation. Every row builder evaluates integer
polynomials at integer points, so its matrices have integer entries and a
fraction-free elimination gives their rank over Q.

Ranks are always taken at explicit points, so over GF(p) a computed rank can
only undercount the generic characteristic-zero rank. "computed == expected"
therefore certifies; "computed < expected" is only a candidate.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd
from typing import Sequence

import numpy as np

MODULAR = "modular"
EXACT_RATIONAL = "exact-rational"
BACKENDS = (MODULAR, EXACT_RATIONAL)

# Largest prime below 2^30: leaves headroom for 64-bit multiply-accumulate.
DEFAULT_MODULUS = 1073741789

# Largest condition matrix a caller may build, in entries. Rows, the matrix
# and its elimination peak near 60 bytes per entry on the modular path
# (tracemalloc: 57 at (3,3,4), s = 21), so this caps a matrix near 1.4 GB.
MAX_MATRIX_ENTRIES = 24_000_000

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

    @property
    def dtype(self) -> type:
        """Array dtype of canonical scalars: int64 residues mod p, or Python
        numbers in an object array over Q."""
        return np.int64 if self.is_modular else object

    def reduce(self, values):
        """Canonical form of a product: its residue mod p, or itself over Q.

        Works on Python integers and on arrays of this config's dtype; two
        residues below 2^31 multiply without leaving int64.
        """
        return values % self.modulus if self.is_modular else values

    def product(self, factors: np.ndarray) -> np.ndarray:
        """Product over the first axis, reduced after every factor."""
        out = factors[0]
        for factor in factors[1:]:
            out = self.reduce(out * factor)
        return out

    def array(self, values) -> np.ndarray:
        """values (nested sequences of integers) as an array of canonical
        scalars."""
        if not self.is_modular:
            return np.array(values, dtype=object)
        try:
            return np.array(values, dtype=np.int64) % self.modulus
        except OverflowError:
            # integers beyond int64 reduce as Python integers first
            return (np.array(values, dtype=object) % self.modulus).astype(
                np.int64
            )


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


def check_size(rows: int, cols: int, what: str) -> None:
    """Refuse, before any row is built, a matrix above MAX_MATRIX_ENTRIES."""
    if rows * cols > MAX_MATRIX_ENTRIES:
        raise ValueError(
            f"{what} needs a {rows} x {cols} matrix, above the "
            f"{MAX_MATRIX_ENTRIES} entry limit"
        )


@dataclass(frozen=True, eq=False)
class Matrix:
    """Immutable dense matrix held as one rows x cols array of canonical
    entries: int64 residues for GF(p), Python integers (object dtype) for
    Q."""

    rows: int
    cols: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if np.shape(self.entries) != (self.rows, self.cols):
            raise ValueError("entry array does not have shape rows x cols")

    def row(self, i: int) -> tuple:
        return tuple(self.entries[i].tolist())


def matrix_from_rows(
    rows: Sequence[Sequence[int]], cols: int, cfg: FieldConfig
) -> Matrix:
    """Assemble a Matrix, reducing every entry to canonical form."""
    entries = cfg.array(rows) if len(rows) else np.zeros((0, cols), cfg.dtype)
    if entries.shape != (len(rows), cols):
        raise ValueError("ragged row in matrix construction")
    return Matrix(len(rows), cols, entries)


def rank(mat: Matrix, cfg: FieldConfig) -> int:
    """Rank by Gaussian elimination with first-nonzero pivoting.

    Row and column rank agree, so over GF(p) the orientation with fewer rows
    is eliminated: it needs fewer pivot steps. Over Q the rows are kept as
    given; on the tall tangent matrices of the d = 2 defect cells the
    fraction-free elimination of the transpose is about 20% slower.
    """
    transpose = cfg.is_modular and mat.rows > mat.cols
    return len(_pivot_columns(mat, cfg, transpose))


def rank_profile(mat: Matrix, cfg: FieldConfig) -> list[int]:
    """Row rank profile: the rows independent of every row above them.

    These are the pivot columns of the transpose, in increasing order, so
    the rank of the first k rows is bisect_left(profile, k).
    """
    return _pivot_columns(mat, cfg, transpose=True)


def _pivot_columns(mat: Matrix, cfg: FieldConfig, transpose: bool) -> list[int]:
    if mat.rows == 0 or mat.cols == 0:
        return []
    grid = mat.entries.T if transpose else mat.entries
    if cfg.is_modular:
        return _rank_modular(grid, cfg.modulus)
    return _rank_exact(grid.tolist())


def ideal_dimension(mat: Matrix, cfg: FieldConfig) -> int:
    """Dimension of the solution space of the homogeneous system: cols - rank."""
    return mat.cols - rank(mat, cfg)


def _rank_modular(grid: np.ndarray, p: int) -> list[int]:
    """Pivot columns of an echelon form over GF(p); grid is not modified."""
    # a reduced, row-major working copy, whatever the layout of grid
    grid = np.remainder(grid, p, order="C")
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


def _normalize(row: list[int]) -> list[int]:
    g = 0
    for x in row:
        g = gcd(g, x)
    if g > 1:
        row = [x // g for x in row]
    return row


def _rank_exact(rows: list[list[int]]) -> list[int]:
    """Pivot columns of a fraction-free echelon form over the integers,
    gcd-normalized each step.

    Entries become Python integers through operator.index, which refuses a
    fraction rather than truncate it and turns a numpy integer, whose
    fraction-free products would overflow, into an unbounded one.
    """
    work = [_normalize([operator.index(x) for x in row]) for row in rows]
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
