"""Exact dense rank computation over a prime field or the rationals.

The modular backend is the workhorse: one elimination takes every rank and
rank profile, and leaves the certificate's inverse as a Schur complement.
Scalars live in [0, p) with p < 2^31, so a product of two is below 2^62.
Elimination adds such products to the trailing block without reducing it,
and reduces the block once every lag updates, lag being the largest L with
(p - 1) + L (p - 1)^2 < 2^63: between reductions no entry leaves int64, so
numpy row operations stay exact (lag is 8 at the default prime, 2 at
2^31 - 1).

The exact-rational backend gives characteristic-zero certainty; it is the
escalation step when a deficient modular rank needs confirmation. Every row
builder evaluates integer polynomials at integer points, so its matrices have
integer entries. Over Q a rank is the rank of an elimination modulo a large
prime, returned only once a certificate has proven it: the pivot block bounds
it from below, and an exact integer product writing every other column
through the pivot columns bounds it from above. Its lifting holds every
matrix in int64 limbs of one width, read back mod p by one Horner step.

Ranks are always taken at explicit points, so over GF(p) a computed rank can
only undercount the generic characteristic-zero rank. "computed == expected"
therefore certifies; "computed < expected" is only a candidate.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import isqrt, log10, prod
from typing import Sequence

import numpy as np

MODULAR = "modular"
EXACT_RATIONAL = "exact-rational"
BACKENDS = (MODULAR, EXACT_RATIONAL)

# Largest prime below 2^30: leaves headroom for 64-bit multiply-accumulate.
DEFAULT_MODULUS = 1073741789

# Largest condition matrix a caller may build, in entries. On the modular
# path (tracemalloc, caches warm) a stacked tangent matrix peaks at 23 bytes
# an entry to build and 31 to eliminate, matrix held, at (3,3,4), s = 21 (18
# and 24 at (5,5,5), s = 135), so this caps a matrix near 0.75 GB.
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


def brief(value: int | tuple[int, ...]) -> str:
    """An integer, or a tuple of them, as a refusal prints it: in full up to
    20 digits, longer ones by size, ~10^k (log10 reads the binary length;
    str() refuses an integer past 4300 digits)."""
    if isinstance(value, tuple):
        return "(" + ", ".join(map(brief, value)) + ")"
    return str(value) if value < 10**20 else f"~10^{int(log10(value))}"


def check_size(rows: int, cols: int, what: str) -> None:
    """Refuse, before any row is built, a matrix above MAX_MATRIX_ENTRIES."""
    if rows * cols > MAX_MATRIX_ENTRIES:
        raise ValueError(
            f"{what} needs a {brief(rows)} x {brief(cols)} matrix, above the "
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
    rows: np.ndarray | Sequence[Sequence[int]], cols: int, cfg: FieldConfig
) -> Matrix:
    """Assemble a Matrix from rows of integers, reducing every entry to
    canonical form. An array of cfg's dtype, as the row kernels return, is
    taken as canonical and kept as it is."""
    if isinstance(rows, np.ndarray) and rows.dtype == cfg.dtype:
        entries = rows
    elif len(rows):
        entries = cfg.array(rows)
    else:
        entries = np.zeros((0, cols), cfg.dtype)
    if entries.shape != (len(rows), cols):
        raise ValueError("ragged row in matrix construction")
    return Matrix(len(rows), cols, entries)


def rank(mat: Matrix, cfg: FieldConfig, ceiling: int | None = None) -> int:
    """Rank over GF(p) by Gaussian elimination, or over Q as a certified
    modular rank.

    Row and column rank agree, so the orientation is free, and the one with
    fewer columns is eliminated over both fields. Over Q the certificate
    must express each of its non-pivot columns, and there are
    min(rows, cols) - rank of them. A stacked tangent matrix keeps no
    Euler-redundant row, so that count is the true shortfall, and a
    full-rank cell has none. Over GF(p) the choice costs nothing: the
    elimination visits each column once and stops when it runs out of rows.

    ceiling, when given, is a proven upper bound on the rank over Q, such as
    terracini.singular_products gives; pivots that reach it are the rank
    over Q with no certificate, as their block bounds it from below.
    """
    transpose = mat.cols > mat.rows
    return len(_pivot_columns(mat, cfg, transpose, ceiling))


def rank_profile(mat: Matrix, cfg: FieldConfig) -> list[int]:
    """Row rank profile: the rows independent of every row above them.

    These are the pivot columns of the transpose, in increasing order, so
    the rank of the first k rows is bisect_left(profile, k).
    """
    return _pivot_columns(mat, cfg, transpose=True)


def _pivot_columns(
    mat: Matrix, cfg: FieldConfig, transpose: bool, ceiling: int | None = None
) -> list[int]:
    if mat.rows == 0 or mat.cols == 0:
        return []
    grid = mat.entries.T if transpose else mat.entries
    if cfg.is_modular:
        return _rank_modular(grid, cfg.modulus)[0]
    return _certified_pivots(grid, ceiling)


def ideal_dimension(mat: Matrix, cfg: FieldConfig) -> int:
    """Dimension of the solution space of the homogeneous system: cols - rank."""
    return mat.cols - rank(mat, cfg)


def _rank_modular(grid: np.ndarray, p: int) -> tuple[list[int], list[int]]:
    """_eliminate over every column of grid: its pivot columns and rows."""
    return _eliminate(grid, p, grid.shape[1])[:2]


def _eliminate(
    grid: np.ndarray, p: int, stop: int
) -> tuple[list[int], list[int], np.ndarray]:
    """The one GF(p) elimination: the pivot columns of an echelon form among
    the first stop columns of grid, the rows of grid swapped into the pivot
    positions, and the working copy; grid is not modified. Pivot rows and
    pivot columns cut out a block of grid that is nonsingular mod p.

    The trailing block holds non-negative entries congruent to those of a
    fully reduced elimination. Each pivot adds below * (-pivot row / head)
    to it, a product of two residues, and the block is reduced only before
    an update that could carry an entry past 2^63; the pivot column and the
    pivot row are reduced as they are read, the column once for the pivot
    search, the row swap and the update. The column below a pivot is never
    read again, so it is left as it is.

    Only rows below a pivot and columns right of it are updated. So if grid
    is [[B, A], [C, D]] with B a nonsingular k x k block and stop = k, every
    pivot comes from the top k rows, a row swap among them permutes B and A
    alike, and the working copy's lower-right block is congruent to the
    Schur complement D - C B^-1 A.
    """
    # a reduced, row-major working copy, whatever the layout of grid
    grid = np.remainder(grid, p, order="C")
    nrows = len(grid)
    order = list(range(nrows))
    pivots: list[int] = []
    # entries stay below (p - 1) + lag (p - 1)^2 < 2^63
    lag = (2**63 - p) // (p - 1) ** 2
    r = 0
    for c in range(stop):
        column = grid[r:, c] % p
        (nonzero,) = column.nonzero()
        if not nonzero.size:
            continue
        pivot = int(nonzero[0])
        if pivot:
            # the head was 0 mod p; the columns left of c are never read
            # again, so only the rest of the two rows is swapped
            other = r + pivot
            head = grid[other, c:].copy()
            grid[other, c:] = grid[r, c:]
            grid[r, c:] = head
            column[0], column[pivot] = column[pivot], 0
            order[r], order[other] = order[other], order[r]
        pivots.append(c)
        if r + 1 == nrows:
            break
        factor = grid[r, c + 1 :] % p * (p - pow(int(column[0]), -1, p)) % p
        block = grid[r + 1 :, c + 1 :]
        if r and r % lag == 0:
            np.remainder(block, p, out=block)
        block += column[1:, None] * factor
        r += 1
    return pivots, order[: len(pivots)], grid


def kernel_mod(values: np.ndarray, p: int) -> np.ndarray | None:
    """A basis mod p, one vector a row, of the kernel {v : values @ v = 0}
    of a matrix with fewer rows than columns and entries in [0, p); None
    when its rank is below its row count.

    _eliminate runs over the first rows-many columns of [values^T | I]. A
    row it leaves without a pivot is a combination of rows of I whose left
    block cancels, so its right block is a kernel vector, and those blocks
    are independent since the combinations are.
    """
    count, size = values.shape
    grid = np.concatenate((values.T, np.eye(size, dtype=np.int64)), axis=1)
    pivots, _, work = _eliminate(grid, p, count)
    if len(pivots) < count:
        return None
    return work[count:, count:] % p


def _certified_pivots(grid: np.ndarray, ceiling: int | None = None) -> list[int]:
    """Pivot columns of an integer matrix over Q, each set proven before it
    is returned.

    The pivots come from an elimination modulo a large prime p: the block of
    pivot rows and columns is nonsingular mod p, hence over Q, which bounds
    the rank from below. A ceiling on the rank that the pivots reach bounds
    it from above; otherwise _certify does. Where that fails, p
    divides some minor and the elimination is repeated at the next prime
    below; only finitely many primes divide a nonzero minor. The prime never
    depends on a sampling range, which may be small.
    """
    # operator.index refuses a fraction rather than truncate it, and turns a
    # numpy integer, whose products would overflow, into an unbounded one
    ints = np.frompyfunc(operator.index, 1, 1)(grid)
    p = DEFAULT_MODULUS
    while True:
        cols, rows = _rank_modular((ints % p).astype(np.int64), p)
        if len(cols) == ceiling or _certify(ints, rows, cols, p):
            return cols
        p -= 2
        while not is_prime(p):
            p -= 2


def _certify(ints: np.ndarray, rows: list[int], cols: list[int], p: int) -> bool:
    """Whether every non-pivot column of ints is a rational combination of
    the pivot columns to its left; then the rank is exactly len(cols).

    The combinations solve the pivot block against the non-pivot columns on
    the pivot rows, found by Dixon p-adic lifting (Numer. Math. 1982) and
    rebuilt by rational reconstruction (Wang-Guy-Davenport 1982). Only the
    exact product over every row proves them; lifting stops at the first
    reconstruction that passes it, or fails once p^k passes the Hadamard
    bound, beyond which the reconstruction is the exact solution.

    The inverse mod p, the block and the residual are held as int64 limbs
    of _limb_width bits, so a lifting step is two stacked matmuls, one read
    back mod p as the digit (_horner), one taken off the residual, and an
    exact division by p (_divide). The p-adic digits become Python integers
    only when a reconstruction is attempted.
    """
    pivots = set(cols)
    # with a pivot in every row the pivot block is invertible, so a column
    # past the last pivot is a combination of pivot columns to its left
    last = cols[-1] if len(rows) == len(ints) else ints.shape[1]
    others = [c for c in range(last) if c not in pivots]
    if not others:
        return True
    if not cols:
        return not any(ints.flat)
    block = ints[np.ix_(rows, cols)]
    rhs = ints[np.ix_(rows, others)]
    width = _limb_width(p, len(cols))
    inverse = _inverse_mod((block % p).astype(np.int64), p)
    inverse = _split(inverse, -(-p.bit_length() // width), width).reshape(-1, len(cols))
    largest = max(np.abs(block).max(), np.abs(rhs).max())
    count = -(-largest.bit_length() // width)
    limbs = _split(block, count, width).reshape(-1, len(cols))
    residual = _split(rhs, count, width)
    reduced = (rhs % p).astype(np.int64)
    # by Cramer's rule and Hadamard's bound, the solution's numerators and
    # denominators are at most prod |B_i| * max |b|; past twice its square,
    # reconstruction is unique
    height = prod(int((block[:, i] ** 2).sum()) for i in range(len(cols)))
    bound = 2 * height * max(int((rhs[:, j] ** 2).sum()) for j in range(len(others)))
    solution = np.zeros(rhs.shape, dtype=object)
    # digits lifted since the last attempt; the first has weight base
    digits: list[np.ndarray] = []
    power, base, steps, attempt = 1, 1, 0, 1
    while True:
        digit = _horner((inverse @ reduced).reshape(-1, *reduced.shape), p, width)
        digits.append(digit)
        residual -= (limbs @ digit).reshape(residual.shape)
        reduced = _divide(residual, p, width)
        power *= p
        steps += 1
        # reconstructing at geometrically spaced steps keeps the failed
        # attempts a small share of the lifting
        if steps < attempt and power <= bound:
            continue
        attempt += attempt // 2 + 1
        solution = solution + _join(digits, p) * base
        digits, base = [], power
        found = _reconstruct(solution, power)
        if found is not None and _combines(ints, cols, others, *found):
            return True
        if power > bound:
            return False


def _limb_width(p: int, depth: int) -> int:
    """Bits per limb of every limb stack of the lifting: a dot of depth
    terms, each a limb of size at most 2^width times a digit in [0, p),
    stays below 2^(depth.bit_length() + width + p.bit_length()) = 2^61."""
    return 61 - p.bit_length() - depth.bit_length()


def _split(values: np.ndarray, count: int, width: int) -> np.ndarray:
    """Integers below 2^(width count) in size, int64 or Python integers, as
    a stack of count int64 limbs: values = sum of limbs[l] * 2^(width l).

    Every limb but the last lies in [0, 2^width); the last keeps the sign and
    lies in [-2^width, 2^width).
    """
    mask = (1 << width) - 1
    limbs = np.empty((count, *values.shape), dtype=np.int64)
    for limb in limbs[:-1]:
        limb[...] = values & mask
        values = values >> width
    limbs[-1] = values
    return limbs


def _divide(residual: np.ndarray, p: int, width: int) -> np.ndarray:
    """Divide the integers that a stack of int64 limbs of width bits
    represents by p, in place, and return the quotients mod p (_horner).

    The division runs from the top limb down, carrying each remainder into
    the limb below, and must leave no remainder after the lowest limb.

    With b = p.bit_length() >= 4 and width from _limb_width, every entry
    stays in int64 (at b = 30: below 2^61, 2^62 and 2^32):
    - a limb holds a stored limb, below 2^(62 - b) in size, less a product
      limb, below p * 2^(61 - b) <= 2^61 (_limb_width);
    - adding the carry shifted up, below p * 2^width <= p * 2^(60 - b),
      keeps it below p * 2^(61 - b) + p * 2^(60 - b) + 2^(62 - b) < 2^62;
    - so its quotient is below 2^(61 - b) + 2^(60 - b) + 2^(63 - 2b) + 1
      <= 2^(62 - b), and stored limbs, which start at most 2^width in
      size, keep that bound through every step.
    """
    top = residual[-1]
    carry = np.empty_like(top)
    np.divmod(top, p, out=(top, carry))
    for limb in residual[-2::-1]:
        carry <<= width
        limb += carry
        np.divmod(limb, p, out=(limb, carry))
    if carry.any():
        raise ArithmeticError("a lifting step left a remainder mod p")
    return _horner(residual, p, width)


def _horner(limbs: np.ndarray, p: int, width: int) -> np.ndarray:
    """The integers that a stack of int64 limbs of width bits represents,
    mod p, by Horner's rule from the top limb down.

    With p < 2^31 and every limb below 2^62 in size, each step stays below
    (p - 1)^2 + 2^62 < 2^63. Summing the reduced limbs times 2^(width l)
    mod p instead would pass 2^63 at eight limbs.
    """
    shift = pow(2, width, p)
    out = limbs[-1] % p
    for limb in limbs[-2::-1]:
        out *= shift
        out += limb
        out %= p
    return out


def matmul_mod(left: np.ndarray, right: np.ndarray, p: int) -> np.ndarray:
    """left @ right mod p, for entries in [0, p): left split into int64 limbs
    of _limb_width bits for the inner dimension, each limb multiplied out,
    and the dots read back by _horner."""
    width = _limb_width(p, right.shape[0])
    limbs = _split(left, -(-p.bit_length() // width), width)
    return _horner(limbs @ right, p, width)


def _join(digits: list[np.ndarray], p: int) -> np.ndarray:
    """sum of digits[i] * p^i as Python integers."""
    # two digits at a time: d + d' p < p^2 < 2^62 stays in int64
    stack = np.array(digits + [np.zeros_like(digits[0])] * (len(digits) % 2))
    out = np.zeros(stack.shape[1:], dtype=object)
    for pair in (stack[::2] + stack[1::2] * p)[::-1]:
        out = out * (p * p) + pair
    return out


def _inverse_mod(block: np.ndarray, p: int) -> np.ndarray:
    """Inverse over GF(p) of a block B with entries in [0, p): minus the Schur
    complement 0 - I B^-1 I that _eliminate leaves of [[B, I], [I, 0]]. Row
    c of the bottom half offers a pivot until column c is eliminated, so B is
    singular mod p exactly when a pivot comes from there: ValueError."""
    size = len(block)
    grid = np.zeros((2 * size, 2 * size), dtype=np.int64)
    grid[:size, :size] = block
    grid[:size, size:] = grid[size:, :size] = np.eye(size, dtype=np.int64)
    _, rows, work = _eliminate(grid, p, size)
    if max(rows) >= size:
        raise ValueError("block is singular mod p")
    return -work[size:, size:] % p


def _reconstruct(
    solution: np.ndarray, modulus: int
) -> tuple[np.ndarray, int] | None:
    """Numerators and one common denominator whose quotients are congruent
    to solution mod modulus, all at most sqrt(modulus / 2) in size, or None.

    Each entry times the denominator so far is tried as a small numerator
    first; only where that fails is a new denominator factor reconstructed.
    """
    bound = isqrt(modulus // 2)
    den = 1
    nums: list[int] = []
    for value in solution.flat:
        scaled = value * den % modulus
        num = scaled if scaled <= bound else scaled - modulus
        if abs(num) > bound:
            found = _rational(scaled, modulus, bound)
            if found is None:
                return None
            num, factor = found
            den *= factor
            if den > bound:
                return None
            nums = [x * factor for x in nums]
        nums.append(num)
    return np.array(nums, dtype=object).reshape(solution.shape), den


def _rational(value: int, modulus: int, bound: int) -> tuple[int, int] | None:
    """(a, b) with a = b * value mod modulus, |a| <= bound and 0 < b <= bound,
    by the extended Euclidean algorithm, or None."""
    r0, r1 = modulus, value
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _combines(
    ints: np.ndarray, cols: list[int], others: list[int], nums: np.ndarray, den: int
) -> bool:
    """Whether ints[:, others] * den == ints[:, cols] @ nums exactly, with
    every non-pivot column drawing only on pivot columns to its left."""
    for j, col in enumerate(others):
        if any(nums[i, j] for i, c in enumerate(cols) if c > col):
            return False
    return np.array_equal(ints[:, cols] @ nums, ints[:, others] * den)
