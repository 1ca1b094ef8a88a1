"""Exact rank kernel: frozen values and algebraic invariances."""

import operator
import random
from bisect import bisect_left
from fractions import Fraction
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secantdim import linalg
from secantdim.linalg import (
    DEFAULT_MODULUS,
    EXACT_RATIONAL,
    FieldConfig,
    Matrix,
    _certify,
    _combines,
    _divide,
    _eliminate,
    _horner,
    _inverse_mod,
    _limb_width,
    _rank_modular,
    _reconstruct,
    _split,
    brief,
    ideal_dimension,
    is_prime,
    matrix_from_rows,
    rank,
    rank_profile,
)
from secantdim.schemes import (
    _condition_matrix,
    add_v_spans,
    projected_scheme,
    residual_trace,
    sample_scheme,
)
from secantdim.terracini import (
    SampleConfig,
    SegreVeroneseParams,
    derived_rng,
    derived_seed,
    sample_point_pairs,
    tangent_block,
)

MOD = FieldConfig()
RAT = FieldConfig(backend=EXACT_RATIONAL)


def _normalize(row):
    g = 0
    for x in row:
        g = gcd(g, x)
    if g > 1:
        row = [x // g for x in row]
    return row


def reference_pivots(rows):
    """Pivot columns of a fraction-free echelon form over the integers,
    gcd-normalized each step: the reference for the certified rank over Q."""
    work = [_normalize([operator.index(x) for x in row]) for row in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
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


def reference_rank_modular(grid, p):
    """Pivot columns and pivot rows of an elimination over GF(p) that reduces
    the whole trailing block after every pivot: the reference for the
    delayed-reduction kernel."""
    grid = np.remainder(grid, p, order="C")
    nrows, ncols = grid.shape
    order = list(range(nrows))
    pivots = []
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
            order[r], order[pivot] = order[pivot], order[r]
        inv = pow(int(grid[r, c]), -1, p)
        grid[r, c:] = grid[r, c:] * inv % p
        below = grid[r + 1 :, c]
        if below.size:
            # products stay under p^2 < 2^62, safe in int64
            grid[r + 1 :, c:] = (grid[r + 1 :, c:] - np.outer(below, grid[r, c:])) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots, order[:r]


def reference_inverse_mod(block, p):
    """Inverse over GF(p) by Gauss-Jordan, reducing the whole working matrix
    after every pivot: the reference for the delayed-reduction inverse."""
    size = len(block)
    work = np.concatenate([block, np.eye(size, dtype=np.int64)], axis=1)
    for c in range(size):
        pivot = c + int(np.flatnonzero(work[c:, c])[0])
        if pivot != c:
            work[[c, pivot]] = work[[pivot, c]]
        work[c] = work[c] * pow(int(work[c, c]), -1, p) % p
        column = work[:, c].copy()
        column[c] = 0
        work = (work - np.outer(column, work[c])) % p
    return work[:, size:]


def reference_split(values, count):
    """Integers as count 15-bit int64 limbs, the last keeping the sign."""
    values = values.astype(object)
    limbs = []
    for _ in range(count - 1):
        limbs.append((values & 0x7FFF).astype(np.int64))
        values = values >> 15
    limbs.append(values.astype(np.int64))
    return limbs


def reference_product(limbs, digit):
    """The exact product of a limb-split matrix and a matrix of residues, as
    Python integers."""
    out = (limbs[-1] @ digit).astype(object)
    for limb in reversed(limbs[:-1]):
        out = (out << 15) + (limb @ digit).astype(object)
    return out


def reference_certify(ints, rows, cols, p):
    """The certificate of linalg._certify with the inverse, the digits and
    the residual held as Python integers and the solution summed at every
    step: the reference for the int64 limb lifting. The attempt schedule is
    the same, so the verdicts must agree."""
    pivots = set(cols)
    others = [c for c in range(ints.shape[1]) if c not in pivots]
    if not others:
        return True
    if not cols:
        return not any(ints.flat)
    block = ints[np.ix_(rows, cols)]
    rhs = ints[np.ix_(rows, others)]
    inverse = reference_inverse_mod((block % p).astype(np.int64), p).astype(object)
    limbs = reference_split(block, max(x.bit_length() for x in block.flat) // 15 + 2)
    height = prod(int((block[:, i] ** 2).sum()) for i in range(len(cols)))
    bound = 2 * height * max(int((rhs[:, j] ** 2).sum()) for j in range(len(others)))
    residual = rhs
    solution = np.zeros(rhs.shape, dtype=object)
    power, steps, attempt = 1, 0, 1
    while True:
        digit = (inverse @ (residual % p) % p).astype(np.int64)
        solution = solution + digit.astype(object) * power
        residual = (residual - reference_product(limbs, digit)) // p
        power *= p
        steps += 1
        if steps < attempt and power <= bound:
            continue
        attempt += attempt // 2 + 1
        found = _reconstruct(solution, power)
        if found is not None and _combines(ints, cols, others, *found):
            return True
        if power > bound:
            return False


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
    assert mat.entries.tolist() == [[1, 6, 0]]


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


@st.composite
def chosen_rank_matrices(draw):
    """U @ V for random integer factors U (rows x k) and V (k x cols), so
    the rank is at most k; wide entries exercise several limbs and signs."""
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    k = draw(st.integers(0, min(rows, cols)))
    bound = draw(st.sampled_from([3, 2**20, 2**70]))
    def factor(height, width):
        row = st.lists(st.integers(-bound, bound), min_size=width, max_size=width)
        return draw(st.lists(row, min_size=height, max_size=height))

    u, v = factor(rows, k), factor(k, cols)
    grid = [
        [sum(u[i][t] * v[t][j] for t in range(k)) for j in range(cols)]
        for i in range(rows)
    ]
    return grid, cols


@settings(max_examples=300, deadline=None)
@given(chosen_rank_matrices())
def test_certified_rank_and_profile_match_the_reference(matrix):
    grid, cols = matrix
    mat = matrix_from_rows(grid, cols, RAT)
    assert rank(mat, RAT) == len(reference_pivots(grid))
    transpose = [list(col) for col in zip(*grid)]
    assert rank_profile(mat, RAT) == reference_pivots(transpose)


KERNEL_PRIMES = (7, DEFAULT_MODULUS, 2**31 - 1)


def kernel_cases(p):
    """Matrices over GF(p) with at least 20 pivots, so the delayed reduction
    runs through several lag cycles (8 updates at the default prime, 2 at
    2^31 - 1), plus the all-(p - 1) matrix, each also transposed."""
    rng = np.random.default_rng(p % 1000)
    full = rng.integers(0, p, size=(40, 45))
    # mostly zero entries: heads vanish and the pivot search runs on
    sparse = full * (rng.random(full.shape) < 0.2)
    zero_columns = full.copy()
    zero_columns[:, ::3] = 0
    u = rng.integers(0, p, size=(60, 25)).astype(object)
    v = rng.integers(0, p, size=(25, 50)).astype(object)
    deficient = (u @ v % p).astype(np.int64)
    top = np.full((30, 36), p - 1)
    # each pivot of this matrix has head p - 1, the entries below it p - 1
    # and its row p - 1 times (1, -1, 1, -1, ...): every update adds
    # (p - 1)^2 to the even columns, the worst case for the lag bound, and
    # p - 1 to the odd ones. Below it go the negatives of ten of its rows:
    # their updates stay small, so they vanish only if no entry overflowed
    i, j = np.indices((30, 36))
    sign = 1 - 2 * (j % 2)
    worst = np.where(i < j, -(1 + i) * sign, -1 - j * sign) % p
    worst = np.vstack([worst, -worst[10:20] % p])
    cases = [full, sparse, zero_columns, deficient, top, worst]
    return cases + [case.T for case in cases]


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_delayed_reduction_matches_the_reference_kernel(p):
    ranks = []
    for grid in kernel_cases(p):
        before = grid.copy()
        pivots, rows = _rank_modular(grid, p)
        assert (pivots, rows) == reference_rank_modular(grid, p)
        assert np.array_equal(grid, before)
        # the pivot rows and columns cut out a block nonsingular mod p,
        # whose inverse the certificate takes
        block = grid[np.ix_(rows, pivots)]
        assert len(reference_rank_modular(block, p)[0]) == len(pivots)
        before = block.copy()
        inverse = _inverse_mod(block, p)
        assert np.array_equal(inverse, reference_inverse_mod(block, p))
        assert np.array_equal(block, before)
        identity = block.astype(object) @ inverse.astype(object) % p
        assert np.array_equal(identity, np.eye(len(pivots), dtype=int))
        # with the pivot rows and columns first, eliminating the pivot
        # columns leaves the Schur complement D - C B^-1 A in the lower right
        k = len(pivots)
        rest_rows = [i for i in range(grid.shape[0]) if i not in rows]
        rest_cols = [j for j in range(grid.shape[1]) if j not in pivots]
        stacked = grid[np.ix_(rows + rest_rows, pivots + rest_cols)]
        _, top, work = _eliminate(stacked, p, k)
        assert max(top) < k
        a = grid[np.ix_(rows, rest_cols)].astype(object)
        c = grid[np.ix_(rest_rows, pivots)].astype(object)
        d = grid[np.ix_(rest_rows, rest_cols)].astype(object)
        schur = (d - c @ reference_inverse_mod(block, p).astype(object) @ a) % p
        assert np.array_equal(work[k:, k:] % p, schur)
        ranks.append(len(pivots))
    # every case but the all-(p - 1) one runs through at least 25 pivots
    assert ranks == [40, 40, 30, 25, 1, 30] * 2


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_inverse_refuses_a_block_singular_mod_p(p):
    rng = np.random.default_rng(p % 1000)
    for size in (2, 5, 30):
        equal_rows = rng.integers(0, p, size=(size, size))
        equal_rows[-1] = equal_rows[0]
        zero_column = rng.integers(0, p, size=(size, size))
        zero_column[:, 0] = 0
        u = rng.integers(0, p, size=(size, size - 1)).astype(object)
        v = rng.integers(0, p, size=(size - 1, size)).astype(object)
        deficient = (u @ v % p).astype(np.int64)
        for block in (equal_rows, zero_column, deficient):
            with pytest.raises(ValueError):
                _inverse_mod(block, p)


def scheme_cases(p):
    """The condition matrices of theorem-suite cases drawn from range(p):
    for each of a few verify-grid cells, q and t, the scheme and the spanned
    configuration, both halves of the split and the projected residual. About
    half their entries are zero, and at about half the pivots the head is
    zero and the search runs."""
    field = FieldConfig(modulus=p)
    cases = []
    for n, m, d in [(1, 1, 3), (1, 3, 4), (2, 2, 3), (3, 1, 4), (3, 2, 3)]:
        for q, t in [(1, 0), (1, 2), (2, 1)]:
            params = SegreVeroneseParams(n, m, d)
            rng = derived_rng(p, n, m, d, q, t)
            scheme = sample_scheme(
                params, (n + 1) * q, t, rng, p, specialize=True
            )
            spanned = add_v_spans(scheme)
            split = residual_trace(spanned, d + 1)
            for spec, degree in [
                (scheme, d + 1),
                (spanned, d + 1),
                (split.residual, split.residual_degree),
                (split.trace, split.trace_degree),
                (projected_scheme(split.residual), d),
            ]:
                mat, _ = _condition_matrix(spec, degree, field)
                if mat.rows:
                    cases += [mat.entries, mat.entries.T]
    return cases


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_kernel_matches_the_reference_on_scheme_matrices(p):
    swapped = pivot_count = zeros = entries = 0
    for grid in scheme_cases(p):
        pivots, rows = _rank_modular(grid, p)
        assert (pivots, rows) == reference_rank_modular(grid, p)
        zeros += (grid % p == 0).sum()
        entries += grid.size
        # the search's row swaps leave these pivot rows out of order
        swapped += sum(row != i for i, row in enumerate(rows))
        pivot_count += len(pivots)
    assert 0.3 < zeros / entries < 0.7
    assert swapped > pivot_count / 2


P = DEFAULT_MODULUS


@pytest.mark.parametrize(
    "grid, expected",
    [
        # rank_p 1: the first prime divides an entry
        ([[P, 0], [0, 1]], 2),
        # every entry a multiple of p: rank_p 0
        ([[P, 2 * P, 3 * P], [4 * P, 5 * P, 6 * P]], 2),
        # the only maximal minor is -3p; the 2 x 2 minors are not
        ([[1, 2, 3], [4, 5, 6], [7, 8, 9 + P]], 3),
    ],
)
def test_certificate_falls_back_when_the_first_prime_divides_a_minor(
    grid, expected
):
    cols = len(grid[0])
    assert rank(matrix_from_rows(grid, cols, MOD), MOD) < expected
    mat = matrix_from_rows(grid, cols, RAT)
    assert rank(mat, RAT) == len(reference_pivots(grid)) == expected
    transpose = [list(col) for col in zip(*grid)]
    assert rank_profile(mat, RAT) == reference_pivots(transpose)


def primes_below(p, count):
    found = []
    while len(found) < count:
        p -= 2
        if is_prime(p):
            found.append(p)
    return found


# the prime of a first certificate and the first two fallbacks
CERTIFY_PRIMES = (DEFAULT_MODULUS, *primes_below(DEFAULT_MODULUS, 2))
# limb widths change between 63 and 64 columns and between 127 and 128
DEPTHS = (1, 63, 64, 127, 128)


def test_limb_width_keeps_the_lifting_in_int64():
    for p in (*CERTIFY_PRIMES, 2**31 - 1):
        widths = [_limb_width(p, depth) for depth in DEPTHS]
        assert widths[1] == widths[2] + 1 == widths[3] + 1 == widths[4] + 2
        for depth, width in zip(DEPTHS + (5000,), widths + [_limb_width(p, 5000)]):
            assert depth * 2**width * p <= 2**61
            # the largest product a step takes, in int64 and exactly
            top = np.full((2, depth), -(2**width)) @ np.full((depth, 1), p - 1)
            assert top.tolist() == [[-depth * 2**width * (p - 1)]] * 2


@pytest.mark.parametrize("p", (*CERTIFY_PRIMES, 2**31 - 1))
@pytest.mark.parametrize("depth", DEPTHS + (5000,))
def test_inverse_limb_product_of_extreme_residues(p, depth):
    # the digit step's product at its largest: inverse entries and digits of
    # p - 1 make every product limb a dot at the top of its range
    width = _limb_width(p, depth)
    rng = np.random.default_rng(depth)
    inverse = np.full((3, depth), p - 1, dtype=np.int64)
    inverse[1] = rng.integers(0, p, depth)
    digit = np.full((depth, 2), p - 1, dtype=np.int64)
    digit[:, 1] = rng.integers(0, p, depth)
    limbs = _split(inverse, -(-p.bit_length() // width), width)
    product = inverse.astype(object) @ digit.astype(object)
    assert np.array_equal(_horner(limbs @ digit, p, width), product % p)


def limb_value(limbs, width):
    return sum(limb.astype(object) << width * l for l, limb in enumerate(limbs))


@pytest.mark.parametrize("p", CERTIFY_PRIMES)
@pytest.mark.parametrize("depth", DEPTHS)
def test_exact_division_of_extreme_limbs(p, depth):
    # stored limbs at their bound 2^(62 - b) less extreme step products, in
    # 40 limbs: a sum of unreduced limb residues would pass 2^63
    width = _limb_width(p, depth)
    stored = 2 ** (62 - p.bit_length()) - 1
    rng = np.random.default_rng(depth)
    signs = rng.choice([-1, 1], size=(40, 3, 2))
    signs[0] = 1
    product = np.full((1, depth), 2**width) @ np.full((depth, 2), p - 1)
    limbs = signs * stored - signs[::-1] * product
    # the lowest stored limb, at + stored, moves toward zero to make the
    # value a multiple of p
    value = limb_value(limbs, width)
    limbs[0] -= (value % p).astype(np.int64)
    value = limb_value(limbs, width)
    assert not (value % p).any() and (abs(value) > 2 ** (39 * width)).all()
    reduced = _divide(limbs, p, width)
    assert np.array_equal(limb_value(limbs, width) * p, value)
    assert np.abs(limbs).max() < 2 ** (62 - p.bit_length())
    assert np.array_equal(reduced, value // p % p)
    limbs[0, 1, 1] += 1
    with pytest.raises(ArithmeticError):
        _divide(limbs, p, width)


def signed_integers(rand, shape, bits):
    """Nonzero integers below 2^bits in size, of random sign."""
    values = [
        rand.choice((-1, 1)) * rand.randrange(1, 2**bits) for _ in range(prod(shape))
    ]
    return np.array(values, dtype=object).reshape(shape)


def certify_cases(p):
    """Integer matrices of rank 1 to 128 with two or three non-pivot
    columns, and whether their certificates pass:
    - U @ V with entries of 60 to 200 bits and of either sign;
    - at depths 1 and 64, the same with p times a random column added to
      the last, which only a lifting to the Hadamard bound refutes;
    - at each depth, entries +-(2^k - 1) with k a multiple of the limb
      width, and the rank-1 matrix of entries -(2^k - 1): a negative entry
      has the top limb -2^width, the largest in size."""
    rand = random.Random(p)
    cases = []
    for depth, bits in zip(DEPTHS, (200, 140, 120, 60, 60)):
        # small factors on the right keep the solutions, and so the lifting, short
        grid = signed_integers(rand, (depth + 3, depth), bits) @ signed_integers(
            rand, (depth, depth + 2), 2
        )
        cases.append((grid, True))
        if depth in (1, 64):
            broken = grid.copy()
            broken[:, -1] += p * signed_integers(rand, (depth + 3,), 8)
            cases.append((broken, False))
        k = 4 * _limb_width(p, depth)
        signs = signed_integers(rand, (depth, depth + 3), 1)
        cases.append((signs * (2**k - 1), True))
    cases.append((np.full((5, 4), -(2 ** (3 * _limb_width(p, 1)) - 1), dtype=object), True))
    return cases


@pytest.mark.parametrize("p", CERTIFY_PRIMES)
def test_certificate_matches_the_reference_lifting(p):
    for ints, expected in certify_cases(p):
        cols, rows = _rank_modular((ints % p).astype(np.int64), p)
        assert _certify(ints, rows, cols, p) == expected
        assert reference_certify(ints, rows, cols, p) == expected


def test_certified_profile_keeps_the_order_of_the_rows():
    # mod p the first row vanishes and the profile would read [1, 2]; the
    # rank is 2 either way, so only the order tells the two apart
    grid = [[P, 0], [0, 1], [1, 0]]
    assert rank_profile(matrix_from_rows(grid, 2, MOD), MOD) == [1, 2]
    assert rank_profile(matrix_from_rows(grid, 2, RAT), RAT) == [0, 1]


def test_full_row_rank_profile_lifts_nothing_past_its_last_pivot(monkeypatch):
    # the transposed grid has a pivot in every row, so its pivot columns span
    # all of Q^rows and the non-pivot columns past the last pivot need no
    # certificate; one left of it still does, since p may misplace a pivot
    def refuse(block, p):
        raise AssertionError("the certificate lifted")

    monkeypatch.setattr(linalg, "_inverse_mod", refuse)
    grid = signed_integers(random.Random(0), (9, 6), 80)
    transpose = [list(col) for col in zip(*grid.tolist())]
    profile = rank_profile(matrix_from_rows(grid.tolist(), 6, RAT), RAT)
    assert profile == reference_pivots(transpose) == list(range(6))
    grid[1] = 3 * grid[0]
    with pytest.raises(AssertionError, match="lifted"):
        rank_profile(matrix_from_rows(grid.tolist(), 6, RAT), RAT)


@pytest.mark.parametrize(
    "cell, s, expected",
    [((2, 3, 2), 5, 29), ((4, 3, 2), 6, 47), ((2, 5, 2), 8, 62)],
)
def test_defect_candidates_have_their_rank_over_q(cell, s, expected):
    # the tangent matrices of the three d = 2 defects at seed 0, trial 0,
    # as the scan escalates them
    params = SegreVeroneseParams(*cell)
    cfg = SampleConfig(seed=derived_seed(0, *cell), field=RAT)
    blocks = [
        tangent_block(params, pt, RAT).entries
        for pt in sample_point_pairs(params, s, cfg, 0)
    ]
    entries = np.vstack(blocks)
    mat = Matrix(*entries.shape, entries)
    assert rank(mat, RAT) == expected
    profile = rank_profile(mat, RAT)
    assert len(profile) == expected
    # every point adds a block with one Euler-redundant row
    assert bisect_left(profile, len(blocks[0])) == len(blocks[0]) - 1


def test_exact_rank_refuses_a_fraction():
    # exact rank takes integer matrices only; int() would truncate
    rows = [[Fraction(1, 2), 1], [1, 1]]
    with pytest.raises(TypeError):
        rank(matrix_from_rows(rows, 2, RAT), RAT)


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


def test_brief_prints_long_integers_by_size():
    assert brief(739024) == "739024"
    assert brief(10**20 - 1) == "9" * 20
    assert brief(10**20) == "~10^20"
    # str() refuses an integer this long
    assert brief(10**5000) == "~10^5000"
    assert brief((1, 10**4213, 3)) == "(1, ~10^4213, 3)"
