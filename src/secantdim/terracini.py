"""Tangent-space machinery for the bidegree-(1,d) embedding of P^n x P^m.

A tangent block collects all n+m+2 first partials of the bidegree-(1,d)
monomials at one sampled point. The two Euler identities make one row
redundant, so a single block has rank at most n+m+1; stacking s blocks
realizes the span of s tangent spaces and the secant dimension is that rank
minus one. The stacked matrix that ranks are taken of leaves that row out:
it keeps n+m+1 rows per point, which span the same space (see
stacked_tangent_matrix), so every rank and every report is the same as with
the full blocks. Sampling happens at explicit points, so each computed rank
lower bounds the generic one: equality with the expected count certifies, a
shortfall is only a candidate.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterable, Sequence

import numpy as np

from .linalg import (
    DEFAULT_FIELD,
    DEFAULT_MODULUS,
    MAX_MATRIX_ENTRIES,
    FieldConfig,
    Matrix,
    brief,
    check_size,
    kernel_mod,
    matmul_mod,
    matrix_from_rows,
    rank,
    rank_profile,
    require_headroom,
)
from .monomials import (
    CACHE_SIZE,
    ExponentVector,
    bihomogeneous_basis,
    derivative_rows,
    evaluation_row,
    graded_basis,
)
from .streams import Stream, first_state_word

# every report prints N = (n+1)C(m+d, d) - 1 or thresholds of that size, and
# Python prints an int of at most 4300 digits by default
MAX_COUNT_DIGITS = 4300
_MAX_COUNT = 10**MAX_COUNT_DIGITS - 1


@dataclass(frozen=True)
class SegreVeroneseParams:
    """The triple (n, m, d): P^n x P^m embedded by forms of bidegree (1, d)."""

    n: int
    m: int
    d: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1 or self.d < 1:
            raise ValueError("need n >= 1, m >= 1, d >= 1")
        if _count_exceeds(self.n, self.m, self.d, _MAX_COUNT):
            raise ValueError(
                f"(n+1)C(m+d, d) has more than {MAX_COUNT_DIGITS} digits "
                f"at (n, m, d) = {brief((self.n, self.m, self.d))}"
            )

    @property
    def coefficient_count(self) -> int:
        """(n+1) * C(m+d, d), the size of the bidegree-(1,d) basis."""
        return (self.n + 1) * comb(self.m + self.d, self.d)

    @property
    def ambient_dim(self) -> int:
        """N: the embedding lands in P^N."""
        return self.coefficient_count - 1

    @property
    def variety_dim(self) -> int:
        return self.n + self.m


def _count_exceeds(n: int, m: int, d: int, cap: int) -> bool:
    """Whether (n+1)C(m+d, d) > cap, without building a count past cap.

    The running product (n+1)C(k+i, i) over i = 1..min(m, d), with
    k = max(m, d), is exact at every step and grows by a factor of at least
    2 per step, so it passes any cap within log2(cap) steps.
    """
    k = max(m, d)
    count = n + 1
    for i in range(1, min(m, d) + 1):
        if count > cap:
            return True
        count = count * (k + i) // i
    return count > cap


@dataclass(frozen=True)
class PointPair:
    """A point of P^n x P^m, both factors in homogeneous coordinates."""

    p: tuple[int, ...]
    q: tuple[int, ...]

    def __post_init__(self) -> None:
        if not any(self.p) or not any(self.q):
            raise ValueError("projective point needs a nonzero coordinate")


@dataclass(frozen=True)
class SampleConfig:
    """Reproducible sampling policy over trials first_trial .. trials - 1."""

    seed: int = 0
    trials: int = 2  # trials >= 2 guards against bad draws
    field: FieldConfig = DEFAULT_FIELD
    first_trial: int = 0  # above 0 only where scanner.settle skips known draws

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= self.first_trial < self.trials:
            raise ValueError("need 0 <= first_trial < trials")


def derived_rng(seed: int, *key: int) -> Stream:
    """Independent, reproducible stream for a (seed, key path) pair.

    It is computed in the package (streams.Stream) and draws what numpy's
    default_rng(SeedSequence(seed, spawn_key=key)) draws, so the sampled
    points do not depend on the installed numpy's Generator.
    """
    return Stream(seed, key)


def derived_seed(seed: int, *key: int) -> int:
    """Collapse a key path to a plain integer seed for nested configs:
    numpy's SeedSequence(seed, spawn_key=key).generate_state(1)[0],
    computed in the package (streams.first_state_word)."""
    return first_state_word(seed, key)


def draw_projective_point(
    rng: Stream,
    nvars: int,
    modulus: int,
    zero_coord: int | None = None,
    nonzero_tail: int = 0,
) -> tuple[int, ...]:
    """Uniform point of GF(p)^nvars minus the zero vector.

    The coordinates are rng.integers(0, modulus, size=nvars), redrawn until
    the point is kept, so a derived_rng stream and numpy's
    default_rng(SeedSequence(seed, spawn_key=key)) give the same points.

    zero_coord pins one coordinate to 0 (specialization onto a coordinate
    hyperplane); nonzero_tail = k rejects draws whose last k coordinates all
    vanish, keeping the point off the subspace they cut out.
    """
    while True:
        coords = [int(x) for x in rng.integers(0, modulus, size=nvars)]
        if zero_coord is not None:
            coords[zero_coord] = 0
        if not any(coords):
            continue
        if nonzero_tail and not any(coords[-nonzero_tail:]):
            continue
        return tuple(coords)


def random_point_pair(
    params: SegreVeroneseParams, rng: Stream, modulus: int
) -> PointPair:
    return PointPair(
        draw_projective_point(rng, params.n + 1, modulus),
        draw_projective_point(rng, params.m + 1, modulus),
    )


@lru_cache(maxsize=CACHE_SIZE)
def _tangent_basis(n: int, m: int, d: int) -> tuple[ExponentVector, ...]:
    """The bidegree-(1, d) basis flattened to exponent vectors over x then
    y, built once per (n, m, d)."""
    return bihomogeneous_basis(n, m, 1, d).combined()


def tangent_block(
    params: SegreVeroneseParams, pt: PointPair, cfg: FieldConfig
) -> Matrix:
    """All n+m+2 first partials of the bidegree-(1,d) basis at one point.

    Rows are the n+1 x-partials followed by the m+1 y-partials; columns
    follow the lexicographic basis. Euler forces rank <= n+m+1.
    """
    require_headroom(cfg, params.d + 1)
    monos = _tangent_basis(params.n, params.m, params.d)
    rows = derivative_rows(monos, pt.p + pt.q, cfg)
    return matrix_from_rows(rows, len(monos), cfg)


def sample_point_pairs(
    params: SegreVeroneseParams, s: int, cfg: SampleConfig, trial: int
) -> list[PointPair]:
    """The s points used by trial number `trial`; identical across backends."""
    rng = derived_rng(cfg.seed, trial)
    return [
        random_point_pair(params, rng, cfg.field.modulus) for _ in range(s)
    ]


def stacked_tangent_matrix(
    params: SegreVeroneseParams, points: Sequence[PointPair], cfg: FieldConfig
) -> Matrix:
    """The tangent blocks of the points stacked, each less one y-partial row:
    n+m+1 rows per point, the n+1 x-partials and then the y-partials.

    At (a, b) Euler gives sum_j b_j dF/dy_j = d sum_i a_i dF/dx_i for every
    form F of bidegree (1, d). So where b_j0 is the first y-coordinate that
    is nonzero in the field (mod p over GF(p)), the row dF/dy_j0 is a
    combination of the point's other rows, and it is left out. So the rows
    of the first s points span what their s full blocks span: the first
    s(n+m+1) rows have the rank of the first s(n+m+2) rows of the full stack.
    """
    require_headroom(cfg, params.d + 1)
    monos = _tangent_basis(params.n, params.m, params.d)
    rows = derivative_rows(monos, [pt.p + pt.q for pt in points], cfg)
    nonzero = cfg.array([pt.q for pt in points]) != 0
    if not nonzero.any(axis=1).all():
        raise ValueError("a point's P^m coordinates all vanish in the field")
    block = params.n + params.m + 2
    dropped = block * np.arange(len(points)) + params.n + 1 + nonzero.argmax(1)
    return matrix_from_rows(np.delete(rows, dropped, axis=0), len(monos), cfg)


def sized_s_values(
    params: SegreVeroneseParams, s_values: Iterable[int], cfg: FieldConfig
) -> Sequence[int]:
    """The distinct s values in increasing order, refused (ValueError) before
    any point is drawn if there is none, one is below 1, the field is too
    small for the degree, or the tangent blocks of the largest s are too
    large to build. The size check counts the full blocks, which are built
    before best_ranks drops a row of each.
    """
    # an increasing range is already sorted and distinct; a theorem range
    # can be far too long to list, and the size check refuses it first
    increasing = isinstance(s_values, range) and s_values.step > 0
    wanted = s_values if increasing else sorted(set(s_values))
    if not wanted or wanted[0] < 1:
        raise ValueError("need at least one tangent space")
    require_headroom(cfg, params.d + 1)
    check_size(
        wanted[-1] * (params.n + params.m + 2),
        params.coefficient_count,
        f"s = {brief(wanted[-1])} at {brief((params.n, params.m, params.d))}",
    )
    return wanted


def best_ranks(
    params: SegreVeroneseParams, s_values: Iterable[int], cfg: SampleConfig
) -> dict[int, int]:
    """Best rank of s stacked tangent blocks over the draws of trials
    cfg.first_trial .. cfg.trials - 1, per s.

    Each trial draws max(s) points once and ranks stacked_tangent_matrix of
    them, n+m+1 rows per point: the Euler-redundant row of each block is
    left out, which changes no rank, and over Q the certificate then has
    only the true shortfall left to prove. The matrix for s is the first
    s(n+m+1) rows of the one for max(s), so a single rank profile yields
    every prefix rank. A rank never exceeds its cap min(N+1, s(n+m+1)), so
    each later trial runs only for the s still below it, up to the largest.

    Over Q, one s is ranked under the ceiling N + 1 - k, where k is
    singular_products of trial 0's s points: every draw's rank over Q is at
    most the generic rank, which that bounds, so pivots that reach it need
    no certificate (linalg.rank). A profile takes none: a bound on its total
    bounds none of its prefixes.
    """
    wanted = sized_s_values(params, s_values, cfg.field)
    kept = params.n + params.m + 1
    best = dict.fromkeys(wanted, 0)
    ceiling = None
    if len(wanted) == 1 and not cfg.field.is_modular:
        k = singular_products(params, sample_point_pairs(params, wanted[0], cfg, 0))
        ceiling = None if k is None else params.coefficient_count - k
    for trial in range(cfg.first_trial, cfg.trials):
        open_s = [
            s for s in wanted if best[s] < min(params.coefficient_count, s * kept)
        ]
        if not open_s:
            break
        points = sample_point_pairs(params, open_s[-1], cfg, trial)
        mat = stacked_tangent_matrix(params, points, cfg.field)
        if len(open_s) == 1:
            # one s needs only the rank of the whole matrix
            best[open_s[0]] = max(best[open_s[0]], rank(mat, cfg.field, ceiling))
            continue
        profile = rank_profile(mat, cfg.field)
        for s in open_s:
            best[s] = max(best[s], bisect_left(profile, s * kept))
    return best


def secant_dimension(params: SegreVeroneseParams, s: int, cfg: SampleConfig) -> int:
    """Projective dimension of the span of s sampled tangent spaces.

    Takes the best rank over the draws of trials cfg.first_trial ..
    cfg.trials - 1 (best_ranks, which over Q ranks under the proven bound of
    singular_products); the result never exceeds min(N, s(n+m+1) - 1) and
    equals the generic secant dimension with overwhelming probability.
    """
    return best_ranks(params, (s,), cfg)[s] - 1


def singular_products(
    params: SegreVeroneseParams, points: Sequence[PointPair]
) -> int | None:
    """k, the dimension of the span of the products Q(y) G(x, y) over
    e = 1 .. d, where Q is a degree-e form through every b_k and G a
    bidegree-(1, d - e) form through every (a_k, b_k); None when this draw
    proves nothing.

    Each product is singular at every point, so the generic rank of
    len(points) = s stacked tangent blocks is at most N + 1 - k. That holds
    when every kernel used has its generic dimension, that is when every
    evaluation matrix has rank s: the rank of the product map is then lower
    semicontinuous, and a rank mod p at integer points is at most their rank
    over Q. A draw with an evaluation matrix of rank below s gives None.

    Everything is computed mod DEFAULT_MODULUS, whatever prime drew the
    points. An e with no Q or no G by counts, C(m+e, e) <= s or
    (n+1) C(m+d-e, d-e) <= s, is skipped before any elimination. The
    products are ranked by their values at the N + 1 points (e_i, (1, mu)),
    |mu| <= d, which fix a form of bidegree (1, d) when p > d, as in
    span_rows' lattice, so k is exact for the draw. A draw whose kernels or
    products would pass MAX_MATRIX_ENTRIES also gives None.
    """
    n, m, d, s = params.n, params.m, params.d, len(points)
    p, field, cols = DEFAULT_MODULUS, DEFAULT_FIELD, params.coefficient_count
    # each e with the counts of its degree-e forms in y and its
    # bidegree-(1, d - e) forms
    spaces = [
        (e, comb(m + e, e), (n + 1) * comb(m + d - e, d - e)) for e in range(1, d + 1)
    ]
    spaces = [(e, q, g) for e, q, g in spaces if q > s and g > s]
    if not spaces:
        return 0
    products = sum((q - s) * (g - s) for _, q, g in spaces)
    grids = [c * (c + s) for _, q, g in spaces for c in (q, g)]
    if max(products * cols, *grids) > MAX_MATRIX_ENTRIES:
        return None
    lattice = [(1, *mu[:m]) for mu in graded_basis(m + 1, d).monomials]
    rows = []
    for e, _, _ in spaces:
        head = graded_basis(m + 1, e).monomials
        tail = graded_basis(m + 1, d - e).monomials
        both = bihomogeneous_basis(n, m, 1, d - e).combined()
        q_kernel = kernel_mod(evaluation_row(head, [pt.q for pt in points], field), p)
        g_kernel = kernel_mod(
            evaluation_row(both, [pt.p + pt.q for pt in points], field), p
        )
        if q_kernel is None or g_kernel is None:
            return None
        q_values = matmul_mod(q_kernel, evaluation_row(head, lattice, field).T, p)
        # the bidegree-(1, d - e) basis runs x_i outer, so a G splits into
        # n + 1 forms in y, its values at (e_i, (1, mu))
        g_values = matmul_mod(
            g_kernel.reshape(-1, len(tail)), evaluation_row(tail, lattice, field).T, p
        ).reshape(len(g_kernel), n + 1, len(lattice))
        rows.append((q_values[:, None, None] * g_values % p).reshape(-1, cols))
    return rank(matrix_from_rows(np.concatenate(rows), cols, field), field)


def ideal_dim_bidegree(
    params: SegreVeroneseParams, s: int, cfg: SampleConfig
) -> int:
    """Dimension of the bidegree-(1,d) forms singular at s sampled points."""
    if s < 0:
        raise ValueError("s must be non-negative")
    if s == 0:
        return params.coefficient_count
    return params.coefficient_count - best_ranks(params, (s,), cfg)[s]
