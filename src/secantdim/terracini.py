"""Tangent-space machinery for the bidegree-(1,d) embedding of P^n x P^m.

A tangent block collects all n+m+2 first partials of the bidegree-(1,d)
monomials at one sampled point. The two Euler identities make one row
redundant, so a single block has rank at most n+m+1; stacking s blocks
realizes the span of s tangent spaces and the secant dimension is that rank
minus one. Sampling happens at explicit points, so each computed rank lower
bounds the generic one: equality with the expected count certifies, a
shortfall is only a candidate.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import comb
from typing import Iterable

import numpy as np

from .linalg import (
    DEFAULT_FIELD,
    FieldConfig,
    Matrix,
    matrix_from_rows,
    rank,
    rank_profile,
    require_headroom,
)
from .monomials import bihomogeneous_basis, derivative_rows

# Largest stacked tangent matrix one pass may build, in entries. Rows, the
# matrix and its elimination peak near 80 bytes per entry on the modular path
# (tracemalloc: 78 at (3,3,4), s = 21), so this caps a pass near 2 GB.
MAX_PASS_ENTRIES = 24_000_000


@dataclass(frozen=True)
class SegreVeroneseParams:
    """The triple (n, m, d): P^n x P^m embedded by forms of bidegree (1, d)."""

    n: int
    m: int
    d: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1 or self.d < 1:
            raise ValueError("need n >= 1, m >= 1, d >= 1")

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
    """Reproducible sampling policy; trials >= 2 guards against bad draws."""

    seed: int = 0
    trials: int = 2
    field: FieldConfig = DEFAULT_FIELD

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


def derived_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent, reproducible stream for a (seed, key path) pair."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def derived_seed(seed: int, *key: int) -> int:
    """Collapse a key path to a plain integer seed for nested configs."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def draw_projective_point(
    rng: np.random.Generator,
    nvars: int,
    modulus: int,
    zero_coord: int | None = None,
    nonzero_tail: int = 0,
) -> tuple[int, ...]:
    """Uniform point of GF(p)^nvars minus the zero vector.

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
    params: SegreVeroneseParams, rng: np.random.Generator, modulus: int
) -> PointPair:
    return PointPair(
        draw_projective_point(rng, params.n + 1, modulus),
        draw_projective_point(rng, params.m + 1, modulus),
    )


def tangent_block(
    params: SegreVeroneseParams, pt: PointPair, cfg: FieldConfig
) -> Matrix:
    """All n+m+2 first partials of the bidegree-(1,d) basis at one point.

    Rows are the n+1 x-partials followed by the m+1 y-partials; columns
    follow the lexicographic basis. Euler forces rank <= n+m+1.
    """
    require_headroom(cfg, params.d + 1)
    monos = bihomogeneous_basis(params.n, params.m, 1, params.d).combined()
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


def best_ranks(
    params: SegreVeroneseParams, s_values: Iterable[int], cfg: SampleConfig
) -> dict[int, int]:
    """Best rank of s stacked tangent blocks over cfg.trials draws, per s.

    Each trial draws max(s) points once; the matrix for s is the first s
    blocks of the one for max(s), so a single rank profile yields every
    prefix rank. A rank never exceeds its cap min(N+1, s(n+m+1)), so each
    later trial runs only for the s still below it, up to the largest.
    """
    wanted = sorted(set(s_values))
    if not wanted or wanted[0] < 1:
        raise ValueError("need at least one tangent space")
    require_headroom(cfg.field, params.d + 1)
    block = params.n + params.m + 2
    entries = wanted[-1] * block * params.coefficient_count
    if entries > MAX_PASS_ENTRIES:
        raise ValueError(
            f"s = {wanted[-1]} at {(params.n, params.m, params.d)} needs a "
            f"{wanted[-1] * block} x {params.coefficient_count} matrix, above "
            f"the {MAX_PASS_ENTRIES} entry limit"
        )
    monos = bihomogeneous_basis(params.n, params.m, 1, params.d).combined()
    best = dict.fromkeys(wanted, 0)
    for trial in range(cfg.trials):
        open_s = [
            s
            for s in wanted
            if best[s] < min(params.coefficient_count, s * (block - 1))
        ]
        if not open_s:
            break
        rows: list[list[int]] = []
        for pt in sample_point_pairs(params, open_s[-1], cfg, trial):
            rows.extend(derivative_rows(monos, pt.p + pt.q, cfg.field))
        mat = matrix_from_rows(rows, len(monos), cfg.field)
        if len(open_s) == 1:
            # one s needs only the rank of the whole matrix
            best[open_s[0]] = max(best[open_s[0]], rank(mat, cfg.field))
            continue
        profile = rank_profile(mat, cfg.field)
        for s in open_s:
            best[s] = max(best[s], bisect_left(profile, s * block))
    return best


def secant_dimension(
    params: SegreVeroneseParams, s: int, cfg: SampleConfig
) -> int:
    """Projective dimension of the span of s sampled tangent spaces.

    Takes the best rank over cfg.trials independent draws; the result never
    exceeds min(N, s(n+m+1) - 1) and equals the generic secant dimension
    with overwhelming probability.
    """
    return best_ranks(params, (s,), cfg)[s] - 1


def ideal_dim_bidegree(
    params: SegreVeroneseParams, s: int, cfg: SampleConfig
) -> int:
    """Dimension of the bidegree-(1,d) forms singular at s sampled points."""
    if s < 0:
        raise ValueError("s must be non-negative")
    if s == 0:
        return params.coefficient_count
    return params.coefficient_count - best_ranks(params, (s,), cfg)[s]
