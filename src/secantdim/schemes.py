"""Fat-flag point configurations in P^(n+m) and the proof machinery.

The single-graded counterpart of the bidegree-(1,d) problem lives in
P^(n+m) with a fixed frame: coordinates split as a_0..a_{n-1}, b_0..b_m,
H1 is the linear span cut out by all b's, H2 the one cut out by the a's
and b_0, and the designated hyperplane for residual/trace splitting is
{a_{n-1} = 0} (it contains H2 and misses nothing generic). Genericity is
carried entirely by the point coordinates, so fixing the frame loses no
generality.

A configuration consists of the fat flag dH1 + H2, double and simple
points, and linear spans through H1 anchored at a point. Its ideal
dimension in one degree is computed exactly: flag membership by restricting
the monomial basis, everything else by explicit condition rows.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import lru_cache
from math import comb
from typing import Sequence

import numpy as np

from .linalg import (
    FieldConfig,
    Matrix,
    check_size,
    ideal_dimension,
    matrix_from_rows,
    rank_profile,
    require_headroom,
)
from .monomials import (
    CACHE_SIZE,
    ExponentVector,
    derivative_rows,
    evaluation_row,
    graded_basis,
)
from .streams import Stream
from .terracini import (
    SampleConfig,
    SegreVeroneseParams,
    derived_rng,
    draw_projective_point,
    ideal_dim_bidegree,
)

# stream tag separating dictionary draws from tangent-side draws
_DICTIONARY_TAG = 101


@dataclass(frozen=True)
class SchemePoint:
    """A point of the frame.

    on_h records how the point was drawn: on the splitting hyperplane
    {a_{n-1} = 0} or freely. It is a label for reports; residual_trace
    reads the a_{n-1} coordinate, so a point drawn freely that lands on
    the hyperplane is split as the point it is.
    """

    coords: tuple[int, ...]
    on_h: bool = False


@dataclass(frozen=True)
class SchemeSpec:
    """A configuration of flag, points and spans in the fixed frame.

    fat_h1 is the multiplicity of the H1 component (0 or d), include_h2
    adds the reduced H2 component, v_spans lists indices (double points
    first, then simple points) whose span with H1 is part of the scheme,
    and w_anchors carries free span anchors not tied to a listed point.
    """

    n: int
    m: int
    d: int
    fat_h1: int = 0
    include_h2: bool = False
    double_points: tuple[SchemePoint, ...] = ()
    simple_points: tuple[tuple[int, ...], ...] = ()
    w_anchors: tuple[tuple[int, ...], ...] = ()
    v_spans: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 0 or self.m < 1 or self.d < 1:
            raise ValueError("need n >= 0, m >= 1, d >= 1")
        if self.fat_h1 not in (0, self.d):
            raise ValueError("fat multiplicity must be 0 or d")
        if self.n == 0 and self.fat_h1:
            raise ValueError("fat flag needs a nonempty a-block")
        nvars = self.n + self.m + 1
        for pt in self.double_points:
            _check_point(pt.coords, nvars)
            if pt.on_h and (self.n < 1 or pt.coords[self.n - 1] != 0):
                raise ValueError("on-hyperplane point has nonzero a_{n-1}")
        for coords in self.simple_points:
            _check_point(coords, nvars)
        for coords in self.w_anchors:
            _check_point(coords, nvars)
            self._check_anchor(coords)
        npts = len(self.double_points) + len(self.simple_points)
        for idx in self.v_spans:
            if not 0 <= idx < npts:
                raise ValueError("span index out of range")
            self._check_anchor(_combined_point(self, idx))

    def _check_anchor(self, coords: tuple[int, ...]) -> None:
        if self.n < 1:
            raise ValueError("span anchors need a nonempty a-block")
        if not any(coords[self.n :]):
            raise ValueError("span anchor lies on H1")


def _check_point(coords: tuple[int, ...], nvars: int) -> None:
    if len(coords) != nvars:
        raise ValueError("coordinate length does not match the frame")
    if not any(coords):
        raise ValueError("projective point needs a nonzero coordinate")


def _combined_point(spec: SchemeSpec, idx: int) -> tuple[int, ...]:
    """Coordinates of point idx in the doubles-then-simples numbering."""
    nd = len(spec.double_points)
    if idx < nd:
        return spec.double_points[idx].coords
    return spec.simple_points[idx - nd]


def scheme_to_dict(spec: SchemeSpec) -> dict:
    """JSON-friendly form, for reproducible failure reports."""
    return {
        "n": spec.n,
        "m": spec.m,
        "d": spec.d,
        "fatH1": spec.fat_h1,
        "includeH2": spec.include_h2,
        "doublePoints": [
            {"coords": list(pt.coords), "onH": pt.on_h}
            for pt in spec.double_points
        ],
        "simplePoints": [list(c) for c in spec.simple_points],
        "wAnchors": [list(c) for c in spec.w_anchors],
        "vSpans": list(spec.v_spans),
    }


def scheme_from_dict(data: dict) -> SchemeSpec:
    return SchemeSpec(
        n=int(data["n"]),
        m=int(data["m"]),
        d=int(data["d"]),
        fat_h1=int(data["fatH1"]),
        include_h2=bool(data["includeH2"]),
        double_points=tuple(
            SchemePoint(tuple(int(c) for c in pt["coords"]), bool(pt["onH"]))
            for pt in data["doublePoints"]
        ),
        simple_points=tuple(
            tuple(int(c) for c in coords) for coords in data["simplePoints"]
        ),
        w_anchors=tuple(
            tuple(int(c) for c in coords) for coords in data["wAnchors"]
        ),
        v_spans=tuple(int(i) for i in data["vSpans"]),
    )


def scheme_basis(spec: SchemeSpec, degree: int) -> tuple[ExponentVector, ...]:
    """Monomial basis of the degree piece cut down by the flag components.

    The basis depends only on the frame, the flag and the degree, so it is
    built once per such key (a cache that holds every key of a verify
    report) and shared by every caller.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    return _flag_basis(spec.n, spec.m, spec.fat_h1, spec.include_h2, degree)


@lru_cache(maxsize=CACHE_SIZE)
def _flag_basis(
    n: int, m: int, fat_h1: int, include_h2: bool, degree: int
) -> tuple[ExponentVector, ...]:
    keep: list[ExponentVector] = []
    for mono in graded_basis(n + m + 1, degree).monomials:
        if sum(mono[n:]) < fat_h1:
            continue
        if include_h2 and not (any(mono[:n]) or mono[n] > 0):
            continue
        keep.append(mono)
    return tuple(keep)


def scheme_basis_size(spec: SchemeSpec, degree: int) -> int:
    """len(scheme_basis(spec, degree)), counted without enumerating it.

    The flag keeps the monomials of b-degree k >= fat_h1, an a-part of
    degree - k times a b-part of degree k; H2 then drops the pure-b
    monomials free of b_0, the degree-many monomials in b_1..b_m.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    size = sum(
        _monomial_count(spec.n, degree - k) * _monomial_count(spec.m + 1, k)
        for k in range(spec.fat_h1, degree + 1)
    )
    if spec.include_h2 and degree >= spec.fat_h1:
        size -= _monomial_count(spec.m, degree)
    return size


def _monomial_count(nvars: int, degree: int) -> int:
    """Number of degree-`degree` monomials in nvars variables (nvars >= 0)."""
    return comb(nvars - 1 + degree, degree) if nvars else int(degree == 0)


def span_rows(
    basis: Sequence[ExponentVector],
    n: int,
    anchors: Sequence[int] | Sequence[Sequence[int]],
    cfg: FieldConfig,
) -> np.ndarray:
    """Conditions for vanishing on span(H1, q) for each anchor q, as values
    on a lattice of the span.

    anchors is one anchor or a 2-D stack of them, one per row. Off H1,
    each point of the span is a multiple of (qa + mu, qb) for some mu in
    the n chart coordinates, and a form F restricts there to
    F(qa + mu, qb), a polynomial of degree at most D in mu, D the largest
    a-degree of the basis. Its values at the C(D + n, n) lattice points
    mu >= 0, |mu| <= D fix it, since their Vandermonde matrix is invertible
    when the characteristic is 0 or exceeds D (a smaller modulus is
    refused). So a form contains the span iff it vanishes at those points,
    and the rows are their evaluation rows: C(D + n, n) per anchor, anchor
    by anchor, the lattice in the order of graded_basis(n + 1, D) less its
    last exponent. No sampling on the span is involved.
    """
    if n < 1:
        raise ValueError("span needs a nonempty a-block")
    # the coordinates as given: one can be a nonzero multiple of the modulus
    anchors = np.array(anchors, dtype=object)
    anchors = anchors.reshape(-1, anchors.shape[-1])
    if not (anchors[:, n:] != 0).any(axis=1).all():
        raise ValueError("span anchor lies on H1")
    if not basis:
        return np.zeros((0, 0), dtype=cfg.dtype)
    top = max(sum(mono[:n]) for mono in basis)
    require_headroom(cfg, top)
    lattice = [mu[:n] for mu in graded_basis(n + 1, top).monomials]
    points = np.repeat(cfg.array(anchors)[:, None], len(lattice), axis=1)
    points[:, :, :n] += np.array(lattice, dtype=points.dtype)
    return evaluation_row(basis, points.reshape(-1, anchors.shape[1]), cfg)


def _row_bound(
    spec: SchemeSpec, degree: int, doubles: int | None = None, spans: int | None = None
) -> int:
    """The number of condition rows the configuration, or doubles double
    points and spans spans on its frame, imposes in degree: n+m+1 per double
    point, one per simple point and C(D + n, n) per span, D = degree -
    fat_h1 being the largest a-degree of the flag basis (span_rows). It is
    the row count of the condition matrix whenever the basis is nonempty.
    """
    doubles = len(spec.double_points) if doubles is None else doubles
    spans = len(spec.w_anchors) + len(spec.v_spans) if spans is None else spans
    per_span = comb(degree - spec.fat_h1 + spec.n, spec.n)
    points = (spec.n + spec.m + 1) * doubles + len(spec.simple_points)
    return points + spans * per_span


def scheme_ideal_dimension(
    spec: SchemeSpec, degree: int, cfg: FieldConfig
) -> int:
    """Exact dimension of the degree piece of the configuration's ideal."""
    mat, _ = _condition_matrix(spec, degree, cfg)
    return ideal_dimension(mat, cfg)


def v_span_dimensions(
    spec: SchemeSpec, degree: int, cfg: FieldConfig
) -> tuple[int, int]:
    """Exact dimensions of the degree piece of the ideal of the configuration
    without its v-spans and with them, from one elimination.

    The v-span rows come last, so the rows above them are the condition
    matrix of the configuration without its v-spans, and one row rank
    profile gives the rank of both.
    """
    mat, bare = _condition_matrix(spec, degree, cfg)
    profile = rank_profile(mat, cfg)
    return mat.cols - bisect_left(profile, bare), mat.cols - len(profile)


def _condition_matrix(
    spec: SchemeSpec, degree: int, cfg: FieldConfig
) -> tuple[Matrix, int]:
    """The configuration's condition matrix in degree, whose kernel is the
    degree piece of its ideal, and the number of its rows above the v-span
    rows. A matrix above the size limit is refused before any row is built.

    The matrix takes one row-kernel call per kind of row, stacked in this
    order: every double point at once, every simple point, then every span
    in one span_rows call, the free anchors first and the spans at listed
    points (the v-spans) last. Each span imposes the same number of rows,
    so both counts are _row_bound's.
    """
    require_headroom(cfg, degree)
    size = scheme_basis_size(spec, degree)
    if not size:
        return matrix_from_rows([], 0, cfg), 0
    check_size(
        _row_bound(spec, degree),
        size,
        f"the degree-{degree} piece of a scheme at {(spec.n, spec.m, spec.d)}",
    )
    basis = scheme_basis(spec, degree)
    anchors = spec.w_anchors + tuple(
        _combined_point(spec, idx) for idx in spec.v_spans
    )
    # a double point imposes every first partial; by Euler its value row is
    # a combination of them, since the modulus exceeds the degree
    blocks = [np.zeros((0, size), dtype=cfg.dtype)]
    if spec.double_points:
        coords = [pt.coords for pt in spec.double_points]
        blocks.append(derivative_rows(basis, coords, cfg))
    if spec.simple_points:
        blocks.append(evaluation_row(basis, spec.simple_points, cfg))
    if anchors:
        blocks.append(span_rows(basis, spec.n, anchors, cfg))
    above = _row_bound(spec, degree, spans=len(spec.w_anchors))
    return matrix_from_rows(np.concatenate(blocks), size, cfg), above


def sample_scheme(
    params: SegreVeroneseParams,
    s: int,
    t: int,
    rng: Stream,
    modulus: int,
    specialize: bool = False,
) -> SchemeSpec:
    """Random flag configuration: dH1 + H2 + s double points + t spans.

    All points are kept off H1 so spans and projections stay well defined.
    With specialize=True (s must be a multiple of n+1) the first s - s/(n+1)
    double points land on the splitting hyperplane {a_{n-1} = 0}, the layout
    the residual/trace induction consumes.
    """
    if s < 0 or t < 0:
        raise ValueError("need s >= 0 and t >= 0")
    n, m = params.n, params.m
    nvars = n + m + 1
    on_count = 0
    if specialize:
        if s % (n + 1):
            raise ValueError("specialization needs s divisible by n+1")
        on_count = s - s // (n + 1)
    doubles = []
    for i in range(s):
        on_h = i < on_count
        coords = draw_projective_point(
            rng,
            nvars,
            modulus,
            zero_coord=n - 1 if on_h else None,
            nonzero_tail=m + 1,
        )
        doubles.append(SchemePoint(coords, on_h))
    anchors = tuple(
        draw_projective_point(rng, nvars, modulus, nonzero_tail=m + 1)
        for _ in range(t)
    )
    return SchemeSpec(
        n=n,
        m=m,
        d=params.d,
        fat_h1=params.d,
        include_h2=True,
        double_points=tuple(doubles),
        w_anchors=anchors,
    )


def best_scheme_dimension(
    params: SegreVeroneseParams,
    s: int,
    t: int,
    cfg: SampleConfig,
    key: tuple[int, ...],
) -> int:
    """Smallest degree-(d+1) dimension of the flag configuration with s
    double points and t spans over trials cfg.first_trial .. cfg.trials - 1.

    Trial k draws from derived_rng(*key, k). A special draw can only raise
    the dimension, so the minimum is the generic value once any draw is
    generic. No draw can go below the basis size less the most rows the
    configuration imposes (a rank never exceeds the row count), so the
    trials stop once the minimum reaches that floor.
    """
    degree = params.d + 1
    dims = []
    for trial in range(cfg.first_trial, cfg.trials):
        spec = sample_scheme(
            params, s, t, derived_rng(*key, trial), cfg.field.modulus
        )
        dims.append(scheme_ideal_dimension(spec, degree, cfg.field))
        floor = scheme_basis_size(spec, degree) - _row_bound(spec, degree)
        if min(dims) <= max(floor, 0):
            break
    return min(dims)


@dataclass(frozen=True)
class DictionaryCheck:
    """Both sides of the multigraded / single-graded correspondence."""

    lhs: int  # bidegree-(1,d) forms singular at s points of P^n x P^m
    rhs: int  # degree-(d+1) forms through the flag scheme in P^(n+m)

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def verify_dictionary(
    params: SegreVeroneseParams, s: int, cfg: SampleConfig
) -> DictionaryCheck:
    """Cross-check the two sides on independent random draws.

    Each side takes its best value over cfg.trials draws, so both settle on
    the generic dimension with overwhelming probability.
    """
    lhs = ideal_dim_bidegree(params, s, cfg)
    rhs = best_scheme_dimension(params, s, 0, cfg, (cfg.seed, _DICTIONARY_TAG))
    return DictionaryCheck(lhs, rhs)


def add_v_spans(spec: SchemeSpec) -> SchemeSpec:
    """Attach the span through H1 at every double point.

    With the flag at full multiplicity those spans lie in the base locus of
    the degree-(d+1) system, so the ideal dimension must not change; callers
    use that invariance as a consistency check. Without double points this
    is a no-op.
    """
    if not spec.double_points:
        return spec
    if spec.fat_h1 != spec.d:
        raise ValueError("base-locus spans need the flag at full multiplicity")
    return replace(spec, v_spans=tuple(range(len(spec.double_points))))


@dataclass(frozen=True)
class ResidualTracePair:
    """Output of one splitting step, each half with its working degree."""

    residual: SchemeSpec
    residual_degree: int
    trace: SchemeSpec
    trace_degree: int


def _drop(coords: tuple[int, ...], index: int) -> tuple[int, ...]:
    return coords[:index] + coords[index + 1 :]


def _new_points(
    candidates: Sequence[tuple[int, ...]], taken: Sequence[tuple[int, ...]]
) -> tuple[tuple[int, ...], ...]:
    """The candidates not already taken, first occurrences in order: a point
    repeated, or absorbed by a double point, imposes nothing new."""
    skip = set(taken)
    return tuple(dict.fromkeys(c for c in candidates if c not in skip))


def residual_trace(spec: SchemeSpec, degree: int) -> ResidualTracePair:
    """Split the configuration across the hyperplane H = {a_{n-1} = 0}.

    A point is on H exactly when its a_{n-1} coordinate is 0, whatever its
    on_h label says. A double point on H leaves a simple point in the
    residual and a double point in the trace; a simple point on H passes
    to the trace alone; points off H pass whole to the residual. Spans
    through H1 are never contained in H: each passes whole to the residual
    and meets H in a span of the smaller frame through the image of its
    anchor. H2 lies inside H, so it disappears from the residual and
    survives in the trace. The trace frame drops the a_{n-1} coordinate;
    when n = 1 that removes H1 itself, so the flag degenerates and spans
    collapse to their anchor points.

    Returns the residual paired with degree-1 and the trace with degree;
    the dimension in degree is at most the sum of the two halves.
    """
    if spec.n < 1:
        raise ValueError("frame has no a-coordinates to split along")
    h = spec.n - 1
    nd = len(spec.double_points)
    points = [pt.coords for pt in spec.double_points] + list(spec.simple_points)
    on_h = [coords[h] == 0 for coords in points]
    traced = [i for i in range(nd) if on_h[i]]

    # residual: off-H doubles stay double, on-H doubles and off-H simples
    # become simple points, numbered in that order for the v_spans
    res_doubles = [i for i in range(nd) if not on_h[i]]
    res_simples = traced + [i for i in range(nd, len(points)) if not on_h[i]]
    res_pos = {i: k for k, i in enumerate(res_doubles + res_simples)}
    residual = SchemeSpec(
        n=spec.n,
        m=spec.m,
        d=spec.d,
        fat_h1=spec.fat_h1,
        include_h2=False,
        double_points=tuple(spec.double_points[i] for i in res_doubles),
        simple_points=tuple(points[i] for i in res_simples),
        # a span whose anchor left for the trace stays as a free anchor
        w_anchors=spec.w_anchors
        + tuple(points[i] for i in spec.v_spans if i not in res_pos),
        v_spans=tuple(res_pos[i] for i in spec.v_spans if i in res_pos),
    )

    # trace: a span at a traced double stays an indexed span; every other
    # span is re-anchored at the image of its anchor
    tr_pos = {i: k for k, i in enumerate(traced)}
    tr_doubles = [_drop(points[i], h) for i in traced]
    tr_simples = [_drop(points[i], h) for i in range(nd, len(points)) if on_h[i]]
    moved = [_drop(points[i], h) for i in spec.v_spans if i not in tr_pos]
    anchors = [_drop(q, h) for q in spec.w_anchors]
    if spec.n == 1:
        # no H1 left: spans are their anchor points, and a span at a traced
        # double is that double point
        tr_simples += moved + anchors
        anchors, tr_vspans, tr_fat = [], (), 0
    else:
        anchors += moved
        tr_vspans = tuple(tr_pos[i] for i in spec.v_spans if i in tr_pos)
        tr_fat = spec.fat_h1
    trace = SchemeSpec(
        n=h,
        m=spec.m,
        d=spec.d,
        fat_h1=tr_fat,
        include_h2=spec.include_h2,
        double_points=tuple(map(SchemePoint, tr_doubles)),
        simple_points=_new_points(tr_simples, tr_doubles),
        w_anchors=tuple(anchors),
        v_spans=tr_vspans,
    )
    return ResidualTracePair(residual, degree - 1, trace, degree)


@dataclass(frozen=True)
class CastelnuovoCheck:
    """One splitting step: total against residual plus trace."""

    total: int
    residual: int
    trace: int

    @property
    def holds(self) -> bool:
        return self.total <= self.residual + self.trace


def castelnuovo_check(
    spec: SchemeSpec, degree: int, cfg: FieldConfig
) -> CastelnuovoCheck:
    """Exact-sequence bound: dim in degree <= residual in degree-1 + trace."""
    pair = residual_trace(spec, degree)
    return CastelnuovoCheck(
        scheme_ideal_dimension(spec, degree, cfg),
        scheme_ideal_dimension(pair.residual, pair.residual_degree, cfg),
        scheme_ideal_dimension(pair.trace, pair.trace_degree, cfg),
    )


@dataclass(frozen=True)
class ProjectionCheck:
    """Cone-shaped residual against its image in the b-coordinate frame."""

    projected: SchemeSpec
    residual_dim: int
    projected_dim: int

    @property
    def equal(self) -> bool:
        return self.residual_dim == self.projected_dim


def projected_scheme(residual: SchemeSpec) -> SchemeSpec:
    """Project a cone-shaped residual from H1 onto P^m.

    Valid when every degree-d form through the configuration is a cone with
    vertex H1 (flag at full multiplicity, no H2 component): the basis is
    then pure in the b variables. Double points map to double points of
    P^m; simple points and span anchors map to simple points, with
    duplicates and points absorbed by a double image dropped.
    """
    if residual.n < 1 or residual.fat_h1 != residual.d or residual.include_h2:
        raise ValueError("configuration is not a cone over H1 in degree d")
    n = residual.n
    doubles = [pt.coords[n:] for pt in residual.double_points]
    if not all(map(any, doubles)):
        raise ValueError("double point lies on the projection center")
    sources = [
        *residual.simple_points,
        *(_combined_point(residual, idx) for idx in residual.v_spans),
        *residual.w_anchors,
    ]
    images = [coords[n:] for coords in sources]
    if not all(map(any, images)):
        raise ValueError("component projects from the center")
    return SchemeSpec(
        n=0,
        m=residual.m,
        d=residual.d,
        double_points=tuple(map(SchemePoint, doubles)),
        simple_points=_new_points(images, doubles),
    )


def project_from_h1(residual: SchemeSpec, cfg: FieldConfig) -> ProjectionCheck:
    """The residual and its projection onto P^m, whose degree-d dimensions
    must agree."""
    projected = projected_scheme(residual)
    return ProjectionCheck(
        projected,
        scheme_ideal_dimension(residual, residual.d, cfg),
        scheme_ideal_dimension(projected, residual.d, cfg),
    )
