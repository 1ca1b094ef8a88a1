"""Grid scans, verification suites and report rendering.

A scan takes one pass per (n, m, d): trial t draws its points from one
stream derived from (seed, n, m, d, t), and the cell for s uses the first s
of them, so every s of a row comes from one rank profile. Results do not
depend on traversal order, a single cell computed on its own equals its
record in a scan, and identical inputs reproduce byte-identical reports.

The scan and verify share one settle step (settle). A value sampled at
explicit points only bounds its generic value, a rank from below and a
scheme dimension from above, so a value that misses its target is sampled
again on the same streams over the rationals at doubled trials, the better
value stands, and only a miss that survives is reported. An integer matrix
has at least its modular rank over Q, so this settles everything a doubled
modular run could; after a pass over Q only trials T .. 2T-1 are new. The
scan settles a shortfall, verify a dictionary mismatch on both sides and a
scheme dimension against its formula.

Every rank, a scan's or a dictionary lhs's, is settled by _row_rank, the
pass's own sampler for one s, rerun over Q at doubled trials; there
best_ranks ranks under the proven bound N + 1 - k (singular_products), so
a rank whose pivots reach it needs no certificate.

The theorem suite eliminates each case's spanned configuration once: its
v-span rows come last, so one row rank profile gives the base-locus check
the dimension before and after the spans are attached, and the Castelnuovo
check its total. The case is split across H once, and the projection check
reads its residual dimension from that split. The Castelnuovo check
eliminates the trace only where the trace's dimension_floor, which holds in
any field, does not already settle the bound.

A scan report is rendered from each record's attributes, with no dict built
per record: records_to_json fills one template laid out once from
RECORD_FIELDS, writing each value as the literal json.dumps writes, so its
bytes are those of json.dumps(..., indent=2), and records_to_csv joins the
same literals, a status as itself. Verify summaries, whose failures are
dicts of varying keys, still go through json.dumps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from functools import cached_property, partial
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Callable, Iterator, Sequence

from .expected import defect, expected_scheme_dim, expected_secant_dim, thresholds
from .linalg import brief, check_size
from .schemes import (
    _DICTIONARY_TAG,
    CastelnuovoCheck,
    ResidualTracePair,
    SchemeSpec,
    _row_bound,
    add_v_spans,
    best_scheme_dimension,
    dimension_floor,
    projected_scheme,
    residual_trace,
    sample_scheme,
    scheme_basis_size,
    scheme_ideal_dimension,
    scheme_to_dict,
    v_span_dimensions,
)
from .terracini import (
    SampleConfig,
    SegreVeroneseParams,
    best_ranks,
    derived_rng,
    derived_seed,
    secant_dimension,
    sized_s_values,
)

THEOREM_RANGE = "theorem-range"
ALL_UP_TO = "all-up-to"
EXPLICIT = "explicit"
S_POLICIES = (THEOREM_RANGE, ALL_UP_TO, EXPLICIT)

STATUS_CERTIFIED = "certified-nondefective"
STATUS_CANDIDATE = "defect-candidate"
STATUS_OUT_CERTIFIED = "out-of-theorem-range-certified"
STATUS_OUT_CANDIDATE = "out-of-theorem-range-candidate"

CHECK_FORMULA = "scheme-dimension-formula"
CHECK_DICTIONARY = "dictionary"
CHECK_BASE_LOCUS = "base-locus-invariance"
CHECK_CASTELNUOVO = "castelnuovo"
CHECK_PROJECTION = "projection"
ALL_CHECKS = (
    CHECK_FORMULA,
    CHECK_DICTIONARY,
    CHECK_BASE_LOCUS,
    CHECK_CASTELNUOVO,
    CHECK_PROJECTION,
)

# the theorem suite's default ranges of q and t
Q_MAX = 2
T_MAX = 2

# stream tags keeping the verification draws apart
_TAG_FORMULA = 11
_TAG_PROOF = 13

@dataclass(frozen=True)
class SecantRecord:
    """One scanned cell, with enough metadata to reproduce it exactly."""

    n: int
    m: int
    d: int
    s: int
    ambient: int
    expected: int
    computed: int
    defect: int
    s1: int
    s2: int
    in_theorem_range: bool
    status: str
    seed: int
    trials: int
    modulus: int


# report keys that differ from the SecantRecord attribute names
_RENAMED = {"ambient": "N", "in_theorem_range": "inTheoremRange"}
_ATTRS = tuple(f.name for f in fields(SecantRecord))
RECORD_FIELDS = tuple(_RENAMED.get(attr, attr) for attr in _ATTRS)
# a record's values in report order
_values = attrgetter(*_ATTRS)


@dataclass(frozen=True)
class ScanGrid:
    """Cartesian grid of (n, m, d) cells and an s-range policy.

    theorem-range walks s = 1 .. s2+1 (the values between s1 and s2 are
    included and flagged out of range); all-up-to extends to s2 + s_margin;
    explicit uses s_list as given.
    """

    n_values: tuple[int, ...]
    m_values: tuple[int, ...]
    d_values: tuple[int, ...]
    s_policy: str = THEOREM_RANGE
    s_margin: int = 1
    s_list: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not (self.n_values and self.m_values and self.d_values):
            raise ValueError("grid axes must be non-empty")
        if any(v < 1 for v in self.n_values + self.m_values + self.d_values):
            raise ValueError("grid values must be >= 1")
        if self.s_policy not in S_POLICIES:
            raise ValueError(f"unknown s policy {self.s_policy!r}")
        if self.s_policy == EXPLICIT and not self.s_list:
            raise ValueError("explicit s policy needs s_list")
        if self.s_policy != EXPLICIT and self.s_list:
            raise ValueError(f"s_list needs the {EXPLICIT} s policy")
        if self.s_margin < 0:
            raise ValueError("s_margin must be non-negative")

    def cells(self) -> Iterator[tuple[int, int, int]]:
        for n in self.n_values:
            for m in self.m_values:
                for d in self.d_values:
                    yield n, m, d

    def s_values(self, params: SegreVeroneseParams) -> Sequence[int]:
        if self.s_policy == EXPLICIT:
            return self.s_list
        margin = 1 if self.s_policy == THEOREM_RANGE else self.s_margin
        return range(1, thresholds(params).s2 + margin + 1)


def grid_from_ranges(
    n_max: int,
    m_max: int,
    d_min: int,
    d_max: int,
    s_policy: str = THEOREM_RANGE,
    s_margin: int = 1,
    s_list: tuple[int, ...] = (),
) -> ScanGrid:
    if n_max < 1 or m_max < 1 or d_min < 1 or d_max < d_min:
        raise ValueError("invalid grid ranges")
    return ScanGrid(
        tuple(range(1, n_max + 1)),
        tuple(range(1, m_max + 1)),
        tuple(range(d_min, d_max + 1)),
        s_policy,
        s_margin,
        s_list,
    )


def _row_config(params: SegreVeroneseParams, cfg: SampleConfig) -> SampleConfig:
    """The sampling config shared by every s of one (n, m, d) row."""
    return replace(cfg, seed=derived_seed(cfg.seed, params.n, params.m, params.d))


def settle(
    value: int, target: int, cfg: SampleConfig, sample: Callable, better=max
) -> tuple[int, int]:
    """value, sampled over cfg.trials draws, settled against target (module
    docstring), with the trials behind the result. sample takes a config and
    walks it from first_trial; better is max for a rank, min for a dimension."""
    if value == target:
        return value, cfg.trials
    first = 0 if cfg.field.is_modular else cfg.trials
    field = cfg.field.to_rational()
    doubled = replace(cfg, trials=2 * cfg.trials, field=field, first_trial=first)
    return better(value, sample(doubled)), doubled.trials


def _row_rank(params: SegreVeroneseParams, s: int, cfg: SampleConfig) -> int:
    """The best rank of s stacked tangent blocks on the row's draws: a
    cell's own rank, and settle's rank sampler."""
    return secant_dimension(params, s, _row_config(params, cfg)) + 1


def scan_cell(
    params: SegreVeroneseParams,
    s: int,
    cfg: SampleConfig,
    best_rank: int | None = None,
) -> SecantRecord:
    """Scan one (n, m, d, s) cell, settling any apparent defect.

    best_rank, when given, is the best stacked rank a scan has already
    computed for this s with the row's draws; otherwise it is computed here.
    """
    if best_rank is None:
        best_rank = _row_rank(params, s, cfg)
    expected = expected_secant_dim(params, s)
    rank, trials = settle(best_rank, expected + 1, cfg, partial(_row_rank, params, s))
    gap = defect(params, s, rank - 1)
    th = thresholds(params)
    in_range = params.d >= 3 and (s <= th.s1 or s >= th.s2)
    if gap.defect == 0:
        status = STATUS_CERTIFIED if in_range else STATUS_OUT_CERTIFIED
    else:
        status = STATUS_CANDIDATE if in_range else STATUS_OUT_CANDIDATE
    return SecantRecord(
        n=params.n,
        m=params.m,
        d=params.d,
        s=s,
        ambient=params.ambient_dim,
        expected=gap.expected,
        computed=gap.computed,
        defect=gap.defect,
        s1=th.s1,
        s2=th.s2,
        in_theorem_range=in_range,
        status=status,
        seed=cfg.seed,
        trials=trials,
        modulus=cfg.field.modulus,
    )


def scan_rows(
    grid: ScanGrid, cfg: SampleConfig
) -> list[tuple[SegreVeroneseParams, Sequence[int]]]:
    """Every (n, m, d) row of the grid with the s values scan computes, each
    row refused before any row computes if best_ranks would refuse it."""
    rows = []
    for n, m, d in grid.cells():
        params = SegreVeroneseParams(n, m, d)
        s_values = grid.s_values(params)
        sized_s_values(params, s_values, cfg.field)
        rows.append((params, s_values))
    return rows


def scan(grid: ScanGrid, cfg: SampleConfig) -> list[SecantRecord]:
    """Scan every cell of the grid; records come back in lexicographic order.
    Every row is sized before the first one computes."""
    records = []
    for params, s_values in scan_rows(grid, cfg):
        ranks = best_ranks(params, s_values, _row_config(params, cfg))
        for s in s_values:
            records.append(scan_cell(params, s, cfg, ranks[s]))
    records.sort(key=lambda r: (r.n, r.m, r.d, r.s))
    return records


@dataclass(frozen=True)
class VerifySummary:
    cells_checked: int
    failures: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def dictionary_rows(
    grid: ScanGrid, cfg: SampleConfig
) -> list[tuple[SegreVeroneseParams, Sequence[int]]]:
    """Every (n, m, d) row of the grid with s = 0 .. s2+1, the s values
    verify_dictionary_grid checks, each row refused before any row computes
    if best_ranks would refuse its s >= 1, the theorem range s = 1 .. s2+1."""
    theorem = replace(grid, s_policy=THEOREM_RANGE, s_margin=1, s_list=())
    return [(params, range(0, s.stop)) for params, s in scan_rows(theorem, cfg)]


def verify_dictionary_grid(grid: ScanGrid, cfg: SampleConfig) -> VerifySummary:
    """Check the multigraded / single-graded correspondence on every cell,
    s = 0 .. s2+1 of each (n, m, d) row. Every row is sized before the
    first one computes."""
    failures = []
    cells = 0
    for params, s_values in dictionary_rows(grid, cfg):
        # this report's key order puts the detail before the metadata
        failures += [
            _failure(CHECK_DICTIONARY, params, cfg, {"s": s, **detail})
            for s, detail in _dictionary_failures(params, s_values, cfg).items()
        ]
        cells += len(s_values)
    return VerifySummary(cells, tuple(failures))


def _dictionary_failures(
    params: SegreVeroneseParams, s_values: range, cfg: SampleConfig
) -> dict[int, dict]:
    """The lhs and rhs of the dictionary check at each s of one (n, m, d) row
    where they differ once settled. The lhs of every s is N + 1 less a rank
    from one best_ranks pass on the row's draws, as in a scan; the rhs of
    each s from best_scheme_dimension on its own (seed, n, m, d, s) stream.
    A mismatch settles both sides, each against the other's sampled value."""
    total = params.coefficient_count
    # s = 0 stacks no tangent space: its rank is 0, which is also its target
    ranked = s_values[1:] if s_values[0] == 0 else s_values
    ranks = best_ranks(params, ranked, _row_config(params, cfg))
    failures = {}
    for s in s_values:
        seed = derived_seed(cfg.seed, params.n, params.m, params.d, s)
        own = replace(cfg, seed=seed)
        key = (seed, _DICTIONARY_TAG)
        rank_at = partial(_row_rank, params, s)
        rhs_at = partial(best_scheme_dimension, params, s, 0, key=key)
        rank, rhs = ranks.get(s, 0), rhs_at(own)
        (rank, _), (rhs, _) = (
            settle(rank, total - rhs if s else 0, cfg, rank_at),
            settle(rhs, total - rank, own, rhs_at, min),
        )
        if total - rank != rhs:
            failures[s] = {"lhs": total - rank, "rhs": rhs}
    return failures


def theorem_cells(grid: ScanGrid, q_max: int, t_max: int) -> list[SegreVeroneseParams]:
    """The cells verify_theorem_suite checks, those with d >= 3, each refused
    before any case runs if its largest case, with every double point
    spanned, is too large to build; that matrix has the columns of the
    dictionary check's tangent stack and at least its rows. Each cell runs
    q_max (t_max + 1) cases."""
    if q_max < 1 or t_max < 0:
        raise ValueError("need q_max >= 1 and t_max >= 0")
    cells = []
    for n, m, d in grid.cells():
        if d < 3:
            continue
        cells.append(SegreVeroneseParams(n, m, d))
        frame = SchemeSpec(n, m, d, fat_h1=d, include_h2=True)
        s_max = (n + 1) * q_max
        check_size(
            _row_bound(frame, d + 1, doubles=s_max, spans=s_max + t_max),
            scheme_basis_size(frame, d + 1),
            f"q = {brief(q_max)}, t = {brief(t_max)} at {brief((n, m, d))}",
        )
    return cells


def theorem_entries(params: SegreVeroneseParams, q_max: int, t_max: int) -> int:
    """The entries of the condition matrices of a cell's cases, summed in
    closed form over q <= q_max and t <= t_max. Case (q, t) builds the
    spanned configuration of (n+1)q double points and t spans, whose rows
    _row_bound counts linearly in both, over the basis's columns."""
    n, m, d = params.n, params.m, params.d
    frame = SchemeSpec(n, m, d, fat_h1=d, include_h2=True)
    doubles = (n + 1) * (t_max + 1) * q_max * (q_max + 1) // 2
    spans = doubles + q_max * t_max * (t_max + 1) // 2
    rows = _row_bound(frame, d + 1, doubles=doubles, spans=spans)
    return rows * scheme_basis_size(frame, d + 1)


def verify_theorem_suite(
    grid: ScanGrid,
    cfg: SampleConfig,
    q_max: int = Q_MAX,
    t_max: int = T_MAX,
    checks: Sequence[str] = ALL_CHECKS,
) -> VerifySummary:
    """Exercise the flag-scheme dimension formula and its proof steps.

    Per (n, m, d) cell with d >= 3 and per q: the dictionary at s = (n+1)q,
    verify_dictionary_grid's check at that s on the same draws; then per t:
    the closed-form scheme dimension, invariance under attaching base-locus
    spans, the residual/trace bound, and the projection onto P^m. The
    dictionary and the formula settle a mismatch (settle). Failures carry the
    offending configuration in JSON form. Every cell is sized (theorem_cells)
    before the first case runs.
    """
    unknown = set(checks) - set(ALL_CHECKS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    per_t = [c for c in ALL_CHECKS if c in checks and c != CHECK_DICTIONARY]
    failures: list[dict] = []
    cells = 0
    for params in theorem_cells(grid, q_max, t_max):
        n = params.n
        dictionary = {}
        if CHECK_DICTIONARY in checks:
            s_values = range(n + 1, (n + 1) * q_max + 1, n + 1)
            dictionary = _dictionary_failures(params, s_values, cfg)
        for q in range(1, q_max + 1):
            if (detail := dictionary.get((n + 1) * q)) is not None:
                where = {"q": q, "t": None}
                failures.append(_failure(CHECK_DICTIONARY, params, cfg, where, detail))
            for t in range(0, t_max + 1):
                cells += 1
                failures += _run_checks(_Case(params, q, t, cfg), per_t)
    return VerifySummary(cells, tuple(failures))


@dataclass(frozen=True)
class _Case:
    """One configuration of the theorem suite: s = (n+1)q double points and
    t spans. Each scheme dimension is computed once: the scheme and the
    spanned configuration from one elimination (base_locus), which gives
    the Castelnuovo check its total, and the residual of the one split,
    which that check and the projection check share."""

    params: SegreVeroneseParams
    q: int
    t: int
    cfg: SampleConfig

    @property
    def s(self) -> int:
        return (self.params.n + 1) * self.q

    @property
    def key(self) -> tuple[int, ...]:
        """The stream key path of this case's draws."""
        p = self.params
        return (self.cfg.seed, p.n, p.m, p.d, self.q, self.t)

    @cached_property
    def scheme(self) -> SchemeSpec:
        """The specialized configuration the proof checks share."""
        rng = derived_rng(*self.key, _TAG_PROOF)
        return sample_scheme(
            self.params, self.s, self.t, rng, self.cfg.field.modulus, specialize=True
        )

    @cached_property
    def spanned(self) -> SchemeSpec:
        return add_v_spans(self.scheme)

    @cached_property
    def base_locus(self) -> tuple[int, int]:
        """Degree-(d+1) dimensions of the scheme and the spanned configuration,
        whose rows extend the scheme's by the v-span rows."""
        return v_span_dimensions(self.spanned, self.params.d + 1, self.cfg.field)

    @cached_property
    def split(self) -> ResidualTracePair:
        """The spanned configuration in degree d+1, split across H."""
        return residual_trace(self.spanned, self.params.d + 1)

    @cached_property
    def residual_dim(self) -> int:
        """The split's residual dimension in degree d."""
        split = self.split
        return scheme_ideal_dimension(
            split.residual, split.residual_degree, self.cfg.field
        )


def _run_checks(case: _Case, names: Sequence[str]) -> list[dict]:
    """Failure entries of the named checks on one case, in the given order."""
    location = {"q": case.q, "t": case.t}
    return [
        _failure(name, case.params, case.cfg, location, detail)
        for name in names
        if (detail := _CHECKS[name](case)) is not None
    ]


def _check_formula(case: _Case) -> dict | None:
    expected = expected_scheme_dim(case.params, case.q, case.t)
    key = (*case.key, _TAG_FORMULA)
    sample = partial(best_scheme_dimension, case.params, case.s, case.t, key=key)
    best, _ = settle(sample(case.cfg), expected, case.cfg, sample, min)
    if best == expected:
        return None
    return {"expected": expected, "computed": best}


def _check_base_locus(case: _Case) -> dict | None:
    before, after = case.base_locus
    if before == after:
        return None
    return {"before": before, "after": after, "scheme": scheme_to_dict(case.scheme)}


def _check_castelnuovo(case: _Case) -> dict | None:
    """The spanned configuration's total, read from base_locus, against its
    residual and trace. The trace is eliminated only where its
    dimension_floor leaves the bound open."""
    total, residual = case.base_locus[1], case.residual_dim
    trace, degree = case.split.trace, case.split.trace_degree
    if total <= residual + dimension_floor(trace, degree):
        return None
    check = CastelnuovoCheck(
        total, residual, scheme_ideal_dimension(trace, degree, case.cfg.field)
    )
    if check.holds:
        return None
    return {
        "total": check.total,
        "residual": check.residual,
        "trace": check.trace,
        "scheme": scheme_to_dict(case.spanned),
    }


def _check_projection(case: _Case) -> dict | None:
    residual = case.split.residual
    residual_dim = case.residual_dim
    projected = projected_scheme(residual)
    projected_dim = scheme_ideal_dimension(projected, residual.d, case.cfg.field)
    if residual_dim == projected_dim:
        return None
    return {
        "residual_dim": residual_dim,
        "projected_dim": projected_dim,
        "scheme": scheme_to_dict(residual),
    }


_CHECKS = {
    CHECK_FORMULA: _check_formula,
    CHECK_BASE_LOCUS: _check_base_locus,
    CHECK_CASTELNUOVO: _check_castelnuovo,
    CHECK_PROJECTION: _check_projection,
}


def _failure(
    check: str,
    params: SegreVeroneseParams,
    cfg: SampleConfig,
    location: dict,
    detail: dict | None = None,
) -> dict:
    """A failure entry: the check, the cell and location, the sampling
    metadata, then the check's detail."""
    return {
        "check": check,
        "n": params.n,
        "m": params.m,
        "d": params.d,
        **location,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "modulus": cfg.field.modulus,
        **(detail or {}),
    }


def record_to_dict(record: SecantRecord) -> dict:
    return dict(zip(RECORD_FIELDS, _values(record)))


def _literal(value) -> str:
    """A scalar as json.dumps writes it: a bool as true or false (tested
    first, bool being an int), an int as its repr, a string quoted with
    non-ASCII and control characters escaped."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return encode_basestring_ascii(value)


# one report entry of json.dumps(..., indent=2), a %s for each value
_JSON_RECORD = (
    "  {\n"
    + ",\n".join(f"    {encode_basestring_ascii(key)}: %s" for key in RECORD_FIELDS)
    + "\n  }"
)


def records_to_json(records: Sequence[SecantRecord]) -> str:
    """The records as a JSON list, byte for byte what
    json.dumps([record_to_dict(r) for r in records], indent=2) + "\n" writes.
    One template per record is filled from its attributes, so no dict is
    built and no encoder walks the values."""
    if not records:
        return "[]\n"
    # the values' tuple is built from a list: CPython takes a tuple of known
    # length from its free list, where tuple(map(...)) grows a new one and
    # then frees it to that list, which keeps up to 2,000 of them (0.3 MB)
    body = ",\n".join(
        _JSON_RECORD % tuple([_literal(v) for v in _values(r)]) for r in records
    )
    return f"[\n{body}\n]\n"


def _csv_value(value) -> str:
    """The JSON literal of a scalar, or a string as itself."""
    return value if isinstance(value, str) else _literal(value)


def records_to_csv(records: Sequence[SecantRecord]) -> str:
    lines = [",".join(RECORD_FIELDS)]
    for record in records:
        lines.append(",".join(map(_csv_value, _values(record))))
    return "\n".join(lines) + "\n"


def summary_to_json(summary: VerifySummary) -> str:
    payload = {
        "cellsChecked": summary.cells_checked,
        "failures": list(summary.failures),
    }
    return json.dumps(payload, indent=2) + "\n"


def summary_to_csv(summary: VerifySummary) -> str:
    """Flat rendering: one row per failure, schemes elided."""
    fields = ("check", "n", "m", "d", "q", "t", "s", "detail")
    lines = [f"# cellsChecked={summary.cells_checked}", ",".join(fields)]
    for failure in summary.failures:
        detail = ";".join(
            f"{k}={v}"
            for k, v in failure.items()
            if k not in fields and k != "scheme"
        )
        # an absent s and the null t of a dictionary entry are empty fields
        columns = (failure.get(k) for k in fields[:-1])
        cells = ["" if v is None else str(v) for v in columns]
        lines.append(",".join([*cells, detail]))
    return "\n".join(lines) + "\n"
