"""Grid scans, verification suites and report rendering.

A scan takes one pass per (n, m, d): trial t draws its points from one
stream derived from (seed, n, m, d, t), and the cell for s uses the first s
of them, so every s of a row comes from one rank profile. Results do not
depend on traversal order, a single cell computed on its own equals its
record in a scan, and identical inputs reproduce byte-identical reports.

A cell whose computed dimension falls short of the expected one is escalated
before being reported: trials are doubled, then the same draws are
recomputed over the rationals. Only a shortfall that survives both is a
defect candidate; certification never needs escalation because a modular
rank cannot overshoot.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

from .expected import expected_scheme_dim, expected_secant_dim, thresholds
from .schemes import (
    add_v_spans,
    castelnuovo_check,
    project_from_h1,
    residual_trace,
    sample_scheme,
    scheme_ideal_dimension,
    scheme_to_dict,
    verify_dictionary,
)
from .terracini import (
    SampleConfig,
    SegreVeroneseParams,
    best_ranks,
    derived_rng,
    derived_seed,
    secant_dimension,
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

# stream tags keeping the verification draws apart
_TAG_FORMULA = 11
_TAG_PROOF = 13

RECORD_FIELDS = (
    "n",
    "m",
    "d",
    "s",
    "N",
    "expected",
    "computed",
    "defect",
    "s1",
    "s2",
    "inTheoremRange",
    "status",
    "seed",
    "trials",
    "modulus",
)


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


def scan_cell(
    params: SegreVeroneseParams,
    s: int,
    cfg: SampleConfig,
    best_rank: int | None = None,
) -> SecantRecord:
    """Scan one (n, m, d, s) cell, escalating any apparent defect.

    best_rank, when given, is the best stacked rank a scan has already
    computed for this s with the row's draws; otherwise it is computed here.
    """
    row_cfg = _row_config(params, cfg)
    expected = expected_secant_dim(params, s)
    if best_rank is None:
        computed = secant_dimension(params, s, row_cfg)
    else:
        computed = best_rank - 1
    trials = cfg.trials
    if computed < expected:
        trials = cfg.trials * 2
        computed = max(
            computed, secant_dimension(params, s, replace(row_cfg, trials=trials))
        )
    if computed < expected:
        exact = replace(row_cfg, trials=trials, field=cfg.field.to_rational())
        computed = max(computed, secant_dimension(params, s, exact))
    th = thresholds(params)
    in_range = params.d >= 3 and (s <= th.s1 or s >= th.s2)
    gap = expected - computed
    if gap == 0:
        status = STATUS_CERTIFIED if in_range else STATUS_OUT_CERTIFIED
    else:
        status = STATUS_CANDIDATE if in_range else STATUS_OUT_CANDIDATE
    return SecantRecord(
        n=params.n,
        m=params.m,
        d=params.d,
        s=s,
        ambient=params.ambient_dim,
        expected=expected,
        computed=computed,
        defect=gap,
        s1=th.s1,
        s2=th.s2,
        in_theorem_range=in_range,
        status=status,
        seed=cfg.seed,
        trials=trials,
        modulus=cfg.field.modulus,
    )


def scan(grid: ScanGrid, cfg: SampleConfig) -> list[SecantRecord]:
    """Scan every cell of the grid; records come back in lexicographic order."""
    records = []
    for n, m, d in grid.cells():
        params = SegreVeroneseParams(n, m, d)
        s_values = grid.s_values(params)
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


def verify_dictionary_grid(grid: ScanGrid, cfg: SampleConfig) -> VerifySummary:
    """Check the multigraded / single-graded correspondence on every cell."""
    failures = []
    cells = 0
    for n, m, d in grid.cells():
        params = SegreVeroneseParams(n, m, d)
        for s in range(0, thresholds(params).s2 + 2):
            cells += 1
            cell_cfg = replace(cfg, seed=derived_seed(cfg.seed, n, m, d, s))
            check = verify_dictionary(params, s, cell_cfg)
            if not check.equal:
                failures.append(
                    {
                        "check": CHECK_DICTIONARY,
                        "n": n,
                        "m": m,
                        "d": d,
                        "s": s,
                        "lhs": check.lhs,
                        "rhs": check.rhs,
                        "seed": cfg.seed,
                        "trials": cfg.trials,
                        "modulus": cfg.field.modulus,
                    }
                )
    return VerifySummary(cells, tuple(failures))


def verify_theorem_suite(
    grid: ScanGrid,
    cfg: SampleConfig,
    q_max: int = 2,
    t_max: int = 2,
    checks: Sequence[str] = ALL_CHECKS,
) -> VerifySummary:
    """Exercise the flag-scheme dimension formula and its proof steps.

    Per (n, m, d) cell with d >= 3 and per (q, t): the closed-form scheme
    dimension, the dictionary at s = (n+1)q, invariance under attaching
    base-locus spans, the residual/trace bound, and the projection onto
    P^m. Failures carry the offending configuration in JSON form.
    """
    unknown = set(checks) - set(ALL_CHECKS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    failures: list[dict] = []
    cells = 0
    for n, m, d in grid.cells():
        if d < 3:
            continue
        params = SegreVeroneseParams(n, m, d)
        for q in range(1, q_max + 1):
            s = (n + 1) * q
            if CHECK_DICTIONARY in checks:
                cell_cfg = replace(cfg, seed=derived_seed(cfg.seed, n, m, d, q))
                dictionary = verify_dictionary(params, s, cell_cfg)
                if not dictionary.equal:
                    failures.append(
                        _failure(
                            CHECK_DICTIONARY,
                            params,
                            q,
                            None,
                            cfg,
                            lhs=dictionary.lhs,
                            rhs=dictionary.rhs,
                        )
                    )
            for t in range(0, t_max + 1):
                cells += 1
                expected = expected_scheme_dim(params, q, t)
                if CHECK_FORMULA in checks:
                    best = None
                    for trial in range(cfg.trials):
                        rng = derived_rng(
                            cfg.seed, n, m, d, q, t, _TAG_FORMULA, trial
                        )
                        spec = sample_scheme(
                            params, s, t, rng, cfg.field.modulus
                        )
                        dim = scheme_ideal_dimension(spec, d + 1, cfg.field)
                        best = dim if best is None else min(best, dim)
                    if best != expected:
                        failures.append(
                            _failure(
                                CHECK_FORMULA,
                                params,
                                q,
                                t,
                                cfg,
                                expected=expected,
                                computed=best,
                            )
                        )
                proof_checks = {
                    CHECK_BASE_LOCUS,
                    CHECK_CASTELNUOVO,
                    CHECK_PROJECTION,
                } & set(checks)
                if not proof_checks:
                    continue
                rng = derived_rng(cfg.seed, n, m, d, q, t, _TAG_PROOF)
                spec = sample_scheme(
                    params, s, t, rng, cfg.field.modulus, specialize=True
                )
                spanned = add_v_spans(spec)
                if CHECK_BASE_LOCUS in checks:
                    before = scheme_ideal_dimension(spec, d + 1, cfg.field)
                    after = scheme_ideal_dimension(spanned, d + 1, cfg.field)
                    if before != after:
                        failures.append(
                            _failure(
                                CHECK_BASE_LOCUS,
                                params,
                                q,
                                t,
                                cfg,
                                before=before,
                                after=after,
                                scheme=scheme_to_dict(spec),
                            )
                        )
                if CHECK_CASTELNUOVO in checks:
                    split = castelnuovo_check(spanned, d + 1, cfg.field)
                    if not split.holds:
                        failures.append(
                            _failure(
                                CHECK_CASTELNUOVO,
                                params,
                                q,
                                t,
                                cfg,
                                total=split.total,
                                residual=split.residual,
                                trace=split.trace,
                                scheme=scheme_to_dict(spanned),
                            )
                        )
                if CHECK_PROJECTION in checks:
                    pair = residual_trace(spanned, d + 1)
                    proj = project_from_h1(pair.residual, cfg.field)
                    if not proj.equal:
                        failures.append(
                            _failure(
                                CHECK_PROJECTION,
                                params,
                                q,
                                t,
                                cfg,
                                residual_dim=proj.residual_dim,
                                projected_dim=proj.projected_dim,
                                scheme=scheme_to_dict(pair.residual),
                            )
                        )
    return VerifySummary(cells, tuple(failures))


def _failure(
    check: str,
    params: SegreVeroneseParams,
    q: int,
    t: int | None,
    cfg: SampleConfig,
    **detail,
) -> dict:
    entry = {
        "check": check,
        "n": params.n,
        "m": params.m,
        "d": params.d,
        "q": q,
        "t": t,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "modulus": cfg.field.modulus,
    }
    entry.update(detail)
    return entry


def grassmann_verdict(record: SecantRecord) -> str:
    """Reads a scan record as a statement about Grassmann defectivity of a
    Veronese variety: secants of the (1,d) embedding correspond to (n, s-1)
    Grassmann secants of the d-uple Veronese of P^m."""
    target = f"the {record.d}-uple Veronese of P^{record.m}"
    pair = f"({record.n}, {record.s - 1})"
    if record.defect == 0:
        verdict = f"{target} is not {pair}-Grassmann defective"
        if not record.in_theorem_range:
            verdict += " at the sampled points (outside the certified range)"
        return verdict
    return (
        f"candidate: {target} may be {pair}-Grassmann defective "
        f"(defect {record.defect} at the sampled points)"
    )


def record_to_dict(record: SecantRecord) -> dict:
    return {
        "n": record.n,
        "m": record.m,
        "d": record.d,
        "s": record.s,
        "N": record.ambient,
        "expected": record.expected,
        "computed": record.computed,
        "defect": record.defect,
        "s1": record.s1,
        "s2": record.s2,
        "inTheoremRange": record.in_theorem_range,
        "status": record.status,
        "seed": record.seed,
        "trials": record.trials,
        "modulus": record.modulus,
    }


def records_to_json(records: Sequence[SecantRecord]) -> str:
    return json.dumps([record_to_dict(r) for r in records], indent=2) + "\n"


def _csv_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def records_to_csv(records: Sequence[SecantRecord]) -> str:
    lines = [",".join(RECORD_FIELDS)]
    for record in records:
        data = record_to_dict(record)
        lines.append(",".join(_csv_value(data[f]) for f in RECORD_FIELDS))
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
        lines.append(
            ",".join(
                [
                    str(failure.get("check", "")),
                    *(str(failure.get(k, "")) for k in ("n", "m", "d", "q", "t", "s")),
                    detail,
                ]
            )
        )
    return "\n".join(lines) + "\n"
