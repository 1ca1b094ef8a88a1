"""Grid scans, verdicts, verification suites, report serialization."""

import csv
import dataclasses
import io
import json
import operator
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secantdim.cli import main
from secantdim.linalg import EXACT_RATIONAL, FieldConfig
from secantdim.scanner import (
    CHECK_BASE_LOCUS,
    CHECK_CASTELNUOVO,
    CHECK_DICTIONARY,
    CHECK_FORMULA,
    CHECK_PROJECTION,
    RECORD_FIELDS,
    STATUS_CANDIDATE,
    STATUS_CERTIFIED,
    STATUS_OUT_CANDIDATE,
    STATUS_OUT_CERTIFIED,
    ScanGrid,
    SecantRecord,
    VerifySummary,
    grid_from_ranges,
    record_to_dict,
    records_to_csv,
    records_to_json,
    scan,
    scan_cell,
    summary_to_csv,
    summary_to_json,
    verify_dictionary_grid,
    verify_theorem_suite,
)
from secantdim import linalg, monomials, scanner, schemes, terracini
from secantdim.terracini import SampleConfig, SegreVeroneseParams


CFG = SampleConfig(seed=0, trials=2)
GOLDEN = (
    Path(__file__).resolve().parents[1]
    / "benchmarks"
    / "golden"
    / "scan-d34.seed0.json"
)


def test_scan_theorem_range_grid():
    records = scan(ScanGrid(n_values=(1,), m_values=(2,), d_values=(3,)), CFG)
    assert [r.s for r in records] == list(range(1, 8))
    for rec in records:
        assert rec.ambient == 19
        assert (rec.s1, rec.s2) == (4, 6)
        assert rec.expected == min(19, 4 * rec.s - 1)
        assert rec.in_theorem_range == (rec.s != 5)
        if rec.s == 5:
            # the one value the covering ranges miss, and it really is
            # defective there: five generic double points only cut the
            # pencil-of-cubics locus down to dimension 18
            assert rec.status == STATUS_OUT_CANDIDATE
            assert (rec.computed, rec.defect) == (18, 1)
            assert rec.trials == 2 * CFG.trials
        else:
            assert rec.status == STATUS_CERTIFIED
            assert rec.computed == rec.expected and rec.defect == 0
            assert rec.trials == CFG.trials


def test_scan_cell_alone_equals_its_scan_record():
    params = SegreVeroneseParams(1, 2, 3)
    records = scan(ScanGrid(n_values=(1,), m_values=(2,), d_values=(3,)), CFG)
    assert records == [scan_cell(params, r.s, CFG) for r in records]
    # the escalated candidate is among them
    assert any(r.s == 5 and r.status == STATUS_OUT_CANDIDATE for r in records)
    assert {r.seed for r in records} == {CFG.seed}


def test_scan_explicit_s_list_keeps_repeats():
    grid = ScanGrid(
        n_values=(1,), m_values=(2,), d_values=(3,), s_policy="explicit",
        s_list=(2, 1, 2),
    )
    records = scan(grid, CFG)
    assert [r.s for r in records] == [1, 2, 2]
    assert records[1] == records[2]


def test_scan_gap_cell_can_certify():
    records = scan(ScanGrid(n_values=(1,), m_values=(1,), d_values=(3,)), CFG)
    by_s = {r.s: r for r in records}
    assert by_s[3].status == STATUS_OUT_CERTIFIED
    assert by_s[3].defect == 0 and not by_s[3].in_theorem_range


def test_scan_orders_records_lexicographically():
    grid = ScanGrid(
        n_values=(2, 1), m_values=(2, 1), d_values=(3,), s_policy="explicit",
        s_list=(2, 1),
    )
    records = scan(grid, SampleConfig(seed=0, trials=1))
    keys = [(r.n, r.m, r.d, r.s) for r in records]
    assert keys == sorted(keys)
    assert len(keys) == 8


def test_scan_cell_escalates_real_defect():
    rec = scan_cell(SegreVeroneseParams(2, 3, 2), 5, SampleConfig(seed=0, trials=1))
    assert rec.status == STATUS_OUT_CANDIDATE
    assert (rec.expected, rec.computed, rec.defect) == (29, 28, 1)
    # the shortfall was recomputed over Q at doubled trials before being
    # reported
    assert rec.trials == 2
    assert not rec.in_theorem_range


def test_scan_cell_escalates_in_one_exact_step(monkeypatch):
    real, real_rank = scanner.secant_dimension, terracini.rank
    calls, ceilings = [], []

    def counted(params, s, cfg):
        calls.append(cfg)
        return real(params, s, cfg)

    def ranked(mat, cfg, ceiling=None):
        ceilings.append(ceiling)
        return real_rank(mat, cfg, ceiling)

    monkeypatch.setattr(scanner, "secant_dimension", counted)
    monkeypatch.setattr(terracini, "rank", ranked)
    params = SegreVeroneseParams(2, 3, 2)
    cfg = SampleConfig(seed=0, trials=2)
    rec = scan_cell(params, 5, cfg, best_rank=29)
    assert rec.defect == 1
    assert len(calls) == 1
    # no product of forms is singular at five points of (2, 3, 2), so each
    # of the four ranks over Q is bounded by N + 1
    assert ceilings == [30] * 4
    assert not calls[0].field.is_modular
    assert calls[0].field.modulus == cfg.field.modulus
    assert calls[0].trials == rec.trials == 4
    # the escalation after a modular pass recomputes the row's own draws
    assert calls[0].first_trial == 0
    assert calls[0].seed == scanner._row_config(params, cfg).seed


def test_scan_cell_takes_a_met_bound_in_place_of_certificates(monkeypatch):
    # at (1, 2, 3), s = 5, k = 1 bounds every draw's rank over Q by
    # N + 1 - k = 19, the pass's rank: each of the escalation's four ranks
    # over Q reaches it, so its pivots prove it with nothing lifted
    params = SegreVeroneseParams(1, 2, 3)
    certified = []
    real = linalg._certify

    def certify(*args):
        certified.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, "_certify", certify)
    proven = scan_cell(params, 5, CFG)
    assert certified == []
    assert (proven.computed, proven.defect, proven.trials) == (18, 1, 4)
    # without the bound each rank is certified, to the same record
    monkeypatch.setattr(terracini, "singular_products", lambda params, points: None)
    assert scan_cell(params, 5, CFG) == proven
    assert len(certified) == 4


@pytest.mark.parametrize(
    "cell, s, k",
    [
        # special draws over GF(11) from the escalation golden's scan: at
        # s = 3 two b_k are the same point of P^1, which leaves the bound
        # None; at s = 4 no e has both a Q and a G, so k = 0
        ((1, 1, 4), 3, None),
        ((1, 1, 4), 4, 0),
    ],
)
def test_scan_cell_escalates_a_shortfall_the_bound_does_not_meet(
    monkeypatch, cell, s, k
):
    params = SegreVeroneseParams(*cell)
    cfg = SampleConfig(seed=0, trials=1, field=FieldConfig(modulus=11))
    row = scanner._row_config(params, cfg)
    points = terracini.sample_point_pairs(params, s, row, 0)
    assert terracini.singular_products(params, points) == k
    exact = []
    real = scanner.secant_dimension

    def counted(params, s, cfg):
        exact.append(not cfg.field.is_modular)
        return real(params, s, cfg)

    monkeypatch.setattr(scanner, "secant_dimension", counted)
    rec = scan_cell(params, s, cfg)
    assert exact == [False, True]
    assert (rec.defect, rec.trials) == (0, 2)


def test_scan_cell_defect_survives_exact_backend():
    cfg = SampleConfig(seed=0, trials=1, field=FieldConfig(backend=EXACT_RATIONAL))
    rec = scan_cell(SegreVeroneseParams(2, 3, 2), 5, cfg)
    assert rec.defect == 1


@pytest.mark.parametrize(
    "args, expected",
    [
        # the pass ranks trial 0, the escalation only trial 1
        (("dim", "2", "3", "2", "5"), [("rank", 30)] * 2),
        # the pass is one profile over trial 0, the escalation of s = 5
        # ranks trial 1 alone
        (("scan", "--grid", "(2,3,2)"), [("rank_profile", 42), ("rank", 30)]),
    ],
)
def test_exact_pass_escalates_without_reranking_its_own_draws(
    monkeypatch, capsys, args, expected
):
    eliminations = []

    def counted(name):
        real = getattr(terracini, name)

        def eliminate(mat, cfg, *ceiling):
            assert not cfg.is_modular
            eliminations.append((name, mat.rows))
            return real(mat, cfg, *ceiling)

        return eliminate

    for name in ("rank", "rank_profile"):
        monkeypatch.setattr(terracini, name, counted(name))
    assert main([*args, "--backend", "exact", "--trials", "1"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert [r["defect"] for r in records if r["s"] == 5] == [1]
    assert eliminations == expected


def test_exact_certificates_prove_only_the_true_shortfall(monkeypatch, capsys):
    # the non-pivot column count of every certificate
    counts = []
    real = linalg._certify

    def counted(ints, rows, cols, p):
        counts.append(ints.shape[1] - len(cols))
        return real(ints, rows, cols, p)

    monkeypatch.setattr(linalg, "_certify", counted)
    # a full-rank cell: 133 independent rows of 140 columns leave nothing
    # to lift
    args = ["dim", "3", "3", "4", "19", "--backend", "exact", "--trials", "1"]
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)[0]["defect"] == 0
    assert counts == [0]
    counts.clear()
    # the defect of 1 at (4, 3, 2), s = 6: each trial's 48 x 50 matrix, taken
    # as its transpose, leaves one non-pivot column, where the full blocks
    # (54 x 50) left three
    rec = scan_cell(SegreVeroneseParams(4, 3, 2), 6, SampleConfig(seed=0))
    assert (rec.defect, rec.trials) == (1, 4)
    assert counts == [1] * 4
    counts.clear()
    # the defect of 1 at (2, 5, 2), s = 8: one open s is ranked by rank, not
    # rank_profile, so each 64 x 63 matrix is certified as it is, with one
    # non-pivot column; its 63 x 64 transpose would leave two
    rec = scan_cell(SegreVeroneseParams(2, 5, 2), 8, SampleConfig(seed=0))
    assert (rec.defect, rec.trials) == (1, 4)
    assert counts == [1] * 4


@pytest.mark.parametrize(
    "args, bounded, unbounded",
    [
        # k = 1 and k = 2: the pass's one rank over Q and the escalation's
        # reach N + 1 - k, where each would lift the 1 or 2 columns of the
        # shortfall
        (("dim", "1", "2", "3", "5", "--trials", "1"), [], [1, 1]),
        (("dim", "10", "2", "3", "9", "--trials", "1"), [], [2, 2]),
        # k = 0 at d = 2: the pass's two ranks and the escalation's two fall
        # short of N + 1, so each is certified
        (("dim", "2", "3", "2", "5"), [1] * 4, [1] * 4),
        # a profile takes no bound, so only the escalation of s = 5 drops
        # its certificates
        (("scan", "--grid", "(1,2,3)"), [8, 1], [8, 1, 1, 1]),
    ],
)
def test_an_exact_pass_of_one_s_ranks_under_the_bound(
    monkeypatch, capsys, args, bounded, unbounded
):
    # the non-pivot column count of every certificate, with the bound and
    # with singular_products proving nothing
    counts = []
    real = linalg._certify

    def counted(ints, rows, cols, p):
        counts.append(ints.shape[1] - len(cols))
        return real(ints, rows, cols, p)

    monkeypatch.setattr(linalg, "_certify", counted)
    assert main([*args, "--backend", "exact"]) == 0
    report = capsys.readouterr().out
    assert counts == bounded
    counts.clear()
    monkeypatch.setattr(terracini, "singular_products", lambda params, points: None)
    assert main([*args, "--backend", "exact"]) == 0
    assert capsys.readouterr().out == report
    assert counts == unbounded


def test_scan_cell_rejects_a_rank_above_the_parameter_count():
    # (1, 2, 3) at s = 2 expects dimension 7, so a rank of 9 cannot occur
    with pytest.raises(ValueError, match="exceeds"):
        scan_cell(SegreVeroneseParams(1, 2, 3), 2, CFG, best_rank=9)


def test_scan_cell_low_degree_certified_is_flagged():
    rec = scan_cell(SegreVeroneseParams(1, 2, 2), 2, SampleConfig(seed=0, trials=1))
    assert rec.defect == 0
    assert rec.status == STATUS_OUT_CERTIFIED


def test_grid_from_ranges():
    grid = grid_from_ranges(n_max=2, m_max=3, d_min=3, d_max=4)
    cells = list(grid.cells())
    assert len(cells) == 2 * 3 * 2
    assert cells[0] == (1, 1, 3)
    assert cells[-1] == (2, 3, 4)


def test_grid_validation():
    with pytest.raises(ValueError):
        ScanGrid(n_values=(0,), m_values=(1,), d_values=(3,))
    with pytest.raises(ValueError):
        ScanGrid(n_values=(1,), m_values=(1,), d_values=(3,), s_policy="bogus")
    with pytest.raises(ValueError):
        ScanGrid(
            n_values=(1,), m_values=(1,), d_values=(3,), s_policy="explicit"
        )


@pytest.mark.parametrize("s_policy", ["theorem-range", "all-up-to"])
def test_grid_rejects_s_list_outside_explicit_policy(s_policy):
    with pytest.raises(ValueError, match="s_list"):
        ScanGrid(
            n_values=(1,), m_values=(1,), d_values=(3,), s_policy=s_policy,
            s_list=(2, 3),
        )


@pytest.mark.parametrize("q_max, t_max", [(0, 1), (-1, 1), (1, -1), (1, -3)])
def test_verify_theorem_suite_rejects_empty_ranges(q_max, t_max):
    grid = ScanGrid(n_values=(1,), m_values=(2,), d_values=(3,))
    with pytest.raises(ValueError, match="q_max"):
        verify_theorem_suite(grid, CFG, q_max=q_max, t_max=t_max)


def test_reports_are_reproducible_bytes():
    grid = ScanGrid(n_values=(1,), m_values=(1, 2), d_values=(3,))
    first = scan(grid, CFG)
    second = scan(grid, CFG)
    assert records_to_json(first) == records_to_json(second)
    assert records_to_csv(first) == records_to_csv(second)


def test_json_report_shape():
    records = scan(ScanGrid(n_values=(1,), m_values=(1,), d_values=(3,)), CFG)
    payload = json.loads(records_to_json(records))
    assert len(payload) == len(records)
    assert list(payload[0].keys()) == list(RECORD_FIELDS)
    assert payload[0]["N"] == 7
    assert payload[0]["modulus"] == CFG.field.modulus


def test_csv_report_shape():
    records = scan(ScanGrid(n_values=(1,), m_values=(1,), d_values=(3,)), CFG)
    text = records_to_csv(records)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == list(RECORD_FIELDS)
    assert len(rows) == len(records) + 1
    assert rows[1][RECORD_FIELDS.index("inTheoremRange")] in ("true", "false")


STATUSES = (
    STATUS_CERTIFIED,
    STATUS_CANDIDATE,
    STATUS_OUT_CERTIFIED,
    STATUS_OUT_CANDIDATE,
)
FIELD_VALUES = {"in_theorem_range": st.booleans(), "status": st.sampled_from(STATUSES)}
secant_records = st.lists(
    st.builds(
        SecantRecord,
        **{
            f.name: FIELD_VALUES.get(f.name, st.integers())
            for f in dataclasses.fields(SecantRecord)
        },
    ),
    max_size=5,
)


def _dict_csv(rs) -> str:
    """The CSV rendered from record_to_dict: a bool as true or false, any
    other value as str() writes it."""
    lines = [",".join(RECORD_FIELDS)]
    for r in rs:
        values = record_to_dict(r).values()
        lines.append(
            ",".join(
                ("true" if v else "false") if isinstance(v, bool) else str(v)
                for v in values
            )
        )
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(secant_records)
def test_records_round_trip_through_json_and_agree_with_csv(rs):
    text = records_to_json(rs)
    assert text == json.dumps([record_to_dict(r) for r in rs], indent=2) + "\n"
    payload = json.loads(text)
    assert payload == [record_to_dict(r) for r in rs]
    assert all(list(entry) == list(RECORD_FIELDS) for entry in payload)
    csv_text = records_to_csv(rs)
    assert csv_text == _dict_csv(rs)
    rows = list(csv.reader(io.StringIO(csv_text)))
    assert rows[0] == list(RECORD_FIELDS)
    assert len(rows) == len(payload) + 1
    for row, entry in zip(rows[1:], payload):
        # an integer or a bool prints as its JSON literal, a status as itself
        assert row == [
            v if isinstance(v, str) else json.dumps(v) for v in entry.values()
        ]


# integers of thousands of digits, below the 4,300 Python prints by default
_huge = st.integers(10**2000, 10**4000)
ANY_VALUES = {"in_theorem_range": st.booleans(), "status": st.text()}
any_records = st.lists(
    st.builds(
        SecantRecord,
        **{
            f.name: ANY_VALUES.get(
                f.name, st.integers() | _huge | _huge.map(operator.neg)
            )
            for f in dataclasses.fields(SecantRecord)
        },
    ),
    max_size=4,
)
_ODD_RECORD = dataclasses.replace(
    SecantRecord(*range(-(10**4000), -(10**4000) + 15)),
    in_theorem_range=False,
    status='"\\ \x00\x1f\x7f\u00e9\u2028\U0001f600',
)


@settings(max_examples=100, deadline=None)
@example([])
@example([_ODD_RECORD])
@given(any_records)
def test_records_to_json_writes_any_status_and_integer_as_json_dumps_does(rs):
    # quotes, backslashes, control and non-ASCII characters in a status
    text = records_to_json(rs)
    assert text == json.dumps([record_to_dict(r) for r in rs], indent=2) + "\n"
    assert json.loads(text) == [record_to_dict(r) for r in rs]
    assert text.isascii()


def test_verify_dictionary_grid_counts():
    grid = ScanGrid(n_values=(1, 2), m_values=(2,), d_values=(3,))
    summary = verify_dictionary_grid(
        grid, SampleConfig(seed=0, trials=1)
    )
    assert summary.ok
    # s runs 0 .. s2+1 per cell: 8 cells for (1,2,3), 8 for (2,2,3)
    assert summary.cells_checked == 16


@pytest.mark.parametrize(
    "suite",
    [
        verify_dictionary_grid,
        # the theorem suite's dictionary at s = (n+1)q, for q = 1 and 2
        lambda grid, cfg: verify_theorem_suite(grid, cfg, checks=(CHECK_DICTIONARY,)),
    ],
    ids=["dictionary", "theorem"],
)
def test_verify_dictionary_grid_takes_one_pass_per_row(monkeypatch, suite):
    # every lhs of an (n, m, d) row comes from one best_ranks pass, so one
    # trial costs one tangent elimination per row, not one per s
    eliminations = []

    def counted(real):
        def eliminate(mat, cfg):
            eliminations.append(mat.rows)
            return real(mat, cfg)

        return eliminate

    for name in ("rank", "rank_profile"):
        monkeypatch.setattr(terracini, name, counted(getattr(terracini, name)))
    grid = ScanGrid(n_values=(1, 2), m_values=(2,), d_values=(3,))
    summary = suite(grid, SampleConfig(seed=0, trials=1))
    assert summary.ok
    assert len(eliminations) == 2


def test_both_suites_report_the_same_dictionary_check():
    # at a small prime both suites find mismatches; the theorem suite's check
    # at (q, t = None) is verify dictionary's at s = (n+1)q, entry for entry.
    # One trial leaves mismatches that survive the settle step
    grid = grid_from_ranges(2, 2, 3, 4)
    cfg = SampleConfig(seed=0, trials=1, field=FieldConfig(modulus=7))
    by_s = {
        (f["n"], f["m"], f["d"], f["s"]): f
        for f in verify_dictionary_grid(grid, cfg).failures
    }
    theorem = [
        f for f in verify_theorem_suite(grid, cfg).failures
        if f["check"] == CHECK_DICTIONARY
    ]
    assert theorem
    for f in theorem:
        match = by_s[f["n"], f["m"], f["d"], (f["n"] + 1) * f["q"]]
        assert (f["lhs"], f["rhs"], f["t"]) == (match["lhs"], match["rhs"], None)
    # and every mismatch at some s = (n+1)q, q <= 2, shows in both
    at_q = [(n, s) for n, m, d, s in by_s if s % (n + 1) == 0 and s <= 2 * (n + 1)]
    assert len(at_q) == len(theorem)


def test_settle_keeps_a_value_that_meets_its_target():
    def sample(cfg):
        raise AssertionError("a value on target is not sampled again")

    assert scanner.settle(7, 7, CFG, sample) == (7, 2)


def test_settle_samples_a_miss_again_over_q_at_doubled_trials():
    seen = []

    def sample(cfg):
        seen.append(cfg)
        return 5

    cfg = SampleConfig(seed=3, trials=2, field=FieldConfig(modulus=7))
    # a rank keeps the larger value, a dimension the smaller
    assert scanner.settle(4, 6, cfg, sample) == (5, 4)
    assert scanner.settle(6, 7, cfg, sample) == (6, 4)
    assert scanner.settle(6, 4, cfg, sample, min) == (5, 4)
    rational = FieldConfig(modulus=7).to_rational()
    assert seen == [SampleConfig(seed=3, trials=4, field=rational)] * 3
    # a pass over Q has ranked trials 0 .. 1 already, so only 2 .. 3 are drawn
    exact = SampleConfig(seed=3, trials=2, field=rational)
    assert scanner.settle(4, 6, exact, sample) == (5, 4)
    assert seen[-1] == SampleConfig(seed=3, trials=4, field=rational, first_trial=2)


def test_exact_verify_settles_on_the_new_draws_alone(monkeypatch, capsys):
    # the pass over Q ranks trials 0 .. 2, so each of the five mismatches
    # settles both sides on trials 3 .. 5 alone, to the same report
    args = ["verify", "dictionary", "--n-max", "2", "--m-max", "2",
            "--d-min", "3", "--d-max", "4", "--prime", "7", "--trials", "3",
            "--backend", "exact"]
    ranks, dims = [], []
    real_ranks, real_dims = terracini.best_ranks, scanner.best_scheme_dimension

    def walked_ranks(params, s_values, cfg):
        ranks.append((cfg.first_trial, cfg.trials))
        return real_ranks(params, s_values, cfg)

    def walked_dims(params, s, t, cfg, key):
        dims.append((cfg.first_trial, cfg.trials))
        return real_dims(params, s, t, cfg, key)

    # the pass ranks through scanner.best_ranks, the settles through
    # terracini's
    monkeypatch.setattr(terracini, "best_ranks", walked_ranks)
    monkeypatch.setattr(scanner, "best_scheme_dimension", walked_dims)
    assert main(args) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["cellsChecked"] == 62
    assert summary["failures"] == [{
        "check": "dictionary", "n": 2, "m": 2, "d": 4, "s": 9, "lhs": 0,
        "rhs": 1, "seed": 0, "trials": 3, "modulus": 7,
    }]
    assert ranks == [(3, 6)] * 5
    assert sorted(dims) == [(0, 3)] * 62 + [(3, 6)] * 5


def test_a_dictionary_lhs_settles_under_the_bound(monkeypatch):
    # at (1, 2, 3), s = 5, the pass meets the bound N + 1 - k = 19, so a
    # forced mismatch settles the rank with nothing lifted; s = 0, forced
    # too, is never ranked
    params = SegreVeroneseParams(1, 2, 3)
    real_dims = scanner.best_scheme_dimension

    def raised(params, s, t, cfg, key):
        dim = real_dims(params, s, t, cfg, key)
        return dim + 1 if cfg.field.is_modular and s in (0, 5) else dim

    # the certificates run inside each settle's best_ranks call, per s
    certified, lifted = [], {}
    real_ranks, real_certify = terracini.best_ranks, linalg._certify

    def ranks(params, s_values, cfg):
        before = len(certified)
        result = real_ranks(params, s_values, cfg)
        lifted[tuple(s_values)] = len(certified) - before
        return result

    def certify(*args):
        certified.append(args)
        return real_certify(*args)

    monkeypatch.setattr(scanner, "best_scheme_dimension", raised)
    monkeypatch.setattr(terracini, "best_ranks", ranks)
    monkeypatch.setattr(linalg, "_certify", certify)
    assert scanner._dictionary_failures(params, range(0, 6), CFG) == {}
    assert lifted == {(5,): 0}


def _unsettled(value, target, cfg, sample, better=max):
    """settle as a plain best over trials: the value as sampled."""
    return value, cfg.trials


def test_verify_theorem_settles_special_draws_at_a_small_prime(monkeypatch):
    # a plain best over three trials reports six special draws as failures;
    # settled, every one of them meets its target
    grid = grid_from_ranges(2, 2, 3, 4)
    cfg = SampleConfig(seed=0, trials=3, field=FieldConfig(modulus=11))
    assert verify_theorem_suite(grid, cfg).ok
    monkeypatch.setattr(scanner, "settle", _unsettled)
    assert len(verify_theorem_suite(grid, cfg).failures) == 6


def test_a_mismatch_that_survives_settling_is_reported(monkeypatch):
    # seven failures settle to one: a formula draw that is special at all
    # six trials over Q too. The entry keeps its keys, and trials reads the
    # requested count
    grid = grid_from_ranges(2, 2, 3, 4)
    cfg = SampleConfig(seed=0, trials=3, field=FieldConfig(modulus=7))
    survivor = {
        "check": CHECK_FORMULA, "n": 1, "m": 2, "d": 4, "q": 2, "t": 2,
        "seed": 0, "trials": 3, "modulus": 7, "expected": 10, "computed": 11,
    }
    failures = verify_theorem_suite(grid, cfg).failures
    assert failures == (survivor,)
    assert list(failures[0]) == list(survivor)
    monkeypatch.setattr(scanner, "settle", _unsettled)
    unsettled = verify_theorem_suite(grid, cfg).failures
    assert len(unsettled) == 7
    assert survivor in unsettled


@pytest.fixture(scope="module")
def d34_records():
    """The records of a seed-0 scan of the scan-d34 grid."""
    return scan(grid_from_ranges(3, 3, 3, 4), SampleConfig(seed=0))


def test_scan_matches_the_benchmark_golden_report(d34_records):
    assert records_to_json(d34_records).encode("utf-8") == GOLDEN.read_bytes()


def test_records_to_json_renders_within_its_byte_budget(d34_records):
    # the render's traced peak per character of the report it returns.
    # json.dumps(..., indent=2) walks every value in Python at about 10
    # bytes a character; one template per record needs about 2
    records_to_json(d34_records)
    tracemalloc.start()
    try:
        text = records_to_json(d34_records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(d34_records) == 176
    assert peak / len(text) <= 5


def test_records_to_json_leaves_no_blocks_behind(d34_records, blocks_left):
    # what renders keep allocated once they return, free lists included. A
    # tuple(map(...)) per record would leave about 100 blocks a render on
    # CPython's tuple free list, 0.3 MB of peak RSS over a long run
    assert blocks_left(lambda: records_to_json(d34_records)) < 1


# The report paths below must park no tuples on CPython's free lists
# (conftest's blocks_left). numpy's normalize_axis_tuple, which np.moveaxis
# calls, builds its tuple with tuple(genexpr) too.


def test_verify_report_leaves_no_tuples_on_the_free_lists(blocks_left):
    # the scheme paths' tuple(genexpr) and tuple(map(SchemePoint, ...))
    # (residual_trace, sample_scheme, projected_scheme, graded_basis) left
    # about 360 blocks a call here, 0.7 MB of peak RSS over a 40 s run
    grid = ScanGrid(n_values=(1, 2), m_values=(1, 2), d_values=(3,))
    cfg = SampleConfig(seed=0)
    assert blocks_left(lambda: verify_theorem_suite(grid, cfg)) < 20


def test_scan_leaves_no_tuples_on_the_free_lists(blocks_left):
    # np.moveaxis in the row kernels and BiBasis.combined's tuple(genexpr)
    # left about 80 blocks a call on the scan-d34 grid
    grid = grid_from_ranges(3, 3, 3, 4)
    cfg = SampleConfig(seed=0)
    assert blocks_left(lambda: scan(grid, cfg)) < 30


def test_an_escalation_over_q_leaves_no_tuples_on_the_free_lists(blocks_left):
    # defect-d2's (2, 3, 2) row, whose s = 5 shortfall is settled over Q:
    # np.moveaxis's one-axis tuples left about 25 blocks a call. The lists
    # and dicts that the row frees onto their own free lists, at most 80
    # each, are most of what is left
    grid = ScanGrid(n_values=(2,), m_values=(3,), d_values=(2,))
    cfg = SampleConfig(seed=0)
    assert blocks_left(lambda: scan(grid, cfg), repeats=20) < 15


def test_verify_theorem_suite_green():
    grid = ScanGrid(n_values=(1, 2), m_values=(1, 2), d_values=(3,))
    summary = verify_theorem_suite(
        grid, SampleConfig(seed=0, trials=1), q_max=1, t_max=1
    )
    assert summary.ok
    assert summary.cells_checked == 8


def test_verify_theorem_suite_skips_low_degree():
    grid = ScanGrid(n_values=(1,), m_values=(2,), d_values=(2,))
    summary = verify_theorem_suite(grid, SampleConfig(seed=0, trials=1))
    assert summary.ok
    assert summary.cells_checked == 0


def test_verify_subset_of_checks():
    grid = ScanGrid(n_values=(2,), m_values=(2,), d_values=(3,))
    summary = verify_theorem_suite(
        grid,
        SampleConfig(seed=3, trials=1),
        q_max=1,
        t_max=2,
        checks=(CHECK_CASTELNUOVO, CHECK_PROJECTION),
    )
    assert summary.ok
    with pytest.raises(ValueError):
        verify_theorem_suite(grid, CFG, checks=("bogus",))


def test_summary_serialization():
    grid = ScanGrid(n_values=(1,), m_values=(1,), d_values=(3,))
    summary = verify_theorem_suite(
        grid, SampleConfig(seed=0, trials=1), q_max=1, t_max=0
    )
    payload = json.loads(summary_to_json(summary))
    assert payload == {"cellsChecked": 1, "failures": []}
    text = summary_to_csv(summary)
    lines = text.splitlines()
    assert lines[0] == "# cellsChecked=1"
    assert lines[1] == "check,n,m,d,q,t,s,detail"
    assert len(lines) == 2


FAILURES_FIXTURE = Path(__file__).resolve().parent / "fixtures" / "verify_failures"


def _forced_failures(monkeypatch) -> VerifySummary:
    """Every check of both suites fails: each scheme dimension is offset by
    an amount that grows with the scheme, so no comparison can hold.

    The offset is superadditive in the double points, so a total beats the
    residual plus the trace it splits into; it also moves with the frame
    and the spans, so a projection or an added base-locus span changes it.
    v_span_dimensions offsets each of its two dimensions as
    scheme_ideal_dimension would offset that configuration's.
    """
    real = schemes.scheme_ideal_dimension
    real_pair = schemes.v_span_dimensions

    def shift(spec):
        return 10**6 * len(spec.double_points) ** 2 + spec.n + len(spec.v_spans)

    def offset(spec, degree, cfg):
        return real(spec, degree, cfg) + shift(spec)

    def offset_pair(spec, degree, cfg):
        before, total = real_pair(spec, degree, cfg)
        bare = dataclasses.replace(spec, v_spans=())
        return before + shift(bare), total + shift(spec)

    _replace_everywhere(monkeypatch, {real: offset, real_pair: offset_pair})
    cfg = SampleConfig(seed=5, trials=1)
    grid = ScanGrid(n_values=(1, 2), m_values=(1,), d_values=(3,))
    suite = verify_theorem_suite(grid, cfg, q_max=1, t_max=1)
    dictionary = verify_dictionary_grid(
        ScanGrid(n_values=(1,), m_values=(1,), d_values=(3,)), cfg
    )
    return VerifySummary(
        suite.cells_checked + dictionary.cells_checked,
        suite.failures + dictionary.failures,
    )


def _replace_everywhere(monkeypatch, replacements):
    """Rebind every secantdim module attribute that is a key of replacements
    (compared by identity) to its value."""
    for module in _secantdim_modules():
        for name, value in list(vars(module).items()):
            for original, replacement in replacements.items():
                if value is original:
                    monkeypatch.setattr(module, name, replacement)


def _secantdim_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None
        and (name == "secantdim" or name.startswith("secantdim."))
    ]


def test_failure_reports_match_the_golden_bytes(monkeypatch):
    summary = _forced_failures(monkeypatch)
    checks = {f["check"] for f in summary.failures}
    assert checks == {
        CHECK_FORMULA,
        CHECK_DICTIONARY,
        CHECK_BASE_LOCUS,
        CHECK_CASTELNUOVO,
        CHECK_PROJECTION,
    }
    # the dictionary grid reports by s, the theorem suite by (q, t)
    assert any("s" in f for f in summary.failures)
    json_bytes = FAILURES_FIXTURE.with_suffix(".json").read_bytes()
    csv_bytes = FAILURES_FIXTURE.with_suffix(".csv").read_bytes()
    assert summary_to_json(summary).encode("utf-8") == json_bytes
    assert summary_to_csv(summary).encode("utf-8") == csv_bytes


def test_verify_theorem_suite_computes_each_scheme_dimension_once(monkeypatch):
    """Work pin: the scheme eliminations each case runs, no (spec, degree)
    computed twice within a case, and best over trials stopping at the
    first draw that reaches the row floor.

    On (1, 1, 3) with q = 1 and t in {0, 1}, every draw is generic and
    generic dimensions sit at the floor, so each best over trials takes one
    draw. Eliminations per q, for the dictionary's scheme side: 1, run for
    the row before its cases, outside _run_checks. Per t: the formula 1,
    the base locus 1 (the scheme and the spanned configuration from one
    rank profile, whose full rank is also Castelnuovo's total), Castelnuovo
    1 (the residual; the trace's dimension_floor settles the bound, so the
    trace is not eliminated), the projection 1 (projected; its residual is
    Castelnuovo's): 4. In all 1 + 2 * 4 = 9.
    """
    real = schemes.scheme_ideal_dimension
    real_pair = schemes.v_span_dimensions
    real_run = scanner._run_checks
    # per case, the (spec, degree) asked for and the eliminations run; the
    # first entry collects what runs outside any case: the dictionary
    asked: list[list] = [[]]
    eliminated: list[int] = [0]

    def counted(spec, degree, cfg):
        asked[-1].append((spec, degree))
        return real(spec, degree, cfg)

    def counted_pair(spec, degree, cfg):
        bare = dataclasses.replace(spec, v_spans=())
        asked[-1] += [(bare, degree), (spec, degree)]
        return real_pair(spec, degree, cfg)

    def eliminating(fn):
        def run(mat, cfg):
            eliminated[-1] += 1
            return fn(mat, cfg)

        return run

    def run_case(case, names):
        asked.append([])
        eliminated.append(0)
        return real_run(case, names)

    _replace_everywhere(monkeypatch, {real: counted, real_pair: counted_pair})
    # every elimination of a scheme's condition matrix, and only those
    for name in ("ideal_dimension", "rank_profile"):
        monkeypatch.setattr(schemes, name, eliminating(getattr(schemes, name)))
    monkeypatch.setattr(scanner, "_run_checks", run_case)
    grid = ScanGrid(n_values=(1,), m_values=(1,), d_values=(3,))
    summary = verify_theorem_suite(
        grid, SampleConfig(seed=0, trials=2), q_max=1, t_max=1
    )
    assert summary.ok
    assert eliminated == [1, 4, 4]
    assert sum(eliminated) == 9
    # the pair asks for two dimensions per elimination
    assert [len(calls) for calls in asked] == [1, 5, 5]
    for calls in asked:
        assert len(set(calls)) == len(calls)


@pytest.mark.parametrize(
    "cell, settled", [((1, 2, 3), True), ((2, 2, 3), False)]
)
def test_castelnuovo_builds_the_trace_only_where_its_floor_leaves_it_open(
    monkeypatch, cell, settled
):
    # a trace's dimension is at least its dimension_floor in any field. At
    # (1, 2, 3), q = 1, t = 0 the total 12 is the residual 6 plus the floor
    # 6, so the check holds with no trace matrix built; at (2, 2, 3) the
    # total 15 exceeds the residual 5 plus the floor 6, and the exact trace
    # (10) is computed
    case = scanner._Case(SegreVeroneseParams(*cell), 1, 0, SampleConfig(seed=0))
    total, residual = case.base_locus[1], case.residual_dim
    split = case.split
    floor = schemes.dimension_floor(split.trace, split.trace_degree)
    assert (total <= residual + floor) == settled
    built = []
    real = schemes._condition_matrix

    def building(spec, degree, cfg):
        built.append((spec, degree))
        return real(spec, degree, cfg)

    monkeypatch.setattr(schemes, "_condition_matrix", building)
    assert scanner._check_castelnuovo(case) is None
    assert built == ([] if settled else [(split.trace, split.trace_degree)])


@pytest.mark.parametrize("n, m, d", [(1, 1, 3), (2, 3, 4), (3, 1, 5)])
@pytest.mark.parametrize("q_max, t_max", [(1, 0), (2, 2), (5, 3), (3, 7)])
def test_theorem_entries_sum_every_spanned_case(n, m, d, q_max, t_max):
    params = SegreVeroneseParams(n, m, d)
    total = 0
    for q in range(1, q_max + 1):
        for t in range(t_max + 1):
            spec = schemes.sample_scheme(
                params, (n + 1) * q, t, terracini.derived_rng(q, t), 101
            )
            spanned = schemes.add_v_spans(spec)
            rows = schemes._row_bound(spanned, d + 1)
            total += rows * schemes.scheme_basis_size(spanned, d + 1)
    assert scanner.theorem_entries(params, q_max, t_max) == total


def test_warm_verify_report_misses_no_basis_cache():
    # a second report on the same grid asks for the same bases, flag bases
    # and tangent bases (the points differ, the bases do not), and every one
    # is still cached: 66 of them, 48 and 18 on the benchmark's grid
    caches = (monomials._exponents, schemes._flag_basis, terracini._tangent_basis)
    grid = grid_from_ranges(n_max=2, m_max=2, d_min=3, d_max=4)

    def report(seed):
        verify_theorem_suite(grid, SampleConfig(seed=seed), q_max=2, t_max=2)

    report(7)
    before = [cache.cache_info() for cache in caches]
    report(8)
    after = [cache.cache_info() for cache in caches]
    assert all(a.hits > b.hits for a, b in zip(after, before))
    assert [a.misses - b.misses for a, b in zip(after, before)] == [0, 0, 0]
