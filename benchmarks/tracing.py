"""Spans around the public calls into each secantdim layer.

The wrappers live in the benchmark, not in the library: installing a tracer
rebinds every secantdim module attribute that refers to an instrumented
function (so `terracini.derivative_rows` and `schemes.derivative_rows` are
both caught), and leaving the `with` block restores each one. Spans are kept
in memory as (id, name, start, end, parent, row, attrs) and written out once
the run is over.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    row: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rank_probe(call, result):
    mat, cfg = call["mat"], call["cfg"]
    backend = "modular" if cfg.is_modular else "exact"
    rows, cols = mat.rows, mat.cols
    attrs = {"entries": rows * cols}
    if cfg.is_modular:
        attrs["ops_bound"] = rows * cols * min(rows, cols)
    return f"linalg.rank.{backend}", attrs


def _derivative_rows_probe(call, result):
    entries = len(call["point"]) * len(call["monomials"])
    return "monomials.derivative_rows", {"entries": entries}


def _matrix_probe(call, result):
    return "linalg.matrix_from_rows", {"entries": len(call["rows"]) * call["cols"]}


def _span_rows_probe(call, result):
    return "schemes.span_rows", {"rows": len(result)}


def _secant_probe(call, result):
    return "terracini.secant_dimension", {"exact": not call["cfg"].field.is_modular}


def _scan_cell_probe(call, result):
    return "scanner.scan_cell", {"defect": result.defect}


def _named(name: str):
    return lambda call, result: (name, {})


# (defining module, function name, probe giving the span name and attributes
# from the call's bound arguments and its result)
INSTRUMENTS: tuple[tuple[str, str, Callable], ...] = (
    ("secantdim.monomials", "derivative_rows", _derivative_rows_probe),
    ("secantdim.monomials", "bihomogeneous_basis", _named("monomials.basis")),
    ("secantdim.monomials", "graded_basis", _named("monomials.basis")),
    ("secantdim.linalg", "rank", _rank_probe),
    ("secantdim.linalg", "matrix_from_rows", _matrix_probe),
    ("secantdim.schemes", "span_rows", _span_rows_probe),
    ("secantdim.schemes", "scheme_ideal_dimension",
     _named("schemes.scheme_ideal_dimension")),
    ("secantdim.schemes", "scheme_basis", _named("schemes.scheme_basis")),
    ("secantdim.terracini", "secant_dimension", _secant_probe),
    ("secantdim.scanner", "scan_cell", _scan_cell_probe),
    ("secantdim.scanner", "records_to_json", _named("scanner.render")),
    ("secantdim.scanner", "summary_to_json", _named("scanner.render")),
    ("secantdim.expected", "expected_secant_dim", _named("expected")),
    ("secantdim.expected", "expected_scheme_dim", _named("expected")),
    ("secantdim.expected", "thresholds", _named("expected")),
)


def secantdim_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None
        and (name == "secantdim" or name.startswith("secantdim."))
    ]


class Tracer:
    """Records spans while installed; `row` tags spans with the report row."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.row: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn inside a span of the given name and return its result."""
        return self._wrap(fn, _named(name))(*args, **kwargs)

    def _wrap(self, fn: Callable, probe: Callable) -> Callable:
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(sid, "", 0.0, 0.0, parent, tracer.row)
            tracer.spans.append(span)
            tracer._stack.append(sid)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer._stack.pop()
            call = signature.bind(*args, **kwargs).arguments
            span.name, span.attrs = probe(call, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        originals = [
            (getattr(importlib.import_module(module_name), attr), probe)
            for module_name, attr, probe in INSTRUMENTS
        ]
        modules = secantdim_modules()
        try:
            for original, probe in originals:
                wrapper = self._wrap(original, probe)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, name, original))
                            setattr(module, name, wrapper)
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._uninstall()

    def _uninstall(self) -> None:
        while self._restore:
            module, name, original = self._restore.pop()
            setattr(module, name, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                record = {
                    "id": s.id,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "row": s.row,
                }
                record.update(s.attrs)
                handle.write(json.dumps(record) + "\n")


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one traced report.

    Self time is a span's duration minus the durations of its direct
    children; calls run on one thread, so children never overlap.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    by_name: dict[str, dict[str, float]] = {}
    for s in spans:
        agg = by_name.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["s"] += s.duration
        agg["self_s"] += s.duration - sum(
            c.duration for c in children.get(s.id, ())
        )
        for key, value in s.attrs.items():
            if key in ("entries", "ops_bound", "rows"):
                agg[key] = agg.get(key, 0) + value

    def get(name: str, key: str) -> float:
        return by_name.get(name, {}).get(key, 0)

    def ancestors(s: Span):
        while s.parent is not None:
            s = spans[s.parent]
            yield s

    secant_calls = get("terracini.secant_dimension", "calls")
    ranks_in_secant = sum(
        1
        for s in spans
        if s.name.startswith("linalg.rank.")
        and any(a.name == "terracini.secant_dimension" for a in ancestors(s))
    )
    escalated = exact = confirmed = 0
    for s in spans:
        if s.name != "scanner.scan_cell":
            continue
        secants = [
            c for c in children.get(s.id, ())
            if c.name == "terracini.secant_dimension"
        ]
        if len(secants) > 1:
            escalated += 1
        if any(c.attrs["exact"] for c in secants):
            exact += 1
            confirmed += s.attrs["defect"] > 0

    out: dict[str, float] = {}
    for name in ("monomials.derivative_rows", "linalg.rank.exact",
                 "linalg.matrix_from_rows"):
        for key in ("calls", "s", "entries"):
            out[f"{name}.{key}"] = get(name, key)
    for key in ("calls", "s", "entries", "ops_bound"):
        out[f"linalg.rank.modular.{key}"] = get("linalg.rank.modular", key)
    for key in ("calls", "s", "rows"):
        out[f"schemes.span_rows.{key}"] = get("schemes.span_rows", key)
    for name in ("schemes.scheme_ideal_dimension", "terracini.secant_dimension",
                 "scanner.scan_cell"):
        for key in ("calls", "self_s"):
            out[f"{name}.{key}"] = get(name, key)
    out["schemes.scheme_basis.s"] = get("schemes.scheme_basis", "s")
    out["terracini.rank_calls_per_secant"] = (
        ranks_in_secant / secant_calls if secant_calls else 0.0
    )
    out["scanner.escalated_cells"] = escalated
    out["scanner.exact_cells"] = exact
    out["scanner.exact_confirmed_ratio"] = confirmed / exact if exact else 0.0
    out["scanner.render.s"] = get("scanner.render", "s")
    out["expected.s"] = get("expected", "s")
    out["monomials.basis.s"] = get("monomials.basis", "s")
    return out


def median_totals(reports: list[dict[str, float]]) -> dict[str, float]:
    """Median of each per-layer value over several traced reports."""
    return {
        key: statistics.median(r[key] for r in reports) for key in reports[0]
    }
