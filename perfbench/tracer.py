"""Spans for the traced benchmark run, and the per-layer metrics made from them.

The child process calls `Tracer.install()`, which wraps the public functions of
each smallarea module by replacing module and class attributes from outside;
the package itself is not changed. `cli` binds its stage functions with
`from ... import`, so those are wrapped on `smallarea.cli`; kernels are wrapped
on their own module. `cli._cell` is never wrapped: it runs once per population
cell, so a wrapper would dominate the run.

A span is [name, start, end, parent, tag]: monotonic-clock seconds, the index
of the enclosing span (-1 at top level) and an optional tag (the file name for
`write_csv`). Spans and counters stay in memory until the command ends.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter
from pathlib import Path


def clock() -> float:
    """System-wide monotonic time, comparable between parent and child."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# Stage functions that smallarea.cli imports by name from other modules.
CLI_IMPORTED = (
    "load_config",
    "load_constraints",
    "load_survey",
    "load_external_actual",
    "check_consistency",
    "rescale_constraints",
    "ipf_all",
    "synthesize",
    "internal_validation",
    "external_validation",
    "equivalized_incomes",
    "income_summary",
    "arop_absolute",
    "arop_relative",
    "md_rate",
    "mpi",
)
CLI_OWN = (
    "run_check",
    "run_synthesize",
    "run_validate",
    "run_indicators",
    "write_manifest",
    "write_csv",
    "sha256_file",
)
KERNELS = (
    ("ipf", "ipf_zone"),
    ("ipf", "tae"),
    ("integerize", "trs_zone"),
    ("indicators", "weighted_median"),
    ("validate", "aggregate"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def add_span(self, name, start, end, tag=None):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, tag])

    def wrap(self, owner, attr, name, note=None):
        """Replace owner.attr by a recording wrapper. A missing attribute
        raises, so a renamed function fails the traced run instead of reading
        0; the lists above then need updating."""
        fn = getattr(owner, attr, None)
        if fn is None:
            raise AttributeError(
                f"cannot trace {getattr(owner, '__name__', owner)}.{attr}: no such attribute; "
                "update the lists in perfbench/tracer.py"
            )
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                note(span, args, result)
            return result

        setattr(owner, attr, traced)

    def install(self):
        import importlib

        import smallarea.cli as cli

        notes = {
            "write_csv": self._note_write_csv,
            "sha256_file": self._note_sha256_file,
            "load_survey": self._note_load_survey,
            "ipf_all": self._note_ipf_all,
            "trs_zone": self._note_trs_zone,
        }
        for attr in CLI_IMPORTED:
            module = getattr(getattr(cli, attr, None), "__module__", "cli").rsplit(".", 1)[-1]
            self.wrap(cli, attr, f"{module}.{attr}", notes.get(attr))
        for attr in CLI_OWN:
            self.wrap(cli, attr, f"cli.{attr}", notes.get(attr))
        for module, attr in KERNELS:
            owner = importlib.import_module(f"smallarea.{module}")
            self.wrap(owner, attr, f"{module}.{attr}", notes.get(attr))
        self.wrap(cli.Runtime, "__init__", "cli.runtime_init")
        self.wrap(cli.Runtime, "load_population", "cli.load_population")

    def _note_write_csv(self, span, args, result):
        path = Path(args[0])
        span[4] = path.name
        self.counters["cli.bytes_written"] += os.path.getsize(path)
        if path.name == "population.csv":
            self.counters["cli.population_rows"] += len(args[2])

    def _note_sha256_file(self, span, args, result):
        self.counters["cli.bytes_hashed"] += os.path.getsize(args[0])

    def _note_load_survey(self, span, args, result):
        self.counters["ingest.survey_records"] += result.n

    def _note_ipf_all(self, span, args, result):
        zones = result[1].zones
        self.counters["ipf.iterations_total"] += sum(z.iterations for z in zones)
        self.counters["ipf.zones"] += len(zones)
        self.counters["ipf.zones_converged"] += sum(1 for z in zones if z.converged)

    def _note_trs_zone(self, span, args, result):
        # Mirrors trs_zone's branches: it leaves systematic PPS when the
        # deficit is negative or exceeds the records carrying fractional mass.
        import numpy as np

        w = np.asarray(args[0], dtype=float)
        floor = np.floor(w)
        deficit = int(args[1]) - int(floor.sum())
        if deficit < 0 or deficit > np.count_nonzero(w - floor > 0):
            self.counters["integerize.fallback_zones"] += 1

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


# --------------------------------------------------------------------------
# Per-layer metrics (parent side)
# --------------------------------------------------------------------------

# Span totals reported as "<span>_s"; "<span>_calls" where listed in CALLS.
TIMED_SPANS = (
    "cli.import",
    "cli.runtime_init",
    "cli.run_check",
    "cli.run_synthesize",
    "cli.run_validate",
    "cli.run_indicators",
    "cli.write_manifest",
    "cli.write_csv",
    "cli.load_population",
    "cli.sha256_file",
    "ingest.load_config",
    "ingest.load_constraints",
    "ingest.load_survey",
    "ingest.load_external_actual",
    "schema.check_consistency",
    "schema.rescale_constraints",
    "ipf.ipf_all",
    "ipf.tae",
    "integerize.synthesize",
    "integerize.trs_zone",
    "validate.internal_validation",
    "validate.external_validation",
    "validate.aggregate",
    "indicators.income_summary",
    "indicators.arop_absolute",
    "indicators.arop_relative",
    "indicators.weighted_median",
    "indicators.md_rate",
    "indicators.equivalized_incomes",
    "indicators.mpi",
)
CALLS = (
    "cli.write_csv",
    "ipf.ipf_zone",
    "ipf.tae",
    "integerize.trs_zone",
    "validate.aggregate",
    "indicators.weighted_median",
)
COUNTERS = (
    "cli.population_rows",
    "cli.bytes_written",
    "cli.bytes_hashed",
    "ingest.survey_records",
    "ipf.iterations_total",
    "integerize.fallback_zones",
)
# Kernels reported by per-call median and tail, in milliseconds.
PER_CALL = ("ipf.ipf_zone", "integerize.trs_zone")
PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.startswith("cli.bytes_"):
        return "bytes"
    if metric.endswith(("_ratio", ".coverage")):
        return "ratio"
    if metric == "ipf.records_per_cell":
        return "records/cell"
    return "count"


def nearest_rank(sorted_values, p):
    index = max(0, -(-len(sorted_values) * p // 100) - 1)
    return sorted_values[int(index)]


def tail_percentile(n: int) -> float:
    """Highest of PERCENTILES with at least ten of n samples beyond it."""
    return max(
        (p for p in PERCENTILES if n * (100 - p) / 100 >= 10), default=PERCENTILES[0]
    )


def layer_metrics(commands, wall_s: float) -> dict:
    """Per-layer metrics of one traced workload iteration.

    `commands` holds one child dump per command; `wall_s` is the iteration's
    wall time measured by the parent. Returns metric name -> value; the
    tail percentile used for each kernel is under "<kernel>_tail_pct"."""
    totals: Counter = Counter()
    calls: Counter = Counter()
    counters: Counter = Counter()
    durations: dict[str, list[float]] = {name: [] for name in PER_CALL}
    covered = population_write = synthesize_children = 0.0
    for dump in commands:
        spans = dump["spans"]
        counters.update(dump["counters"])
        for name, start, end, parent, tag in spans:
            d = end - start
            totals[name] += d
            calls[name] += 1
            if name in durations:
                durations[name].append(d)
            if parent == -1:
                covered += d
            elif spans[parent][0] == "cli.run_synthesize":
                synthesize_children += d
            if tag == "population.csv":
                population_write += d

    out = {f"{name}_s": totals[name] for name in TIMED_SPANS}
    out.update({f"{name}_calls": calls[name] for name in CALLS})
    out.update({name: counters[name] for name in COUNTERS})
    out["cli.population_build_s"] = totals["cli.run_synthesize"] - synthesize_children
    out["cli.population_write_s"] = population_write
    # With no zone fitted (reload) no zone failed to converge: the ratio is 1.
    out["ipf.zones_converged_ratio"] = (
        counters["ipf.zones_converged"] / counters["ipf.zones"]
        if counters["ipf.zones"]
        else 1.0
    )
    for name, values in durations.items():
        values.sort()
        pct = tail_percentile(len(values))
        out[f"{name}_p50_ms"] = 1e3 * nearest_rank(values, 50) if values else 0.0
        out[f"{name}_tail_ms"] = 1e3 * nearest_rank(values, pct) if values else 0.0
        out[f"{name}_tail_pct"] = pct
    out["trace.coverage"] = covered / wall_s
    return out


def called_spans(commands) -> set[str]:
    """Names of the spans recorded at least once in one traced iteration."""
    return {span[0] for dump in commands for span in dump["spans"]}
