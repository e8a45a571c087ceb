"""Pipeline orchestration and report files.

Subcommands: check, synthesize, validate, indicators, pipeline, example.
Exit codes: 0 success, 1 hard error, 2 completed with warnings. All output
files are written atomically (temp file + rename) so no report is ever left
half-written.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import math
import os
import resource
import sys
import tempfile
import time
from dataclasses import astuple, fields
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
# run_indicators gets the figures of arop_absolute, arop_relative and
# income_summary from income_indicators; the three stay importable here
# because perfbench/tracer.py wraps them on this module by name.
from .indicators import (
    arop_absolute,
    arop_relative,
    deprivation_scores,
    equivalized_incomes,
    income_indicators,
    income_summary,
    md_rate,
    mpi,
    percent_change,
)
from .ingest import (
    IngestError,
    PipelineConfig,
    load_config,
    load_constraints,
    load_crosswalks,
    load_external_actual,
    load_survey,
)
from .integerize import RngSpec, SyntheticPopulation, round_half_up, synthesize
from .ipf import ZoneConvergence, ipf_all
from .popfile import (
    POPULATION_HEADER,
    WEIGHTS_HEADER,
    TextRows,
    population_rows,
    read_population,
    weights_rows,
)
from .schema import SchemaError, check_consistency, rescale_constraints
from .validate import external_validation, internal_validation

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_WARNINGS = 2


# --------------------------------------------------------------------------
# File helpers
# --------------------------------------------------------------------------

def atomic_write_text(path: Path, text) -> None:
    """Write `text`, a string or an iterable of strings written in order,
    through a temporary file and a rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: Path, header, rows) -> None:
    """Write a CSV table. `rows` holds rows of cells, or is a
    `popfile.TextRows` whose ready-made text is written as it is."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    if isinstance(rows, TextRows):
        atomic_write_text(path, chain([buf.getvalue()], rows.blocks()))
        return
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    atomic_write_text(path, buf.getvalue())


def _cell(v):
    if isinstance(v, float):
        if math.isnan(v):
            return ""
        return repr(float(v))
    if isinstance(v, (np.integer,)):
        return int(v)
    return v


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# --------------------------------------------------------------------------
# Shared pipeline state
# --------------------------------------------------------------------------

class Runtime:
    """Loaded inputs plus lazily computed stages for one configuration."""

    def __init__(self, config: PipelineConfig, out_dir=None, seed=None):
        self.config = config
        self.out_dir = Path(out_dir) if out_dir else config.output_dir
        self.seed = config.seed if seed is None else int(seed)
        self.schema = config.schema
        self.timings: dict[str, float] = {}
        self.tables, self.survey = self.timed(
            "load_inputs",
            lambda: (
                load_constraints(config.constraints_path, self.schema),
                load_survey(config.survey_path, self.schema),
            ),
        )
        if config.mpi_spec is not None:
            # Fails on an indicator the survey cannot answer before any stage
            # writes its outputs.
            deprivation_scores(self.survey, config.mpi_spec)
        self.warnings: list[str] = []
        self.outputs: list[str] = []  # CSV files this command wrote

    def write(self, name, header, rows) -> None:
        """Write the CSV table `name` into the output directory through
        `write_csv` and note it for the manifest."""
        write_csv(self.out_dir / name, header, rows)
        self.outputs.append(name)

    def timed(self, stage, fn):
        t0 = time.perf_counter()
        result = fn()
        self.timings[stage] = time.perf_counter() - t0
        return result

    def load_population(self) -> SyntheticPopulation:
        path = self.out_dir / "population.csv"
        return read_population(path, self.tables[0].zones, self.survey.record_ids)


# --------------------------------------------------------------------------
# check
# --------------------------------------------------------------------------

def run_check(rt: Runtime, allow_inconsistent: bool = False) -> int:
    report = rt.timed(
        "check", lambda: check_consistency(rt.schema, rt.tables, rt.survey)
    )
    rows = []
    for zone, var, rel in report.disagreements:
        rows.append(("zone_total_disagreement", zone, var, "", rel))
    for var, cat in report.empty_cells:
        rows.append(("empty_census_cell", "", var, cat, ""))
    for var, zone, cat, value in report.bad_cells:
        rows.append(("bad_count", zone, var, cat, value))
    rt.write(
        "consistency_report.csv",
        ["issue", "zone_id", "variable", "category", "value"],
        rows,
    )

    print(
        f"consistency: max zone-total disagreement "
        f"{report.max_rel_disagreement:.3g} across "
        f"{len(report.variables)} constraint tables, {len(report.zones)} zones"
    )
    if report.empty_cells:
        print(f"  {len(report.empty_cells)} census categories without survey support:")
        for var, cat in report.empty_cells:
            print(f"    ({var}, {cat})")
    if report.bad_cells:
        print(f"  {len(report.bad_cells)} negative/non-finite counts")

    if report.max_rel_disagreement > report.WARN_THRESHOLD and not allow_inconsistent:
        print(
            "error: constraint totals disagree by more than "
            f"{report.WARN_THRESHOLD:.0%}; rerun with --allow-inconsistent "
            "to proceed anyway",
            file=sys.stderr,
        )
        return EXIT_ERROR
    if not report.clean:
        rt.warnings.append("consistency issues reported")
        return EXIT_WARNINGS
    return EXIT_OK


# --------------------------------------------------------------------------
# synthesize
# --------------------------------------------------------------------------

def run_synthesize(rt: Runtime, dump_weights=False, strict=False, max_iters=None):
    cfg = rt.config
    reference = rt.schema.constraint_vars[0].name
    tables = rescale_constraints(rt.tables, reference)
    matrix, convergence = rt.timed(
        "ipf",
        lambda: ipf_all(
            rt.survey,
            tables,
            max_iterations=max_iters or cfg.max_iterations,
            tolerance=cfg.tolerance,
        ),
    )
    ref_table = next(t for t in tables if t.variable == reference)
    zone_pops = round_half_up(ref_table.zone_totals())
    population = rt.timed(
        "trs", lambda: synthesize(matrix, zone_pops, rt.seed)
    )

    rt.write(
        "convergence.csv",
        [f.name for f in fields(ZoneConvergence)],
        [
            [int(v) if isinstance(v, bool) else v for v in astuple(z)]
            for z in convergence.zones
        ],
    )
    rt.timed(
        "write_population",
        lambda: rt.write(
            "population.csv", POPULATION_HEADER, population_rows(population)
        ),
    )
    if dump_weights:
        rt.write("weights.csv", WEIGHTS_HEADER, weights_rows(matrix))

    n_bad = sum(1 for z in convergence.zones if not z.converged)
    print(
        f"synthesized {len(population.zone_ids)} zones, "
        f"{int(population.counts.sum())} persons; "
        f"{len(convergence.zones) - n_bad}/{len(convergence.zones)} zones "
        f"converged (max relative TAE {convergence.max_rel_tae:.3g})"
    )
    code = EXIT_OK
    if n_bad:
        rt.warnings.append(f"{n_bad} zones did not converge")
        code = EXIT_ERROR if strict else EXIT_WARNINGS
    return population, convergence, code


# --------------------------------------------------------------------------
# validate
# --------------------------------------------------------------------------

def run_validate(rt: Runtime, population: SyntheticPopulation) -> int:
    internal = rt.timed(
        "validate_internal",
        lambda: internal_validation(population, rt.survey, rt.tables),
    )
    reports = [internal]
    cfg = rt.config
    if cfg.external_actual_path is not None:
        actual = load_external_actual(cfg.external_actual_path)
        crosswalk = None
        if cfg.crosswalk_path is not None:
            crosswalk = load_crosswalks(cfg.crosswalk_path).get(actual.variable)
        reports.append(
            rt.timed(
                "validate_external",
                lambda: external_validation(population, rt.survey, actual, crosswalk),
            )
        )
    metric_rows = []
    share_rows = []
    scatter = {}
    for report in reports:
        metric_rows += [
            (var, cat, m.r_squared, m.sei, m.t_stat, m.p_value)
            for var, cat, m in report.metrics
        ]
        share_rows += report.shares
        for var, zone, cat, a, s in report.scatter:
            scatter.setdefault(var, []).append((zone, cat, a, s))

    rt.write(
        "validation_internal.csv",
        ["variable", "category", "r2", "sei", "t", "p"],
        metric_rows,
    )
    rt.write(
        "validation_shares.csv",
        ["variable", "group", "census_pct", "simulated_pct", "diff"],
        share_rows,
    )
    for var, rows in scatter.items():
        rt.write(
            f"scatter_{var}.csv",
            ["zone_id", "category", "actual", "simulated"],
            rows,
        )

    defined = [m for _, _, m in internal.metrics if not math.isnan(m.r_squared)]
    if defined:
        print(
            f"internal validation over {len(defined)} categories: "
            f"min R2 {min(m.r_squared for m in defined):.3f}, "
            f"min SEI {min(m.sei for m in defined):.3f}, "
            f"{sum(1 for m in defined if m.p_value < 0.05)} with p < 0.05"
        )
    return EXIT_OK


# --------------------------------------------------------------------------
# indicators
# --------------------------------------------------------------------------

INDICATOR_COLUMNS = [
    "zone_id",
    "mean_income",
    "median_income",
    "arop_abs",
    "arop_rel",
    "md_rate",
    "mpi_h",
    "mpi_a",
    "mpi_m0",
    "excluded_missing_income",
]


def run_indicators(rt: Runtime, population: SyntheticPopulation, compare=None) -> int:
    cfg = rt.config
    incomes = equivalized_incomes(rt.survey, cfg.equivalize)

    def zone_rows(pop):
        """One indicators.csv row per zone of the population `pop`."""
        zone_ids = pop.zone_ids
        income = income_indicators(pop, incomes, cfg.arop_fraction)
        if rt.schema.deprivation_fields:
            md = md_rate(pop, rt.survey.deprivations, cfg.md_threshold)
        else:
            md = np.full(len(zone_ids), math.nan)
        if cfg.mpi_spec is not None:
            mpis = [
                (r.headcount, r.intensity, r.adjusted)
                for r in mpi(pop, rt.survey, cfg.mpi_spec)[0]
            ]
        else:
            mpis = [(math.nan,) * 3] * len(zone_ids)
        return [
            (zone, income.means[i], income.medians[i])
            + (income.arop_absolute[i], income.arop_relative[i], md[i])
            + mpis[i]
            + (int(income.excluded[i]),)
            for i, zone in enumerate(zone_ids)
        ]

    def compute():
        n = len(population.record_ids)
        metro = SyntheticPopulation.from_columns(
            [population.record_totals()], ("METRO",), population.record_ids, n
        )
        return zone_rows(population) + zone_rows(metro)

    rows = rt.timed("indicators", compute)
    rt.write("indicators.csv", INDICATOR_COLUMNS, rows)

    if compare is not None:
        earlier = _read_indicator_csv(Path(compare) / "indicators.csv")
        diff_rows = []
        for row in rows:
            zone = row[0]
            if zone not in earlier:
                continue
            for mi, metric in enumerate(INDICATOR_COLUMNS[1:-1], start=1):
                before = earlier[zone].get(metric)
                after = row[mi]
                if before is None or before <= 0 or math.isnan(after):
                    continue
                diff_rows.append(
                    (zone, metric, before, after, percent_change(before, after))
                )
        rt.write(
            "indicators_diff.csv",
            ["zone_id", "metric", "earlier", "later", "pct_change"],
            diff_rows,
        )

    metro = rows[-1]
    print(
        f"indicators for {len(rows) - 1} zones; metro mean income "
        f"{metro[1]:.2f}, AROP(abs) {metro[3]:.3f}, MD {metro[5]:.3f}"
        if not math.isnan(metro[1])
        else "indicators written"
    )
    return EXIT_OK


def _read_indicator_csv(path: Path):
    if not path.exists():
        raise IngestError(f"{path}: comparison indicators file not found")
    out = {}
    with path.open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            out[row["zone_id"]] = {
                k: (float(v) if v not in ("", None) else None)
                for k, v in row.items()
                if k != "zone_id"
            }
    return out


# --------------------------------------------------------------------------
# manifest
# --------------------------------------------------------------------------

def write_manifest(rt: Runtime, convergence=None) -> None:
    cfg = rt.config
    lines = [
        f"engine_version={__version__}",
        f"seed={rt.seed}",
        f"rng={RngSpec.generator}",
        f"ipf.max_iterations={cfg.max_iterations}",
        f"ipf.tolerance={cfg.tolerance!r}",
        f"poverty.arop_fraction={cfg.arop_fraction!r}",
        f"poverty.md_threshold={cfg.md_threshold}",
        f"equivalize={cfg.equivalize}",
    ]
    for label, path in (
        ("constraints", cfg.constraints_path),
        ("survey", cfg.survey_path),
        ("external_actual", cfg.external_actual_path),
        ("crosswalk", cfg.crosswalk_path),
    ):
        if path is not None and Path(path).exists():
            lines.append(f"input.{label}.sha256={sha256_file(Path(path))}")
    if convergence is not None:
        n_ok = sum(1 for z in convergence.zones if z.converged)
        lines.append(f"convergence.zones_converged={n_ok}/{len(convergence.zones)}")
        lines.append(f"convergence.max_rel_tae={convergence.max_rel_tae!r}")
    for name in sorted(rt.outputs):
        lines.append(f"output.{name}.sha256={sha256_file(rt.out_dir / name)}")
    for stage, seconds in rt.timings.items():
        lines.append(f"timing.{stage}_seconds={seconds:.3f}")
    # ru_maxrss is in KiB on Linux.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lines.append(f"memory.peak_rss_mib={peak:.1f}")
    atomic_write_text(rt.out_dir / "manifest.txt", "\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smallarea",
        description="Small-area population synthesis and poverty indicators",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="YAML configuration path")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="RNG seed (overrides config)")
        p.add_argument(
            "--allow-inconsistent",
            action="store_true",
            help="proceed despite large constraint-total disagreement",
        )
        p.add_argument(
            "--strict",
            action="store_true",
            help="treat non-convergence as a hard error",
        )

    common(sub.add_parser("check", help="consistency checks only"))
    p = sub.add_parser("synthesize", help="IPF + TRS, write the population")
    common(p)
    p.add_argument("--dump-weights", action="store_true")
    p.add_argument("--max-iters", type=int, help="cap IPF sweeps")
    common(sub.add_parser("validate", help="validation reports for a population"))
    p = sub.add_parser("indicators", help="income and poverty indicators")
    common(p)
    p.add_argument("--compare", help="earlier run directory for percent changes")
    p = sub.add_parser("pipeline", help="check + synthesize + validate + indicators")
    common(p)
    p.add_argument("--dump-weights", action="store_true")
    p.add_argument("--max-iters", type=int)
    p.add_argument("--compare", help="earlier run directory for percent changes")

    p = sub.add_parser("example", help="write the bundled synthetic example dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=20160802)
    p.add_argument("--zones", type=int, default=59)
    p.add_argument("--survey-size", type=int, default=3000)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "example":
            from .fixture import generate_example

            config_path = generate_example(
                args.out,
                seed=args.seed,
                n_zones=args.zones,
                survey_size=args.survey_size,
            )
            print(f"example written; run: smallarea pipeline --config {config_path}")
            return EXIT_OK

        rt = Runtime(load_config(args.config), out_dir=args.out, seed=args.seed)
        rt.out_dir.mkdir(parents=True, exist_ok=True)

        if args.command == "check":
            return run_check(rt, args.allow_inconsistent)

        code = run_check(rt, args.allow_inconsistent)
        if code == EXIT_ERROR:
            return code

        if args.command == "synthesize":
            _, convergence, scode = run_synthesize(
                rt, args.dump_weights, args.strict, args.max_iters
            )
            write_manifest(rt, convergence)
            return max(code, scode) if scode != EXIT_ERROR else EXIT_ERROR

        if args.command == "validate":
            population = rt.load_population()
            vcode = run_validate(rt, population)
            return max(code, vcode)

        if args.command == "indicators":
            population = rt.load_population()
            icode = run_indicators(rt, population, compare=args.compare)
            return max(code, icode)

        # pipeline
        population, convergence, scode = run_synthesize(
            rt, args.dump_weights, args.strict, args.max_iters
        )
        if scode == EXIT_ERROR:
            return EXIT_ERROR
        run_validate(rt, population)
        run_indicators(rt, population, compare=args.compare)
        write_manifest(rt, convergence)
        return max(code, scode)
    except (IngestError, SchemaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
