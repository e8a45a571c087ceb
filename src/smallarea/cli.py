"""Pipeline orchestration and report files.

Subcommands: check, synthesize, validate, indicators, pipeline, example.
Exit codes: 0 success, 1 hard error, 2 completed with warnings. All output
files are written atomically (temp file + rename) so no report is ever left
half-written.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import resource
import sys
import time
from dataclasses import astuple, fields, replace
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
# run_indicators gets the figures of arop_absolute, arop_relative and
# income_summary from income_indicators; the three stay importable here
# because perfbench/tracer.py wraps them on this module by name.
from .indicators import (
    MpiResult,
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
    csv_rows,
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
    through a temporary file, mode 0o666 less the umask, and a rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
    `popfile.TextRows` whose ready-made text is written as it is. csv.writer
    writes a number as `repr` writes it; a NaN, the one value unequal to
    itself, is written blank."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    if isinstance(rows, TextRows):
        atomic_write_text(path, chain([buf.getvalue()], rows.blocks()))
        return
    for row in rows:
        writer.writerow([v if v == v else "" for v in row])
    atomic_write_text(path, buf.getvalue())


def sha256_file(path: Path) -> str:
    # Imported here: hashlib loads OpenSSL's libcrypto, which only the
    # commands that write a manifest need.
    import hashlib

    # One buffer, read into again and again: a new bytes object per read
    # would add its size to the peak memory of the process.
    h, buf = hashlib.sha256(), bytearray(1 << 16)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            h.update(view[:n])
    return h.hexdigest()


def peak_rss_mib() -> float:
    """The peak resident memory of this process so far, in MiB."""
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# --------------------------------------------------------------------------
# Shared pipeline state
# --------------------------------------------------------------------------

class Runtime:
    """Loaded inputs, stage timings and outputs of one configuration."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.out_dir = config.output_dir
        self.schema = config.schema
        self.timings: dict[str, float] = {}
        self.peaks: dict[str, float] = {}  # the process's peak after each stage
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
        self.outputs: list[str] = []  # CSV files this command wrote
        # Zones where TRS left systematic PPS, once this command synthesized.
        self.fallback_zones: list[str] | None = None

    def write(self, name, header, rows) -> None:
        """Write the CSV table `name` into the output directory through
        `write_csv` and note it for the manifest."""
        write_csv(self.out_dir / name, header, rows)
        self.outputs.append(name)

    def timed(self, stage, fn):
        t0 = time.perf_counter()
        result = fn()
        self.timings[stage] = time.perf_counter() - t0
        self.peaks[stage] = peak_rss_mib()
        return result

    def load_external(self):
        """(external table, crosswalk of its variable or None), or None
        without an external table; raises before any stage writes where
        `external_validation` would, on a variable the schema lacks or a
        category the crosswalk lacks (naming its file)."""
        cfg = self.config
        if cfg.external_actual_path is None:
            return None
        actual = load_external_actual(cfg.external_actual_path)
        categories = self.schema.variable(actual.variable).categories
        crosswalk = None
        if cfg.crosswalk_path is not None:
            crosswalk = load_crosswalks(cfg.crosswalk_path).get(actual.variable)
        if crosswalk is not None:
            try:
                for category in categories:
                    crosswalk.group(category)
            except IngestError as exc:
                raise IngestError(f"{cfg.crosswalk_path}: {exc}") from None
        return actual, crosswalk

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
    return EXIT_OK if report.clean else EXIT_WARNINGS


# --------------------------------------------------------------------------
# synthesize
# --------------------------------------------------------------------------

def run_synthesize(rt: Runtime, dump_weights=False, strict=False):
    cfg = rt.config
    reference = rt.schema.constraint_vars[0].name
    tables = rescale_constraints(rt.tables, reference)
    matrix, convergence = rt.timed(
        "ipf", lambda: ipf_all(rt.survey, tables, cfg.max_iterations, cfg.tolerance)
    )
    ref_table = next(t for t in tables if t.variable == reference)
    zone_pops = round_half_up(ref_table.zone_totals())
    rt.fallback_zones = []
    population = rt.timed(
        "trs",
        lambda: synthesize(matrix, zone_pops, cfg.seed, fallbacks=rt.fallback_zones),
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
        rt.timed(
            "write_weights",
            lambda: rt.write("weights.csv", WEIGHTS_HEADER, weights_rows(matrix)),
        )

    n_bad = sum(1 for z in convergence.zones if not z.converged)
    print(
        f"synthesized {len(population.zone_ids)} zones, "
        f"{int(population.counts.sum())} persons; "
        f"{len(convergence.zones) - n_bad}/{len(convergence.zones)} zones "
        f"converged (max relative TAE {convergence.max_rel_tae:.3g})"
    )
    code = (EXIT_ERROR if strict else EXIT_WARNINGS) if n_bad else EXIT_OK
    return population, convergence, code


# --------------------------------------------------------------------------
# validate
# --------------------------------------------------------------------------

def run_validate(rt: Runtime, population: SyntheticPopulation, external=None) -> int:
    """Write the validation reports of `population`, the external ones with
    `external` of `Runtime.load_external`."""
    internal = rt.timed(
        "validate_internal",
        lambda: internal_validation(population, rt.survey, rt.tables),
    )
    reports = [internal]
    if external is not None:
        actual, crosswalk = external
        external = rt.timed(
            "validate_external",
            lambda: external_validation(population, rt.survey, actual, crosswalk),
        )
        reports.append(external)
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

    def zone_rows(pop, mpis):
        """One indicators.csv row per zone of `pop`, with its MPI `mpis`."""
        zone_ids = pop.zone_ids
        income = income_indicators(pop, incomes, cfg.arop_fraction)
        if rt.schema.deprivation_fields:
            md = md_rate(pop, rt.survey.deprivations, cfg.md_threshold)
        else:
            md = np.full(len(zone_ids), math.nan)
        return [
            (zone, income.means[i], income.medians[i])
            + (income.arop_absolute[i], income.arop_relative[i], md[i])
            + (mpis[i].headcount, mpis[i].intensity, mpis[i].adjusted)
            + (int(income.excluded[i]),)
            for i, zone in enumerate(zone_ids)
        ]

    def compute():
        n = len(population.record_ids)
        metro = SyntheticPopulation.from_columns(
            [population.record_totals()], ("METRO",), population.record_ids, n
        )
        if cfg.mpi_spec is not None:
            zone_mpis, metro_mpi = mpi(population, rt.survey, cfg.mpi_spec)
        else:
            metro_mpi = MpiResult(math.nan, math.nan, math.nan)
            zone_mpis = [metro_mpi] * len(population.zone_ids)
        return zone_rows(population, zone_mpis) + zone_rows(metro, [metro_mpi])

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
    """An earlier indicators.csv as {zone: {metric: value}}, a blank value
    None; IngestError naming the line of a value that is not a finite number
    or of a zone given before."""
    if not path.exists():
        raise IngestError(f"{path}: comparison indicators file not found")
    out = {}
    for line, (zone, *texts) in csv_rows(path, INDICATOR_COLUMNS):
        if zone in out:
            raise IngestError(f"{path}: line {line}: duplicate zone {zone!r}")
        row = out[zone] = {}
        for metric, text in zip(INDICATOR_COLUMNS[1:], texts):
            try:
                row[metric] = float(text) if text else None
                if text and not math.isfinite(row[metric]):
                    raise ValueError
            except ValueError:
                raise IngestError(
                    f"{path}: line {line}: invalid {metric} {text!r}"
                ) from None
    return out


# --------------------------------------------------------------------------
# manifest
# --------------------------------------------------------------------------

def write_manifest(rt: Runtime, convergence=None) -> None:
    cfg = rt.config
    lines = [
        f"engine_version={__version__}",
        f"seed={cfg.seed}",
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
    if rt.fallback_zones is not None:
        lines.append(f"trs.fallback_zones={len(rt.fallback_zones)}")
    for name in sorted(rt.outputs):
        lines.append(f"output.{name}.sha256={sha256_file(rt.out_dir / name)}")
    for stage, seconds in rt.timings.items():
        lines.append(f"timing.{stage}_seconds={seconds:.3f}")
    # The peak never falls, so a stage that did not raise it reads as the
    # stage before it.
    for stage, peak in rt.peaks.items():
        lines.append(f"memory.{stage}_peak_rss_mib={peak:.1f}")
    lines.append(f"memory.peak_rss_mib={peak_rss_mib():.1f}")
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
        p.add_argument("--out", type=Path, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="RNG seed (overrides config)")
        p.add_argument(
            "--allow-inconsistent",
            action="store_true",
            help="proceed despite large constraint-total disagreement",
        )

    def synthesis(p):  # the flags of the commands that run IPF and TRS
        p.add_argument("--strict", action="store_true", help="non-convergence exits 1")
        p.add_argument("--dump-weights", action="store_true")
        p.add_argument("--max-iters", type=int, help="cap IPF sweeps")

    common(sub.add_parser("check", help="consistency checks only"))
    p = sub.add_parser("synthesize", help="IPF + TRS, write the population")
    common(p)
    synthesis(p)
    common(sub.add_parser("validate", help="validation reports for a population"))
    p = sub.add_parser("indicators", help="income and poverty indicators")
    common(p)
    p.add_argument("--compare", help="earlier run directory for percent changes")
    p = sub.add_parser("pipeline", help="check + synthesize + validate + indicators")
    common(p)
    synthesis(p)
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

        # Each flag replaces its config key and is checked like it.
        flags = {"output_dir": args.out, "seed": args.seed}
        flags["max_iterations"] = getattr(args, "max_iters", None)
        given = {key: value for key, value in flags.items() if value is not None}
        rt = Runtime(replace(load_config(args.config), **given))
        external = None
        if args.command in ("validate", "pipeline"):
            external = rt.load_external()
        rt.out_dir.mkdir(parents=True, exist_ok=True)

        if args.command == "check":
            return run_check(rt, args.allow_inconsistent)

        code = run_check(rt, args.allow_inconsistent)
        if code == EXIT_ERROR:
            return code

        if args.command == "synthesize":
            _, convergence, scode = run_synthesize(rt, args.dump_weights, args.strict)
            write_manifest(rt, convergence)
            return max(code, scode) if scode != EXIT_ERROR else EXIT_ERROR

        if args.command == "validate":
            population = rt.load_population()
            vcode = run_validate(rt, population, external)
            return max(code, vcode)

        if args.command == "indicators":
            population = rt.load_population()
            icode = run_indicators(rt, population, compare=args.compare)
            return max(code, icode)

        # pipeline
        population, convergence, scode = run_synthesize(
            rt, args.dump_weights, args.strict
        )
        if scode == EXIT_ERROR:
            return EXIT_ERROR
        run_validate(rt, population, external)
        run_indicators(rt, population, compare=args.compare)
        write_manifest(rt, convergence)
        return max(code, scode)
    except (IngestError, SchemaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
