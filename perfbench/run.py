"""Pipeline benchmark for smallarea.

    python3 perfbench/run.py --workload bundled --seed 20160802 --seconds 20 --trace 0

Run from the repository root. Each workload runs the real CLI, one fresh
process per command (perfbench/child.py), repeatedly for --seconds seconds.
The parent times each command from spawn to exit and reads its rusage from
os.wait4. Every iteration starts from an output directory with the same
contents and its outputs are checked; an iteration fails when a command exits
non-zero, a zone does not converge, a zone's population differs from its
reference-table total, indicators.csv has the wrong row count, manifest.txt
records other input digests, or an output digest differs from that of the
run's first iteration.

Per iteration: wall_s runs from spawning the first command to the exit of the
last; setup_s sums, over commands, the time from spawn until the `Runtime`
constructor returns; cpu_s is user + system time of the command processes;
peak_rss_mb the largest ru_maxrss; output_mb the bytes of the files the
commands create or replace; zones_per_s is zones over the median wall_s.
fail_rate, failed over attempted iterations, is printed and carried by the
JSON's "failed" and "attempted" rather than as a metric.

The last line of stdout is one JSON object. With --trace 0 its metrics are the
end-to-end medians over iterations; with --trace 1 iterations alternate
between untraced and traced, and its metrics are the per-layer medians of the
traced ones (see tracer.py). `--workload all` runs every workload in turn.

Inputs come from `smallarea example` and are generated once per seed and size
under .perfbench_work/inputs/; they are reused while their files keep the
digests recorded at generation, and every input digest that an iteration's
manifest.txt records must be among them. Everything else that depends on the
code under test is made anew in each run: reload's population.csv by an
untimed `synthesize`, and the reference output digests by the run's first
iteration.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import tracer
from tracer import clock

HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench_work")
MIB = 1 << 20
COMMAND_TIMEOUT_S = 60
MIN_ITERATIONS = 3
MIN_TRACE_PAIRS = 2
INPUT_DIGESTS = "input-digests.json"


@dataclass(frozen=True)
class Workload:
    zones: int
    records: int
    commands: tuple[str, ...]
    # True when the commands read a population.csv made in untimed set-up.
    reuses_population: bool = False


# All inputs come from smallarea.fixture.generate_example with its mean zone
# population of 5000. Sizes are scaled down from the paper-scale runs so that
# one iteration takes a few seconds on 2 cores and a run holds several.
WORKLOADS = {
    # The quick-start fixture: fixed per-command cost (imports, loading)
    # dominates, so work moved into set-up shows here. Not listed in
    # BENCHMARK.json: on a shared 2-core host its 1.2 s iterations spread
    # most from run to run, and setup_s measures the same fixed cost on the
    # listed workloads.
    "bundled": Workload(59, 3000, ("pipeline",)),
    # Many zones: population build and write, IPF and indicators scale with
    # zones; about 15 survey records per constraint cell.
    "metro": Workload(100, 20000, ("pipeline",)),
    # The read side of metro's population.csv, one process per command, so a
    # format that writes faster but reads slower shows here.
    "reload": Workload(100, 20000, ("validate", "indicators"), reuses_population=True),
    # Few zones, a large survey: per-record ingest, IPF over long record
    # vectors and indicators; about 45 records per constraint cell.
    "survey_heavy": Workload(30, 60000, ("pipeline",)),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "zones_per_s": "1/s",
    "output_mb": "MiB",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no smallarea source, set-up failed)."""


# --------------------------------------------------------------------------
# Processes
# --------------------------------------------------------------------------


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, env, log: Path, timeout=COMMAND_TIMEOUT_S):
    """Run argv to completion; returns (exit code, spawn time, exit time, rusage).

    The child is killed after `timeout` seconds and reported with code -9."""
    with log.open("wb") as out:
        t0 = clock()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=subprocess.STDOUT)
    pidfd = os.pidfd_open(proc.pid)
    try:
        if not select.select([pidfd], [], [], timeout)[0]:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = clock()
    finally:
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, t0, t1, usage


def smallarea_cli(root: Path, args, log: Path) -> None:
    """Run an untimed set-up command; raise if it fails."""
    log.parent.mkdir(parents=True, exist_ok=True)
    code, *_ = spawn([sys.executable, "-m", "smallarea.cli", *args], child_env(root), log)
    if code != 0:
        raise BenchmarkError(f"set-up command {args[0]} exited {code}; see {log}")


# --------------------------------------------------------------------------
# Inputs and set-up
# --------------------------------------------------------------------------


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def cached_input_digests(inputs: Path) -> dict | None:
    """The digests recorded when `inputs` was generated, or None when the
    directory is missing, incomplete or its files have changed since."""
    try:
        digests = json.loads((inputs / INPUT_DIGESTS).read_text(encoding="utf-8"))
        if all(sha256_file(inputs / name) == digest for name, digest in digests.items()):
            return digests
    except (OSError, ValueError):
        pass
    return None


def prepare_inputs(root: Path, work: Path, seed: int, workload: Workload) -> tuple[Path, dict]:
    """`smallarea example` inputs for (seed, sizes), generated once and reused
    while their files keep the digests recorded at generation. Returns the
    directory and those digests (file name -> sha256)."""
    inputs = work / "inputs" / f"seed{seed}-z{workload.zones}-r{workload.records}"
    digests = cached_input_digests(inputs)
    if digests is None:
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        smallarea_cli(
            root,
            ["example", "--out", str(inputs), "--seed", str(seed),
             "--zones", str(workload.zones), "--survey-size", str(workload.records)],
            work / "logs" / f"{inputs.name}-example.log",
        )
        digests = {p.name: sha256_file(p) for p in sorted(inputs.iterdir())}
        (inputs / INPUT_DIGESTS).write_text(json.dumps(digests, indent=1), encoding="utf-8")
    return inputs, digests


@dataclass(frozen=True)
class Prepared:
    """What one run measures against, made before timing starts."""

    inputs: Path
    input_digests: dict
    properties: dict
    # Round-half-up reference-table total per zone.
    zone_totals: dict
    # The population.csv that reload's commands read, synthesized untimed in
    # this run by the code under test; None for the other workloads.
    base: Path | None


def prepare(root: Path, work: Path, name: str, workload: Workload, seed: int) -> Prepared:
    inputs, input_digests = prepare_inputs(root, work, seed, workload)
    properties, zone_totals = input_properties(inputs)
    base = None
    if workload.reuses_population:
        base = work / "runs" / name / "base"
        shutil.rmtree(base, ignore_errors=True)
        smallarea_cli(
            root,
            ["synthesize", "--config", str(inputs / "config.yaml"), "--out", str(base)],
            work / "logs" / f"{name}-synthesize.log",
        )
    return Prepared(inputs, input_digests, properties, zone_totals, base)


def input_properties(inputs: Path) -> tuple[dict, dict]:
    """Workload properties and reference zone totals, read from the inputs."""
    import yaml

    config = yaml.safe_load((inputs / "config.yaml").read_text(encoding="utf-8"))
    variables = [v["name"] for v in config["schema"]["constraint_variables"]]
    reference = variables[0]
    totals: dict[str, float] = {}
    with (inputs / "constraints.csv").open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["variable"] == reference:
                totals[row["zone_id"]] = totals.get(row["zone_id"], 0.0) + float(row["count"])
    zone_totals = {zone: math.floor(t + 0.5) for zone, t in totals.items()}
    with (inputs / "survey.csv").open(newline="", encoding="utf-8") as fh:
        cells = [tuple(row[v] for v in variables) for row in csv.DictReader(fh)]
    properties = {
        "zones": len(zone_totals),
        "records": len(cells),
        "persons": sum(zone_totals.values()),
        "constraint_cells": len(set(cells)),
        "records_per_cell": len(cells) / len(set(cells)),
    }
    return properties, zone_totals


# --------------------------------------------------------------------------
# Output checks
# --------------------------------------------------------------------------


def check_population(path: Path, zone_totals: dict) -> tuple[list[str], int]:
    """Problems unless every zone's population sum equals its round-half-up
    reference total, and the number of data rows."""
    sums = dict.fromkeys(zone_totals, 0)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        rows = 0
        for row in reader:
            try:
                zone, _record, count = row
                sums[zone] += int(count)
            except (KeyError, ValueError):
                return [f"{path.name}: line {reader.line_num}: bad row {row[:3]}"], rows
            rows += 1
    problems = [
        f"{path.name}: zone {zone} sums to {sums[zone]}, expected {total}"
        for zone, total in zone_totals.items()
        if sums[zone] != total
    ]
    return problems, rows


def check_convergence(path: Path) -> list[str]:
    with path.open(newline="", encoding="utf-8") as fh:
        bad = [row["zone_id"] for row in csv.DictReader(fh) if row["converged"] != "1"]
    return [f"{path.name}: zones not converged: {bad[:5]}"] if bad else []


def check_manifest_inputs(path: Path, input_digests: dict) -> list[str]:
    """The input digests manifest.txt records are those of the cached inputs."""
    recorded = {
        key: value
        for key, _, value in (line.partition("=") for line in path.read_text(encoding="utf-8").splitlines())
        if key.startswith("input.")
    }
    if not recorded:
        return [f"{path.name} records no input digests"]
    known = set(input_digests.values())
    return [f"{path.name}: {key} is not the digest of a cached input" for key, value in recorded.items() if value not in known]


class OutputChecker:
    """Checks the outputs of each iteration of one run.

    The first digest of population.csv and of indicators.csv seen in the run
    is the reference the later iterations must equal. Each distinct
    population.csv is also checked once against the reference zone totals."""

    def __init__(self, prepared: Prepared):
        self.prepared = prepared
        self.reference: dict[str, str] = {}
        self.populations: dict[str, tuple[list[str], int, int]] = {}

    def population_properties(self) -> dict:
        """Rows and bytes of the run's reference population.csv."""
        digest = self.reference.get("population.csv")
        if digest is None:
            return {}
        _, rows, size = self.populations[digest]
        return {"population_rows": rows, "population_csv_bytes": size}

    def check(self, out: Path) -> tuple[list[str], dict]:
        """Problems with one iteration's outputs, and the digests of its
        population.csv and indicators.csv."""
        problems, digests = [], {}
        zones = len(self.prepared.zone_totals)
        for name in ("convergence.csv", "manifest.txt", "population.csv", "indicators.csv"):
            if not (out / name).exists():
                problems.append(f"{name} missing")
        if problems:
            return problems, digests
        problems += check_convergence(out / "convergence.csv")
        problems += check_manifest_inputs(out / "manifest.txt", self.prepared.input_digests)
        with (out / "indicators.csv").open("rb") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != zones + 1:
            problems.append(f"indicators.csv has {rows} rows, expected {zones + 1}")
        for name in ("population.csv", "indicators.csv"):
            path = out / name
            digest = digests[name] = sha256_file(path)
            if name == "population.csv":
                if digest not in self.populations:
                    found, rows = check_population(path, self.prepared.zone_totals)
                    self.populations[digest] = (found, rows, path.stat().st_size)
                problems += self.populations[digest][0]
            first = self.reference.setdefault(name, digest)
            if digest != first:
                problems.append(f"{name} sha256 {digest[:12]} differs from the run's first {first[:12]}")
        return problems, digests


# --------------------------------------------------------------------------
# Iterations
# --------------------------------------------------------------------------


def snapshot(directory: Path) -> dict:
    return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns, p.stat().st_size) for p in directory.iterdir()}


def reset_output(out: Path, prepared: Prepared) -> None:
    """Give every iteration an output directory with the same contents."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if prepared.base is not None:
        for path in prepared.base.iterdir():
            os.link(path, out / path.name)


def last_line(path: Path) -> str:
    lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def run_iteration(root, workload, prepared, out, logs, traced) -> dict:
    """One pass over the workload's commands; returns its measurements."""
    env = child_env(root)
    before = snapshot(out)
    setup = cpu = rss = 0.0
    problems, dumps = [], []
    start = end = None
    for i, command in enumerate(workload.commands):
        result = logs / f"result{i}.json"
        result.unlink(missing_ok=True)
        log = logs / f"{command}.log"
        argv = [
            sys.executable, str(HERE / "child.py"), str(result), "1" if traced else "0", "--",
            command, "--config", str(prepared.inputs / "config.yaml"), "--out", str(out),
        ]
        code, t0, t1, usage = spawn(argv, env, log)
        start = t0 if start is None else start
        end = t1
        if code != 0:
            problems.append(f"{command} exited {code}: {last_line(log)}")
        cpu += usage.ru_utime + usage.ru_stime
        rss = max(rss, usage.ru_maxrss / 1024)  # ru_maxrss is in KiB on Linux
        dump = json.loads(result.read_text(encoding="utf-8")) if result.exists() else {}
        if dump.get("ready") is not None:
            setup += dump["ready"] - t0
        dumps.append(dump)
    after = snapshot(out)
    written = sum(stat[2] for name, stat in after.items() if before.get(name) != stat)
    return {
        "problems": problems,
        "dumps": dumps,
        "traced": traced,
        "wall_s": end - start,
        "setup_s": setup,
        "cpu_s": cpu,
        "peak_rss_mb": rss,
        "output_mb": written / MIB,
    }


def steal_seconds() -> float | None:
    """Host steal time from /proc/stat (read only), or None where absent."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run_workload(root: Path, work: Path, name: str, workload: Workload, seed: int, seconds: float, trace: bool):
    """Set up in `work`, then measure; returns a summary."""
    return measure(root, work, name, workload, seed, prepare(root, work, name, workload, seed), seconds, trace)


def measure(root, work, name, workload, seed, prepared, seconds, trace) -> dict:
    """Iterate over the workload until `seconds` have passed; returns a summary."""
    run_dir = work / "runs" / name
    out, logs = run_dir / "out", run_dir / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    checker = OutputChecker(prepared)

    steal0 = steal_seconds()
    iterations, durations = [], []
    deadline = clock() + seconds
    minimum = 2 * MIN_TRACE_PAIRS if trace else MIN_ITERATIONS
    # After the minimum, start no iteration that would likely end past the
    # deadline, so a run lasts about `seconds` whatever an iteration takes.
    while len(iterations) < minimum or clock() + statistics.median(durations) < deadline:
        began = clock()
        reset_output(out, prepared)
        traced = trace and len(iterations) % 2 == 1
        it = run_iteration(root, workload, prepared, out, logs, traced)
        it["digests"] = {}
        if not it["problems"]:
            it["problems"], it["digests"] = checker.check(out)
        iterations.append(it)
        durations.append(clock() - began)
    steal1 = steal_seconds()
    if trace:
        write_spans(work, name, seed, iterations)
    properties = {**prepared.properties, **checker.population_properties()}
    return summarize(name, seed, properties, iterations, steal0, steal1)


def write_spans(work, name, seed, iterations) -> Path:
    path = work / "spans" / f"{name}-seed{seed}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for index, it in enumerate(iterations):
            if not it["traced"]:
                continue
            for command, dump in enumerate(it["dumps"]):
                for span_name, start, end, parent, tag in dump.get("spans", []):
                    fh.write(json.dumps({
                        "iteration": index, "command": command, "name": span_name,
                        "start": start, "end": end, "parent": parent, "tag": tag,
                    }) + "\n")
    return path


# --------------------------------------------------------------------------
# Summaries
# --------------------------------------------------------------------------


def summarize(name, seed, properties, iterations, steal0, steal1) -> dict:
    failed = [it for it in iterations if it["problems"]]
    plain = [it for it in iterations if not it["traced"]]
    good = [it for it in plain if not it["problems"]] or plain
    series = {m: [it[m] for it in good] for m in ("wall_s", "setup_s", "cpu_s", "peak_rss_mb", "output_mb")}
    end_to_end = {m: statistics.median(v) for m, v in series.items()}
    end_to_end["zones_per_s"] = properties["zones"] / end_to_end["wall_s"]
    summary = {
        "workload": name,
        "seed": seed,
        "attempted": len(iterations),
        "failed": len(failed),
        "problems": sorted({p for it in failed for p in it["problems"]}),
        "series": series,
        "end_to_end": end_to_end,
        "properties": properties,
        "digests": next((it["digests"] for it in plain if it["digests"]), {}),
        "steal_s": None if steal0 is None or steal1 is None else steal1 - steal0,
        "threads": max((d.get("threads", 0) for it in iterations for d in it["dumps"]), default=0),
    }
    traced = [it for it in iterations if it["traced"]]
    if traced:
        layers = [tracer.layer_metrics(it["dumps"], it["wall_s"]) for it in traced]
        per_layer = {k: statistics.median(lm[k] for lm in layers) for k in layers[0]}
        per_layer["ipf.records_per_cell"] = properties["records_per_cell"]
        per_layer["trace.overhead_s"] = statistics.median(it["wall_s"] for it in traced) - end_to_end["wall_s"]
        summary["per_layer"] = per_layer
        called = set().union(*(tracer.called_spans(it["dumps"]) for it in traced))
        summary["not_called"] = sorted(set(tracer.TIMED_SPANS + tracer.CALLS) - called)
        summary["traced_digests"] = next((it["digests"] for it in traced if it["digests"]), {})
    return summary


def environment(root: Path) -> dict:
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "num_threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
    }


def report(summary: dict) -> None:
    """Human-readable lines for one workload."""
    w = summary["workload"]
    print(f"[{w}] seed {summary['seed']}: {summary['attempted']} iterations, {summary['failed']} failed")
    for problem in summary["problems"]:
        print(f"[{w}]   problem: {problem}")
    for metric, unit in END_TO_END_UNITS.items():
        value = summary["end_to_end"][metric]
        values = summary["series"].get(metric)
        spread = f" (median of {len(values)}; min {min(values):.4g}, max {max(values):.4g})" if values else ""
        print(f"[{w}] {metric} = {value:.6g} {unit}{spread}")
    print(f"[{w}] fail_rate = {summary['failed'] / summary['attempted']:.6g} ratio")
    for label, key in (("", "digests"), ("traced ", "traced_digests")):
        for name, digest in sorted(summary.get(key, {}).items()):
            print(f"[{w}] {label}{name.replace('.csv', '')}_sha256 = {digest}")
    for key, value in summary["properties"].items():
        print(f"[{w}] property {key} = {value:.6g}" if isinstance(value, float) else f"[{w}] property {key} = {value}")
    print(f"[{w}] threads per command process = {summary['threads']}")
    steal = summary["steal_s"]
    print(f"[{w}] host steal over run = {'n/a' if steal is None else f'{steal:.2f} s'}")
    if summary.get("not_called"):
        print(f"[{w}] not called in this workload, so their per-layer metrics read 0: {', '.join(summary['not_called'])}")
    for metric, value in summary.get("per_layer", {}).items():
        print(f"[{w}] {metric} = {value:.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=20160802)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "smallarea" / "cli.py").is_file():
        print("error: run from the smallarea repository root (src/smallarea not found)", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for key, value in environment(root).items():
        print(f"env {key} = {value}")
    try:
        summaries = [
            run_workload(root, root / WORK, name, WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            for name in names
        ]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for summary in summaries:
        report(summary)

    metrics = {}
    for s in summaries:
        prefix = "" if len(summaries) == 1 else f"{s['workload']}."
        if args.trace:
            for metric, value in s["per_layer"].items():
                if not metric.endswith("_tail_pct"):
                    metrics[prefix + metric] = {"value": value, "unit": tracer.unit_of(metric)}
        else:
            for metric, unit in END_TO_END_UNITS.items():
                metrics[prefix + metric] = {"value": s["end_to_end"][metric], "unit": unit}
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
