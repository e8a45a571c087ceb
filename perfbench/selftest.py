"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Run from the repository root. Runs every workload with 6 zones and 1000 survey
records, untraced and traced, and checks that
- every end-to-end metric prints with its unit and no iteration fails;
- a traced run yields the same output digests as an untraced one;
- a population.csv with one count changed is counted as a failed run;
- outputs whose bits change between runs of the same inputs, as a later
  version of the program may legitimately make them, fail no iteration;
- tracing a function that no longer exists raises;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
Works under .perfbench_work/selftest/ and exits non-zero on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import re
import shutil
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import run
import tracer

SEED = 7
TINY = {"zones": 6, "records": 1000}


def check(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok: {message}")


def tiny_run(root, work, name, trace):
    workload = replace(run.WORKLOADS[name], **TINY)
    return run.run_workload(root, work, name, workload, SEED, 0, trace)


def test_workloads(root, work):
    for name in run.WORKLOADS:
        plain = tiny_run(root, work, name, trace=False)
        check(plain["failed"] == 0, f"{name}: no failed iteration ({plain['problems']})")
        lines = io.StringIO()
        with contextlib.redirect_stdout(lines):
            run.report(plain)
        for metric, unit in run.END_TO_END_UNITS.items():
            pattern = rf"^\[{name}\] {metric} = [0-9.e+-]+ {re.escape(unit)}\b"
            check(re.search(pattern, lines.getvalue(), re.M), f"{name}: prints {metric} in {unit}")
        traced = tiny_run(root, work, name, trace=True)
        check(traced["failed"] == 0, f"{name}: traced run has no failed iteration")
        check(traced["traced_digests"] == plain["digests"] != {}, f"{name}: traced digests equal untraced")
        check(set(traced["per_layer"]) >= {"trace.coverage", "trace.overhead_s"}, f"{name}: per-layer metrics")


def test_changed_count_fails(root, work):
    workload = replace(run.WORKLOADS["reload"], **TINY)
    prepared = run.prepare(root, work, "reload", workload, SEED)
    population = prepared.base / "population.csv"
    lines = population.read_text(encoding="utf-8").splitlines(keepends=True)
    zone, record, count = lines[1].rstrip("\r\n").split(",")
    lines[1] = f"{zone},{record},{int(count) + 1}\r\n"
    population.write_text("".join(lines), encoding="utf-8", newline="")
    summary = run.measure(root, work, "reload", workload, SEED, prepared, 0, False)
    check(
        summary["failed"] == summary["attempted"] > 0,
        f"changed count in population.csv fails every run ({summary['problems'][:2]})",
    )
    check(
        any("sums to" in problem for problem in summary["problems"]),
        "changed count is reported as a zone total mismatch",
    )


# Added to a copy of smallarea/cli.py: the same outputs with their data
# rows in reverse order, so every digest changes and every check still holds.
REVERSE_ROWS = """

_write_csv = write_csv


def write_csv(path, header, rows):
    rows = list(rows)
    if Path(path).name in ("population.csv", "indicators.csv"):
        rows.reverse()
    _write_csv(path, header, rows)
"""


def test_changed_output_passes(root, work):
    changed = work / "changed"
    shutil.copytree(root / "src", changed / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "src" / "smallarea" / "cli.py"
    # Before the __main__ guard, so that `python -m smallarea.cli` sees it too.
    head, guard, tail = cli.read_text(encoding="utf-8").partition('\nif __name__ == "__main__":')
    cli.write_text(head + REVERSE_ROWS + guard + tail, encoding="utf-8")
    for name in ("bundled", "reload"):
        before = tiny_run(root, work, name, trace=False)
        after = tiny_run(changed, work, name, trace=False)
        check(
            before["failed"] == after["failed"] == 0,
            f"{name}: changed output bits in a later run of the same inputs pass ({after['problems'][:2]})",
        )
        for output in ("population.csv", "indicators.csv"):
            check(before["digests"][output] != after["digests"][output], f"{name}: {output} digest changes")


def test_missing_attribute_fails():
    try:
        tracer.Tracer().wrap(types.SimpleNamespace(), "ipf_zone", "ipf.ipf_zone")
    except AttributeError as exc:
        check("ipf_zone" in str(exc), "tracing a missing function raises")
    else:
        check(False, "tracing a missing function raises")


def test_bare_directory(root, work):
    bare = work / "bare"
    shutil.copytree(root / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bundled", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout, "bare directory exits non-zero without a result")


def main() -> int:
    root = Path.cwd()
    work = root / run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    test_workloads(root, work)
    test_changed_count_fails(root, work)
    test_changed_output_passes(root, work)
    test_missing_attribute_fails()
    test_bare_directory(root, work)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
