import csv
import hashlib
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import smallarea
from smallarea.cli import INDICATOR_COLUMNS, Runtime, main, run_check, sha256_file
from smallarea.fixture import generate_example
from smallarea.ingest import load_config
from smallarea.integerize import round_half_up
from smallarea.ipf import ipf_all
from smallarea.schema import ConstraintTable, check_consistency, rescale_constraints

from dense_oracle import dense_read_population, dense_synthesize

MINI_CONFIG = """
schema:
  constraint_variables:
    - name: sex
      categories: [M, F]
    - name: age
      categories: [Y, O]
  income_field: income
paths:
  constraints: constraints.csv
  survey: survey.csv
  output_dir: out
seed: 11
"""

MINI_CONSTRAINTS = """zone_id,variable,category,count
Z1,sex,M,60
Z1,sex,F,40
Z1,age,Y,30
Z1,age,O,70
Z2,sex,M,10
Z2,sex,F,30
Z2,age,Y,25
Z2,age,O,15
"""

MINI_SURVEY = """record_id,household_id,sex,age,income
r1,h1,M,Y,100
r2,h2,M,O,250
r3,h3,F,Y,80
r4,h4,F,O,400
"""


def write_mini(tmp_path, constraints=MINI_CONSTRAINTS):
    (tmp_path / "config.yaml").write_text(MINI_CONFIG)
    (tmp_path / "constraints.csv").write_text(constraints)
    (tmp_path / "survey.csv").write_text(MINI_SURVEY)
    return tmp_path / "config.yaml"


@pytest.fixture(scope="module")
def example_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("example")
    config = generate_example(d, n_zones=8, survey_size=400, mean_zone_pop=600)
    return d, config


class TestCheck:
    def test_consistent_exits_clean(self, tmp_path):
        config = write_mini(tmp_path)
        assert main(["check", "--config", str(config)]) == 0

    def test_disagreement_exits_2(self, tmp_path):
        bad = MINI_CONSTRAINTS.replace("Z1,age,O,70", "Z1,age,O,68")
        config = write_mini(tmp_path, constraints=bad)
        assert main(["check", "--config", str(config)]) == 2
        report = (tmp_path / "out" / "consistency_report.csv").read_text()
        assert "zone_total_disagreement" in report
        rows = list(csv.DictReader(report.splitlines()))
        assert [r["issue"] for r in rows] == ["zone_total_disagreement"]
        rt = Runtime(load_config(config))
        expected = check_consistency(rt.schema, rt.tables, rt.survey)
        assert float(rows[0]["value"]) == expected.max_rel_disagreement

    def test_bad_count_value_is_a_number(self, tmp_path):
        # The loader rejects negative counts, so one is put in after loading.
        rt = Runtime(load_config(write_mini(tmp_path)))
        sex = rt.tables[0]
        counts = sex.counts.copy()
        counts[1, 0] = -2.5
        rt.tables[0] = ConstraintTable("sex", sex.zones, sex.categories, counts)
        assert run_check(rt, allow_inconsistent=True) == 2
        with open(rt.out_dir / "consistency_report.csv", newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if r["issue"] == "bad_count"]
        assert [(r["zone_id"], r["category"], float(r["value"])) for r in rows] == [
            ("Z2", "M", -2.5)
        ]

    def test_malformed_csv_exits_1(self, tmp_path, capsys):
        bad = MINI_CONSTRAINTS.replace("Z1,sex,M,60", "Z1,sex,M,sixty")
        config = write_mini(tmp_path, constraints=bad)
        assert main(["check", "--config", str(config)]) == 1
        assert "line" in capsys.readouterr().err

    def test_header_only_constraints_exit_1(self, tmp_path, capsys):
        config = write_mini(tmp_path, constraints=MINI_CONSTRAINTS.splitlines()[0])
        assert main(["check", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"{tmp_path / 'constraints.csv'}: empty constraint table" in err
        assert not (tmp_path / "out").exists()

    def test_large_disagreement_blocks_pipeline(self, tmp_path):
        bad = MINI_CONSTRAINTS.replace("Z1,age,O,70", "Z1,age,O,30")
        config = write_mini(tmp_path, constraints=bad)
        assert main(["pipeline", "--config", str(config)]) == 1
        assert (
            main(["pipeline", "--config", str(config), "--allow-inconsistent"]) == 2
        )


class TestSynthesize:
    def test_same_seed_byte_identical(self, tmp_path):
        config = write_mini(tmp_path)
        main(["synthesize", "--config", str(config), "--out", str(tmp_path / "a")])
        main(["synthesize", "--config", str(config), "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "population.csv").read_bytes()
        b = (tmp_path / "b" / "population.csv").read_bytes()
        assert a == b

    def test_different_seed_same_totals(self, tmp_path):
        config = write_mini(tmp_path)
        main(["synthesize", "--config", str(config), "--out", str(tmp_path / "a")])
        main(
            [
                "synthesize",
                "--config",
                str(config),
                "--out",
                str(tmp_path / "b"),
                "--seed",
                "999",
            ]
        )

        def totals(path):
            out = {}
            for line in path.read_text().splitlines()[1:]:
                zone, _, count = line.split(",")
                out[zone] = out.get(zone, 0) + int(count)
            return out

        assert totals(tmp_path / "a" / "population.csv") == totals(
            tmp_path / "b" / "population.csv"
        )

    def test_forced_truncation_flags_nonconvergence(self, example_dir, tmp_path):
        d, config = example_dir
        code = main(
            [
                "synthesize",
                "--config",
                str(config),
                "--out",
                str(tmp_path / "out"),
                "--max-iters",
                "1",
            ]
        )
        assert code == 2
        strict = main(
            [
                "synthesize",
                "--config",
                str(config),
                "--out",
                str(tmp_path / "strict"),
                "--max-iters",
                "1",
                "--strict",
            ]
        )
        assert strict == 1

    def test_convergence_names_unsupported_category(self, tmp_path):
        # ipf's unsupported-category case: no survey record is in B, so Z1's
        # census count for B cannot be fitted; Z2 fits exactly from the start.
        (tmp_path / "config.yaml").write_text(
            MINI_CONFIG.replace(
                "    - name: sex\n      categories: [M, F]\n"
                "    - name: age\n      categories: [Y, O]\n",
                "    - name: v\n      categories: [A, B]\n",
            )
        )
        (tmp_path / "constraints.csv").write_text(
            "zone_id,variable,category,count\nZ1,v,A,3\nZ1,v,B,1\nZ2,v,A,2\nZ2,v,B,0\n"
        )
        (tmp_path / "survey.csv").write_text(
            "record_id,household_id,v,income\nr1,h1,A,100\nr2,h2,A,250\n"
        )
        assert main(["synthesize", "--config", str(tmp_path / "config.yaml")]) == 2
        with open(tmp_path / "out" / "convergence.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [
            {k: row[k] for k in ("zone_id", "iterations", "converged")} for row in rows
        ] == [
            {"zone_id": "Z1", "iterations": "100", "converged": "0"},
            {"zone_id": "Z2", "iterations": "0", "converged": "1"},
        ]
        worst = [
            (
                row["worst_variable"],
                row["worst_category"],
                float(row["worst_abs_error"]),
                row["unsupported"],
            )
            for row in rows
        ]
        assert worst == [("v", "B", 1.0, "1"), ("", "", 0.0, "0")]

    def test_dump_weights(self, tmp_path):
        config = write_mini(tmp_path)
        main(["synthesize", "--config", str(config), "--dump-weights"])
        weights = (tmp_path / "out" / "weights.csv").read_text().splitlines()
        assert weights[0] == "record_id,zone_id,weight"
        assert len(weights) == 1 + 4 * 2

    @pytest.mark.parametrize("dump", [True, False])
    def test_manifest_times_the_weights_dump(self, tmp_path, dump):
        config = write_mini(tmp_path)
        argv = ["synthesize", "--config", str(config)]
        assert main(argv + ["--dump-weights"] * dump) == 0
        lines = (tmp_path / "out" / "manifest.txt").read_text().splitlines()
        timed = [line for line in lines if line.startswith("timing.write_weights_")]
        assert [line.split("=")[0] for line in timed] == (
            ["timing.write_weights_seconds"] if dump else []
        )
        assert all(float(line.split("=")[1]) >= 0 for line in timed)

    def test_manifest_skips_files_of_earlier_runs(self, tmp_path):
        config = write_mini(tmp_path)
        main(["synthesize", "--config", str(config), "--dump-weights"])
        manifest = tmp_path / "out" / "manifest.txt"
        assert "output.weights.csv.sha256=" in manifest.read_text()
        main(["synthesize", "--config", str(config), "--seed", "5"])
        assert (tmp_path / "out" / "weights.csv").exists()
        lines = manifest.read_text().splitlines()
        assert "seed=5" in lines
        outputs = [line.split(".sha256=")[0] for line in lines if "sha256" in line]
        assert outputs == [
            "input.constraints",
            "input.survey",
            "output.consistency_report.csv",
            "output.convergence.csv",
            "output.population.csv",
        ]

    def test_population_files_go_through_write_csv(self, tmp_path, monkeypatch):
        # Wrapping write_csv sees every output table with its row count.
        from smallarea import cli

        seen = {}
        write_csv = cli.write_csv

        def recording(path, header, rows):
            seen[Path(path).name] = len(rows)
            write_csv(path, header, rows)

        monkeypatch.setattr(cli, "write_csv", recording)
        config = write_mini(tmp_path)
        main(["synthesize", "--config", str(config), "--dump-weights"])
        for name in ("population.csv", "weights.csv"):
            lines = (tmp_path / "out" / name).read_text().splitlines()
            assert seen[name] == len(lines) - 1 > 0


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_outputs_honour_the_umask(tmp_path, umask, mode):
    config = write_mini(tmp_path)
    before = os.umask(umask)
    try:
        assert main(["pipeline", "--config", str(config), "--dump-weights"]) == 0
    finally:
        os.umask(before)
    written = sorted((tmp_path / "out").iterdir())
    assert "weights.csv" in [path.name for path in written]
    assert {path.name: path.stat().st_mode & 0o777 for path in written} == {
        path.name: mode for path in written
    }


@pytest.mark.parametrize("command", ["check", "validate", "indicators"])
def test_strict_only_where_it_has_an_effect(tmp_path, capsys, command):
    config = write_mini(tmp_path)
    with pytest.raises(SystemExit) as raised:
        main([command, "--config", str(config), "--strict"])
    assert raised.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert "unrecognized arguments: --strict" in err


class TestFlagOverrides:
    """--out, --seed and --max-iters replace their config keys: the manifest
    records the values that ran, and bad values are refused like bad config
    values, before any file is written."""

    @pytest.mark.parametrize("command", ["synthesize", "pipeline"])
    def test_manifest_records_each_override(self, tmp_path, command):
        config = write_mini(tmp_path)  # seed 11, ipf.max_iterations 100
        out = tmp_path / "elsewhere"
        flags = ["--out", str(out), "--seed", "5", "--max-iters", "2"]
        assert main([command, "--config", str(config), *flags]) in (0, 2)
        assert not (tmp_path / "out").exists()
        lines = (out / "manifest.txt").read_text().splitlines()
        assert "seed=5" in lines
        assert "ipf.max_iterations=2" in lines
        with open(out / "convergence.csv", newline="") as fh:
            iterations = [int(row["iterations"]) for row in csv.DictReader(fh)]
        assert max(iterations) <= 2

    @pytest.mark.parametrize(
        "flags, setting",
        [
            (["--max-iters", "0"], "ipf.max_iterations"),
            (["--max-iters", "-3"], "ipf.max_iterations"),
            (["--seed", "-1"], "seed"),
            (["--seed", str(2**64)], "seed"),
        ],
    )
    @pytest.mark.parametrize("command", ["synthesize", "pipeline"])
    def test_bad_value_fails_before_any_output(
        self, tmp_path, capsys, command, flags, setting
    ):
        config = write_mini(tmp_path)
        assert main([command, "--config", str(config), *flags]) == 1
        assert capsys.readouterr().err.startswith(f"error: {setting} must ")
        assert not (tmp_path / "out").exists()


class TestPipeline:
    def test_outputs_and_manifest(self, example_dir):
        d, config = example_dir
        assert main(["pipeline", "--config", str(config)]) == 0
        out = d / "out"
        for name in (
            "population.csv",
            "convergence.csv",
            "validation_internal.csv",
            "validation_shares.csv",
            "indicators.csv",
            "manifest.txt",
        ):
            assert (out / name).exists(), name
        manifest = (out / "manifest.txt").read_text()
        assert "output.population.csv.sha256=" in manifest
        assert "timing.write_population_seconds=" in manifest
        assert "seed=" in manifest

    @pytest.mark.parametrize("command", ["synthesize", "pipeline"])
    def test_manifest_times_input_loading(self, tmp_path, command):
        config = write_mini(tmp_path)
        assert main([command, "--config", str(config)]) == 0
        lines = (tmp_path / "out" / "manifest.txt").read_text().splitlines()
        timings = [line.split("=")[0] for line in lines if line.startswith("timing.")]
        assert timings[0] == "timing.load_inputs_seconds"

    def test_manifest_records_peak_memory(self, tmp_path):
        config = write_mini(tmp_path)
        assert main(["pipeline", "--config", str(config)]) == 0
        lines = (tmp_path / "out" / "manifest.txt").read_text().splitlines()
        peaks = [line for line in lines if line.startswith("memory.peak_rss_mib=")]
        assert len(peaks) == 1
        assert float(peaks[0].split("=")[1]) > 0

    @pytest.mark.parametrize("command", ["synthesize", "pipeline"])
    def test_manifest_records_peak_memory_after_each_stage(self, tmp_path, command):
        config = write_mini(tmp_path)
        assert main([command, "--config", str(config)]) == 0
        lines = (tmp_path / "out" / "manifest.txt").read_text().splitlines()
        fields = dict(line.split("=", 1) for line in lines)
        stages = [
            key.removeprefix("timing.").removesuffix("_seconds")
            for key in fields
            if key.startswith("timing.")
        ]
        memory = [key for key in fields if key.startswith("memory.")]
        assert memory == [f"memory.{s}_peak_rss_mib" for s in stages] + [
            "memory.peak_rss_mib"
        ]
        peaks = [float(fields[key]) for key in memory]
        assert peaks[0] > 0
        assert peaks == sorted(peaks)  # never falls, the whole run's last

    @pytest.mark.parametrize(
        "good, bad",
        [
            ("      - field: lacks_item1\n", "      - field: lacks_itme1\n"),
            ("        - Unemployed\n", "        - Unemplyed\n"),
        ],
    )
    def test_bad_mpi_indicator_fails_before_any_output(
        self, tmp_path, capsys, good, bad
    ):
        config = generate_example(tmp_path, n_zones=4, survey_size=200)
        text = config.read_text()
        assert text.count(good) == 1
        config.write_text(text.replace(good, bad))
        assert main(["pipeline", "--config", str(config)]) == 1
        assert bad.split()[-1] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_crosswalk_lacking_a_category_names_file(self, tmp_path, capsys):
        config = generate_example(tmp_path, n_zones=4, survey_size=200)
        crosswalk = tmp_path / "crosswalk.csv"
        text = crosswalk.read_text()
        assert text.endswith("\noccupation,Elementary,Elementary\n")
        crosswalk.write_text(text.removesuffix("occupation,Elementary,Elementary\n"))
        assert main(["pipeline", "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            f"error: {crosswalk}: category 'Elementary' missing from crosswalk "
            "for 'occupation'\n"
        )
        # The crosswalk is checked with the other inputs, before any output.
        assert not (tmp_path / "out").exists()

    def test_validate_checks_the_crosswalk_before_any_output(self, tmp_path, capsys):
        config = generate_example(tmp_path, n_zones=4, survey_size=200)
        out = tmp_path / "out"
        assert main(["synthesize", "--config", str(config)]) == 0
        for path in out.iterdir():
            if path.name != "population.csv":
                path.unlink()
        crosswalk = tmp_path / "crosswalk.csv"
        text = crosswalk.read_text()
        crosswalk.write_text(text.removesuffix("occupation,Elementary,Elementary\n"))
        capsys.readouterr()
        assert main(["validate", "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            f"error: {crosswalk}: category 'Elementary' missing from crosswalk "
            "for 'occupation'\n"
        )
        assert [path.name for path in out.iterdir()] == ["population.csv"]

    def test_rerun_identical_digests(self, example_dir, tmp_path):
        d, config = example_dir
        main(["pipeline", "--config", str(config), "--out", str(tmp_path / "r1")])
        main(["pipeline", "--config", str(config), "--out", str(tmp_path / "r2")])
        for name in ("population.csv", "indicators.csv", "validation_internal.csv"):
            assert (tmp_path / "r1" / name).read_bytes() == (
                tmp_path / "r2" / name
            ).read_bytes()

    def test_compare_mode(self, example_dir, tmp_path):
        d, config = example_dir
        earlier = tmp_path / "earlier"
        main(["pipeline", "--config", str(config), "--out", str(earlier)])
        later = tmp_path / "later"
        assert (
            main(
                [
                    "pipeline",
                    "--config",
                    str(config),
                    "--out",
                    str(later),
                    "--seed",
                    "77",
                    "--compare",
                    str(earlier),
                ]
            )
            == 0
        )
        diff = (later / "indicators_diff.csv").read_text().splitlines()
        assert diff[0] == "zone_id,metric,earlier,later,pct_change"
        assert len(diff) > 1

    @pytest.mark.parametrize(
        "line, field, text, message",
        [
            (3, 1, "abc", "line 3: invalid mean_income 'abc'"),
            (1, 5, "md", "expected header"),
            # float() reads these; a percent change of them has no meaning.
            (3, 1, "nan", "line 3: invalid mean_income 'nan'"),
            (4, 3, "inf", "line 4: invalid arop_abs 'inf'"),
            (10, 2, "-Infinity", "line 10: invalid median_income '-Infinity'"),
        ],
    )
    def test_compare_with_malformed_indicators_names_file(
        self, example_dir, tmp_path, capsys, line, field, text, message
    ):
        # The earlier indicators.csv has one field replaced by `text`.
        d, config = example_dir
        out, earlier = tmp_path / "out", tmp_path / "earlier"
        main(["pipeline", "--config", str(config), "--out", str(out)])
        rows = (out / "indicators.csv").read_text().splitlines()
        fields = rows[line - 1].split(",")
        fields[field] = text
        rows[line - 1] = ",".join(fields)
        earlier.mkdir()
        (earlier / "indicators.csv").write_text("\n".join(rows) + "\n")
        argv = ["indicators", "--config", str(config), "--out", str(out)]
        assert main(argv + ["--compare", str(earlier)]) == 1
        err = capsys.readouterr().err
        assert f"{earlier / 'indicators.csv'}: {message}" in err

    def test_compare_with_repeated_zone_names_line(self, tmp_path, capsys):
        # A zone given twice in the earlier indicators.csv is refused, not
        # replaced by its later row.
        config = write_mini(tmp_path)
        assert main(["synthesize", "--config", str(config)]) == 0
        earlier = tmp_path / "earlier"
        earlier.mkdir()
        header = ",".join(INDICATOR_COLUMNS)
        (earlier / "indicators.csv").write_text(
            f"{header}\nZ1,1,1,,,,,,,0\nZ1,2,2,,,,,,,0\n"
        )
        argv = ["indicators", "--config", str(config), "--compare", str(earlier)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{earlier / 'indicators.csv'}: line 3: duplicate zone 'Z1'" in err

    def test_validate_without_population_fails(self, tmp_path):
        config = write_mini(tmp_path)
        assert main(["validate", "--config", str(config)]) == 1

    def test_indicators_after_synthesize(self, tmp_path):
        config = write_mini(tmp_path)
        assert main(["synthesize", "--config", str(config)]) == 0
        assert main(["indicators", "--config", str(config)]) == 0
        text = (tmp_path / "out" / "indicators.csv").read_text().splitlines()
        assert text[0].startswith("zone_id,mean_income")
        assert text[-1].startswith("METRO,")


# The OS threads of the process, one entry each (Linux).
TASKS = "/proc/self/task"


def run_python(code, timeout=60, environ=os.environ):
    """Run `code` in a fresh interpreter that imports this source tree, in
    the environment `environ`."""
    src = str(Path(smallarea.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, environ.get("PYTHONPATH")]))
    env = dict(environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize("size", [0, 1, 65535, 65536, 65537, 3 * 2**20 + 1])
def test_sha256_file_hashes_every_byte(tmp_path, size):
    # Sizes around the 64 KiB read buffer, and a file of many reads.
    data = random.Random(size).randbytes(size)
    path = tmp_path / "data.bin"
    path.write_bytes(data)
    assert sha256_file(path) == hashlib.sha256(data).hexdigest()


def test_import_leaves_scipy_unloaded():
    """smallarea does not import scipy."""
    proc = run_python("import sys, smallarea.cli; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_pipeline_runs_without_scipy(tmp_path):
    # A None entry in sys.modules makes every import of scipy fail.
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from smallarea.cli import main\n"
        f"assert main(['example', '--out', {str(tmp_path)!r}]) == 0\n"
        f"sys.exit(main(['pipeline', '--config', {str(tmp_path / 'config.yaml')!r}]))\n"
    )
    proc = run_python(code, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "out" / "validation_internal.csv").read_text().splitlines()
    assert rows[0] == "variable,category,r2,sei,t,p" and len(rows) > 1


def test_commands_leave_numpy_ma_unloaded(tmp_path):
    """No command imports numpy.ma, which adds time and memory to every
    process; in numpy 2.4 `np.unique` of one array imports it."""
    config = str(tmp_path / "config.yaml")
    code = (
        "import sys\n"
        "from smallarea.cli import main\n"
        f"assert main(['example', '--out', {str(tmp_path)!r}]) == 0\n"
        "for command in ('pipeline', 'validate', 'indicators'):\n"
        f"    assert main([command, '--config', {config!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = run_python(code, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_commands_leave_numpy_random_unloaded(tmp_path):
    """Systematic PPS, the TRS path of every zone of the example, draws its
    one uniform without importing numpy.random, and a config without unknown
    keys logs nothing: each module adds time and memory to every process."""
    assert main(["example", "--out", str(tmp_path)]) == 0
    config = str(tmp_path / "config.yaml")
    code = (
        "import sys\n"
        "from smallarea.cli import main\n"
        "for command in ('pipeline', 'synthesize', 'validate', 'indicators'):\n"
        f"    assert main([command, '--config', {config!r}]) == 0\n"
        "print('numpy.random' in sys.modules)\n"
        "print('logging' in sys.modules)\n"
    )
    proc = run_python(code, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["False", "False"]
    manifest = (tmp_path / "out" / "manifest.txt").read_text().splitlines()
    assert "trs.fallback_zones=0" in manifest


def test_fallback_zone_draws_from_numpy_random(tmp_path):
    """With no survey record of age O, the fit of both zones falls short of
    the target, so TRS draws the rest with replacement from numpy's
    Generator: the counts are those of numpy's own streams."""
    config = write_mini(tmp_path)
    survey = [r for r in MINI_SURVEY.splitlines(True) if ",O," not in r]
    (tmp_path / "survey.csv").write_text("".join(survey))
    code = (
        "import sys\n"
        "from smallarea.cli import main\n"
        f"assert main(['synthesize', '--config', {str(config)!r}]) == 2\n"
        "print('numpy.random' in sys.modules)\n"
    )
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "True"
    manifest = (tmp_path / "out" / "manifest.txt").read_text().splitlines()
    assert "trs.fallback_zones=2" in manifest

    rt = Runtime(load_config(config))
    tables = rescale_constraints(rt.tables, "sex")
    matrix, _ = ipf_all(rt.survey, tables, rt.config.max_iterations, rt.config.tolerance)
    targets = round_half_up(tables[0].zone_totals())
    expected = dense_synthesize(matrix, targets, rt.config.seed)
    got = dense_read_population(
        tmp_path / "out" / "population.csv", tables[0].zones, rt.survey.record_ids
    )
    assert got.tobytes() == expected.tobytes()


def test_reload_commands_leave_openssl_unloaded(tmp_path):
    """validate and indicators hash nothing, so they do not load hashlib's
    OpenSSL extension, `_hashlib`, whose libcrypto pages add to the peak
    resident memory of each process."""
    assert main(["example", "--out", str(tmp_path)]) == 0
    config = str(tmp_path / "config.yaml")
    assert main(["pipeline", "--config", config]) == 0
    code = (
        "import sys\n"
        "from smallarea.cli import main\n"
        "for command in ('validate', 'indicators'):\n"
        f"    assert main([command, '--config', {config!r}]) == 0\n"
        "print('_hashlib' in sys.modules)\n"
    )
    proc = run_python(code, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


@pytest.mark.skipif(not os.path.isdir(TASKS), reason=f"no {TASKS} to count threads")
@pytest.mark.parametrize("setting, threads", [(None, 1), ("2", 2)])
def test_import_starts_one_blas_thread_unless_told(setting, threads):
    """Importing smallarea sets OPENBLAS_NUM_THREADS to 1 before numpy
    starts its BLAS pool; a value already set wins."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if setting is not None:
        environ["OPENBLAS_NUM_THREADS"] = setting
    code = f"import os, smallarea.cli; print(len(os.listdir({TASKS!r})))"
    proc = run_python(code, environ=environ)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == threads


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS splits a dot product of more than 10000 terms across its
    # threads, which changes the order of the sum and so its last bits; the
    # 12000 survey records pass that length in every per-record sum.
    args = ["--zones", "12", "--survey-size", "12000"]
    assert main(["example", "--out", str(tmp_path), *args]) == 0
    config = str(tmp_path / "config.yaml")
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        argv = ["pipeline", "--config", config, "--out", str(out)]
        # Each process checks that it runs the pool it asked for, so that the
        # comparison is not 1 thread against 1.
        code = (
            f"import os, sys; os.environ['OPENBLAS_NUM_THREADS'] = {threads!r}\n"
            "from smallarea.cli import main\n"
            f"tasks = {TASKS!r}\n"
            f"assert not os.path.isdir(tasks) or len(os.listdir(tasks)) == {threads}\n"
            f"sys.exit(main({argv!r}))\n"
        )
        proc = run_python(code, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs[threads] = {p.name: p.read_bytes() for p in out.glob("*.csv")}
    assert "indicators.csv" in outputs["1"]
    assert outputs["1"] == outputs["2"]


class TestExample:
    def test_example_command(self, tmp_path):
        code = main(
            [
                "example",
                "--out",
                str(tmp_path),
                "--zones",
                "4",
                "--survey-size",
                "200",
            ]
        )
        assert code == 0
        assert (tmp_path / "config.yaml").exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--zones", "0"], "--zones must be at least 1, got 0"),
            (["--zones", "-3"], "--zones must be at least 1, got -3"),
            (
                ["--survey-size", "0"],
                "--survey-size must be from 1 to 284557, the persons of the "
                "example's truth population; got 0",
            ),
            (
                ["--zones", "1", "--survey-size", "9000"],
                "--survey-size must be from 1 to 6331, the persons of the "
                "example's truth population; got 9000",
            ),
            (
                ["--seed", "18446744073709551616"],
                "--seed must be from 0 to 18446744073709551615, "
                "got 18446744073709551616",
            ),
            (
                ["--seed", "-1"],
                "--seed must be from 0 to 18446744073709551615, got -1",
            ),
        ],
    )
    def test_example_rejects_bad_sizes(self, tmp_path, capsys, args, message):
        out = tmp_path / "example"
        assert main(["example", "--out", str(out), *args]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_example_input_digests(self, tmp_path):
        """Pins the bits of every file `example` writes, the survey's income
        text and the external table included."""
        generate_example(
            tmp_path, seed=701, n_zones=8, survey_size=400, mean_zone_pop=600
        )
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.iterdir()
        }
        assert digests == {
            "constraints.csv": (
                "ae3169ec0a1c625733db20f73c3909480e9033db41f73e98911c90cf2bed22ec"
            ),
            "survey.csv": (
                "ec442c8c0dd083fb845d3a80ba3bfc3345b25f6d44273a3dd5b7edbeb08d7589"
            ),
            "external_actual.csv": (
                "efd3111542c1e5342172700fd442d8a02fa24b4c047f65345e59d31daed5f0b9"
            ),
            "crosswalk.csv": (
                "1d362d37904e4247621aa11698ff803575e336116c2494400720379254dd1b0c"
            ),
            "config.yaml": (
                "633b5d46022f3e89e2f2c603687697ccbbab276b547cda4413471c6cef9c0e11"
            ),
        }

    def test_bundled_example_output_digests(self, tmp_path):
        """Pins the output bits of the bundled example: a change that alters
        them must update these digests and say why."""
        assert main(["example", "--out", str(tmp_path)]) == 0
        config = str(tmp_path / "config.yaml")
        assert main(["pipeline", "--config", config, "--dump-weights"]) == 0
        digests = {
            name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
            for name in ("population.csv", "indicators.csv", "weights.csv")
        }
        assert digests == {
            "population.csv": (
                "11735751371a582fb54311647bd6ed49cb5f5eab00d509195778e53456582d71"
            ),
            "indicators.csv": (
                "0be727de979e0893d24c58e33f11fead0ba06ea86a9a2efb556d445cea4c1bd6"
            ),
            "weights.csv": (
                "e1142b81f092e0f8fee7a21e1c42392f122b8c8b7a0389445a693dd42df2b7ab"
            ),
        }
