import csv
import math
import re
import tracemalloc
from itertools import permutations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smallarea import csvbytes, ingest
from smallarea.fixture import generate_example
from smallarea.ingest import (
    IngestError,
    load_config,
    load_constraints,
    load_crosswalks,
    load_external_actual,
    load_survey,
)
from smallarea.csvbytes import CHUNK_BYTES, TextColumn, id_finder, line_ends
from smallarea.schema import (
    Crosswalk,
    SchemaError,
    SurveyDataset,
    VariableDef,
    encode_categories,
)

from conftest import make_schema, make_table


def save_constraints(tables, path):
    """Inverse of load_constraints (full-precision counts, round-trip safe)."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["zone_id", "variable", "category", "count"])
        for t in tables:
            for zi, zone in enumerate(t.zones):
                for ci, cat in enumerate(t.categories):
                    writer.writerow(
                        [zone, t.variable, cat, repr(float(t.counts[zi, ci]))]
                    )


def reference_load_survey(path, schema):
    """The csv.reader loader that `load_survey` replaced: one Python string
    per field, incomes parsed row by row."""
    path = Path(path)
    variables = schema.constraint_vars + schema.external_vars
    mandatory = (
        ["record_id", schema.household_field]
        + [v.name for v in variables]
        + [schema.income_field]
        + list(schema.deprivation_fields)
    )
    rows, lines, incomes = [], [], []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None) or []
        missing = [c for c in mandatory if c not in header]
        if missing:
            raise IngestError(f"{path}: missing mandatory columns {missing}")
        income_col = header.index(schema.income_field)
        for row in reader:
            if not row:
                continue
            lineno = reader.line_num
            if len(row) != len(header):
                raise IngestError(
                    f"{path}: line {lineno}: expected {len(header)} fields, "
                    f"got {len(row)}"
                )
            raw = row[income_col].strip()
            if raw:
                try:
                    income = float(raw)
                except ValueError:
                    income = math.nan
                if not (math.isfinite(income) and income >= 0):
                    raise IngestError(f"{path}: line {lineno}: invalid income {raw!r}")
            else:
                income = math.nan
            incomes.append(income)
            rows.append(row)
            lines.append(lineno)

    columns = dict(zip(header, zip(*rows))) if rows else dict.fromkeys(header, ())
    fields = schema.deprivation_fields
    flags = np.asarray([columns[f] for f in fields], dtype=str)
    flags = np.char.strip(flags.reshape(len(fields), len(rows)))
    bad = np.argwhere(~np.isin(flags, ("0", "1")).T)
    if bad.size:
        i, f = bad[0]
        raise IngestError(
            f"{path}: line {lines[i]}: deprivation field {fields[f]!r} must be 0/1"
        )
    numeric = {}
    for name in header:
        if name not in mandatory:
            text = np.char.strip(np.asarray(columns[name], dtype=str))
            try:
                numeric[name] = np.where(text == "", "nan", text).astype(float)
            except ValueError:
                numeric[name] = None
    try:
        return SurveyDataset(
            schema,
            record_ids=columns["record_id"],
            household_ids=columns[schema.household_field],
            categories={v.name: columns[v.name] for v in variables},
            incomes=incomes,
            deprivations=(flags == "1").T,
            numeric=numeric,
        )
    except SchemaError as exc:
        if exc.row is None:
            raise
        raise IngestError(f"{path}: line {lines[exc.row]}: {exc}") from None

CONFIG_MINIMAL = """
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
"""

MPI_CONFIG = CONFIG_MINIMAL + "poverty:\n  mpi:\n    dimensions:\n"


@pytest.fixture
def schema():
    return make_schema(
        constraint_vars=(
            VariableDef("sex", ("M", "F")),
            VariableDef("marital", ("Married", "Widowed")),
        ),
        deprivation_fields=("lacks_tv",),
    )


class TestLoadConstraints:
    def test_direct_parse(self, tmp_path, schema):
        path = tmp_path / "c.csv"
        path.write_text(
            "zone_id,variable,category,count\n"
            "Z01,marital,Married,4300\n"
            "Z01,marital,Widowed,200\n"
            "Z01,sex,M,2250\nZ01,sex,F,2250\n"
        )
        tables = load_constraints(path, schema)
        marital = next(t for t in tables if t.variable == "marital")
        assert marital.counts[0, marital.categories.index("Married")] == 4300

    def test_missing_cell_fills_zero(self, tmp_path, schema):
        path = tmp_path / "c.csv"
        path.write_text(
            "zone_id,variable,category,count\n"
            "Z01,marital,Married,10\nZ01,sex,M,5\nZ01,sex,F,5\n"
        )
        tables = load_constraints(path, schema)
        marital = next(t for t in tables if t.variable == "marital")
        assert marital.counts[0, marital.categories.index("Widowed")] == 0

    def test_unknown_category_names_line(self, tmp_path, schema):
        path = tmp_path / "c.csv"
        path.write_text(
            "zone_id,variable,category,count\nZ01,marital,Marrried,10\n"
        )
        with pytest.raises(IngestError, match="'Marrried' at line 2"):
            load_constraints(path, schema)

    def test_negative_count_rejected(self, tmp_path, schema):
        path = tmp_path / "c.csv"
        path.write_text("zone_id,variable,category,count\nZ01,sex,M,-3\n")
        with pytest.raises(IngestError, match="line 2"):
            load_constraints(path, schema)

    def test_duplicate_cell_names_line(self, tmp_path, schema):
        path = tmp_path / "c.csv"
        path.write_text(
            "zone_id,variable,category,count\n"
            "Z01,sex,M,5\nZ01,sex,F,5\nZ01,sex,M,6\n"
        )
        with pytest.raises(
            IngestError, match=r"line 4: duplicate cell \(Z01, sex, M\)"
        ):
            load_constraints(path, schema)

    @pytest.mark.parametrize("zone", ['"Z,02"', '"Z""02"'])
    def test_zone_id_needing_quotes_names_line(self, tmp_path, schema, zone):
        path = tmp_path / "c.csv"
        path.write_text(
            f"zone_id,variable,category,count\nZ01,sex,M,5\n{zone},sex,M,6\n"
        )
        with pytest.raises(IngestError, match="line 3: zone id .* holds a comma"):
            load_constraints(path, schema)

    def test_zone_id_checked_once_per_zone(self, tmp_path, schema):
        path = tmp_path / "c.csv"
        rows = "".join(f"{z},sex,{c},5\n" for z in ("Z1", "Z2") for c in "MF")
        path.write_text("zone_id,variable,category,count\n" + rows)
        spy = mock.patch.object(ingest, "needs_quoting", wraps=ingest.needs_quoting)
        with spy as check:
            load_constraints(path, schema)
        assert [call.args for call in check.call_args_list] == [("Z1",), ("Z2",)]

    def test_field_past_csv_limit_names_line(self, tmp_path, schema):
        # csv.reader's own error, on a quoted table, names the file and line.
        zone = "Z" * (csv.field_size_limit() + 1)
        path = tmp_path / "c.csv"
        path.write_text(
            f'zone_id,variable,category,count\nZ01,sex,M,5\n"{zone}",sex,M,6\n'
        )
        with pytest.raises(IngestError, match=re.escape(f"{path}: line 3: field")):
            load_constraints(path, schema)

    @pytest.mark.parametrize("end", ["\n", "\r\n", ""])
    def test_header_only_table_rejected(self, tmp_path, schema, end):
        path = tmp_path / "c.csv"
        path.write_bytes(b"zone_id,variable,category,count" + end.encode())
        with pytest.raises(IngestError, match=f"^{re.escape(str(path))}: empty"):
            load_constraints(path, schema)

    def test_round_trip_bit_equal(self, tmp_path, schema):
        rng = np.random.default_rng(3)
        tables = [
            make_table("sex", ["Z1", "Z2"], ("M", "F"), rng.uniform(0, 9, (2, 2))),
            make_table(
                "marital",
                ["Z1", "Z2"],
                ("Married", "Widowed"),
                rng.uniform(0, 9, (2, 2)),
            ),
        ]
        path = tmp_path / "c.csv"
        save_constraints(tables, path)
        reloaded = load_constraints(path, schema)
        for orig, new in zip(tables, reloaded):
            assert orig.zones == new.zones
            np.testing.assert_array_equal(orig.counts, new.counts)


class TestLoadSurvey:
    def write(self, tmp_path, rows):
        path = tmp_path / "s.csv"
        header = "record_id,household_id,sex,marital,income,lacks_tv\n"
        path.write_text(header + "".join(rows))
        return path

    def test_parse_and_order(self, tmp_path, schema):
        path = self.write(
            tmp_path,
            ["r1,h1,M,Married,1000,0\n", "r2,h1,F,Widowed,2000,1\n"],
        )
        survey = load_survey(path, schema)
        assert survey.n == 2
        assert list(survey.record_ids) == ["r1", "r2"]
        assert tuple(survey.deprivations[1]) == (True,)

    @pytest.mark.parametrize("end", ["\r", "\r\n", "\n"])
    def test_every_line_end_counts_as_a_row(self, tmp_path, schema, end):
        # The columns are allocated for the file's line ends, so a CR that
        # no LF follows, which ends a row, must count as one, and a CRLF
        # once: the survey is the same, with no row more.
        rows = ["r1,h1,M,Married,1000,0", "r2,h1,F,Widowed,,1", "r3,h2,M,Married,5,0"]
        path = self.write(tmp_path, [])
        path.write_bytes(end.join([path.read_text().rstrip("\n"), *rows]).encode())
        survey = load_survey(path, schema)
        assert list(survey.record_ids) == ["r1", "r2", "r3"]
        assert survey.incomes.tobytes() == np.array([1000, math.nan, 5]).tobytes()
        assert survey.deprivations[:, 0].tolist() == [False, True, False]
        with path.open("rb") as fh:
            assert line_ends(fh, CHUNK_BYTES) == 3

    def test_missing_income_retained(self, tmp_path, schema):
        path = self.write(tmp_path, ["r1,h1,M,Married,,0\n"])
        survey = load_survey(path, schema)
        assert math.isnan(survey.incomes[0])

    def test_duplicate_record_id_names_second_line(self, tmp_path, schema):
        path = self.write(
            tmp_path,
            [
                "r1,h1,M,Married,1000,0\n",
                "r2,h2,F,Widowed,2000,1\n",
                "r1,h3,F,Married,3000,0\n",
            ],
        )
        with pytest.raises(IngestError, match="line 4: duplicate record id 'r1'"):
            load_survey(path, schema)

    @pytest.mark.parametrize("record_id", ['"r,2"', '"r""2"'])
    def test_record_id_needing_quotes_names_line(self, tmp_path, schema, record_id):
        path = self.write(
            tmp_path,
            ["r1,h1,M,Married,1000,0\n", f"{record_id},h2,F,Widowed,2000,1\n"],
        )
        with pytest.raises(IngestError, match="line 3: record id .* holds a comma"):
            load_survey(path, schema)

    def test_empty_record_id_names_line(self, tmp_path, schema):
        path = self.write(
            tmp_path, ["r1,h1,M,Married,1000,0\n", ",h2,F,Widowed,2000,1\n"]
        )
        with pytest.raises(IngestError, match="line 3: record id '' is empty"):
            load_survey(path, schema)

    def test_trailing_nul_kept(self, tmp_path, schema):
        # A numpy str array would drop it.
        path = self.write(tmp_path, ["r1\0,h1\0,M,Married,1000,0\n"])
        survey = load_survey(path, schema)
        assert tuple(survey.record_ids) == ("r1\0",)
        assert survey.household_ids == ("h1\0",)
        path = self.write(tmp_path, ["r1,h1,M,Married,1000\0,0\n"])
        message = re.escape("line 2: invalid income '1000\\x00'")
        with pytest.raises(IngestError, match=message):
            load_survey(path, schema)

    def test_nul_padded_category_rejected(self, tmp_path, schema):
        # Labels match categories byte for byte: "M\0" is not "M", although a
        # numpy str array would read it as "M".
        path = self.write(
            tmp_path, ["r1,h1,M,Married,1000,0\n", 'r2,h2,"M\0",Married,1000,0\n']
        )
        message = re.escape(
            f"{path}: line 3: record 'r2': invalid category 'M\\x00' for variable 'sex'"
        )
        with pytest.raises(IngestError, match=message):
            load_survey(path, schema)
        with pytest.raises(SchemaError, match="invalid category 'M\\\\x00'") as info:
            SurveyDataset(
                schema,
                record_ids=["r1", "r2"],
                household_ids=["h1", "h2"],
                categories={"sex": ["M", "M\0"], "marital": ["Married"] * 2},
            )
        assert info.value.row == 1

    def test_nul_padded_flag_names_line(self, tmp_path, schema):
        # Flags and numeric columns are read from the field's bytes, so "1\0"
        # is neither 1 nor a number.
        path = self.write(
            tmp_path, ["r1,h1,M,Married,1000,1\n", "r2,h2,F,Widowed,2000,1\0\n"]
        )
        message = f"{path}: line 3: deprivation field 'lacks_tv' must be 0/1"
        with pytest.raises(IngestError, match=re.escape(message)):
            load_survey(path, schema)
        path.write_text(
            "record_id,household_id,sex,marital,income,lacks_tv,n_adults\n"
            "r1,h1,M,Married,1000,0,2\nr2,h2,F,Widowed,2000, 1 ,2\0\n"
        )
        survey = load_survey(path, schema)
        assert survey.deprivations.tolist() == [[False], [True]]
        assert survey.numeric["n_adults"] is None

    def test_record_ids_compared_exactly(self, tmp_path, schema):
        # "r1" and "r1\0" are two ids, as population.csv reads and writes them.
        path = self.write(
            tmp_path, ["r1,h1,M,Married,1000,0\n", "r1\0,h2,F,Widowed,2000,1\n"]
        )
        assert tuple(load_survey(path, schema).record_ids) == ("r1", "r1\0")
        survey = SurveyDataset(
            schema,
            record_ids=["r1", "r1\0"],
            household_ids=["h1", "h2"],
            categories={"sex": ["M", "F"], "marital": ["Married", "Widowed"]},
            deprivations=[[False], [True]],
        )
        assert survey.n == 2

    @pytest.mark.parametrize(
        "body",
        [
            b"r1,h1,M,Married,1000,0\nr2\xff,h2,F,Widowed,2000,1\n",  # byte scanner
            b'r1,h1,M,Married,1000,0\n"r2\xff",h2,F,Widowed,2000,1\n',  # csv module
            b"r1,h1,M,Married\xff,1000,0\r\n",
        ],
    )
    def test_bytes_not_utf8_rejected(self, tmp_path, schema, body):
        # Named by the line of the file that holds them: 3, 3 and 2.
        line = 2 + body[: body.index(b"\xff")].count(b"\n")
        path = tmp_path / "s.csv"
        path.write_bytes(b"record_id,household_id,sex,marital,income,lacks_tv\n" + body)
        message = re.escape(f"{path}: line {line}: bytes that are not UTF-8")
        with pytest.raises(IngestError, match=message):
            load_survey(path, schema)

    def test_zone_id_checked_once_per_zone(self, tmp_path, schema):
        path = tmp_path / "c.csv"
        rows = "".join(f"{z},sex,{c},5\n" for z in ("Z1", "Z2") for c in "MF")
        path.write_text("zone_id,variable,category,count\n" + rows)
        spy = mock.patch.object(ingest, "needs_quoting", wraps=ingest.needs_quoting)
        with spy as check:
            load_constraints(path, schema)
        assert [call.args for call in check.call_args_list] == [("Z1",), ("Z2",)]

    def test_field_past_csv_limit_names_line(self, tmp_path, schema):
        # csv.reader's own error, on a quoted survey, names the file and line.
        long_id = "r" * (csv.field_size_limit() + 1)
        path = self.write(
            tmp_path,
            ["r1,h1,M,Married,1000,0\n", f'"{long_id}",h2,F,Widowed,2000,1\n'],
        )
        with pytest.raises(IngestError, match=re.escape(f"{path}: line 3: field")):
            load_survey(path, schema)

    def test_short_row_names_line(self, tmp_path, schema):
        path = self.write(tmp_path, ["r1,h1,M,Married,1000,0\n", "r2,h2,F,1\n"])
        with pytest.raises(IngestError, match="line 3: expected 6 fields, got 4"):
            load_survey(path, schema)

    def test_unknown_external_category_names_line(self, tmp_path):
        schema = make_schema(
            constraint_vars=(VariableDef("sex", ("M", "F")),),
            external_vars=(VariableDef("nace", ("C", "G")),),
        )
        path = tmp_path / "s.csv"
        path.write_text(
            "record_id,household_id,sex,nace,income\nr1,h1,M,C,10\nr2,h2,F,Q,20\n"
        )
        with pytest.raises(IngestError, match="line 3: .*'Q' for variable 'nace'"):
            load_survey(path, schema)

    def test_bad_deprivation_value(self, tmp_path, schema):
        path = self.write(tmp_path, ["r1,h1,M,Married,1000,2\n"])
        with pytest.raises(IngestError, match="must be 0/1"):
            load_survey(path, schema)

    def test_unknown_category(self, tmp_path, schema):
        path = self.write(tmp_path, ["r1,h1,X,Married,1000,0\n"])
        with pytest.raises(IngestError, match="'X'"):
            load_survey(path, schema)

    def test_missing_column(self, tmp_path, schema):
        path = tmp_path / "s.csv"
        path.write_text("record_id,household_id,sex,income,lacks_tv\n")
        with pytest.raises(IngestError, match="marital"):
            load_survey(path, schema)

    def test_extra_columns_become_extras(self, tmp_path, schema):
        path = tmp_path / "s.csv"
        path.write_text(
            "record_id,household_id,sex,marital,income,lacks_tv,n_adults\n"
            "r1,h1,M,Married,1000,0,2\n"
        )
        survey = load_survey(path, schema)
        assert survey.column("n_adults")[0] == 2.0


class TestLoadExternalActual:
    def write(self, tmp_path, body):
        path = tmp_path / "actual.csv"
        path.write_text("zone_id,variable,category,count\n" + body)
        return path

    def test_first_appearance_order(self, tmp_path):
        path = self.write(
            tmp_path, "Z2,nace,G,1\nZ1,nace,C,2\nZ2,nace,C,3\nZ1,nace,G,4\n"
        )
        table = load_external_actual(path)
        assert table.variable == "nace"
        assert (table.zones, table.categories) == (("Z2", "Z1"), ("G", "C"))
        np.testing.assert_array_equal(table.counts, [[1, 3], [4, 2]])

    def test_short_row_names_line(self, tmp_path):
        path = self.write(tmp_path, "Z1,nace,C,2\nZ1,nace,G\n")
        with pytest.raises(IngestError, match="line 3: expected 4 fields"):
            load_external_actual(path)

    def test_duplicate_cell_names_line(self, tmp_path):
        path = self.write(tmp_path, "Z1,nace,C,2\nZ1,nace,G,1\nZ1,nace,C,3\n")
        with pytest.raises(IngestError, match="line 4: duplicate cell"):
            load_external_actual(path)

    def test_invalid_count_names_line(self, tmp_path):
        path = self.write(tmp_path, "Z1,nace,C,2\nZ1,nace,G,-1\n")
        with pytest.raises(IngestError, match="line 3: invalid count '-1'"):
            load_external_actual(path)

    def test_mixed_variables_rejected(self, tmp_path):
        path = self.write(tmp_path, "Z1,nace,C,2\nZ1,isco,G,1\n")
        with pytest.raises(IngestError, match="line 3: mixed variables"):
            load_external_actual(path)


class TestLoadConfig:
    def test_defaults(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(CONFIG_MINIMAL)
        cfg = load_config(path)
        assert cfg.arop_fraction == 0.6
        assert cfg.md_threshold == 3
        assert cfg.max_iterations == 100
        assert cfg.tolerance == 1e-6
        assert cfg.constraints_path == tmp_path / "constraints.csv"

    def test_typed_scalars(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            CONFIG_MINIMAL
            + "seed: 7\nequivalize: true\nipf:\n  max_iterations: 5\n"
            + "  tolerance: 1\npoverty:\n  md_threshold: 2\n"
            + "  arop_fraction: 0.5\n  mpi:\n    cutoff: 1\n    dimensions:\n"
            + "      - name: a\n        weight: 1\n"
            + "        indicators: [{field: income, below: 8000}]\n"
        )
        cfg = load_config(path)
        assert (cfg.seed, cfg.equivalize) == (7, True)
        assert (cfg.max_iterations, cfg.md_threshold) == (5, 2)
        # A YAML integer is a number too, read as a float.
        assert (cfg.tolerance, cfg.arop_fraction, cfg.mpi_spec.cutoff) == (1, 0.5, 1)
        assert type(cfg.tolerance) is type(cfg.mpi_spec.cutoff) is float
        (dimension,) = cfg.mpi_spec.dimensions
        assert (dimension.weight, dimension.indicators[0].threshold) == (1, 8000)

    def test_invalid_tolerance(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(CONFIG_MINIMAL + "ipf:\n  tolerance: -1\n")
        with pytest.raises(IngestError, match="tolerance"):
            load_config(path)

    def test_unknown_key_warns_only(self, tmp_path, caplog):
        path = tmp_path / "cfg.yaml"
        path.write_text(CONFIG_MINIMAL + "frobnicate: 1\n")
        with caplog.at_level("WARNING"):
            load_config(path)
        assert "frobnicate" in caplog.text

    def test_mpi_weights_must_sum_to_one(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            CONFIG_MINIMAL
            + "poverty:\n  mpi:\n    dimensions:\n"
            "      - {name: a, weight: 0.5, indicators: [{field: income, below: 1}]}\n"
            "      - {name: b, weight: 0.2, indicators: [{field: income, below: 2}]}\n"
        )
        with pytest.raises(IngestError, match="sum"):
            load_config(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param(
                MPI_CONFIG
                + "      - {weight: 1, indicators: [{field: income, below: 1}]}\n",
                "poverty.mpi.dimensions[0] has no 'name'",
                id="dimension_name",
            ),
            pytest.param(
                MPI_CONFIG
                + "      - {name: a, weight: 1, indicators: [{below: 1}]}\n",
                "poverty.mpi.dimensions[0].indicators[0] has no 'field'",
                id="indicator_field",
            ),
            pytest.param(
                CONFIG_MINIMAL + "poverty:\n  mpi:\n    dimensions: oops\n",
                "poverty.mpi.dimensions must be a list",
                id="dimensions_oops",
            ),
            pytest.param(
                CONFIG_MINIMAL + "seed: [1\n",
                "while parsing a flow sequence",
                id="bad_yaml",
            ),
            pytest.param(
                CONFIG_MINIMAL.replace(
                    "    - name: sex\n      categories: [M, F]\n", "    - {name: a}\n"
                ),
                "schema.constraint_variables[0] has no 'categories'",
                id="variable_categories",
            ),
            pytest.param(
                # A string of categories would be split into its characters.
                CONFIG_MINIMAL.replace("[Y, O]", "YO"),
                "schema.constraint_variables[1].categories must be a list",
                id="categories_string",
            ),
            pytest.param(
                CONFIG_MINIMAL.replace(
                    "  income_field: income\n",
                    "  income_field: income\n  deprivation_fields: lacks_tv\n",
                ),
                "schema.deprivation_fields must be a list",
                id="deprivation_fields_string",
            ),
            pytest.param(
                MPI_CONFIG
                + "      - {name: a, weight: 1, indicators: [{field: sex, in: M}]}\n",
                "poverty.mpi.dimensions[0].indicators[0].in must be a list",
                id="indicator_in_string",
            ),
            pytest.param(
                CONFIG_MINIMAL + "poverty: 0.6\n",
                "poverty must be a mapping",
                id="poverty_scalar",
            ),
            pytest.param(
                CONFIG_MINIMAL + "poverty:\n  mpi: oops\n",
                "poverty.mpi must be a mapping",
                id="mpi_scalar",
            ),
            pytest.param(
                "- schema\n", "configuration must be a mapping", id="not_a_mapping"
            ),
            pytest.param(
                CONFIG_MINIMAL.replace("  survey: survey.csv\n", ""),
                "paths has no 'survey'",
                id="path_missing",
            ),
            # Scalars are not coerced: bool("false") is True and int(7.9) is 7.
            pytest.param(
                CONFIG_MINIMAL + "equivalize: 'false'\n",
                "equivalize must be a boolean",
                id="equivalize_string",
            ),
            pytest.param(
                CONFIG_MINIMAL + "seed: 7.9\n",
                "seed must be an integer",
                id="seed_float",
            ),
            pytest.param(
                CONFIG_MINIMAL + "seed: true\n",
                "seed must be an integer",
                id="seed_boolean",
            ),
            pytest.param(
                CONFIG_MINIMAL + "seed: abc\n",
                "seed must be an integer",
                id="seed_string",
            ),
            pytest.param(
                CONFIG_MINIMAL + "ipf:\n  max_iterations: 2.5\n",
                "ipf.max_iterations must be an integer",
                id="max_iterations_float",
            ),
            pytest.param(
                CONFIG_MINIMAL + "poverty:\n  md_threshold: 2.9\n",
                "poverty.md_threshold must be an integer",
                id="md_threshold_float",
            ),
            pytest.param(
                MPI_CONFIG
                + "      - {name: a, indicators: [{field: [lacks_tv], below: 1}]}\n",
                "poverty.mpi.dimensions[0].indicators[0].field must be a string",
                id="indicator_field_list",
            ),
            # Numbers are not coerced either: float(True) is 1.0 and
            # float("0.6") is 0.6.
            pytest.param(
                CONFIG_MINIMAL + "ipf:\n  tolerance: true\n",
                "ipf.tolerance must be a number",
                id="tolerance_boolean",
            ),
            pytest.param(
                CONFIG_MINIMAL + "poverty:\n  arop_fraction: '0.6'\n",
                "poverty.arop_fraction must be a number",
                id="arop_fraction_string",
            ),
            pytest.param(
                CONFIG_MINIMAL
                + "poverty:\n  mpi:\n    cutoff: '0.3'\n    dimensions:\n"
                + "      - {name: a, indicators: [{field: income, below: 1}]}\n",
                "poverty.mpi.cutoff must be a number",
                id="cutoff_string",
            ),
            pytest.param(
                MPI_CONFIG
                + "      - name: a\n        weight: '1'\n"
                + "        indicators: [{field: income, below: 1}]\n",
                "poverty.mpi.dimensions[0].weight must be a number",
                id="dimension_weight_string",
            ),
            pytest.param(
                MPI_CONFIG
                + "      - name: a\n"
                + "        indicators: [{field: income, below: 1, weight: true}]\n",
                "poverty.mpi.dimensions[0].indicators[0].weight must be a number",
                id="indicator_weight_boolean",
            ),
            pytest.param(
                MPI_CONFIG
                + "      - {name: a, indicators: [{field: income, below: '8000'}]}\n",
                "poverty.mpi.dimensions[0].indicators[0].below must be a number",
                id="below_string",
            ),
            pytest.param(
                MPI_CONFIG
                + "      - {name: [a], indicators: [{field: income, below: 1}]}\n",
                "poverty.mpi.dimensions[0].name must be a string",
                id="dimension_name_list",
            ),
        ],
    )
    def test_config_fault_names_file(self, tmp_path, text, message):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        with pytest.raises(IngestError) as info:
            load_config(path)
        assert str(info.value).startswith(f"{path}: {message}")

    def test_yaml_syntax_error_names_file_line_and_column(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("schema: [1")
        with pytest.raises(IngestError) as info:
            load_config(path)
        assert f'in "{path}", line 1, column 9' in str(info.value)

    def test_config_bytes_not_utf8_name_file_and_line(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_bytes(CONFIG_MINIMAL.encode() + b"seed: 1\xff\n")
        line = CONFIG_MINIMAL.count("\n") + 1
        message = re.escape(f"{path}: line {line}: bytes that are not UTF-8")
        with pytest.raises(IngestError, match=message):
            load_config(path)

    @pytest.mark.parametrize(
        "old, new, key",
        [
            pytest.param(
                "- name: sex",
                "- name: [sex]",
                "schema.constraint_variables[0].name",
                id="name_list",
            ),
            pytest.param(
                "[Y, O]",
                "[Y, [O]]",
                "schema.constraint_variables[1].categories[1]",
                id="category_list",
            ),
            pytest.param(
                "[M, F]",
                "[M, 2]",
                "schema.constraint_variables[0].categories[1]",
                id="category_number",
            ),
            pytest.param(
                "income_field: income",
                "income_field: {a: 1}",
                "schema.income_field",
                id="income_field_mapping",
            ),
            pytest.param(
                "income_field: income",
                "income_field: income\n  household_field: 7",
                "schema.household_field",
                id="household_field_number",
            ),
            pytest.param(
                "income_field: income",
                "income_field: income\n  deprivation_fields: [tv, [car]]",
                "schema.deprivation_fields[1]",
                id="deprivation_field_list",
            ),
            pytest.param(
                "income_field: income",
                "income_field: income\n  external_variables:\n"
                "    - {name: 1, categories: [a, b]}",
                "schema.external_variables[0].name",
                id="external_name_number",
            ),
        ],
    )
    def test_schema_scalar_must_be_a_string(self, tmp_path, old, new, key):
        # A list where a name belongs once failed as "unhashable type: 'list'".
        path = tmp_path / "cfg.yaml"
        assert CONFIG_MINIMAL.count(old) == 1
        path.write_text(CONFIG_MINIMAL.replace(old, new))
        with pytest.raises(IngestError) as info:
            load_config(path)
        assert str(info.value) == f"{path}: {key} must be a string"


class TestLoadCrosswalks:
    def test_grouping(self, tmp_path):
        path = tmp_path / "cw.csv"
        path.write_text(
            "variable,fine_category,group_category\n"
            "nace,C,C+D+E\nnace,D,C+D+E\nnace,E,C+D+E\nnace,G,G\n"
        )
        cw = load_crosswalks(path)["nace"]
        assert cw.group("D") == "C+D+E"
        assert cw.groups() == ("C+D+E", "G")

    def test_conflicting_mapping(self, tmp_path):
        path = tmp_path / "cw.csv"
        path.write_text(
            "variable,fine_category,group_category\nnace,C,X\nnace,C,Y\n"
        )
        with pytest.raises(IngestError, match="mapped to both"):
            load_crosswalks(path)

    def test_wrong_header_names_file(self, tmp_path):
        path = tmp_path / "cw.csv"
        path.write_text("variable,fine,group\nnace,C,C\n")
        with pytest.raises(IngestError) as info:
            load_crosswalks(path)
        assert str(info.value).startswith(
            f"{path}: expected header 'variable,fine_category,group_category'"
        )

    def test_wrong_width_names_file_and_line(self, tmp_path):
        # The short row is the third data row, after a blank line.
        path = tmp_path / "cw.csv"
        path.write_text(
            "variable,fine_category,group_category\n"
            "nace,C,C\nnace,D,C\n\nnace,G\n"
        )
        with pytest.raises(IngestError) as info:
            load_crosswalks(path)
        assert str(info.value) == f"{path}: line 5: expected 3 fields, got 2"

    def test_line_numbers_count_quoted_line_breaks(self, tmp_path):
        # Line 2's quoted category spans two lines, so the conflict is on
        # line 5, in the third data row.
        path = tmp_path / "cw.csv"
        path.write_text(
            "variable,fine_category,group_category\n"
            'nace,"C\nD",CD\nnace,G,G\nnace,G,H\n'
        )
        with pytest.raises(IngestError, match="line 5: 'G' mapped to both"):
            load_crosswalks(path)

    # The readers' default blocks, and the population reader's larger ones.
    @pytest.mark.parametrize(
        "block_lines", [1, 2, ingest.BLOCK_LINES, csvbytes.BLOCK_LINES]
    )
    @pytest.mark.parametrize(
        "end",
        [
            pytest.param("\rnace,G,G\n", id="bare_cr_in_last_block"),
            pytest.param("\nnace,G,G\r", id="lone_cr_at_end"),
        ],
    )
    def test_bare_cr_ends_a_row(self, tmp_path, monkeypatch, block_lines, end):
        # The csv module reads a CR that no LF follows as a line end, and
        # the block that holds it goes to csv.reader: the CR ends a row and
        # is counted in line numbers. With blocks of 2 lines, line 3 that
        # holds the first CR starts a later block.
        head = "variable,fine_category,group_category\nnace,C,C+D\nnace,D,C+D"
        path = tmp_path / "cw.csv"
        path.write_bytes((head + end).encode())
        monkeypatch.setattr(ingest, "BLOCK_LINES", block_lines)
        mapping = {"C": "C+D", "D": "C+D", "G": "G"}
        assert load_crosswalks(path) == {"nace": Crosswalk("nace", mapping)}
        path.write_bytes((head + end.replace("G,G", "G")).encode())
        with pytest.raises(IngestError) as info:
            load_crosswalks(path)
        assert str(info.value) == f"{path}: line 4: expected 3 fields, got 2"

    def test_crlf_file_stays_on_the_byte_path(self, tmp_path):
        path = tmp_path / "cw.csv"
        path.write_bytes(
            b"variable,fine_category,group_category\r\nnace,C,C+D\r\nnace,G,G\r\n"
        )
        with mock.patch.object(ingest.csv, "reader", side_effect=AssertionError):
            crosswalks = load_crosswalks(path)
        mapping = {"C": "C+D", "G": "G"}
        assert crosswalks == {"nace": Crosswalk("nace", mapping)}


def _table(t):
    return t.variable, t.zones, t.categories, t.counts.tolist()


# Each long-format input: its header, data rows and loader, the loaded
# tables made comparable.
LONG_TABLES = {
    "constraints": (
        "zone_id,variable,category,count",
        [
            "Z1,sex,M,5", "Z1,sex,F,6", "Z1,marital,Married,7",
            "Z1,marital,Widowed,4", "Z2,sex,M,1.5", "Z2,sex,F,0",
            "Z2,marital,Married,1", "Z2,marital,Widowed,0.5",
        ],
        lambda path, schema: [_table(t) for t in load_constraints(path, schema)],
    ),
    "external": (
        "zone_id,variable,category,count",
        [
            "Z2,nace,G,1", "Z1,nace,C,2", "Z2,nace,C,3", "Z1,nace,G,4",
            "Z3,nace,C,0", "Z3,nace,G,2.5", "Z4,nace,Q,1", "Z4,nace,C,8",
        ],
        lambda path, schema: _table(load_external_actual(path)),
    ),
    "crosswalk": (
        "variable,fine_category,group_category",
        [
            "nace,C,C+D+E", "nace,D,C+D+E", "nace,E,C+D+E", "nace,G,G",
            "isco,1,1-3", "isco,2,1-3", "isco,3,1-3", "isco,9,9",
        ],
        lambda path, schema: load_crosswalks(path),
    ),
}


# The readers' default blocks, and the population reader's larger ones.
@pytest.mark.parametrize(
    "block_lines", [1, 2, 3, ingest.BLOCK_LINES, csvbytes.BLOCK_LINES]
)
@pytest.mark.parametrize("kind", sorted(LONG_TABLES))
def test_long_table_read_by_block_reader(tmp_path, schema, kind, block_lines):
    # Quoted fields, CRLF ends and blank lines read as the plain file does,
    # whether the quotes start on the header or on the last row, and bytes
    # that are not UTF-8 on a later line are named by their file and line.
    header, rows, load = LONG_TABLES[kind]

    def quoted(line):  # a blank line stays blank
        return ",".join(f'"{f}"' for f in line.split(",")) if line else ""

    files = {
        "plain": "\n".join([header, *rows, ""]),
        "quote_all": "\r\n".join(
            map(quoted, [header, *rows[:3], "", *rows[3:5], "", "", *rows[5:]])
        ),
        "quote_last": "\r\n".join([header, *rows[:-1], "", quoted(rows[-1]), ""]),
    }
    for name, text in files.items():
        (tmp_path / name).write_bytes(text.encode())
    bad = tmp_path / "bad"
    bad.write_bytes(files["plain"].replace(rows[4], rows[4] + "\xff").encode("latin1"))
    with mock.patch.object(ingest, "BLOCK_LINES", block_lines):
        expected = load(tmp_path / "plain", schema)
        for name in ("quote_all", "quote_last"):
            assert load(tmp_path / name, schema) == expected, name
        message = re.escape(f"{bad}: line 6: bytes that are not UTF-8")
        with pytest.raises(IngestError, match=message):
            load(bad, schema)


def test_strings_of_a_long_field_gather_no_padded_copy():
    # One field of 50000 bytes among 400 short ones: padding every field to
    # its width would take 20 MB, and 80 MB as a str array.
    data = b",".join([b"Z" * 50000] + [b"r%d" % i for i in range(400)])
    ends = np.cumsum([len(f) + 1 for f in data.split(b",")]) - 1
    starts = np.concatenate(([0], ends[:-1] + 1))
    tracemalloc.start()
    try:
        got = ingest._strings(data, starts, ends)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == data.decode().split(",")
    assert peak < 2**20, peak


@pytest.mark.parametrize("kind", ["constraints", "external"])
@pytest.mark.parametrize(
    "zone, message",
    [
        ("", "zone id '' is empty"),
        ('""', "zone id '' is empty"),
        ('"Z,9"', "zone id 'Z,9' holds a comma, quote or line break"),
        ('"Z""9"', "zone id 'Z\"9' holds a comma, quote or line break"),
    ],
)
def test_long_table_refuses_zone_id(tmp_path, schema, kind, zone, message):
    # Line 5 holds the zone's first row.
    header, rows, load = LONG_TABLES[kind]
    line = zone + rows[3][rows[3].index(",") :]
    path = tmp_path / "table.csv"
    path.write_text("\n".join([header, *rows[:3], line, *rows[4:], ""]))
    with pytest.raises(IngestError) as info:
        load(path, schema)
    assert str(info.value) == f"{path}: line 5: {message}"


# Per long table: a valid first row, then rows that each hold one fault and
# the message naming it on line {}.
LONG_FAULTS = {
    "constraints": (
        "Z1,sex,M,5",
        {
            "variable": ("Z1,height,M,3", "unknown variable 'height' at line {}"),
            "category": ("Z1,sex,X,3", "unknown category 'X' at line {}"),
            "count": ("Z1,sex,F,-2", "line {}: invalid count '-2'"),
            "empty_zone": (",sex,M,1", "line {}: zone id '' is empty"),
            "quoted_zone": (
                '"Z,9",sex,M,1',
                "line {}: zone id 'Z,9' holds a comma, quote or line break",
            ),
            "duplicate": ("Z1,sex,M,6", "line {}: duplicate cell (Z1, sex, M)"),
        },
    ),
    "external": (
        "Z1,nace,C,5",
        {
            "variable": ("Z1,isco,C,1", "line {}: mixed variables 'nace'/'isco'"),
            "count": ("Z1,nace,G,-2", "line {}: invalid count '-2'"),
            "empty_zone": (",nace,G,1", "line {}: zone id '' is empty"),
            "quoted_zone": (
                '"Z,9",nace,G,1',
                "line {}: zone id 'Z,9' holds a comma, quote or line break",
            ),
            "duplicate": ("Z1,nace,C,6", "line {}: duplicate cell (Z1, nace, C)"),
        },
    ),
}


@pytest.mark.parametrize(
    "kind, first, second",
    [
        (kind, first, second)
        for kind, (_, faults) in LONG_FAULTS.items()
        for first, second in permutations(faults, 2)
    ],
)
def test_long_table_names_first_faulty_line(tmp_path, schema, kind, first, second):
    # Whatever the kinds of two faults, the earlier line is named.
    header, _, load = LONG_TABLES[kind]
    valid, faults = LONG_FAULTS[kind]
    path = tmp_path / "table.csv"
    path.write_text(f"{header}\n{valid}\n{faults[first][0]}\n{faults[second][0]}\n")
    with pytest.raises(IngestError) as info:
        load(path, schema)
    assert str(info.value) == f"{path}: " + faults[first][1].format(3)


@pytest.mark.parametrize(
    "kind, row, message",
    [
        ("constraints", ",height,X,-2", "line 3: invalid count '-2'"),
        ("constraints", ",height,X,1", "unknown variable 'height' at line 3"),
        ("constraints", ",sex,X,1", "unknown category 'X' at line 3"),
        ("external", ",isco,C,-2", "line 3: invalid count '-2'"),
        ("external", ",isco,C,1", "line 3: mixed variables 'nace'/'isco'"),
    ],
)
def test_long_table_checks_a_row_in_order(tmp_path, schema, kind, row, message):
    # A row's count is checked first, then its variable and category, then
    # its zone id.
    header, _, load = LONG_TABLES[kind]
    valid, _ = LONG_FAULTS[kind]
    path = tmp_path / "table.csv"
    path.write_text(f"{header}\n{valid}\n{row}\n")
    with pytest.raises(IngestError) as info:
        load(path, schema)
    assert str(info.value) == f"{path}: {message}"


@settings(max_examples=300, deadline=None)
@given(
    fields=st.lists(
        st.one_of(
            st.text(st.characters(max_codepoint=127, blacklist_characters="\0")),
            st.text(),  # not ASCII, or holding a NUL
            st.text("Zé", min_size=3000, max_size=3000),  # long
        ),
        max_size=8,
    )
)
def test_strings_decode_each_field(fields):
    data, starts, ends = b"", [], []
    for field in fields:
        starts.append(len(data))
        data += field.encode()
        ends.append(len(data))
        data += b","
    got = ingest._strings(data, np.array(starts, np.intp), np.array(ends, np.intp))
    assert got == [data[a:b].decode() for a, b in zip(starts, ends)]


# --------------------------------------------------------------------------
# The byte reader against the csv.reader loader
# --------------------------------------------------------------------------

# Record and household ids as ingest admits them; some need more than 8 bytes.
survey_ids = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n'),
    min_size=1,
    max_size=12,
)
# Category labels may need quoting: a comma, a quote or a line break.
survey_labels = st.text(
    st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6
)
padding = st.sampled_from(["", " ", "\t", "  ", "\xa0"])
numbers = st.one_of(
    st.integers(0, 10**6).map(str),
    st.floats(0, 1e9, allow_nan=False).map(repr),
    st.sampled_from(["1e3", "0.5", "7."]),
)
FAULTS = [
    None, "width", "income", "flag", "category", "duplicate", "empty_id",
    "household", "quoting",
]


@st.composite
def survey_files(draw, later=False):
    """(schema, file bytes, each row's labels per variable) of a survey file,
    with up to one injected fault. With `later`, the first row that quotes
    every field, and the first row at which each further column stops being
    numeric, may be any row."""
    n_vars = draw(st.integers(1, 3))
    categories = st.lists(survey_labels, min_size=2, max_size=4, unique=True)
    variables = tuple(
        VariableDef(f"v{k}", tuple(draw(categories))) for k in range(n_vars)
    )
    n_flags, n_extra = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    schema = make_schema(
        constraint_vars=variables[:1],
        external_vars=variables[1:],
        deprivation_fields=tuple(f"d{k}" for k in range(n_flags)),
    )
    header = (
        ["record_id", "household_id", "income"]
        + [v.name for v in variables]
        + list(schema.deprivation_fields)
        + [f"x{k}" for k in range(n_extra)]
    )
    header = draw(st.permutations(header))
    n = draw(st.integers(0, 6))
    ids = draw(st.lists(survey_ids, min_size=n, max_size=n, unique=True))
    stops = [draw(st.integers(0, n)) for _ in range(n_extra)] if later else None
    rows, labels = [], []
    for i, rid in enumerate(ids):
        cats = {v.name: draw(st.sampled_from(v.categories)) for v in variables}
        row = {"record_id": rid, "household_id": draw(survey_ids), **cats}
        row["income"] = draw(padding) + draw(st.just("") | numbers) + draw(padding)
        for f in schema.deprivation_fields:
            row[f] = draw(padding) + draw(st.sampled_from("01")) + draw(padding)
        for k in range(n_extra):
            if later and i <= stops[k]:
                text = draw(st.just("") | numbers) if i < stops[k] else "abc"
            else:
                text = draw(st.sampled_from(["", " ", "abc"]) | numbers)
            row[f"x{k}"] = text
        rows.append(row)
        labels.append(cats)

    fault = draw(st.sampled_from(FAULTS))
    if fault and rows:
        i = draw(st.integers(0, n - 1))
        row = rows[i]
        if fault == "width":
            del row[draw(st.sampled_from(header))]
        elif fault == "income":
            row["income"] = draw(st.sampled_from(["-1", "abc", "inf", "nan", "1,5"]))
        elif fault == "flag":
            assume(schema.deprivation_fields)
            row[draw(st.sampled_from(schema.deprivation_fields))] = draw(
                st.sampled_from(["2", "", "yes", "0 1"])
            )
        elif fault == "category":
            var = draw(st.sampled_from(variables))
            unknown = survey_labels.filter(lambda c: c not in var.categories)
            row[var.name] = draw(unknown)
        elif fault == "duplicate":
            assume(n > 1)
            row["record_id"] = rows[(i + 1) % n]["record_id"]
        elif fault == "empty_id":
            row["record_id"] = ""
        elif fault == "household":
            row["household_id"] = ""
        else:
            row["record_id"] = draw(st.sampled_from(["r,1", 'r"1', "r\n1"]))

    quote_all = draw(st.booleans())
    quote_from = draw(st.integers(0, n)) if later else n

    def cell(text, quoted=quote_all):
        if quoted or any(c in text for c in ',"\r\n'):
            return '"' + text.replace('"', '""') + '"'
        return text

    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(map(cell, header))]
    for i, row in enumerate(rows):
        lines += [""] * draw(st.integers(0, 2))  # blank lines
        quoted = quote_all or i >= quote_from
        lines.append(",".join(cell(row[c], quoted) for c in header if c in row))
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    return schema, text.encode("utf-8"), labels


@settings(max_examples=400, deadline=None)
@given(
    case=survey_files(),
    block_lines=st.sampled_from([1, 2, 3, ingest.BLOCK_LINES]),
)
def test_load_survey_matches_csv_loader(tmp_path_factory, case, block_lines):
    # With blocks of a few lines, blank lines, CRLF ends and a last line
    # without its end fall at block edges, and from a block that holds a
    # quote on, the rest of the file goes to csv.reader.
    schema, data, labels = case
    path = tmp_path_factory.mktemp("survey") / "survey.csv"
    path.write_bytes(data)

    def outcome(load):
        try:
            return load(path, schema)
        except IngestError as exc:
            return str(exc)

    expected = outcome(reference_load_survey)
    with mock.patch.object(ingest, "BLOCK_LINES", block_lines):
        got = outcome(load_survey)
    if isinstance(expected, str):
        assert got == expected
        return
    assert got.record_ids == expected.record_ids
    assert got.household_ids == expected.household_ids
    assert all(type(i) is str for i in tuple(got.record_ids) + got.household_ids)
    for var in schema.constraint_vars + schema.external_vars:
        codes = got.category_codes(var.name)
        np.testing.assert_array_equal(codes, expected.category_codes(var.name))
        # The lookup gives each label's index among the categories.
        index = [var.categories.index(c[var.name]) for c in labels]
        np.testing.assert_array_equal(codes, np.array(index, dtype=np.intp))
    np.testing.assert_array_equal(got.incomes, expected.incomes)
    np.testing.assert_array_equal(got.deprivations, expected.deprivations)
    assert got.numeric.keys() == expected.numeric.keys()
    for name, column in expected.numeric.items():
        if column is None:
            assert got.numeric[name] is None
        else:
            np.testing.assert_array_equal(got.numeric[name], column)


# --------------------------------------------------------------------------
# The survey columns allocated once against the append-and-join reader
# --------------------------------------------------------------------------

def reference_decode_survey(path, schema, rows):
    """`ingest._decode_survey` before its columns were allocated once: each
    column's blocks appended to a list and joined at the end."""
    variables = schema.constraint_vars + schema.external_vars
    fields = schema.deprivation_fields
    mandatory = (
        ["record_id", schema.household_field]
        + [v.name for v in variables]
        + [schema.income_field]
        + list(fields)
    )
    header = next(rows, [])
    missing = [c for c in mandatory if c not in header]
    if missing:
        raise IngestError(f"{path}: missing mandatory columns {missing}")
    column = {name: j for j, name in enumerate(header)}
    income = header.index(schema.income_field)
    flagged = [column[f] for f in fields]
    record_ids, households = [], []
    lines, incomes = [np.empty(0, np.intp)], [np.empty(0)]
    flags = [np.empty((0, len(fields)), bool)]
    codes = {v.name: [np.empty(0, v.code_dtype)] for v in variables}
    finders = [(v, id_finder(v.categories)) for v in variables]
    numeric = {name: [np.empty(0)] for name in header if name not in mandatory}

    def decode(data, starts, ends, at):
        buf = np.frombuffer(data, np.uint8)
        j = column["record_id"]
        ids = TextColumn.of_fields(buf, starts[:, j], ends[:, j])
        incomes.append(
            ingest._incomes(data, starts[:, income], ends[:, income], at, path)
        )
        value, valid = ingest._flags(data, starts[:, flagged], ends[:, flagged])
        bad = np.argwhere(~valid)
        if bad.size:
            i, f = bad[0]
            raise IngestError(
                f"{path}: line {at[i]}: deprivation field {fields[f]!r} must be 0/1"
            )
        flags.append(value)
        for var, find in finders:
            j = column[var.name]
            try:
                found = encode_categories(var, find, buf, starts[:, j], ends[:, j], ids)
            except SchemaError as exc:
                raise IngestError(f"{path}: line {at[exc.row]}: {exc}") from None
            codes[var.name].append(found)
        for name, blocks in numeric.items():
            if blocks is not None:
                j = column[name]
                texts = ingest._strings(data, starts[:, j], ends[:, j])
                try:
                    blocks.append(ingest._floats([t.strip() for t in texts]))
                except ValueError:
                    numeric[name] = None
        j = column[schema.household_field]
        households.append(TextColumn.of_fields(buf, starts[:, j], ends[:, j]))
        record_ids.append(ids)
        lines.append(at)

    def concatenate(columns):
        data, ends, size = [np.empty(0, np.uint8)], [np.empty(0, np.intp)], 0
        for text in columns:
            data.append(text.data)
            ends.append(text.ends + size)
            size += text.data.size
        return TextColumn(np.concatenate(data), np.concatenate(ends))

    for block in rows:
        decode(*block)
    lines = np.concatenate(lines)
    try:
        return SurveyDataset.from_codes(
            schema,
            concatenate(record_ids),
            concatenate(households),
            codes={name: np.concatenate(blocks) for name, blocks in codes.items()},
            incomes=np.concatenate(incomes),
            deprivations=np.concatenate(flags),
            numeric={
                name: None if blocks is None else np.concatenate(blocks)
                for name, blocks in numeric.items()
            },
        )
    except SchemaError as exc:
        if exc.row is None:
            raise
        raise IngestError(f"{path}: line {lines[exc.row]}: {exc}") from None


def same_bytes(a, b) -> bool:
    """Whether the arrays `a` and `b` have one dtype, shape and bytes."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=400, deadline=None)
@given(
    case=survey_files(later=True),
    block_lines=st.sampled_from([1, 2, 3, ingest.BLOCK_LINES]),
)
def test_survey_columns_match_append_and_join_reader(
    tmp_path_factory, case, block_lines
):
    # Blank lines make fewer rows than line ends, so the columns are cut;
    # a quoted row or a further column that stops being numeric may first
    # come in any block.
    schema, data, _ = case
    path = tmp_path_factory.mktemp("survey") / "survey.csv"
    path.write_bytes(data)

    def reference(path, schema):
        with path.open("rb") as fh:
            return reference_decode_survey(path, schema, ingest._csv_blocks(path, fh))

    def outcome(load):
        try:
            return load(path, schema)
        except IngestError as exc:
            return str(exc)

    with mock.patch.object(ingest, "BLOCK_LINES", block_lines):
        expected = outcome(reference)
        got = outcome(load_survey)
    if isinstance(expected, str):
        assert got == expected
        return
    for ids in ("record_ids", "_households"):
        a, b = getattr(got, ids), getattr(expected, ids)
        assert same_bytes(a.data, b.data) and same_bytes(a.ends, b.ends)
    for var in schema.constraint_vars + schema.external_vars:
        codes = expected.category_codes(var.name)
        assert same_bytes(got.category_codes(var.name), codes)
    assert same_bytes(got.incomes, expected.incomes)
    assert same_bytes(got.deprivations, expected.deprivations)
    assert got.numeric.keys() == expected.numeric.keys()
    for name, column in expected.numeric.items():
        if column is None:
            assert got.numeric[name] is None
        else:
            assert same_bytes(got.numeric[name], column)


# Income fields as `float` reads them, after `str.strip`: blank and white
# space, underscores, exponents, nan and inf, signed zero, digits that are
# not ASCII (which numpy's bytes cast refuses), white space that only `str`
# strips, and NULs.
income_fields = st.sampled_from(
    [
        "", " ", "\t ", "0", "1_000", "1__0", "12.5", " 7 ", "1e3", "2.5E-3",
        "5e-324", "1e309", "nan", "-inf", "inf", "-0.0", "+3", "-1", "abc",
        "\u0661\u0662", "\xa05", "\x1c9\x1f", "5\0", "0.1234567890123456789012345",
    ]
)


@settings(max_examples=300, deadline=None)
@given(
    fields=st.lists(income_fields, max_size=8),
    gap=st.sampled_from([",", ",\0,"]),
)
def test_incomes_read_as_float_reads_them(fields, gap):
    # `gap` puts a NUL between the fields of some blocks: the whole block is
    # then read field by field.
    path = Path("survey.csv")
    data, starts, ends = b"", [], []
    for field in fields:
        starts.append(len(data))
        data += field.encode()
        ends.append(len(data))
        data += gap.encode()
    lines = np.arange(2, 2 + len(fields))
    expected = []
    for field, line in zip(fields, lines.tolist()):
        text = field.strip()
        try:
            value = float(text) if text else math.nan
        except ValueError:
            value = -1.0
        if text and not (math.isfinite(value) and value >= 0):
            expected = f"{path}: line {line}: invalid income {text!r}"
            break
        expected.append(value)
    offsets = (np.array(starts, np.int32), np.array(ends, np.int32))
    try:
        got = ingest._incomes(data, *offsets, lines, path)
    except IngestError as exc:
        got = str(exc)
    if isinstance(expected, str):
        assert got == expected
    else:  # bit for bit, the sign of -0.0 too
        assert got.tobytes() == np.array(expected, float).tobytes()


def test_load_survey_holds_no_copy_of_the_file(tmp_path):
    # 20000 records, 1.9 MB of CSV: one block's working set (its bytes and
    # the field offsets of BLOCK_LINES lines) takes under 3 MiB above the
    # survey itself, as each column is allocated once and filled in place.
    # Appending each block's columns and joining them at the end peaked 5.5
    # MiB above it with blocks of 16384 lines; a reader that splits the
    # whole file at once peaks 16 MiB above the 3.7 MiB it returns.
    config = load_config(generate_example(tmp_path, n_zones=5, survey_size=20000))
    tracemalloc.start()
    try:
        survey = load_survey(config.survey_path, config.schema)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert survey.n == 20000
    assert peak - held < 3 * 2**20, (peak, held)


# --------------------------------------------------------------------------
# The one-pass long-table reader against the multi-pass loaders
# --------------------------------------------------------------------------

def reference_read_long(path):
    """The row list that `load_constraints` and `load_external_actual` read
    in a first pass before the one-pass reader: (line, zone, variable,
    category, count) per row, the count checked and a repeated cell refused."""
    rows = []
    seen = set()
    header = ["zone_id", "variable", "category", "count"]
    for lineno, (zone, var, cat, raw) in ingest.csv_rows(path, header):
        count = ingest._nonnegative(raw, "count", path, lineno)
        if (zone, var, cat) in seen:
            raise IngestError(
                f"{path}: line {lineno}: duplicate cell ({zone}, {var}, {cat})"
            )
        seen.add((zone, var, cat))
        rows.append((lineno, zone, var, cat, count))
    return rows


def reference_load_constraints(path, schema):
    """`load_constraints` as three passes over `reference_read_long`'s rows."""
    path = Path(path)
    rows = reference_read_long(path)
    if not rows:
        raise IngestError(f"{path}: empty constraint table")
    vardefs = {v.name: v for v in schema.constraint_vars}
    zone_index = {}
    cells = {name: [] for name in vardefs}
    for lineno, zone, var, cat, count in rows:
        if var not in vardefs:
            raise IngestError(f"{path}: unknown variable {var!r} at line {lineno}")
        if cat not in vardefs[var].categories:
            raise IngestError(f"{path}: unknown category {cat!r} at line {lineno}")
        zi = zone_index.setdefault(zone, len(zone_index))
        cells[var].append((zi, vardefs[var].index(cat), count))
    zones = tuple(zone_index)
    tables = []
    for var in schema.constraint_vars:
        counts = np.zeros((len(zones), len(var.categories)))
        for zi, ci, value in cells[var.name]:
            counts[zi, ci] = value
        tables.append(make_table(var.name, zones, var.categories, counts))
    return tables


def reference_load_external_actual(path):
    """`load_external_actual` as two passes over `reference_read_long`'s rows."""
    path = Path(path)
    rows = reference_read_long(path)
    if not rows:
        raise IngestError(f"{path}: empty external table")
    variable = rows[0][2]
    zones, cats = {}, {}
    for lineno, zone, var, cat, _ in rows:
        if var != variable:
            raise IngestError(
                f"{path}: line {lineno}: mixed variables {variable!r}/{var!r}"
            )
        zones.setdefault(zone, len(zones))
        cats.setdefault(cat, len(cats))
    counts = np.zeros((len(zones), len(cats)))
    for _, zone, _, cat, count in rows:
        counts[zones[zone], cats[cat]] = count
    return make_table(variable, zones, cats, counts)


@st.composite
def long_table_files(draw):
    """(kind, schema, file bytes) of a constraints or external table whose
    zone ids are valid, with up to one fault that both loaders name: a bad
    count, a repeated cell or another variable."""
    kind = draw(st.sampled_from(["constraints", "external"]))
    labels = st.lists(survey_labels, min_size=2, max_size=4, unique=True)
    n_vars = draw(st.integers(1, 3)) if kind == "constraints" else 1
    variables = tuple(VariableDef(f"v{k}", draw(labels)) for k in range(n_vars))
    zones = draw(st.lists(survey_ids, min_size=1, max_size=4, unique=True))
    cells = [(z, v.name, c) for z in zones for v in variables for c in v.categories]
    cells = draw(st.permutations(cells))[: draw(st.integers(0, len(cells)))]
    rows = [[*cell, draw(padding) + draw(numbers)] for cell in cells]
    fault = draw(st.sampled_from([None, "count", "duplicate", "variable"]))
    if fault and rows:
        i = draw(st.integers(0, len(rows) - 1))
        if fault == "count":
            rows[i][3] = draw(st.sampled_from(["-1", "abc", "inf", "nan", ""]))
        elif fault == "duplicate":
            j = draw(st.integers(i + 1, len(rows)))
            rows.insert(j, rows[i][:3] + [draw(numbers)])
        else:
            rows[i][1] = "w"
    quote_all = draw(st.booleans())

    def cell(text):
        if quote_all or any(c in text for c in ',"\r\n'):
            return '"' + text.replace('"', '""') + '"'
        return text

    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = ["zone_id,variable,category,count"]
    for row in rows:
        lines += [""] * draw(st.integers(0, 1))  # blank lines
        lines.append(",".join(map(cell, row)))
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    return kind, make_schema(constraint_vars=variables), text.encode()


@settings(max_examples=300, deadline=None)
@given(
    case=long_table_files(),
    block_lines=st.sampled_from([1, 2, 3, ingest.BLOCK_LINES]),
)
def test_long_tables_match_multi_pass_loaders(tmp_path_factory, case, block_lines):
    kind, schema, data = case
    path = tmp_path_factory.mktemp("long") / "table.csv"
    path.write_bytes(data)
    loaders = {
        "constraints": (
            lambda: reference_load_constraints(path, schema),
            lambda: load_constraints(path, schema),
        ),
        "external": (
            lambda: [reference_load_external_actual(path)],
            lambda: [load_external_actual(path)],
        ),
    }

    def outcome(load):
        try:
            return [(*_table(t)[:3], t.counts.tobytes()) for t in load()]
        except IngestError as exc:
            return str(exc)

    reference, load = loaders[kind]
    expected = outcome(reference)
    with mock.patch.object(ingest, "BLOCK_LINES", block_lines):
        assert outcome(load) == expected
