import math

import numpy as np
import pytest

from smallarea.ingest import (
    IngestError,
    load_config,
    load_constraints,
    load_crosswalks,
    load_external_actual,
    load_survey,
    save_constraints,
)
from smallarea.schema import VariableDef

from conftest import make_schema, make_table

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
        variable, zones, cats, counts = load_external_actual(path)
        assert (variable, zones, cats) == ("nace", ("Z2", "Z1"), ("G", "C"))
        np.testing.assert_array_equal(counts, [[1, 3], [4, 2]])

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
