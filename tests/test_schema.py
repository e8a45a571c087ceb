import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallarea.csvbytes import TextColumn
from smallarea.schema import (
    ConsistencyReport,
    ConstraintTable,
    SchemaError,
    SurveyDataset,
    VariableDef,
    check_consistency,
    needs_quoting,
    rescale_constraints,
)

from conftest import make_schema, make_survey, make_table


def two_var_tables(sex_counts, age_counts, zones=("Z1",)):
    return [
        make_table("sex", zones, ("M", "F"), sex_counts),
        make_table("age", zones, ("Y", "O"), age_counts),
    ]


def full_survey(schema):
    return make_survey(
        schema,
        [
            {"sex": "M", "age": "Y"},
            {"sex": "M", "age": "O"},
            {"sex": "F", "age": "Y"},
            {"sex": "F", "age": "O"},
        ],
    )


class TestCategoryCounts:
    def test_counts_and_weighted_counts(self, two_by_two):
        _, survey = two_by_two  # records (M,Y), (M,O), (F,Y), (F,O)
        np.testing.assert_array_equal(survey.category_counts("age"), [2, 2])
        np.testing.assert_array_equal(
            survey.category_counts("age", [1.0, 2.0, 3.0, 4.0]), [4.0, 6.0]
        )

    def test_unknown_variable(self, two_by_two):
        _, survey = two_by_two
        with pytest.raises(SchemaError, match="unknown variable 'height'"):
            survey.category_counts("height")


class TestSurveyColumns:
    def test_code_dtype_by_category_count(self):
        # Up to 127 categories fit one signed byte.
        few = VariableDef("few", tuple(f"c{i}" for i in range(127)))
        many = VariableDef("many", tuple(f"c{i}" for i in range(128)))
        schema = make_schema(constraint_vars=(few, many))
        codes = {"few": [126, 0], "many": [127, 0]}
        survey = SurveyDataset.from_codes(schema, ["r1", "r2"], ["h1", "h2"], codes)
        assert survey.category_codes("few").dtype == np.int8
        assert survey.category_codes("many").dtype == np.intp
        assert survey.category_codes("few").tolist() == [126, 0]
        assert survey.category_codes("many").tolist() == [127, 0]

    @pytest.mark.parametrize("code", [-1, 2, 200])
    def test_code_out_of_range_rejected(self, code):
        # As an int8, 200 would read -56.
        schema = make_schema(constraint_vars=(VariableDef("sex", ("M", "F")),))
        codes = {"sex": np.array([0, code])}
        with pytest.raises(SchemaError, match=r"codes of 'sex' must lie in \[0, 2\)"):
            SurveyDataset.from_codes(schema, ["r1", "r2"], ["h1", "h2"], codes)

    def test_from_codes_holds_its_arrays_read_only(self):
        schema = make_schema(
            constraint_vars=(VariableDef("sex", ("M", "F")),),
            deprivation_fields=("tv",),
        )
        codes, incomes = np.array([1, 0], np.int8), np.array([1.0, math.nan])
        flags = np.array([[True], [False]])
        survey = SurveyDataset.from_codes(
            schema, ["r1", "r2"], ["h1", "h2"], {"sex": codes}, incomes, flags
        )
        held = survey.category_codes("sex"), survey.incomes, survey.deprivations
        for column, given in zip(held, (codes, incomes, flags)):
            assert np.shares_memory(column, given)
            assert not column.flags.writeable
        assert codes.flags.writeable  # the caller's array is left as it is
        copied = SurveyDataset(
            schema, ["r1", "r2"], ["h1", "h2"], {"sex": ["F", "M"]}, incomes, flags
        )
        assert not np.shares_memory(copied.incomes, incomes)

    def test_household_ids_decoded_at_each_access(self):
        schema = make_schema(constraint_vars=(VariableDef("sex", ("M", "F")),))
        ids = ["h1\0", "οικία", "h1"]
        survey = SurveyDataset(schema, ["r1", "r2", "r3"], ids, {"sex": ["M"] * 3})
        assert survey.household_ids == tuple(ids)
        assert survey.household_ids is not survey.household_ids
        with pytest.raises(SchemaError, match="record 'r2': empty household id"):
            SurveyDataset(schema, ["r1", "r2"], ["h1", ""], {"sex": ["M"] * 2})


def reference_id_fault(record_ids, household_ids):
    """The checks `SurveyDataset` made on record ids held as a tuple of str,
    with a set and a joined string: the message and row of the first
    repeated record id, record id that needs quoting, empty record id or
    empty household id, in that order, or None."""
    record_ids = tuple(record_ids)
    if len(set(record_ids)) < len(record_ids):
        seen = set()
        for i, rid in enumerate(record_ids):
            if rid in seen:
                return f"duplicate record id {rid!r}", i
            seen.add(rid)
    if needs_quoting("".join(record_ids)):
        i = next(i for i, rid in enumerate(record_ids) if needs_quoting(rid))
        return f"record id {record_ids[i]!r} holds a comma, quote or line break", i
    if "" in record_ids:
        return "record id '' is empty", record_ids.index("")
    empty = [i for i, h in enumerate(household_ids) if not h]
    if empty:
        return f"record {record_ids[empty[0]]!r}: empty household id", empty[0]
    return None


# Ids of letters that need quoting, are not ASCII or are NUL, so that ids
# repeat, differ by a trailing NUL, or need quoting after a repeat.
id_letters = st.sampled_from(["r", "1", "\0", "é", "Α", ",", '"', "\r", "\n"])
# Up to about 300 ids of a few letters: distinct ids share hash slots, so
# that the id index needs more than one table, and most ids repeat.
many_ids = st.lists(
    st.text(st.sampled_from(["r", "1", "\0", "é"]), max_size=4),
    min_size=1,
    max_size=300,
)


@settings(max_examples=300, deadline=None)
@given(
    ids=st.lists(st.text(id_letters, max_size=3), min_size=1, max_size=8) | many_ids,
    data=st.data(),
    as_column=st.booleans(),
)
def test_id_checks_match_set_based_checks(ids, data, as_column):
    households = st.sampled_from(["", "h", "οικία"])
    households = data.draw(st.lists(households, min_size=len(ids), max_size=len(ids)))
    schema = make_schema(constraint_vars=(VariableDef("sex", ("M", "F")),))
    codes = {"sex": np.zeros(len(ids), np.int8)}
    given_ids = TextColumn.of(ids) if as_column else ids
    try:
        survey = SurveyDataset.from_codes(schema, given_ids, households, codes)
    except SchemaError as exc:
        assert (str(exc), exc.row) == reference_id_fault(ids, households)
    else:
        assert reference_id_fault(ids, households) is None
        assert list(survey.record_ids) == ids


class TestCheckConsistency:
    def test_identical_totals(self):
        schema = make_schema()
        tables = two_var_tables([[60, 40]], [[30, 70]])
        report = check_consistency(schema, tables, full_survey(schema))
        assert report.max_rel_disagreement == 0
        assert report.clean

    def test_relative_disagreement(self):
        schema = make_schema()
        tables = two_var_tables([[60, 40]], [[30, 68]])
        report = check_consistency(schema, tables, full_survey(schema))
        assert report.max_rel_disagreement == pytest.approx(0.02)
        assert ("Z1", "age", pytest.approx(0.02)) in [
            (z, v, r) for z, v, r in report.disagreements
        ]

    def test_empty_census_cell(self):
        schema = make_schema(
            constraint_vars=(
                VariableDef("sex", ("M", "F")),
                VariableDef("marital", ("Married", "Widowed")),
            )
        )
        survey = make_survey(
            schema,
            [
                {"sex": "M", "marital": "Married"},
                {"sex": "F", "marital": "Married"},
            ],
        )
        tables = [
            make_table("sex", ["Z1"], ("M", "F"), [[50, 50]]),
            make_table("marital", ["Z1"], ("Married", "Widowed"), [[95, 5]]),
        ]
        report = check_consistency(schema, tables, survey)
        assert ("marital", "Widowed") in report.empty_cells

    def test_missing_table_is_hard_error(self):
        schema = make_schema()
        tables = [make_table("sex", ["Z1"], ("M", "F"), [[60, 40]])]
        with pytest.raises(SchemaError, match="age"):
            check_consistency(schema, tables, full_survey(schema))

    def test_zone_list_mismatch_is_hard_error(self):
        schema = make_schema()
        tables = [
            make_table("sex", ["Z1"], ("M", "F"), [[60, 40]]),
            make_table("age", ["Z2"], ("Y", "O"), [[30, 70]]),
        ]
        with pytest.raises(SchemaError, match="zone list"):
            check_consistency(schema, tables, full_survey(schema))

    def test_pure(self):
        schema = make_schema()
        tables = two_var_tables([[60, 40]], [[30, 68]])
        survey = full_survey(schema)
        r1 = check_consistency(schema, tables, survey)
        r2 = check_consistency(schema, tables, survey)
        assert r1 == r2

    def test_reports_of_two_zones_compare(self):
        # zone_totals holds arrays, which compare as arrays.
        schema = make_schema()
        survey = full_survey(schema)
        zones = ("Z1", "Z2")
        tables = two_var_tables([[60, 40], [5, 5]], [[30, 70], [4, 6]], zones)
        r1 = check_consistency(schema, tables, survey)
        assert r1 == check_consistency(schema, tables, survey)
        changed = two_var_tables([[60, 40], [5, 5]], [[30, 70], [4, 7]], zones)
        r2 = check_consistency(schema, changed, survey)
        assert r1 != r2
        assert r1.zones == r2.zones and r1.empty_cells == r2.empty_cells
        totals = {**r1.zone_totals, "age": np.array([100.0, 11.0])}
        assert r1 != dataclasses.replace(r1, zone_totals=totals)
        assert r1 != dataclasses.replace(r1, zone_totals={"sex": totals["sex"]})

    def test_report_with_nan_count_equals_itself(self):
        # The NaN cell's total and its bad_cells value compare NaN-aware.
        schema = make_schema()
        survey = full_survey(schema)
        tables = two_var_tables([[60, math.nan]], [[30, 70]])
        r1 = check_consistency(schema, tables, survey)
        r2 = check_consistency(schema, tables, survey)
        assert math.isnan(r1.zone_totals["sex"][0])
        assert r1.bad_cells == (("sex", "Z1", "F", r1.bad_cells[0][3]),)
        assert r1 == r1 and r1 == r2
        changed = two_var_tables([[60, math.nan]], [[30, 71]])
        assert r1 != check_consistency(schema, changed, survey)


class TestRescaleConstraints:
    def test_example_row(self):
        tables = two_var_tables([[60, 40]], [[60, 38]])
        out = rescale_constraints(tables, "sex")
        np.testing.assert_allclose(
            out[1].counts[0], [61.2244898, 38.7755102], rtol=1e-9
        )

    def test_consistent_unchanged(self):
        tables = two_var_tables([[60, 40]], [[30, 70]])
        out = rescale_constraints(tables, "sex")
        np.testing.assert_array_equal(out[1].counts, tables[1].counts)

    def test_all_zero_rows(self):
        tables = two_var_tables([[0, 0]], [[0, 0]])
        out = rescale_constraints(tables, "sex")
        assert out[1].counts.sum() == 0

    def test_zero_reference_nonzero_other_is_error(self):
        tables = two_var_tables([[0, 0]], [[30, 70]])
        with pytest.raises(SchemaError, match="reference total 0"):
            rescale_constraints(tables, "sex")

    def test_proportions_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            sex = rng.uniform(1, 100, size=(5, 2))
            age = rng.uniform(1, 100, size=(5, 2))
            tables = two_var_tables(sex, age, zones=[f"Z{i}" for i in range(5)])
            out = rescale_constraints(tables, "sex")
            ratio_before = age[:, 0] / age[:, 1]
            ratio_after = out[1].counts[:, 0] / out[1].counts[:, 1]
            np.testing.assert_allclose(ratio_after, ratio_before, rtol=1e-12)
            np.testing.assert_allclose(
                out[1].zone_totals(), tables[0].zone_totals(), rtol=1e-9
            )

    def test_zero_total_nonzero_reference_is_error(self):
        tables = two_var_tables([[60, 40]], [[0, 0]])
        with pytest.raises(SchemaError, match="zero total vs reference 100.0"):
            rescale_constraints(tables, "sex")

    @pytest.mark.parametrize(
        "sex, age, error",
        [
            (
                [[60, 40], [10, 20], [0, 0]],
                [[30, 70], [0, 0], [5, 5]],
                "zone 'Z2' for variable 'age': zero total vs reference 30.0",
            ),
            (
                [[60, 40], [0, 0], [10, 20]],
                [[30, 70], [5, 5], [0, 0]],
                "zone 'Z2' for variable 'age': reference total 0 with nonzero "
                "total 10.0",
            ),
        ],
    )
    def test_first_zone_at_fault_is_named(self, sex, age, error):
        # Z2 and Z3 are both at fault, each in the other way.
        tables = two_var_tables(sex, age, zones=("Z1", "Z2", "Z3"))
        with pytest.raises(SchemaError, match=error):
            rescale_constraints(tables, "sex")


# --------------------------------------------------------------------------
# The per-zone loops that check_consistency and rescale_constraints replaced,
# kept as oracles.
# --------------------------------------------------------------------------

def reference_check_consistency(schema, tables, survey):
    by_var = {t.variable: t for t in tables}
    zones = tables[0].zones
    ref_totals = by_var[schema.constraint_vars[0].name].zone_totals()
    zone_totals = {}
    disagreements = []
    bad_cells = []
    max_rel = 0.0
    for var in schema.constraint_vars:
        t = by_var[var.name]
        totals = t.zone_totals()
        zone_totals[var.name] = totals
        bad = ~np.isfinite(t.counts) | (t.counts < 0)
        for zi, ci in zip(*np.nonzero(bad)):
            bad_cells.append((var.name, zones[zi], t.categories[ci], t.counts[zi, ci]))
        for zi, (tot, rtot) in enumerate(zip(totals, ref_totals)):
            if rtot > 0:
                rel = abs(tot - rtot) / rtot
            else:
                rel = 0.0 if tot == 0 else math.inf
            max_rel = max(max_rel, rel)
            if rel > ConsistencyReport.TOLERANCE:
                disagreements.append((zones[zi], var.name, rel))

    empty_cells = []
    for var in schema.constraint_vars:
        t = by_var[var.name]
        codes = survey.category_codes(var.name)
        present = np.bincount(codes, minlength=len(var.categories)) > 0
        census_mass = t.counts.sum(axis=0) > 0
        for ci in np.nonzero(census_mass & ~present)[0]:
            empty_cells.append((var.name, var.categories[ci]))

    return ConsistencyReport(
        zones=zones,
        variables=tuple(v.name for v in schema.constraint_vars),
        zone_totals=zone_totals,
        max_rel_disagreement=max_rel,
        disagreements=tuple(disagreements),
        empty_cells=tuple(empty_cells),
        bad_cells=tuple(bad_cells),
    )


def reference_rescale_constraints(tables, reference_variable):
    by_var = {t.variable: t for t in tables}
    ref_totals = by_var[reference_variable].zone_totals()
    out = []
    for t in tables:
        if t.variable == reference_variable:
            out.append(t)
            continue
        totals = t.zone_totals()
        counts = np.array(t.counts, dtype=float)
        for zi in range(len(t.zones)):
            if totals[zi] == 0:
                if ref_totals[zi] != 0:
                    raise SchemaError(
                        f"cannot rescale zone {t.zones[zi]!r} for variable "
                        f"{t.variable!r}: zero total vs reference {ref_totals[zi]}"
                    )
                continue
            if ref_totals[zi] == 0:
                raise SchemaError(
                    f"cannot rescale zone {t.zones[zi]!r} for variable "
                    f"{t.variable!r}: reference total 0 with nonzero total {totals[zi]}"
                )
            counts[zi] *= ref_totals[zi] / totals[zi]
        out.append(ConstraintTable(t.variable, t.zones, t.categories, counts))
    return out


ORACLE_SCHEMA = make_schema(
    constraint_vars=(
        VariableDef("sex", ("M", "F")),
        VariableDef("age", ("Y", "M", "O")),
        VariableDef("edu", ("P", "S", "T", "U")),
    )
)


def random_tables(rng, n_zones=12):
    """Constraint tables of ORACLE_SCHEMA: fractional counts with some zero
    cells, zero rows in every table for zones 0 to 2, and zone totals that
    disagree with the reference in about half of the other zones."""
    zones = tuple(f"Z{i:02d}" for i in range(n_zones))
    tables = []
    for var in ORACLE_SCHEMA.constraint_vars:
        counts = rng.uniform(1, 50, size=(n_zones, len(var.categories)))
        counts[:, 1:] *= rng.random((n_zones, len(var.categories) - 1)) < 0.8
        if tables:
            ref = tables[0].zone_totals()
            agree = (rng.random(n_zones) < 0.5) & (np.arange(n_zones) > 2)
            counts[agree] *= (ref / counts.sum(axis=1))[agree, None]
        counts[:3] = 0
        tables.append(make_table(var.name, zones, var.categories, counts))
    return tables


def random_survey(rng, n=40):
    """A survey in which some categories of ORACLE_SCHEMA have no record."""
    cats = {}
    for var in ORACLE_SCHEMA.constraint_vars:
        present = rng.permutation(var.categories)[: rng.integers(1, 3)]
        cats[var.name] = rng.choice(present, size=n)
    return make_survey(
        ORACLE_SCHEMA,
        [{name: str(c[i]) for name, c in cats.items()} for i in range(n)],
    )


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_check_consistency(self, seed):
        rng = np.random.default_rng(seed)
        tables = random_tables(rng)
        if seed % 2:
            # Negative and non-finite cells, a nonzero total against a zero
            # reference total and a NaN zone total.
            counts = [t.counts.copy() for t in tables]
            counts[1][4, 0] = -3.0
            counts[2][5, 1] = math.inf
            counts[2][6, 2] = math.nan
            counts[1][2, 1] = 7.0
            tables = [
                make_table(t.variable, t.zones, t.categories, c)
                for t, c in zip(tables, counts)
            ]
        survey = random_survey(rng)
        report = check_consistency(ORACLE_SCHEMA, tables, survey)
        expected = reference_check_consistency(ORACLE_SCHEMA, tables, survey)
        np.testing.assert_equal(vars(report), vars(expected))
        assert len({zone for zone, _, _ in report.disagreements}) > 1
        assert report.empty_cells
        assert type(report.max_rel_disagreement) is float
        assert all(type(rel) is float for _, _, rel in report.disagreements)
        assert all(type(value) is float for *_, value in report.bad_cells)

    @pytest.mark.parametrize("seed", range(8))
    def test_rescale_constraints(self, seed):
        rng = np.random.default_rng(seed)
        tables = random_tables(rng)
        out = rescale_constraints(tables, "sex")
        expected = reference_rescale_constraints(tables, "sex")
        for t, e in zip(out, expected):
            assert (t.variable, t.zones, t.categories) == (
                e.variable,
                e.zones,
                e.categories,
            )
            assert t.counts.tobytes() == e.counts.tobytes()
