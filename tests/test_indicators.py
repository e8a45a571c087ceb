import math

import numpy as np
import pytest

from smallarea.indicators import (
    MpiDimension,
    MpiIndicator,
    MpiSpec,
    arop_absolute,
    arop_relative,
    equivalize,
    equivalized_incomes,
    income_summary,
    md_rate,
    mpi,
    percent_change,
    weighted_median,
)
from smallarea.ingest import load_survey
from smallarea.schema import SchemaError, SurveyDataset, VariableDef

from conftest import make_schema


def csv_survey(tmp_path, text):
    """Survey with one constraint variable `sex`, read from CSV text."""
    path = tmp_path / "survey.csv"
    path.write_text(text)
    schema = make_schema(constraint_vars=(VariableDef("sex", ("M", "F")),))
    return load_survey(path, schema)


class TestEquivalize:
    def test_modified_oecd(self):
        assert equivalize(30000, 2, 2) == pytest.approx(30000 / 2.1)

    def test_single_adult(self):
        assert equivalize(12345.6, 1, 0) == 12345.6

    def test_zero_income(self):
        assert equivalize(0, 3, 1) == 0

    def test_no_adults_rejected(self):
        with pytest.raises(ValueError):
            equivalize(1000, 0, 2)

    def test_survey_columns(self, tmp_path):
        survey = csv_survey(
            tmp_path,
            "record_id,household_id,sex,income,n_adults,n_children\n"
            "r1,h1,M,30000,2,2\nr2,h2,F,12345.6,1,0\nr3,h3,F,,,\nr4,h4,M,0,3,1\n",
        )
        out = equivalized_incomes(survey, True)
        assert out[0] == 30000 / 2.1
        assert out[1] == 12345.6
        assert math.isnan(out[2])
        assert out[3] == 0
        np.testing.assert_array_equal(
            equivalized_incomes(survey, False)[[0, 1, 3]], [30000, 12345.6, 0]
        )

    def test_children_column_optional(self, tmp_path):
        survey = csv_survey(
            tmp_path, "record_id,household_id,sex,income,n_adults\nr1,h1,M,1500,2\n"
        )
        assert equivalized_incomes(survey, True)[0] == 1000.0

    def test_blank_adults_with_income_rejected(self, tmp_path):
        survey = csv_survey(
            tmp_path,
            "record_id,household_id,sex,income,n_adults,n_children\n"
            "r1,h1,M,30000,2,2\nr2,h2,F,1000,,0\n",
        )
        with pytest.raises(SchemaError, match="n_adults"):
            equivalized_incomes(survey, True)


class TestWeightedMedian:
    def test_single_value(self):
        assert weighted_median([5], [3]) == 5

    def test_boundary_between_distinct_values(self):
        assert weighted_median([1, 2, 3], [1, 1, 2]) == pytest.approx(2.5)

    def test_even_split(self):
        assert weighted_median([1, 3], [1, 1]) == 2

    def test_unordered_input(self):
        assert weighted_median([3, 1, 2], [2, 1, 1]) == pytest.approx(2.5)

    def test_empty_population(self):
        with pytest.raises(ValueError):
            weighted_median([], [])

    def test_within_value_range(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            v = rng.normal(size=8)
            c = rng.integers(1, 5, size=8)
            m = weighted_median(v, c)
            assert v.min() <= m <= v.max()


class TestPercentChange:
    def test_psychiko_row(self):
        assert percent_change(17408.58, 15766.14) == pytest.approx(-9.43, abs=0.005)

    def test_metro_row_source_rounding(self):
        assert percent_change(14453.32, 13047.03) == pytest.approx(-9.72, abs=0.02)

    def test_no_change(self):
        assert percent_change(123.4, 123.4) == 0

    def test_nonpositive_earlier(self):
        with pytest.raises(ValueError):
            percent_change(0, 5)


def one_zone(counts):
    return np.asarray(counts, dtype=np.int64).reshape(-1, 1)


class TestAropAbsolute:
    def test_fixture_rate(self):
        incomes = np.array([50.0, 100, 100, 200])
        rates, line, excluded = arop_absolute(one_zone([1, 1, 1, 1]), incomes)
        assert line == pytest.approx(60)
        assert rates[0] == pytest.approx(0.25)
        assert excluded[0] == 0

    def test_equal_incomes_zero_rate(self):
        incomes = np.array([70.0, 70, 70])
        rates, _, _ = arop_absolute(one_zone([2, 1, 3]), incomes)
        assert rates[0] == 0

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            incomes = rng.uniform(10, 1000, size=15)
            counts = rng.integers(0, 4, size=(15, 3))
            r1, line1, _ = arop_absolute(counts, incomes)
            r2, line2, _ = arop_absolute(counts, incomes * 3)
            np.testing.assert_allclose(r1, r2, equal_nan=True)
            assert line2 == pytest.approx(3 * line1)

    def test_missing_incomes_excluded(self):
        incomes = np.array([50.0, math.nan, 100, 100, 200])
        rates, line, excluded = arop_absolute(one_zone([1, 4, 1, 1, 1]), incomes)
        assert rates[0] == pytest.approx(0.25)
        assert excluded[0] == 4


class TestAropRelative:
    def test_per_zone_lines(self):
        incomes = np.array([50.0, 100, 100, 200, 500, 1000, 1000, 2000])
        counts = np.zeros((8, 2), dtype=np.int64)
        counts[:4, 0] = 1
        counts[4:, 1] = 1
        rates, lines = arop_relative(counts, incomes)
        np.testing.assert_allclose(rates, [0.25, 0.25])
        np.testing.assert_allclose(lines, [60, 600])

    def test_locality_under_other_zone_mutation(self):
        rng = np.random.default_rng(5)
        incomes = rng.uniform(10, 100, size=12)
        counts = rng.integers(0, 4, size=(12, 3))
        counts[:, 0] = np.maximum(counts[:, 0], 1)
        base, _ = arop_relative(counts, incomes)
        mutated = counts.copy()
        mutated[:, 1] = rng.integers(0, 9, size=12)
        after, _ = arop_relative(mutated, incomes)
        assert after[0] == base[0]

    def test_empty_zone_missing(self):
        incomes = np.array([50.0, 100])
        counts = np.array([[1, 0], [1, 0]])
        rates, _ = arop_relative(counts, incomes)
        assert math.isnan(rates[1])


class TestMdRate:
    def test_nobody_deprived(self):
        dep = np.zeros((4, 9), dtype=bool)
        rates = md_rate(one_zone([1, 1, 1, 1]), dep)
        assert rates[0] == 0

    def test_hand_case(self):
        lacked = [0, 2, 3, 5]
        dep = np.zeros((4, 9), dtype=bool)
        for i, k in enumerate(lacked):
            dep[i, :k] = True
        rates = md_rate(one_zone([1, 1, 1, 1]), dep, threshold=3)
        assert rates[0] == pytest.approx(0.5)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(9)
        dep = rng.random((30, 9)) < 0.3
        counts = one_zone(rng.integers(0, 5, size=30))
        rates = [md_rate(counts, dep, threshold=t)[0] for t in range(1, 10)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))


def flag_survey(rows):
    """Survey with three 0/1 extra fields d1..d3 driving the MPI."""
    schema = make_schema(
        constraint_vars=(VariableDef("sex", ("M", "F")),),
    )
    rows = np.asarray(rows, dtype=float)
    n = len(rows)
    return SurveyDataset(
        schema,
        record_ids=[f"r{i}" for i in range(n)],
        household_ids=[f"h{i}" for i in range(n)],
        categories={"sex": ["M"] * n},
        numeric={f"d{j + 1}": rows[:, j] for j in range(3)},
    )


def three_flag_spec(k=1.0 / 3.0):
    return MpiSpec(
        dimensions=tuple(
            MpiDimension(f"dim{j}", 1.0 / 3.0, (MpiIndicator(f"d{j}"),))
            for j in (1, 2, 3)
        ),
        cutoff=k,
    )


class TestMpi:
    def test_hand_case(self):
        survey = flag_survey([[1, 1, 0], [1, 0, 0], [0, 0, 0], [1, 1, 1]])
        per_zone, metro = mpi(one_zone([1, 1, 1, 1]), survey, three_flag_spec())
        assert per_zone[0].headcount == pytest.approx(0.75)
        assert per_zone[0].intensity == pytest.approx(2.0 / 3.0)
        assert per_zone[0].adjusted == pytest.approx(0.5)

    def test_nobody_deprived(self):
        survey = flag_survey([[0, 0, 0], [0, 0, 0]])
        per_zone, _ = mpi(one_zone([1, 1]), survey, three_flag_spec())
        assert per_zone[0].headcount == 0
        assert per_zone[0].intensity == 0
        assert per_zone[0].adjusted == 0

    def test_m0_identity(self):
        rng = np.random.default_rng(3)
        survey = flag_survey((rng.random((20, 3)) < 0.4).astype(int))
        counts = rng.integers(0, 4, size=(20, 4))
        per_zone, _ = mpi(counts, survey, three_flag_spec())
        for res in per_zone:
            if not math.isnan(res.adjusted):
                assert res.adjusted == res.headcount * res.intensity

    def test_decomposability(self):
        rng = np.random.default_rng(14)
        survey = flag_survey((rng.random((30, 3)) < 0.4).astype(int))
        counts = rng.integers(0, 5, size=(30, 6))
        per_zone, metro = mpi(counts, survey, three_flag_spec())
        zone_pops = counts.sum(axis=0).astype(float)
        weighted = sum(
            p * r.adjusted for p, r in zip(zone_pops, per_zone) if p > 0
        ) / zone_pops.sum()
        assert metro.adjusted == pytest.approx(weighted, abs=1e-12)

    def test_union_headcount_at_minimal_cutoff(self):
        rng = np.random.default_rng(2)
        rows = (rng.random((25, 3)) < 0.3).astype(int)
        survey = flag_survey(rows)
        counts = one_zone(np.ones(25, dtype=int))
        per_zone, _ = mpi(counts, survey, three_flag_spec(k=1.0 / 3.0))
        union = (rows.sum(axis=1) >= 1).mean()
        assert per_zone[0].headcount == pytest.approx(union)

    def test_dimensional_monotonicity(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            rows = (rng.random((6, 3)) < 0.5).astype(int)
            survey = flag_survey(rows)
            counts = one_zone(rng.integers(1, 4, size=6))
            before, _ = mpi(counts, survey, three_flag_spec())
            score = rows.sum(axis=1)
            poor = np.flatnonzero((score >= 1) & (score < 3))
            if poor.size == 0:
                continue
            i = int(rng.choice(poor))
            j = int(np.flatnonzero(rows[i] == 0)[0])
            mutated = rows.copy()
            mutated[i, j] = 1
            after, _ = mpi(counts, flag_survey(mutated), three_flag_spec())
            assert after[0].adjusted >= before[0].adjusted - 1e-12

    def test_below_on_extra_numeric_column(self, tmp_path):
        survey = csv_survey(
            tmp_path,
            "record_id,household_id,sex,income,rooms\n"
            "r1,h1,M,100,1\nr2,h2,F,100,3\nr3,h3,F,2000,\nr4,h4,M,,0.5\n",
        )
        spec = MpiSpec(
            dimensions=(
                MpiDimension(
                    "housing", 0.5, (MpiIndicator("rooms", "below", threshold=2.0),)
                ),
                MpiDimension(
                    "income", 0.5, (MpiIndicator("income", "below", threshold=500.0),)
                ),
            ),
            cutoff=0.5,
        )
        # blank rooms (r3) and blank income (r4) count as not deprived
        per_zone, _ = mpi(one_zone([1, 1, 1, 1]), survey, spec)
        assert per_zone[0].headcount == 0.75
        assert per_zone[0].intensity == pytest.approx(2.0 / 3.0)
        assert per_zone[0].adjusted == pytest.approx(0.5)

    def test_flag_blank_is_not_deprived(self, tmp_path):
        survey = csv_survey(
            tmp_path,
            "record_id,household_id,sex,income,d1\n"
            "r1,h1,M,1,1\nr2,h2,F,1,\nr3,h3,F,1,0\n",
        )
        spec = MpiSpec(dimensions=(MpiDimension("d", 1.0, (MpiIndicator("d1"),)),))
        per_zone, _ = mpi(one_zone([1, 1, 1]), survey, spec)
        assert per_zone[0].headcount == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize(
        "indicator",
        [
            MpiIndicator("d4"),
            MpiIndicator("incme", "below", threshold=1.0),
            MpiIndicator("sex"),
            MpiIndicator("note"),
        ],
    )
    def test_indicator_field_must_be_a_numeric_column(self, tmp_path, indicator):
        survey = csv_survey(
            tmp_path,
            "record_id,household_id,sex,income,d1,note\nr1,h1,M,1,1,x\nr2,h2,F,1,0,\n",
        )
        spec = MpiSpec(dimensions=(MpiDimension("d", 1.0, (indicator,)),))
        with pytest.raises(SchemaError, match=repr(indicator.field)):
            mpi(one_zone([1, 1]), survey, spec)

    def test_in_values_must_be_categories(self):
        survey = flag_survey([[0, 0, 0], [1, 1, 1]])
        spec = MpiSpec(
            dimensions=(
                MpiDimension("d", 1.0, (MpiIndicator("sex", "in", values=("M", "X")),)),
            )
        )
        with pytest.raises(SchemaError, match=r"\['X'\] are not categories of 'sex'"):
            mpi(one_zone([1, 1]), survey, spec)

    def test_bad_weights_rejected(self):
        with pytest.raises(SchemaError):
            MpiSpec(
                dimensions=(
                    MpiDimension("a", 0.5, (MpiIndicator("d1"),)),
                    MpiDimension("b", 0.2, (MpiIndicator("d2"),)),
                ),
            )


class TestIncomeSummary:
    def test_zone_mean(self):
        incomes = np.array([10.0, 20.0])
        means, medians, metro_mean, metro_median = income_summary(
            one_zone([1, 1]), incomes
        )
        assert means[0] == 15

    def test_metro_mean_is_weighted_average_of_zone_means(self):
        rng = np.random.default_rng(4)
        incomes = rng.uniform(100, 900, size=20)
        counts = rng.integers(0, 5, size=(20, 4))
        means, _, metro_mean, _ = income_summary(counts, incomes)
        pops = counts.sum(axis=0)
        expected = sum(p * m for p, m in zip(pops, means) if p > 0) / pops.sum()
        assert metro_mean == pytest.approx(expected, rel=1e-12)

    def test_empty_zone_missing(self):
        incomes = np.array([10.0])
        means, medians, _, _ = income_summary(np.array([[1, 0]]), incomes)
        assert math.isnan(means[1]) and math.isnan(medians[1])
