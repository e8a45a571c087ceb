import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smallarea.indicators import (
    MpiDimension,
    MpiIndicator,
    MpiResult,
    MpiSpec,
    arop_absolute,
    arop_relative,
    deprivation_scores,
    equivalize,
    equivalized_incomes,
    income_indicators,
    income_summary,
    md_rate,
    mpi,
    percent_change,
    weighted_median,
)
from smallarea.fixture import generate_example
from smallarea.ingest import load_config, load_constraints, load_survey
from smallarea.integerize import round_half_up, synthesize
from smallarea.ipf import ipf_all
from smallarea.schema import (
    SchemaError,
    SurveyDataset,
    VariableDef,
    rescale_constraints,
)

from conftest import make_schema
from dense_oracle import dense_counts, sparse


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

    @pytest.mark.parametrize(
        "adults, children",
        [("2.7", "0"), ("2", "0.5"), ("inf", "0"), ("0", "0"), ("2", "-1")],
    )
    def test_bad_household_size_names_record(self, tmp_path, adults, children):
        survey = csv_survey(
            tmp_path,
            "record_id,household_id,sex,income,n_adults,n_children\n"
            f"r1,h1,M,30000,2,2\nr2,h2,F,1000,{adults},{children}\n",
        )
        with pytest.raises(SchemaError, match="record 'r2'.*integer"):
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
    return sparse(np.reshape(counts, (-1, 1)))


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
            r1, line1, _ = arop_absolute(sparse(counts), incomes)
            r2, line2, _ = arop_absolute(sparse(counts), incomes * 3)
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
        rates, lines = arop_relative(sparse(counts), incomes)
        np.testing.assert_allclose(rates, [0.25, 0.25])
        np.testing.assert_allclose(lines, [60, 600])

    def test_locality_under_other_zone_mutation(self):
        rng = np.random.default_rng(5)
        incomes = rng.uniform(10, 100, size=12)
        counts = rng.integers(0, 4, size=(12, 3))
        counts[:, 0] = np.maximum(counts[:, 0], 1)
        base, _ = arop_relative(sparse(counts), incomes)
        mutated = counts.copy()
        mutated[:, 1] = rng.integers(0, 9, size=12)
        after, _ = arop_relative(sparse(mutated), incomes)
        assert after[0] == base[0]

    def test_empty_zone_missing(self):
        incomes = np.array([50.0, 100])
        counts = np.array([[1, 0], [1, 0]])
        rates, _ = arop_relative(sparse(counts), incomes)
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
        per_zone, _ = mpi(sparse(counts), survey, three_flag_spec())
        for res in per_zone:
            if not math.isnan(res.adjusted):
                assert res.adjusted == res.headcount * res.intensity

    def test_decomposability(self):
        rng = np.random.default_rng(14)
        survey = flag_survey((rng.random((30, 3)) < 0.4).astype(int))
        counts = rng.integers(0, 5, size=(30, 6))
        per_zone, metro = mpi(sparse(counts), survey, three_flag_spec())
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
        means, medians = income_summary(one_zone([1, 1]), incomes)
        assert means[0] == 15

    def test_metro_mean_is_weighted_average_of_zone_means(self):
        rng = np.random.default_rng(4)
        incomes = rng.uniform(100, 900, size=20)
        counts = rng.integers(0, 5, size=(20, 4))
        means, _ = income_summary(sparse(counts), incomes)
        (metro_mean,), _ = income_summary(sparse(counts.sum(axis=1)[:, None]), incomes)
        pops = counts.sum(axis=0)
        expected = sum(p * m for p, m in zip(pops, means) if p > 0) / pops.sum()
        assert metro_mean == pytest.approx(expected, rel=1e-12)

    def test_empty_zone_missing(self):
        incomes = np.array([10.0])
        means, medians = income_summary(sparse(np.array([[1, 0]])), incomes)
        assert math.isnan(means[1]) and math.isnan(medians[1])


# --------------------------------------------------------------------------
# Reference implementations: the per-zone code that income_summary,
# arop_absolute and arop_relative replaced, one np.unique per median.
# --------------------------------------------------------------------------

def ref_weighted_median(values, counts):
    values = np.asarray(values, dtype=float)
    counts = np.asarray(counts, dtype=float)
    keep = counts > 0
    values, counts = values[keep], counts[keep]
    if values.size == 0:
        raise ValueError("empty population")
    uniq, inv = np.unique(values, return_inverse=True)
    agg = np.zeros(uniq.size)
    np.add.at(agg, inv, counts)
    cum = np.cumsum(agg)
    half = cum[-1] / 2.0
    i = int(np.searchsorted(cum, half, side="left"))
    if cum[i] == half and i + 1 < uniq.size:
        return (uniq[i] + uniq[i + 1]) / 2.0
    return uniq[i]


def ref_zone_rate(counts_col, below_mask, valid_mask):
    denom = counts_col[valid_mask].sum()
    if denom == 0:
        return math.nan
    return counts_col[valid_mask & below_mask].sum() / denom


def ref_arop_absolute(counts, incomes, fraction):
    valid = ~np.isnan(incomes)
    pooled = counts.sum(axis=1)
    if pooled[valid].sum() == 0:
        raise ValueError("no counted person with observed income")
    line = fraction * ref_weighted_median(incomes[valid], pooled[valid])
    below = np.zeros_like(valid)
    below[valid] = incomes[valid] < line
    rates = np.array(
        [ref_zone_rate(counts[:, z], below, valid) for z in range(counts.shape[1])]
    )
    excluded = counts[~valid].sum(axis=0)
    return rates, line, excluded


def ref_arop_relative(counts, incomes, fraction):
    valid = ~np.isnan(incomes)
    n_zones = counts.shape[1]
    rates = np.full(n_zones, math.nan)
    lines = np.full(n_zones, math.nan)
    for z in range(n_zones):
        col = counts[:, z]
        if col[valid].sum() == 0:
            continue
        line = fraction * ref_weighted_median(incomes[valid], col[valid])
        below = np.zeros_like(valid)
        below[valid] = incomes[valid] < line
        lines[z] = line
        rates[z] = ref_zone_rate(col, below, valid)
    return rates, lines


def ref_income_summary(counts, incomes):
    """(means, medians, metro_mean, metro_median)."""
    valid = ~np.isnan(incomes)
    n_zones = counts.shape[1]
    means = np.full(n_zones, math.nan)
    medians = np.full(n_zones, math.nan)
    for z in range(n_zones):
        col = counts[:, z]
        w = col[valid].astype(float)
        if w.sum() == 0:
            continue
        means[z] = incomes[valid] @ w / w.sum()
        medians[z] = ref_weighted_median(incomes[valid], w)
    pooled = counts.sum(axis=1)[valid].astype(float)
    if pooled.sum() == 0:
        return means, medians, math.nan, math.nan
    metro_mean = incomes[valid] @ pooled / pooled.sum()
    metro_median = ref_weighted_median(incomes[valid], pooled)
    return means, medians, metro_mean, metro_median


def ref_md_rate(counts, deprivations, threshold):
    deprived = deprivations.sum(axis=1) >= threshold
    totals = counts.sum(axis=0).astype(float)
    hit = counts[deprived].sum(axis=0)
    with np.errstate(invalid="ignore"):
        return np.where(totals > 0, hit / np.where(totals > 0, totals, 1), math.nan)


def ref_mpi(counts, survey, spec):
    score = deprivation_scores(survey, spec)
    poor = score >= spec.cutoff - 1e-9

    def compute(col):
        total = col.sum()
        if total == 0:
            return MpiResult(math.nan, math.nan, math.nan)
        wp = col[poor].sum()
        h = wp / total
        a = float(score[poor] @ col[poor] / wp) if wp > 0 else 0.0
        return MpiResult(float(h), a, float(h * a))

    per_zone = [compute(counts[:, z].astype(float)) for z in range(counts.shape[1])]
    return per_zone, compute(counts.sum(axis=1).astype(float))


def assert_same(actual, expected):
    """Exact equality, NaN equal to NaN."""
    np.testing.assert_array_equal(np.asarray(actual), np.asarray(expected), strict=True)


# Few distinct values, so that ties and half-totals on a boundary between two
# values are common; NaN is a missing income.
income_values = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 3.5, 100.0, math.nan]),
    st.floats(0.0, 1e6, allow_nan=False),
)


@st.composite
def populations(draw):
    """(counts, incomes): a records x zones int64 count matrix, some zones
    possibly counting nobody, and incomes possibly all missing."""
    n = draw(st.integers(1, 12))
    n_zones = draw(st.integers(1, 4))
    incomes = np.array(draw(st.lists(income_values, min_size=n, max_size=n)))
    size = n * n_zones
    cells = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size))
    counts = np.array(cells, dtype=np.int64).reshape(n, n_zones)
    if draw(st.booleans()):
        counts[:, draw(st.integers(0, n_zones - 1))] = 0
    return counts, incomes


def col(*values):
    return np.array(values, dtype=np.int64).reshape(-1, 1)


# Named cases: a half-total on the boundary between two values (also across a
# zero-count record, and with the tie continuing past it), a zone with nobody,
# all incomes missing, and a line equal to an income.
ORACLE_CASES = [
    (col(1, 1, 2), np.array([1.0, 2.0, 3.0]), 0.6),
    (col(1, 0, 1), np.array([1.0, 5.0, 2.0]), 0.6),
    (col(1, 1, 2), np.array([1.0, 1.0, 2.0]), 1.0),
    (col(1, 1, 2), np.array([1.0, 2.0, 2.0]), 1.0),
    (np.array([[1, 0], [1, 0]]), np.array([50.0, 100.0]), 0.6),
    (np.array([[1, 2], [3, 0]]), np.array([math.nan, math.nan]), 0.6),
    (np.array([[2, 1], [1, 1], [0, 3]]), np.array([10.0, math.nan, 6.0]), 0.6),
]


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(pop=populations(), fraction=st.sampled_from([0.5, 0.6, 1.0]))
    def test_income_and_arop(self, pop, fraction):
        self.check(*pop, fraction)

    @pytest.mark.parametrize("counts, incomes, fraction", ORACLE_CASES)
    def test_named_cases(self, counts, incomes, fraction):
        self.check(counts, incomes, fraction)

    @staticmethod
    def check(counts, incomes, fraction):
        means, medians, metro_mean, metro_median = ref_income_summary(counts, incomes)
        assert_same(income_summary(sparse(counts), incomes), (means, medians))
        pooled = counts.sum(axis=1)[:, None]
        metro = income_summary(sparse(pooled), incomes)
        assert_same(metro, ([metro_mean], [metro_median]))
        for cols in (counts, pooled):
            rates, lines = arop_relative(sparse(cols), incomes, fraction)
            ref_rates, ref_lines = ref_arop_relative(cols, incomes, fraction)
            assert_same(rates, ref_rates)
            assert_same(lines, ref_lines)
            try:
                expected = ref_arop_absolute(cols, incomes, fraction)
            except ValueError:
                with pytest.raises(ValueError):
                    arop_absolute(sparse(cols), incomes, fraction)
                continue
            rates, line, excluded = arop_absolute(sparse(cols), incomes, fraction)
            assert_same(rates, expected[0])
            assert line == expected[1]
            assert_same(excluded, expected[2])

    @settings(max_examples=200, deadline=None)
    @given(pop=populations(), data=st.data())
    def test_md_rate_and_mpi(self, pop, data):
        # Zone columns scattered into the dense buffer: the same sums and
        # dot products as on the dense matrix.
        counts, _ = pop
        n = len(counts)
        flags = data.draw(st.lists(st.booleans(), min_size=3 * n, max_size=3 * n))
        rows = np.reshape(flags, (n, 3))
        for threshold in (1, 2, 3):
            assert_same(
                md_rate(sparse(counts), rows, threshold),
                ref_md_rate(counts, rows, threshold),
            )
        survey = flag_survey(rows.astype(int))
        spec = three_flag_spec(data.draw(st.sampled_from([1 / 3, 2 / 3, 1.0])))
        got = mpi(sparse(counts), survey, spec)
        expected = ref_mpi(counts, survey, spec)
        assert repr(got) == repr(expected)  # NaN fields compare equal as text

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 15))
    def test_weighted_median(self, data, n):
        observed = income_values.filter(lambda v: not math.isnan(v))
        values = data.draw(st.lists(observed, min_size=n, max_size=n))
        counts = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
        if not any(counts):
            with pytest.raises(ValueError):
                weighted_median(values, counts)
        else:
            expected = ref_weighted_median(values, counts)
            assert weighted_median(values, counts) == expected

    @pytest.mark.parametrize("counts, incomes, _", ORACLE_CASES[:4])
    def test_weighted_median_named_cases(self, counts, incomes, _):
        expected = ref_weighted_median(incomes, counts[:, 0])
        assert weighted_median(incomes, counts[:, 0]) == expected


class TestIncomeIndicators:
    """income_indicators, the one ranked pass per zone that run_indicators
    makes, gives the figures of income_summary, arop_absolute and
    arop_relative, and those of the reference code."""

    @staticmethod
    def check(population, incomes, fraction):
        counts = dense_counts(population)
        try:
            ref_abs = ref_arop_absolute(counts, incomes, fraction)
        except ValueError:
            with pytest.raises(ValueError, match="no counted person"):
                income_indicators(population, incomes, fraction)
            return
        figures = income_indicators(population, incomes, fraction)
        summary = (figures.means, figures.medians)
        assert_same(summary, income_summary(population, incomes))
        assert_same(summary, ref_income_summary(counts, incomes)[:2])
        relative = (figures.arop_relative, figures.lines)
        assert_same(relative, arop_relative(population, incomes, fraction))
        assert_same(relative, ref_arop_relative(counts, incomes, fraction))
        for rates, line, excluded in (
            arop_absolute(population, incomes, fraction),
            ref_abs,
        ):
            assert_same(figures.arop_absolute, rates)
            assert figures.line == line
            assert_same(figures.excluded, excluded)

    @settings(max_examples=200, deadline=None)
    @given(pop=populations(), fraction=st.sampled_from([0.5, 0.6, 1.0]))
    def test_hypothesis_populations(self, pop, fraction):
        counts, incomes = pop
        self.check(sparse(counts), incomes, fraction)

    def test_recovery_fixture(self, tmp_path):
        # The acceptance gate's 59 zones x 3000 records, about 5000 persons
        # per zone, with its equivalized incomes.
        config = load_config(
            generate_example(tmp_path, n_zones=59, survey_size=3000, mean_zone_pop=5000)
        )
        survey = load_survey(config.survey_path, config.schema)
        tables = rescale_constraints(
            load_constraints(config.constraints_path, config.schema),
            config.schema.constraint_vars[0].name,
        )
        matrix, _ = ipf_all(survey, tables)
        population = synthesize(
            matrix, round_half_up(tables[0].zone_totals()), config.seed
        )
        incomes = equivalized_incomes(survey, config.equivalize)
        self.check(population, incomes, config.arop_fraction)
