import math

import numpy as np
import pytest
from scipy import integrate, special

from smallarea.schema import ConstraintTable, SchemaError, VariableDef
from smallarea.ingest import Crosswalk
from smallarea.validate import (
    aggregate,
    external_validation,
    internal_validation,
    metrics_for,
    r_squared,
    sei,
    student_t_two_tailed_p,
    t_test_equal_variance,
)

from conftest import make_schema, make_survey, make_table
from dense_oracle import dense_counts, sparse


def t_density(x, df):
    c = math.exp(
        math.lgamma((df + 1) / 2) - math.lgamma(df / 2)
    ) / math.sqrt(df * math.pi)
    return c * (1 + x * x / df) ** (-(df + 1) / 2)


class TestRSquared:
    def test_perfect(self):
        assert r_squared([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_affine_not_identity(self):
        a = np.array([1.0, 2, 3, 5])
        assert r_squared(a, 2 * a + 7) == pytest.approx(1.0)

    def test_hand_case(self):
        assert r_squared([1, 2, 3], [1, 3, 2]) == pytest.approx(0.25)

    def test_constant_actual_missing(self):
        assert math.isnan(r_squared([2, 2, 2], [1, 2, 3]))

    def test_short_vector_missing(self):
        assert math.isnan(r_squared([1, 2], [1, 2]))

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.normal(size=10)
            s = rng.normal(size=10)
            base = r_squared(a, s)
            assert r_squared(3 * a + 1, s) == pytest.approx(base, abs=1e-12)
            assert r_squared(a, 0.5 * s - 2) == pytest.approx(base, abs=1e-12)


class TestSei:
    def test_perfect(self):
        assert sei([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_constant_shift_penalized(self):
        a = np.array([1.0, 2, 3])
        c = 0.5
        expected = 1 - 3 * c * c / 2.0  # SST of [1,2,3] is 2
        assert sei(a, a + c) == pytest.approx(expected)
        assert r_squared(a, a + c) == pytest.approx(1.0)  # R² ignores the bias

    def test_hand_case(self):
        assert sei([1, 2, 3], [1, 2, 4]) == pytest.approx(0.5)

    def test_never_above_one(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = rng.normal(size=7)
            s = rng.normal(size=7)
            assert sei(a, s) <= 1.0

    def test_constant_actual_missing(self):
        assert math.isnan(sei([4, 4, 4], [1, 2, 3]))


class TestTTest:
    def test_identical_samples(self):
        t, p = t_test_equal_variance([1, 2, 3], [1, 2, 3])
        assert t == 0 and p == 1

    def test_hand_case(self):
        t, p = t_test_equal_variance([1, 2, 3], [2, 4, 6])
        assert t == pytest.approx(1.549, abs=1e-3)
        assert p == pytest.approx(0.196, abs=5e-3)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=6)
            s = rng.normal(size=6)
            t1, p1 = t_test_equal_variance(a, s)
            t2, p2 = t_test_equal_variance(s, a)
            assert t1 == pytest.approx(-t2, abs=1e-12)
            assert p1 == pytest.approx(p2, abs=1e-12)

    def test_degenerate_zero_variance(self):
        t, p = t_test_equal_variance([2, 2, 2], [5, 5, 5])
        assert math.isinf(t) and p == 0

    def test_p_value_against_numerical_integration(self):
        for df in (1, 2, 3, 5, 10, 30, 60):
            for t in (0.0, 0.5, 1.0, 1.549, 2.5, 4.0):
                tail, _ = integrate.quad(
                    t_density, t, math.inf, args=(df,), epsabs=1e-12
                )
                assert student_t_two_tailed_p(t, df) == pytest.approx(
                    2 * tail, abs=1e-8
                )

    def test_p_value_against_betainc(self):
        # Reference: scipy's regularized incomplete beta, on I_y(1/2, df/2)
        # = 1 - I_x(df/2, 1/2) where x = df / (df + t²) is too close to 1 to
        # hold y = 1 - x in its digits. Past df = 2000 the reference is the
        # complement of I_y(1/2, df/2) throughout: rounding x to a double
        # moves I_x(df/2, 1/2) by up to df/2 * 1e-16, 5e-10 at df = 1e7,
        # while y keeps its digits.
        dfs = [*range(1, 60), *range(60, 2000, 13), 1998, 2001, 10**5, 10**6, 10**7]
        ts = [0.0, 1e-8, 1e-3, 0.1, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 30.0, 100.0]
        for df in dfs:
            a = df / 2.0
            for t in ts:
                x, y = df / (df + t * t), t * t / (df + t * t)
                if df > 2000:
                    expected = float(special.betaincc(0.5, a, y))
                elif x < (a + 1.0) / (a + 2.5):
                    expected = float(special.betainc(a, 0.5, x))
                else:
                    expected = 1.0 - float(special.betainc(0.5, a, y))
                for signed in (t, -t):
                    p = student_t_two_tailed_p(signed, df)
                    assert p == pytest.approx(expected, rel=1e-10, abs=1e-300), (df, t)
            assert student_t_two_tailed_p(0.0, df) == 1.0
            assert student_t_two_tailed_p(math.inf, df) == 0.0
            assert student_t_two_tailed_p(-math.inf, df) == 0.0

    @pytest.mark.parametrize("df", [1, 6, 2000])
    def test_nan_t_gives_nan_p(self, df):
        assert math.isnan(student_t_two_tailed_p(math.nan, df))

    def test_metrics_of_a_nan_count_are_nan(self):
        m = metrics_for([1, 2, math.nan, 4], [1, 2, 3, 4])
        assert all(map(math.isnan, (m.r_squared, m.sei, m.t_stat, m.p_value)))

    def test_df_below_one_rejected(self):
        with pytest.raises(ValueError):
            student_t_two_tailed_p(1.0, 0)

    def test_direct_formula_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(3, 12))
            a = rng.normal(size=n)
            s = rng.normal(size=n)
            t, _ = t_test_equal_variance(a, s)
            sp2 = (np.var(a, ddof=1) + np.var(s, ddof=1)) / 2
            expected = (s.mean() - a.mean()) / math.sqrt(sp2 * 2 / n)
            assert t == pytest.approx(expected, abs=1e-10)
            assert r_squared(a, s) == pytest.approx(
                np.corrcoef(a, s)[0, 1] ** 2, abs=1e-10
            )
            expected_sei = 1 - ((s - a) ** 2).sum() / ((a - a.mean()) ** 2).sum()
            assert sei(a, s) == pytest.approx(expected_sei, abs=1e-10)


def small_population():
    schema = make_schema(
        constraint_vars=(VariableDef("sex", ("M", "F")),),
        external_vars=(VariableDef("nace", ("C", "D", "G")),),
    )
    survey = make_survey(
        schema,
        [
            {"sex": "M", "nace": "C"},
            {"sex": "M", "nace": "D"},
            {"sex": "F", "nace": "G"},
        ],
    )
    zones = ("Z1", "Z2", "Z3", "Z4")
    counts = np.array(
        [
            [2, 1, 4, 3],
            [3, 2, 1, 2],
            [5, 4, 3, 1],
        ]
    )
    pop = sparse(counts, zones, ("r0", "r1", "r2"))
    return schema, survey, pop, zones


class TestAggregate:
    def test_sums_counts_per_category(self):
        schema, survey, pop, zones = small_population()
        table = aggregate(pop, survey, "sex")
        np.testing.assert_array_equal(table.counts[:, 0], [5, 3, 5, 5])  # M
        np.testing.assert_array_equal(table.counts[:, 1], [5, 4, 3, 1])  # F

    def test_crosswalk_groups(self):
        schema, survey, pop, zones = small_population()
        cw = Crosswalk("nace", {"C": "C+D", "D": "C+D", "G": "G"})
        table = aggregate(pop, survey, "nace", cw)
        assert table.categories == ("C+D", "G")
        np.testing.assert_array_equal(table.counts[:, 0], [5, 3, 5, 5])

    def test_missing_crosswalk_entry(self):
        schema, survey, pop, zones = small_population()
        cw = Crosswalk("nace", {"C": "C+D", "D": "C+D"})
        with pytest.raises(Exception, match="'G'"):
            aggregate(pop, survey, "nace", cw)


def reference_aggregate(population, survey, variable, crosswalk=None):
    """The per-zone bincount loop over the dense count matrix that
    `aggregate` replaced."""
    vardef = survey.schema.variable(variable)
    codes = survey.category_codes(variable)
    if crosswalk is not None:
        groups = crosswalk.groups()
        gindex = {g: i for i, g in enumerate(groups)}
        cat_to_group = np.array(
            [gindex[crosswalk.group(c)] for c in vardef.categories], dtype=np.intp
        )
        codes = cat_to_group[codes]
        categories = groups
    else:
        categories = vardef.categories
    n_cats = len(categories)
    dense = dense_counts(population)
    counts = np.zeros((len(population.zone_ids), n_cats))
    for zi in range(len(population.zone_ids)):
        counts[zi] = np.bincount(
            codes, weights=dense[:, zi], minlength=n_cats
        )
    return ConstraintTable(variable, population.zone_ids, categories, counts)


class TestAggregateAgainstReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_populations(self, seed):
        rng = np.random.default_rng(seed)
        fine = tuple("ABCDEFG")
        schema = make_schema(
            constraint_vars=(VariableDef("sex", ("M", "F")),),
            external_vars=(VariableDef("occ", fine),),
        )
        n, n_zones = 60, 9
        survey = make_survey(
            schema,
            [
                # "G" has no record.
                {"sex": str(rng.choice(["M", "F"])), "occ": str(rng.choice(fine[:6]))}
                for _ in range(n)
            ],
        )
        counts = rng.integers(0, 4, size=(n, n_zones)) * (rng.random(n) < 0.7)[:, None]
        counts[:, 0] = 0  # an empty zone
        zones = tuple(f"Z{i}" for i in range(n_zones))
        pop = sparse(counts, zones, survey.record_ids)
        groups = rng.choice(["g1", "g2", "g3"], size=len(fine))
        crosswalk = Crosswalk("occ", dict(zip(fine, map(str, groups))))
        for variable, cw in [("sex", None), ("occ", None), ("occ", crosswalk)]:
            table = aggregate(pop, survey, variable, cw)
            expected = reference_aggregate(pop, survey, variable, cw)
            assert (table.zones, table.categories) == (
                expected.zones,
                expected.categories,
            )
            assert table.counts.tobytes() == expected.counts.tobytes()


class TestInternalValidation:
    def test_perfect_recovery_metrics(self):
        schema, survey, pop, zones = small_population()
        actual = aggregate(pop, survey, "sex")
        tables = [make_table("sex", zones, ("M", "F"), actual.counts)]
        report = internal_validation(pop, survey, tables)
        for var, cat, m in report.metrics:
            if not math.isnan(m.sei):
                assert m.sei == pytest.approx(1.0)
            assert m.p_value == pytest.approx(1.0)

    def test_corruption_lowers_sei(self):
        schema, survey, pop, zones = small_population()
        actual = aggregate(pop, survey, "sex").counts.copy()
        actual[1] = actual[1][::-1]  # swap one zone's category counts
        tables = [make_table("sex", zones, ("M", "F"), actual)]
        report = internal_validation(pop, survey, tables)
        seis = [m.sei for _, _, m in report.metrics if not math.isnan(m.sei)]
        assert any(s < 1 for s in seis)

    def test_share_rows_sum_to_100(self):
        schema, survey, pop, zones = small_population()
        actual = aggregate(pop, survey, "sex")
        tables = [make_table("sex", zones, ("M", "F"), actual.counts)]
        report = internal_validation(pop, survey, tables)
        assert sum(r[2] for r in report.shares) == pytest.approx(100, abs=0.01)
        assert sum(r[3] for r in report.shares) == pytest.approx(100, abs=0.01)


class TestExternalValidation:
    def test_equal_tables_zero_differences(self):
        schema, survey, pop, zones = small_population()
        cw = Crosswalk("nace", {"C": "C+D", "D": "C+D", "G": "G"})
        sim = aggregate(pop, survey, "nace", cw)
        report = external_validation(pop, survey, sim, cw)
        for _, _, census_pct, sim_pct, diff in report.shares:
            assert diff == pytest.approx(0.0, abs=1e-12)
        for _, _, m in report.metrics:
            assert m.sei == pytest.approx(1.0)

    def test_zone_mismatch_is_error(self):
        schema, survey, pop, zones = small_population()
        actual = ConstraintTable(
            "nace", ("A1", "A2", "A3", "A4"), ("C", "D", "G"), np.ones((4, 3))
        )
        with pytest.raises(SchemaError, match="zone id mismatch"):
            external_validation(pop, survey, actual)

    def test_metro_only_actuals_skip_zone_metrics(self):
        schema, survey, pop, zones = small_population()
        actual = ConstraintTable("nace", ("ALL",), ("C", "D", "G"), [[5, 4, 3]])
        report = external_validation(pop, survey, actual)
        assert report.metrics == ()
        assert len(report.shares) == 3
