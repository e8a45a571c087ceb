import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallarea.fixture import generate_example
from smallarea.ingest import load_config, load_constraints, load_survey
from smallarea.ipf import ipf_all, ipf_zone, tae
from smallarea.schema import VariableDef, rescale_constraints

from conftest import make_schema, make_survey, make_table
from dense_oracle import dense_weights


def brute_force_ipf(codes_by_var, targets_by_var, order, sweeps=500):
    """Independent oracle: plain-python IPF, many sweeps."""
    n = len(next(iter(codes_by_var.values())))
    w = [1.0] * n
    for _ in range(sweeps):
        for var in order:
            codes = codes_by_var[var]
            targets = targets_by_var[var]
            totals = [0.0] * len(targets)
            for i, c in enumerate(codes):
                totals[c] += w[i]
            for i, c in enumerate(codes):
                if totals[c] > 0:
                    w[i] *= targets[c] / totals[c]
    return w


class TestIpfZone:
    def test_single_constraint_closed_form(self):
        schema = make_schema(constraint_vars=(VariableDef("v", ("A", "B")),))
        survey = make_survey(schema, [{"v": "A"}, {"v": "B"}])
        w, iters, err, ok = ipf_zone(survey, {"v": [3, 1]})
        np.testing.assert_allclose(w, [3, 1])
        assert err == 0 and iters == 1 and ok

    def test_two_constraint_hand_case(self, two_by_two):
        schema, survey = two_by_two
        w, iters, err, ok = ipf_zone(survey, {"sex": [2, 2], "age": [3, 1]})
        np.testing.assert_allclose(w, [1.5, 0.5, 1.5, 0.5], atol=1e-12)
        assert iters == 1 and ok

    def test_already_satisfied(self, two_by_two):
        schema, survey = two_by_two
        w, iters, err, ok = ipf_zone(
            survey, {"sex": [2, 2], "age": [2, 2]}, init_weights=[1, 1, 1, 1]
        )
        np.testing.assert_array_equal(w, [1, 1, 1, 1])
        assert err == 0 and ok

    def test_zero_population_zone(self, two_by_two):
        schema, survey = two_by_two
        w, iters, err, ok = ipf_zone(survey, {"sex": [0, 0], "age": [0, 0]})
        np.testing.assert_array_equal(w, np.zeros(4))
        assert ok and iters == 0

    def test_unsupported_category_flags_nonconvergence(self):
        schema = make_schema(constraint_vars=(VariableDef("v", ("A", "B")),))
        survey = make_survey(schema, [{"v": "A"}, {"v": "A"}])
        w, iters, err, ok = ipf_zone(survey, {"v": [3, 1]})
        assert not ok
        assert err == pytest.approx(1.0)  # the unreachable B mass

    def test_init_scale_absorbed(self, two_by_two):
        schema, survey = two_by_two
        constraints = {"sex": [2, 2], "age": [3, 1]}
        w1, *_ = ipf_zone(survey, constraints, init_weights=[1, 1, 1, 1])
        w2, *_ = ipf_zone(survey, constraints, init_weights=[7, 7, 7, 7])
        np.testing.assert_allclose(w1, w2, rtol=1e-12)

    def test_matches_brute_force_fixed_point(self, two_by_two):
        schema, survey = two_by_two
        rng = np.random.default_rng(11)
        for _ in range(25):
            # consistent targets drawn from a random positive joint table
            joint = rng.uniform(0.2, 5.0, size=(2, 2))
            sex_t = joint.sum(axis=1)
            age_t = joint.sum(axis=0)
            constraints = {"sex": sex_t, "age": age_t}
            w, iters, err, ok = ipf_zone(
                survey, constraints, max_iterations=500, tolerance=1e-13
            )
            codes = {
                "sex": list(survey.category_codes("sex")),
                "age": list(survey.category_codes("age")),
            }
            targets = {"sex": list(sex_t), "age": list(age_t)}
            oracle = brute_force_ipf(codes, targets, ["sex", "age"])
            np.testing.assert_allclose(w, oracle, atol=1e-9)

    def test_tae_non_increasing_on_consistent_instances(self, two_by_two):
        schema, survey = two_by_two
        rng = np.random.default_rng(5)
        for _ in range(100):
            joint = rng.uniform(0.1, 10.0, size=(2, 2))
            constraints = {"sex": joint.sum(axis=1), "age": joint.sum(axis=0)}
            w = rng.uniform(0.5, 2.0, size=4)
            taes = [tae(w, constraints, survey)]
            for _ in range(15):
                w, _, err, _ = ipf_zone(
                    survey,
                    constraints,
                    init_weights=np.maximum(w, 1e-300),
                    max_iterations=1,
                    tolerance=0,
                )
                taes.append(err)
            diffs = np.diff(taes)
            assert np.all(diffs <= 1e-9)

    def test_weights_stay_finite_nonnegative(self, two_by_two):
        schema, survey = two_by_two
        rng = np.random.default_rng(9)
        for _ in range(50):
            constraints = {
                "sex": rng.uniform(0, 5, 2),
                "age": rng.uniform(0, 5, 2),
            }
            w, *_ = ipf_zone(survey, constraints)
            assert np.all(np.isfinite(w)) and np.all(w >= 0)


class TestTae:
    def test_perfect_fit(self, two_by_two):
        schema, survey = two_by_two
        assert tae([1, 1, 1, 1], {"sex": [2, 2], "age": [2, 2]}, survey) == 0

    def test_partial(self):
        schema = make_schema(constraint_vars=(VariableDef("v", ("A", "B")),))
        survey = make_survey(schema, [{"v": "A"}, {"v": "B"}])
        assert tae([2.5, 1], {"v": [3, 1]}, survey) == pytest.approx(0.5)

    def test_all_zero_weights(self):
        schema = make_schema(constraint_vars=(VariableDef("v", ("A", "B")),))
        survey = make_survey(schema, [{"v": "A"}, {"v": "B"}])
        assert tae([0, 0], {"v": [60, 40]}, survey) == pytest.approx(100)


class TestIpfAll:
    def tables(self, sex, age, zones):
        return [
            make_table("sex", zones, ("M", "F"), sex),
            make_table("age", zones, ("Y", "O"), age),
        ]

    def test_single_zone_matches_ipf_zone(self, two_by_two):
        schema, survey = two_by_two
        tables = self.tables([[2, 2]], [[3, 1]], ["Z1"])
        matrix, info = ipf_all(survey, tables)
        w, *_ = ipf_zone(survey, {"sex": [2, 2], "age": [3, 1]})
        np.testing.assert_array_equal(matrix.column(0), w)
        assert info.all_converged

    def test_zone_permutation_permutes_columns(self, two_by_two):
        schema, survey = two_by_two
        sex = [[2, 2], [10, 6]]
        age = [[3, 1], [8, 8]]
        t1 = self.tables(sex, age, ["Z1", "Z2"])
        t2 = self.tables(sex[::-1], age[::-1], ["Z2", "Z1"])
        m1, _ = ipf_all(survey, t1)
        m2, _ = ipf_all(survey, t2)
        np.testing.assert_array_equal(dense_weights(m1)[:, [1, 0]], dense_weights(m2))

    def test_empty_zone_gives_zero_column(self, two_by_two):
        schema, survey = two_by_two
        tables = self.tables([[2, 2], [0, 0]], [[3, 1], [0, 0]], ["Z1", "Z2"])
        matrix, info = ipf_all(survey, tables)
        assert matrix.column(1).sum() == 0
        assert info.all_converged


# --------------------------------------------------------------------------
# Reference: the per-record, per-zone IPF that the cell kernel replaced.
# --------------------------------------------------------------------------


def reference_ipf_zone(
    survey, zone_constraints, init_weights=None, max_iterations=100, tolerance=1e-6
):
    n = survey.n
    w = np.ones(n) if init_weights is None else np.asarray(init_weights, dtype=float)
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise ValueError("init_weights must be positive and finite")
    w = w.copy()

    ref_var = survey.schema.constraint_vars[0].name
    zone_pop = float(np.sum(zone_constraints[ref_var]))
    if zone_pop == 0:
        return np.zeros(n), 0, 0.0, True
    threshold = tolerance * zone_pop

    prepared = []
    for var in survey.schema.constraint_vars:
        target = np.asarray(zone_constraints[var.name], dtype=float)
        codes = survey.category_codes(var.name)
        prepared.append((codes, target, len(var.categories)))

    current = tae(w, zone_constraints, survey)
    iterations = 0
    while current > threshold and iterations < max_iterations:
        for codes, target, ncat in prepared:
            fitted = np.bincount(codes, weights=w, minlength=ncat)
            factor = np.ones(ncat)
            fittable = fitted > 0
            factor[fittable] = target[fittable] / fitted[fittable]
            w *= factor[codes]
        iterations += 1
        current = tae(w, zone_constraints, survey)
    return w, iterations, current, current <= threshold


def reference_ipf_all(survey, tables, **kwargs):
    """Returns (weights records x zones, iterations, converged flags)."""
    by_var = {t.variable: t for t in tables}
    columns, iterations, converged = [], [], []
    for zi in range(len(tables[0].zones)):
        constraints = {
            var.name: by_var[var.name].counts[zi]
            for var in survey.schema.constraint_vars
        }
        w, iters, _, ok = reference_ipf_zone(survey, constraints, **kwargs)
        columns.append(w)
        iterations.append(iters)
        converged.append(ok)
    return np.stack(columns, axis=1), iterations, converged


def assert_matches_reference(survey, tables, **kwargs):
    matrix, info = ipf_all(survey, tables, **kwargs)
    ref, ref_iterations, ref_converged = reference_ipf_all(survey, tables, **kwargs)
    assert [z.iterations for z in info.zones] == ref_iterations
    assert [z.converged for z in info.zones] == ref_converged
    w = dense_weights(matrix)
    for zi in range(len(matrix.zone_ids)):  # the same bits, one zone at a time
        assert matrix.column(zi).tobytes() == w[:, zi].tobytes()
    assert_close_to_reference(w, ref)
    return matrix, info, ref


def assert_zones_match_reference(survey, tables, init_weights, **kwargs):
    """ipf_zone from `init_weights` against the reference, zone by zone:
    identical iteration counts and flags, weights as close as
    assert_close_to_reference requires. Returns the weights and the
    reference's, records x zones."""
    columns, ref_columns = [], []
    for zi in range(len(tables[0].zones)):
        constraints = {t.variable: t.counts[zi] for t in tables}
        w, iterations, _, ok = ipf_zone(survey, constraints, init_weights, **kwargs)
        ref, ref_iterations, _, ref_ok = reference_ipf_zone(
            survey, constraints, init_weights, **kwargs
        )
        assert (iterations, ok) == (ref_iterations, ref_ok)
        columns.append(w)
        ref_columns.append(ref)
    w, ref = np.stack(columns, axis=1), np.stack(ref_columns, axis=1)
    assert_close_to_reference(w, ref)
    return w, ref


def assert_close_to_reference(w, ref):
    assert np.all(np.abs(w - ref) <= 1e-12 * np.abs(ref)), np.max(
        np.abs(w - ref) / np.where(ref == 0, 1.0, np.abs(ref))
    )
    # Within that difference floor(w) can only change where the reference
    # weight is an integer or within rounding of one: with init weights
    # [2.9375, 2.9375] and a census count of 12 the records get 6.0 and the
    # cell fit 5.999999999999999.
    settled = np.abs(ref - np.round(ref)) > 1e-12 * np.abs(ref)
    np.testing.assert_array_equal(np.floor(w)[settled], np.floor(ref)[settled])


class TestCellsAgainstReference:
    """Cell IPF against the per-record reference: identical iteration counts
    and flags, weights within 1e-12 relative, identical floor(w)."""

    @pytest.fixture(scope="class")
    def example(self, tmp_path_factory):
        # The acceptance gate's recovery fixture.
        d = tmp_path_factory.mktemp("ipf_example")
        cfg = load_config(
            generate_example(d, n_zones=59, survey_size=3000, mean_zone_pop=5000)
        )
        survey = load_survey(cfg.survey_path, cfg.schema)
        tables = load_constraints(cfg.constraints_path, cfg.schema)
        reference = cfg.schema.constraint_vars[0].name
        return survey, rescale_constraints(tables, reference)

    def test_example(self, example):
        survey, tables = example
        matrix, info, ref = assert_matches_reference(survey, tables)
        assert info.all_converged
        np.testing.assert_array_equal(np.floor(dense_weights(matrix)), np.floor(ref))

    def test_example_iteration_cap(self, example):
        survey, tables = example
        matrix, info, ref = assert_matches_reference(survey, tables, max_iterations=2)
        assert not info.all_converged
        np.testing.assert_array_equal(np.floor(dense_weights(matrix)), np.floor(ref))

    def test_example_init_weights(self, example):
        # ipf_all fits from weight 1; ipf_zone takes initial weights.
        survey, tables = example
        init = np.random.default_rng(3).uniform(0.2, 5.0, survey.n)
        w, ref = assert_zones_match_reference(survey, tables, init)
        np.testing.assert_array_equal(np.floor(w), np.floor(ref))

    def test_acceptance_instances(self, two_by_two):
        # test_criterion_4_ipf_oracle's random consistent 2 x 2 tables.
        schema, survey = two_by_two
        rng = np.random.default_rng(44)
        joints = rng.uniform(0.2, 5.0, size=(30, 2, 2))
        zones = [f"Z{i}" for i in range(30)]
        tables = [
            make_table("sex", zones, ("M", "F"), joints.sum(axis=2)),
            make_table("age", zones, ("Y", "O"), joints.sum(axis=1)),
        ]
        assert_matches_reference(survey, tables, max_iterations=500)

    def test_many_variables_without_integer_key(self):
        # 4**32 category combinations do not fit one int64 key.
        variables = tuple(VariableDef(f"v{i}", ("a", "b", "c", "d")) for i in range(32))
        schema = make_schema(constraint_vars=variables)
        rng = np.random.default_rng(8)
        records = rng.integers(0, 2, size=(12, 32))
        records[6:] = records[:6]  # every cell holds two records
        survey = make_survey(
            schema, [{f"v{i}": "ab"[c] for i, c in enumerate(r)} for r in records]
        )
        tables = [
            make_table(
                v.name,
                ["Z1", "Z2"],
                v.categories,
                [[5, 7, 0, 0], [np.count_nonzero(records[:, i] == 0), 1, 1, 0]],
            )
            for i, v in enumerate(variables)
        ]
        assert_matches_reference(survey, tables)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_generated_tables(self, data):
        sizes = data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
        variables = tuple(
            VariableDef(f"v{i}", tuple(f"c{j}" for j in range(k)))
            for i, k in enumerate(sizes)
        )
        cell = st.tuples(*(st.integers(0, k - 1) for k in sizes))
        records = data.draw(st.lists(cell, min_size=1, max_size=30))
        # Each zone's persons, one category tuple each: consistent margins,
        # possibly in categories no record has, and empty zones.
        persons = data.draw(
            st.lists(st.lists(cell, max_size=40), min_size=1, max_size=5)
        )
        counts = np.zeros((len(sizes), len(persons), max(sizes)))
        for zi, people in enumerate(persons):
            for person in people:
                for vi, c in enumerate(person):
                    counts[vi, zi, c] += 1
        if data.draw(st.booleans()):  # inconsistent margins
            noise = data.draw(
                st.lists(st.integers(0, 3), min_size=counts.size, max_size=counts.size)
            )
            counts[1:] += np.reshape(noise, counts.shape)[1:]
        init = data.draw(
            st.none()
            | st.lists(
                st.floats(0.25, 4.0), min_size=len(records), max_size=len(records)
            )
        )
        max_iterations = data.draw(st.integers(0, 30))

        schema = make_schema(constraint_vars=variables)
        survey = make_survey(
            schema, [{f"v{i}": f"c{c}" for i, c in enumerate(r)} for r in records]
        )
        zones = [f"Z{zi}" for zi in range(len(persons))]
        tables = [
            make_table(v.name, zones, v.categories, counts[vi, :, : len(v.categories)])
            for vi, v in enumerate(variables)
        ]
        kwargs = dict(max_iterations=max_iterations)
        matrix, info, _ = assert_matches_reference(survey, tables, **kwargs)

        # A zone's fit depends neither on zone order nor on the other zones.
        order = data.draw(st.permutations(range(len(zones))))
        permuted, _ = ipf_all(
            survey,
            [
                make_table(
                    t.variable, [zones[i] for i in order], t.categories, t.counts[order]
                )
                for t in tables
            ],
            **kwargs,
        )
        np.testing.assert_array_equal(
            dense_weights(permuted), dense_weights(matrix)[:, order]
        )
        for zi in range(len(zones)):
            w, iterations, _, ok = ipf_zone(
                survey, {t.variable: t.counts[zi] for t in tables}, **kwargs
            )
            np.testing.assert_array_equal(w, matrix.column(zi))
            zone = info.zones[zi]
            assert (iterations, ok) == (zone.iterations, zone.converged)
        if init is not None:
            assert_zones_match_reference(survey, tables, init, **kwargs)


class TestDiagnostics:
    def test_worst_cell_and_support(self):
        schema = make_schema(constraint_vars=(VariableDef("v", ("A", "B")),))
        survey = make_survey(schema, [{"v": "A"}, {"v": "A"}])
        counts = [[3, 1], [2, 0], [3, 0]]
        tables = [make_table("v", ["Z1", "Z2", "Z3"], ("A", "B"), counts)]
        _, info = ipf_all(survey, tables)
        unfit, exact, fitted = info.zones
        assert (unfit.worst_variable, unfit.worst_category) == ("v", "B")
        assert unfit.worst_abs_error == pytest.approx(1.0)
        assert unfit.unsupported and not unfit.converged
        # An exact fit names no category.
        assert (exact.worst_variable, exact.worst_category) == ("", "")
        assert exact.worst_abs_error == 0.0 and not exact.unsupported
        assert fitted.converged and not fitted.unsupported

    def test_supported_category_not_flagged(self, two_by_two):
        schema, survey = two_by_two
        tables = TestIpfAll().tables([[2, 2]], [[3, 1]], ["Z1"])
        _, info = ipf_all(survey, tables, max_iterations=0)
        zone = info.zones[0]
        assert (zone.worst_variable, zone.worst_category) == ("age", "Y")
        assert zone.worst_abs_error == pytest.approx(1.0) and not zone.unsupported
