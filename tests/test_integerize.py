import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallarea.integerize import (
    RngSpec,
    SyntheticPopulation,
    first_uniform,
    round_half_up,
    synthesize,
    trs_zone,
)
from smallarea.ipf import WeightMatrix

from dense_oracle import dense_counts, dense_synthesize, sparse, weight_matrix


def rng_for(seed=0, zone=0):
    return RngSpec(seed).stream(zone)


def systematic_expected_counts(weights, target):
    """Independent enumeration oracle for the consistent case (sum of
    fractional parts == deficit): partition u in [0,1) at every point where
    the systematic selection pattern changes, evaluate the selection at each
    interval midpoint by direct search, and average by interval length."""
    w = np.asarray(weights, dtype=float)
    base = np.floor(w)
    frac = w - base
    d = int(round(target - base.sum()))
    if d == 0:
        return base
    pos = np.flatnonzero(frac > 0)
    cum = np.cumsum(frac[pos])
    assert abs(cum[-1] - d) < 1e-12, "oracle only covers the consistent case"
    breakpoints = sorted({float(c % 1.0) for c in cum} | {0.0, 1.0})
    expected = np.zeros(w.size)
    for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
        u = (lo + hi) / 2.0
        counts = np.zeros(w.size)
        for k in range(d):
            p = u + k
            j = 0
            while j < len(cum) - 1 and cum[j] <= p:
                j += 1
            counts[pos[j]] += 1
        expected += (hi - lo) * counts
    return base + expected


class TestTrsZone:
    def test_integer_weights_pass_through(self):
        counts = trs_zone([2, 0, 3], 5, rng_for())
        np.testing.assert_array_equal(counts, [2, 0, 3])

    def test_single_draw_sample_space(self):
        outcomes = set()
        for seed in range(200):
            counts = trs_zone([1.4, 0.6, 2.0], 4, rng_for(seed))
            assert counts.sum() == 4
            outcomes.add(tuple(counts))
        assert outcomes == {(2, 0, 2), (1, 1, 2)}

    def test_single_draw_probabilities(self):
        hits = sum(
            trs_zone([1.4, 0.6, 2.0], 4, rng_for(seed))[0] == 2
            for seed in range(4000)
        )
        assert hits / 4000 == pytest.approx(0.4, abs=0.03)

    def test_symmetric_half_split(self):
        outcomes = [tuple(trs_zone([0.5, 0.5], 1, rng_for(s))) for s in range(2000)]
        assert set(outcomes) == {(1, 0), (0, 1)}
        share = sum(o == (1, 0) for o in outcomes) / 2000
        assert share == pytest.approx(0.5, abs=0.04)

    def test_no_support_raises(self):
        with pytest.raises(ValueError, match="no support"):
            trs_zone([0.0, 0.0], 3, rng_for())

    def test_exact_total_and_floor_randomized(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            w = rng.uniform(0, 5, size=n)
            target = int(rng.integers(0, int(w.sum()) + 10))
            if target > 0 and w.sum() == 0:
                continue
            counts = trs_zone(w, target, rng_for(int(rng.integers(1 << 30))))
            assert counts.sum() == target
            assert np.all(counts >= 0)
            if target >= np.floor(w).sum():
                assert np.all(counts >= np.floor(w))

    def test_enumeration_unbiasedness(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            base = rng.integers(0, 3, size=n).astype(float)
            frac = rng.dirichlet(np.ones(n)) * int(rng.integers(1, n))
            if np.any(frac >= 1):
                continue
            w = base + frac
            target = int(round(w.sum()))
            if abs(w.sum() - target) > 1e-9:
                continue
            expected = systematic_expected_counts(w, target)
            np.testing.assert_allclose(expected, w, atol=1e-12)

    def test_monte_carlo_mean_matches_weights(self):
        w = [1.4, 0.6, 2.0]
        total = np.zeros(3)
        n_seeds = 10_000
        for seed in range(n_seeds):
            total += trs_zone(w, 4, rng_for(seed))
        np.testing.assert_allclose(total / n_seeds, w, atol=0.05)

    def test_overshoot_decrements(self):
        counts = trs_zone([2.4, 3.4, 1.0], 5, rng_for())
        assert counts.sum() == 5
        assert np.all(counts >= 0)

    def test_deficit_beyond_fractional_mass(self):
        counts = trs_zone([0.5, 0.5], 4, rng_for())
        assert counts.sum() == 4


class TestSynthesize:
    def matrix(self, weights, zones):
        records = tuple(f"r{i}" for i in range(len(weights)))
        return weight_matrix(weights, tuple(zones), records)

    def test_exact_zone_totals(self):
        rng = np.random.default_rng(1)
        w = rng.uniform(0, 3, size=(20, 5))
        targets = round_half_up(w.sum(axis=0))
        pop = synthesize(self.matrix(w, [f"Z{i}" for i in range(5)]), targets, seed=9)
        persons = pop.zone_sums(np.zeros(len(pop.record_ids), np.intp), 1)
        np.testing.assert_array_equal(persons[:, 0], targets)

    def test_integer_weights_identity(self):
        w = np.array([[2.0], [3.0], [0.0]])
        pop = synthesize(self.matrix(w, ["Z1"]), [5], seed=4)
        np.testing.assert_array_equal(dense_counts(pop)[:, 0], [2, 3, 0])

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(2)
        w = rng.uniform(0, 2, size=(15, 4))
        targets = round_half_up(w.sum(axis=0))
        m = self.matrix(w, [f"Z{i}" for i in range(4)])
        p1 = synthesize(m, targets, seed=42)
        p2 = synthesize(m, targets, seed=42)
        p3 = synthesize(m, targets, seed=43)
        np.testing.assert_array_equal(dense_counts(p1), dense_counts(p2))
        assert not np.array_equal(dense_counts(p1), dense_counts(p3))

    def test_zone_streams_independent(self):
        # same weights in two zones: stream separation makes draws independent
        # of the other zone's presence
        w2 = np.array([[0.5, 0.5], [0.5, 0.5]])
        w1 = w2[:, :1]
        p_single = synthesize(self.matrix(w1, ["Z0"]), [1], seed=7)
        p_double = synthesize(self.matrix(w2, ["Z0", "Z1"]), [1, 1], seed=7)
        np.testing.assert_array_equal(
            dense_counts(p_single)[:, 0], dense_counts(p_double)[:, 0]
        )

    def test_error_tagged_with_zone(self):
        w = np.zeros((3, 1))
        with pytest.raises(ValueError, match="Z9"):
            synthesize(self.matrix(w, ["Z9"]), [4], seed=0)

    def test_matches_dense_synthesize(self):
        # Compressed zone by zone as trs_zone makes each column: the same
        # counts as the dense matrix, from the same streams.
        rng = np.random.default_rng(5)
        w = rng.uniform(0, 2, size=(30, 6)) * (rng.random((30, 6)) < 0.5)
        w[:, 2] = 0  # an empty zone
        targets = round_half_up(w.sum(axis=0))
        m = self.matrix(w, [f"Z{i}" for i in range(6)])
        for seed in range(5):
            pop = synthesize(m, targets, seed=seed)
            expected = dense_synthesize(m, targets, seed)
            assert dense_counts(pop).tobytes() == expected.tobytes()
            assert pop == sparse(expected, pop.zone_ids, pop.record_ids)

    def test_fallback_zones_collected(self):
        # A: 4 slots, 2 records with fractional mass (with replacement);
        # B: a negative deficit; C: systematic PPS; D: no slot to draw.
        w = np.array(
            [[0.5, 1.5, 0.5, 1.0], [0.5, 1.5, 0.5, 2.0], [2.0, 1.0, 1.0, 0.0]]
        )
        targets = [6, 2, 2, 3]
        m = self.matrix(w, ["A", "B", "C", "D"])
        fallbacks = []
        pop = synthesize(m, targets, seed=3, fallbacks=fallbacks)
        assert fallbacks == ["A", "B"]
        assert dense_counts(pop).tobytes() == dense_synthesize(m, targets, 3).tobytes()
        assert pop == synthesize(m, targets, seed=3)


SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1, (1 << 69) + 12345)
ZONE_INDICES = (*range(40), 999, 2**31, 2**32 + 3)


class TestZoneStream:
    """The stream against numpy's Generator, which it must draw bit for bit."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_first_draw_grid(self, seed):
        for zone in ZONE_INDICES:
            expected = np.random.default_rng([seed, zone]).random()
            assert first_uniform((seed, zone)) == expected, (seed, zone)
            assert RngSpec(seed).stream(zone).random() == expected, (seed, zone)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**80 - 1), st.integers(0, 2**40 - 1))
    def test_first_draw_property(self, seed, zone):
        expected = np.random.default_rng([seed, zone]).random()
        assert first_uniform((seed, zone)) == expected

    @pytest.mark.parametrize(
        "calls",
        [
            [("random",), ("choice", 10, 4), ("random",)],
            [("choice", 10, 4), ("random",), ("random",)],
            [("random", 3), ("random",)],
            [("random",), ("random",), ("integers", 100)],
        ],
        ids=["random_then_choice", "choice_first", "random_size", "second_draw"],
    )
    @pytest.mark.parametrize("seed, zone", [(0, 0), (20160802, 58), (2**64 - 1, 7)])
    def test_replay_matches_numpy(self, calls, seed, zone):
        stream = RngSpec(seed).stream(zone)
        generator = np.random.default_rng([seed, zone])
        for name, *args in calls:
            got, expected = getattr(stream, name)(*args), getattr(generator, name)(*args)
            np.testing.assert_array_equal(got, expected)
            assert type(got) is type(expected)
        assert stream.generator is not None

    def test_first_draw_builds_no_generator(self):
        stream = RngSpec(5).stream(2)
        assert isinstance(stream.random(), float)
        assert stream.generator is None

    @pytest.mark.parametrize("seed, zone", [(-1, 0), (0, -1), (-(2**70), 3)])
    def test_negative_entropy_raises_as_numpy(self, seed, zone):
        with pytest.raises(ValueError) as numpy_error:
            np.random.default_rng([seed, zone])
        with pytest.raises(ValueError) as stream_error:
            RngSpec(seed).stream(zone)
        assert str(stream_error.value) == str(numpy_error.value)
        assert str(stream_error.value) == "expected non-negative integer"


ZONES, RECORDS = ("Z1", "Z2"), ("r1", "r2", "r3")


def _population_arrays():
    # Z1 counts r1 once and r3 twice, Z2 counts r2 three times.
    return dict(
        indptr=np.array([0, 2, 3], dtype=np.int64),
        records=np.array([0, 2, 1], dtype=np.int32),
        counts=np.array([1, 2, 3], dtype=np.int64),
    )


def _weight_arrays():
    return dict(
        multipliers=np.arange(4, dtype=float).reshape(2, 2),
        cells=np.array([0, 1, 1], dtype=np.intp),
    )


@pytest.mark.parametrize(
    "cls, attr, dtype",
    [
        (SyntheticPopulation, "indptr", np.int64),
        (SyntheticPopulation, "records", np.uint16),
        (SyntheticPopulation, "records", np.int32),
        (SyntheticPopulation, "counts", np.uint8),
        (SyntheticPopulation, "counts", np.int32),
        (SyntheticPopulation, "counts", np.int64),
        (WeightMatrix, "multipliers", float),
        (WeightMatrix, "cells", np.intp),
    ],
)
def test_matrix_held_read_only_without_copy(cls, attr, dtype):
    arrays = _population_arrays() if cls is SyntheticPopulation else _weight_arrays()
    given = arrays[attr] = arrays[attr].astype(dtype)
    held = getattr(cls(**arrays, zone_ids=ZONES, record_ids=RECORDS), attr)
    assert np.shares_memory(held, given)
    assert given.flags.writeable
    with pytest.raises(ValueError):
        held[0] = 7


@pytest.mark.parametrize(
    "change",
    [
        dict(indptr=[0, 2]),  # one pointer short
        dict(indptr=[0, 3, 2]),  # a zone ending before it starts
        dict(indptr=[1, 2, 3]),
        dict(records=[0, 3, 1]),  # no record r4
        dict(records=[2, 0, 1]),  # a zone's records out of order
        dict(records=[0, 0, 1]),  # a record twice in a zone
        dict(counts=[1, 0, 3]),  # a zero held
        dict(counts=[1, 2]),
    ],
)
def test_population_rejects_malformed_columns(change):
    arrays = {**_population_arrays(), **change}
    with pytest.raises(ValueError):
        SyntheticPopulation(**arrays, zone_ids=ZONES, record_ids=RECORDS)


def test_count_and_weight_matrices_are_column_major(tmp_path, two_by_two):
    # Every per-zone consumer reads one zone: the weights expand one zone
    # at a time from the zones x cells multipliers, and each zone's counts
    # are one contiguous slice of the compressed columns, which a reread of
    # population.csv reproduces.
    from smallarea.ipf import ipf_all
    from smallarea.popfile import POPULATION_HEADER, population_rows, read_population
    from smallarea.cli import write_csv

    from conftest import make_table

    _, survey = two_by_two
    tables = [
        make_table("sex", ["Z1", "Z2"], ("M", "F"), [[2, 2], [5, 1]]),
        make_table("age", ["Z1", "Z2"], ("Y", "O"), [[3, 1], [3, 3]]),
    ]
    matrix, _ = ipf_all(survey, tables)
    assert matrix.multipliers.shape == (2, 4)  # zones x cells: four cells
    population = synthesize(matrix, [4, 6], seed=1)
    path = tmp_path / "population.csv"
    write_csv(path, POPULATION_HEADER, population_rows(population))
    reread = read_population(path, population.zone_ids, population.record_ids)
    dense = dense_counts(population)
    for zi, (a, b) in enumerate(zip(population.indptr[:-1], population.indptr[1:])):
        np.testing.assert_array_equal(
            dense[population.records[a:b], zi], population.counts[a:b]
        )
        assert dense[:, zi].sum() == population.counts[a:b].sum()
    for array in (population.records, population.counts, reread.counts):
        assert array.flags.c_contiguous
    assert reread == population


@pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.int64])
def test_record_totals_exact(dtype):
    # Against the per-zone loop, for counts held in each width; int64 sums
    # past 2**53, where a float sum would round, stay exact.
    big = dtype == np.int64
    second = {
        np.uint8: [7, 1, 255],
        np.int32: [7, 1, 256],
        np.int64: [2**62, 0, 2**62 - 1],
    }[dtype]
    population = sparse([[3, 0, 5], second])
    assert population.counts.dtype == dtype
    totals = population.record_totals()
    expected = np.zeros(2, dtype=np.int64)
    for zone in population.slices():
        expected[population.records[zone]] += population.counts[zone]
    assert totals.dtype == np.int64
    np.testing.assert_array_equal(totals, expected)
    if big:
        assert int(totals[1]) == 2**63 - 1
    # Summed once per population and shared read-only by later calls.
    assert population.record_totals() is totals
    assert not totals.flags.writeable


def dense_zone_sums(population, codes, k):
    """Zones x k persons per code, summed from the dense count matrix."""
    dense = dense_counts(population)
    return np.stack([dense[codes == c].sum(axis=0) for c in range(k)], axis=1)


def zone_sums_case(case):
    """(records x zones counts, codes, k) of a population for `zone_sums`."""
    rng = np.random.default_rng(3)
    n, sizes = 8, {"one-count": (2, 1, 3)}.get(case, (0, 3, 0, 0, 2, 5, 0))
    counts = np.zeros((n, len(sizes)), dtype=np.int64)
    for z, size in enumerate(sizes):
        counts[rng.choice(n, size, replace=False), z] = rng.integers(1, 9, size)
    codes = np.array([0, 3, 1, 0, 3, 3, 1, 0])  # no record has code 2
    if case == "bool-codes":
        return counts, codes == 3, 2
    if case == "int64-counts":
        counts[counts > 0] += 2**31 + rng.integers(0, 2**40, np.count_nonzero(counts))
    return counts, codes, 4


@pytest.mark.parametrize(
    "case", ["empty-first-and-last-zones", "one-count", "bool-codes", "int64-counts"]
)
def test_zone_sums_against_dense_oracle(case):
    # Zones of 0, 3, 0, 0, 2, 5 and 0 held counts, or of 2, 1 and 3; each
    # zone's slice is summed into its row, and empty zones give rows of 0.
    counts, codes, k = zone_sums_case(case)
    population = sparse(counts)
    if case == "int64-counts":
        assert population.counts.dtype == np.int64
    sums = population.zone_sums(codes, k)
    assert sums.dtype == np.int64
    np.testing.assert_array_equal(sums, dense_zone_sums(population, codes, k))
    # Exact in int64 past 2**53, where a float sum would round.
    population = sparse([[0, 2**62], [5, 2**62 - 1], [0, 7]])
    sums = population.zone_sums(np.array([1, 1, 0]), 2)
    assert sums.tolist() == [[0, 5], [7, 2**63 - 1]]
