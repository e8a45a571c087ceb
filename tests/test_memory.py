"""Memory: no stage of a run allocates a records x zones array, and the
survey is held in narrow columns."""

import csv
import tracemalloc

import numpy as np

from smallarea import popfile
from smallarea.cli import write_csv
from smallarea.csvbytes import TextColumn
from smallarea.fixture import generate_example
from smallarea.indicators import (
    arop_absolute,
    arop_relative,
    equivalized_incomes,
    income_indicators,
    income_summary,
    md_rate,
    mpi,
)
from smallarea.ingest import Crosswalk, load_config, load_constraints, load_survey
from smallarea.integerize import SyntheticPopulation, round_half_up, synthesize
from smallarea.ipf import WeightMatrix, ipf_all
from smallarea.popfile import (
    POPULATION_HEADER,
    population_rows,
    read_population,
    weights_rows,
)
from smallarea.schema import Schema, SurveyDataset, VariableDef, rescale_constraints
from smallarea.validate import aggregate, internal_validation


def test_run_holds_no_records_by_zones_array(tmp_path):
    # 1000 zones x 3000 records, each zone of about 300 persons, so that a
    # zone counts about one record in ten: one float64 or int64 records x
    # zones matrix takes 24 MB, and the traced peak of every stage stays
    # below half of that. A stage may hold its result and a transient copy
    # of it, 16 bytes per held count, and fixed working sets (the reader's
    # BLOCK_LINES lines, IPF's BLOCK_CELLS cells); at 300 zones the reader's
    # block alone takes most of the bound.
    config = generate_example(
        tmp_path, n_zones=1000, survey_size=3000, mean_zone_pop=300
    )
    config = load_config(config)
    survey = load_survey(config.survey_path, config.schema)
    reference = config.schema.constraint_vars[0].name
    tables = rescale_constraints(
        load_constraints(config.constraints_path, config.schema), reference
    )
    zones = tables[0].zones
    targets = round_half_up(tables[0].zone_totals())
    incomes = equivalized_incomes(survey, config.equivalize)
    bound = 0.5 * survey.n * len(zones) * 8
    path = tmp_path / "population.csv"

    def stages():
        matrix, _ = ipf_all(survey, tables)
        yield "ipf_all"
        population = synthesize(matrix, targets, config.seed)
        del matrix
        yield "synthesize"
        write_csv(path, POPULATION_HEADER, population_rows(population))
        yield "population.csv"
        del population  # validate and indicators read it in their own run
        population = read_population(path, zones, survey.record_ids)
        yield "read_population"
        internal_validation(population, survey, tables)
        yield "internal_validation"
        income_summary(population, incomes)
        arop_absolute(population, incomes)
        arop_relative(population, incomes)
        md_rate(population, survey.deprivations, config.md_threshold)
        mpi(population, survey, config.mpi_spec)
        yield "indicators"

    tracemalloc.start()
    try:
        for stage in stages():
            peak = tracemalloc.get_traced_memory()[1]
            assert peak < bound, f"{stage}: traced peak {peak} bytes"
    finally:
        tracemalloc.stop()


def test_population_sums_hold_no_array_per_held_count():
    # 1000 zones of 2000 held int32 counts over 20000 records: a temporary
    # with one int64 entry per held count would take 16 MB. Summed a zone at
    # a time, the sums hold arrays of one zone's counts and of the records:
    # 0.14 bytes per held count, and 0.75 for the income pass's per-record
    # arrays. Sums of 65536 counts at a time, with an int64 zone index per
    # count, took 1.1 to 1.2 (1.6). The constructor's checks make no array
    # per held count (`test_population_checks_hold_no_array_per_held_count`).
    n_zones, held, n = 1000, 2000, 20000
    rng = np.random.default_rng(0)
    step = n // held  # zone z holds the records z % step, step + z % step, ...
    zone = np.repeat(np.arange(n_zones), held)
    records = (np.tile(np.arange(0, n, step), n_zones) + zone % step).astype(np.int32)
    counts = rng.integers(1, 5, records.size, dtype=np.int32)
    indptr = np.arange(0, records.size + 1, held, dtype=np.int64)
    zone_ids = tuple(f"Z{i}" for i in range(n_zones))
    record_ids = tuple(f"r{i}" for i in range(n))
    fine = tuple("ABCDEF")
    schema = Schema(
        constraint_vars=(VariableDef("sex", ("M", "F")),),
        external_vars=(VariableDef("occ", fine),),
        deprivation_fields=("a", "b", "c"),
    )
    survey = SurveyDataset.from_codes(
        schema,
        record_ids,
        record_ids,
        codes={"sex": rng.integers(0, 2, n), "occ": rng.integers(0, 6, n)},
        incomes=np.where(rng.random(n) < 0.1, np.nan, rng.uniform(0, 5e4, n)),
        deprivations=rng.random((n, 3)) < 0.4,
    )
    crosswalk = Crosswalk("occ", dict(zip(fine, "xxyyzz")))
    # record_totals sums on its first call, so it runs on a fresh population.
    fresh, shared = (
        SyntheticPopulation(indptr, records, counts, zone_ids, record_ids)
        for _ in range(2)
    )
    sums = {  # each run and its bound in bytes per held count
        "SyntheticPopulation": (
            lambda: SyntheticPopulation(indptr, records, counts, zone_ids, record_ids),
            1.5,
        ),
        "record_totals": (fresh.record_totals, 0.5),
        "income_indicators": (lambda: income_indicators(shared, survey.incomes), 1),
        "md_rate": (lambda: md_rate(shared, survey.deprivations), 0.5),
        "aggregate": (lambda: aggregate(shared, survey, "occ", crosswalk), 0.5),
    }
    tracemalloc.start()
    try:
        for name, (run, bound) in sums.items():
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run()
            peak = tracemalloc.get_traced_memory()[1] - before
            assert peak < bound * counts.size, f"{name}: traced peak {peak} bytes"
    finally:
        tracemalloc.stop()


def test_read_population_holds_its_columns_once(tmp_path, monkeypatch):
    # 200 zones of 1000 held uint8 counts over 2000 records, read in blocks
    # of 1024 lines: the held records and counts take 3 bytes a row, 600 KB,
    # far more than one block's working arrays. The columns are allocated
    # once, so the traced peak beyond them is one block: 0.42 of the held
    # bytes (0.44 when the constructor made a bool per row). Appending each
    # block's columns and joining them held the records twice: 0.84.
    n_zones, held, n = 200, 1000, 2000
    step = n // held
    zone = np.repeat(np.arange(n_zones), held)
    records = (np.tile(np.arange(0, n, step), n_zones) + zone % step).astype(np.int32)
    counts = np.random.default_rng(0).integers(1, 5, records.size)
    indptr = np.arange(0, records.size + 1, held)
    zone_ids = tuple(f"Z{i}" for i in range(n_zones))
    record_ids = TextColumn.of([f"r{i}" for i in range(n)])
    population = SyntheticPopulation(indptr, records, counts, zone_ids, record_ids)
    path = tmp_path / "population.csv"
    write_csv(path, POPULATION_HEADER, population_rows(population))
    monkeypatch.setattr(popfile, "BLOCK_LINES", 1024)
    monkeypatch.setattr(popfile, "CHUNK_BYTES", 1 << 14)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        back = read_population(path, zone_ids, record_ids)
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back == population
    assert back.counts.dtype == np.uint8
    held = now - before
    assert held >= 3 * records.size
    assert peak - now < 0.6 * held, f"traced peak {(peak - now) / held:.2f} x held"


def test_population_checks_hold_no_array_per_held_count():
    # 50 zones of 20000 held counts that already have the dtypes that the
    # population holds: the constructor takes read-only views of them and
    # compares record pairs BLOCK_LINES at a time, 0.035 traced bytes per
    # count. One bool per held count for the record order took 1.01.
    n_zones, n = 50, 20000
    indptr = np.arange(0, n_zones * n + 1, n, dtype=np.int64)
    records = np.tile(np.arange(n, dtype=np.uint16), n_zones)
    counts = np.ones(records.size, np.uint8)
    zone_ids = tuple(f"Z{i}" for i in range(n_zones))
    record_ids = TextColumn.of([f"r{i}" for i in range(n)])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        SyntheticPopulation(indptr, records, counts, zone_ids, record_ids)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * counts.size, f"traced peak {peak / counts.size:.3f} bytes"


def test_population_rows_of_one_large_zone_hold_under_64_bytes_a_row():
    # One zone of 200000 held counts: the writer makes BLOCK_LINES rows at a
    # time, wherever a zone ends, so its working arrays are bounded by the
    # block, and the build of the padded record id table sets the peak, 47
    # traced bytes a row. Blocks of whole zones took 119.
    n = 200000
    population = SyntheticPopulation(
        [0, n],
        np.arange(n, dtype=np.int32),
        np.full(n, 3, np.uint8),
        ("Z1",),
        TextColumn.of([f"r{i}" for i in range(n)]),
    )
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for block in population_rows(population).blocks():
            pass
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 64 * n, f"traced peak {peak / n:.0f} bytes a row"


def test_weights_rows_hold_under_200_bytes_per_record():
    # 3 zones x 60000 records in 2000 cells: making the rows of weights.csv,
    # a zone at a time, holds under 200 traced bytes a record besides the
    # matrix, one block of text (about 30 bytes a row) included.
    n, n_cells = 60000, 2000
    rng = np.random.default_rng(0)
    matrix = WeightMatrix(
        rng.uniform(0, 50, (3, n_cells)),
        rng.integers(0, n_cells, n),
        ("Z1", "Z2", "Z3"),
        tuple(f"r{i}" for i in range(n)),
    )
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for block in weights_rows(matrix).blocks():
            pass
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 200 * n, f"traced peak {peak / n:.0f} bytes a record"


def test_survey_holds_under_64_bytes_per_record(tmp_path):
    # 20000 records of 5 category variables, 9 deprivation items and an
    # income. The record ids and the household ids take 14 bytes each as
    # bytes and int64 ends, the codes one byte per variable, the flags 9 and
    # the income 8: about 51 bytes a record, against 100 with record ids as
    # a tuple of str and 183 with household ids as str and intp codes too.
    config = load_config(generate_example(tmp_path, n_zones=5, survey_size=20000))
    tracemalloc.start()
    try:
        survey = load_survey(config.survey_path, config.schema)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert survey.n == 20000
    assert held < 64 * survey.n, held / survey.n
    for var in config.schema.constraint_vars + config.schema.external_vars:
        assert survey.category_codes(var.name).dtype == np.int8

    # Household ids read back as the csv module reads them, on the byte path
    # and, with every field quoted and ids that are not ASCII, on the csv
    # module's path.
    with config.survey_path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    j = rows[0].index("household_id")
    assert survey.household_ids == tuple(row[j] for row in rows[1:])
    for k, row in enumerate(rows[1:]):
        row[j] = f"οικία,{k}" if k % 3 else row[j]
    with config.survey_path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, quoting=csv.QUOTE_ALL).writerows(rows)
    survey = load_survey(config.survey_path, config.schema)
    assert survey.household_ids == tuple(row[j] for row in rows[1:])
    assert survey.household_ids is not survey.household_ids  # decoded anew


def test_example_holds_under_64_bytes_per_truth_person(tmp_path):
    # 20 zones of about 5000 truth persons, 99,533 in all. Each person takes
    # one byte per code of five variables, 8 for the income and 9 for the
    # deprivation flags: 22 bytes, beside one zone's draws at a time. Per-zone
    # int64 lists concatenated into a second copy took about 147 bytes.
    tracemalloc.start()
    try:
        generate_example(tmp_path, seed=701, n_zones=20, survey_size=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with (tmp_path / "constraints.csv").open(newline="", encoding="utf-8") as fh:
        persons = sum(
            int(row["count"])
            for row in csv.DictReader(fh)
            if row["variable"] == "sex_age"
        )
    assert persons == 99533
    assert peak < 64 * persons, peak / persons
