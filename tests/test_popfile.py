"""The population files: the fast writers and reader against the row-wise
csv-module code they replaced, and the reader's rejection of bad files."""

import csv
import io
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallarea import popfile
from smallarea.ingest import IngestError
from smallarea.integerize import SyntheticPopulation
from smallarea.ipf import WeightMatrix
from smallarea.cli import write_csv
from smallarea.popfile import (
    POPULATION_HEADER,
    WEIGHTS_HEADER,
    population_rows,
    read_population,
    weights_rows,
)

# --------------------------------------------------------------------------
# Reference implementations: the row-wise writer and csv.reader loader
# --------------------------------------------------------------------------


def _cell(v):
    if isinstance(v, float):
        if math.isnan(v):
            return ""
        return repr(float(v))
    if isinstance(v, (np.integer,)):
        return int(v)
    return v


def reference_csv(header, rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue().encode("utf-8")


def reference_population_csv(population) -> bytes:
    rows = []
    for zi, zone in enumerate(population.zone_ids):
        col = population.counts[:, zi]
        for ri in np.flatnonzero(col):
            rows.append((zone, population.record_ids[ri], int(col[ri])))
    return reference_csv(["zone_id", "record_id", "count"], rows)


def reference_weights_csv(matrix) -> bytes:
    rows = []
    for zi, zone in enumerate(matrix.zone_ids):
        for ri, rid in enumerate(matrix.record_ids):
            rows.append((rid, zone, matrix.weights[ri, zi]))
    return reference_csv(["record_id", "zone_id", "weight"], rows)


def reference_load(path, zone_ids, record_ids) -> np.ndarray:
    zone_index = {z: i for i, z in enumerate(zone_ids)}
    record_index = dict(zip(record_ids, range(len(record_ids))))
    counts = np.zeros((len(record_ids), len(zone_ids)), dtype=np.int64)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["zone_id", "record_id", "count"]
        for zone, rid, raw in reader:
            counts[record_index[rid], zone_index[zone]] = int(raw)
    return counts


def write_population(path, population):
    write_csv(path, POPULATION_HEADER, population_rows(population))


def write_weights(path, matrix):
    write_csv(path, WEIGHTS_HEADER, weights_rows(matrix))


# --------------------------------------------------------------------------
# Equivalence with the reference
# --------------------------------------------------------------------------

# Ids as ingest admits them: no comma, double quote, CR or LF.
ids = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n'),
    min_size=1,
    max_size=6,
)


@st.composite
def shapes(draw):
    zones = draw(st.lists(ids, min_size=1, max_size=4, unique=True))
    records = draw(st.lists(ids, min_size=1, max_size=7, unique=True))
    return zones, records


def matrix(draw, elements, records, zones) -> np.ndarray:
    size = len(records) * len(zones)
    values = draw(st.lists(elements, min_size=size, max_size=size))
    return np.array(values).reshape(len(records), len(zones))


@st.composite
def populations(draw):
    zones, records = draw(shapes())
    counts = matrix(draw, st.integers(0, 12), records, zones)
    empty = draw(st.lists(st.booleans(), min_size=len(zones), max_size=len(zones)))
    counts[:, empty] = 0  # zones with no persons
    return SyntheticPopulation(counts=counts, zone_ids=zones, record_ids=records)


@st.composite
def weight_matrices(draw):
    zones, records = draw(shapes())
    weights = matrix(draw, st.floats(), records, zones)
    return WeightMatrix(weights=weights, zone_ids=zones, record_ids=records)


@settings(max_examples=150, deadline=None)
@given(population=populations())
def test_population_bytes_and_round_trip(tmp_path_factory, population):
    path = tmp_path_factory.mktemp("pop") / "population.csv"
    write_population(path, population)
    assert path.read_bytes() == reference_population_csv(population)
    back = read_population(path, population.zone_ids, population.record_ids)
    np.testing.assert_array_equal(back.counts, population.counts)
    np.testing.assert_array_equal(
        reference_load(path, population.zone_ids, population.record_ids),
        population.counts,
    )


@settings(max_examples=150, deadline=None)
@given(matrix=weight_matrices())
def test_weights_bytes(tmp_path_factory, matrix):
    path = tmp_path_factory.mktemp("w") / "weights.csv"
    write_weights(path, matrix)
    assert path.read_bytes() == reference_weights_csv(matrix)


@settings(max_examples=50, deadline=None)
@given(population=populations(), matrix=weight_matrices())
def test_text_rows_as_lists(population, matrix):
    # Code that takes the rows as lists of cells writes the same bytes.
    for header, rows, reference in (
        (POPULATION_HEADER, population_rows(population), reference_population_csv(population)),
        (WEIGHTS_HEADER, weights_rows(matrix), reference_weights_csv(matrix)),
    ):
        as_lists = list(rows)
        assert len(rows) == len(as_lists)
        assert reference_csv(header, as_lists) == reference


def test_single_record_and_empty_zone(tmp_path):
    population = SyntheticPopulation(
        counts=[[0, 3, 0]], zone_ids=("Z1", "Z2", "Z3"), record_ids=("r1",)
    )
    path = tmp_path / "population.csv"
    write_population(path, population)
    assert path.read_bytes() == b"zone_id,record_id,count\r\nZ2,r1,3\r\n"
    back = read_population(path, population.zone_ids, population.record_ids)
    np.testing.assert_array_equal(back.counts, [[0, 3, 0]])


def test_read_population_holds_one_matrix(tmp_path):
    # A sparse file of a large matrix: reading it peaks near one count
    # matrix, because SyntheticPopulation keeps the reader's array.
    zones = tuple(f"Z{i}" for i in range(500))
    records = tuple(f"r{i}" for i in range(1000))
    path = tmp_path / "population.csv"
    rows = "".join(f"{zone},r0,1\n" for zone in zones)
    path.write_text("zone_id,record_id,count\n" + rows, encoding="utf-8")
    tracemalloc.start()
    try:
        population = read_population(path, zones, records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert population.counts.sum() == len(zones)
    assert peak < 1.5 * population.counts.nbytes


# --------------------------------------------------------------------------
# Rejected files
# --------------------------------------------------------------------------

ZONES = ("Z1", "Z2")
RECORDS = ("r1", "r2", "r3")


def read_text(tmp_path, body, header="zone_id,record_id,count\n"):
    path = tmp_path / "population.csv"
    path.write_text(header + body, encoding="utf-8", newline="")
    return read_population(path, ZONES, RECORDS)


class TestReadPopulation:
    def test_lf_line_ends_and_no_final_newline(self, tmp_path):
        population = read_text(tmp_path, "Z1,r1,2\nZ2,r3,1")
        np.testing.assert_array_equal(population.counts, [[2, 0], [0, 0], [0, 1]])

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="run synthesize"):
            read_population(tmp_path / "population.csv", ZONES, RECORDS)

    def test_bad_header(self, tmp_path):
        with pytest.raises(IngestError, match="unexpected header"):
            read_text(tmp_path, "Z1,r1,2\n", header="zone,record,count\n")

    @pytest.mark.parametrize(
        "bad_rows",
        [
            "Z1,r2\r\n",
            "Z1,r2,1,4\r\n",
            "\r\n",
            "Z1,r2 3\r\n",
            # 2 + 4 fields: the block still holds 3 fields per line.
            "Z1,r2\r\nZ2,r2,1,4\r\n",
        ],
    )
    def test_wrong_width_names_line(self, tmp_path, bad_rows):
        with pytest.raises(IngestError, match="line 3: expected 3 fields"):
            read_text(tmp_path, "Z1,r1,2\r\n" + bad_rows + "Z2,r1,1\r\n")

    def test_duplicate_row_names_second_line(self, tmp_path):
        with pytest.raises(
            IngestError, match="line 4: duplicate row for zone 'Z1', record 'r1'"
        ):
            read_text(tmp_path, "Z1,r1,2\nZ2,r1,1\nZ1,r1,5\n")

    def test_duplicate_row_in_a_later_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(popfile, "BLOCK_LINES", 2)
        with pytest.raises(IngestError, match="line 6: duplicate row"):
            read_text(tmp_path, "Z1,r1,2\nZ2,r1,1\nZ1,r2,1\nZ1,r3,1\nZ2,r1,4\n")

    def test_later_block_reads_like_one(self, tmp_path, monkeypatch):
        body = "Z1,r1,2\nZ2,r1,1\nZ1,r2,1\nZ1,r3,1\nZ2,r3,4\n"
        whole = read_text(tmp_path, body).counts
        monkeypatch.setattr(popfile, "BLOCK_LINES", 2)
        np.testing.assert_array_equal(read_text(tmp_path, body).counts, whole)

    @pytest.mark.parametrize(
        "bad_row, message",
        [("Z9,r1,1", "unknown zone id 'Z9'"), ("Z1,r9,1", "unknown record id 'r9'")],
    )
    def test_unknown_id_names_line(self, tmp_path, bad_row, message):
        with pytest.raises(IngestError, match=f"line 3: {message}"):
            read_text(tmp_path, f"Z1,r1,2\n{bad_row}\nZ2,r2,1\n")

    @pytest.mark.parametrize(
        "raw", ["-1", "2.5", "", "1e3", "+2", "99999999999999999999"]
    )
    def test_invalid_count_names_line(self, tmp_path, raw):
        message = re.escape(f"line 3: invalid count '{raw}'")
        with pytest.raises(IngestError, match=message):
            read_text(tmp_path, f"Z1,r1,2\nZ2,r2,{raw}\nZ2,r1,1\n")
