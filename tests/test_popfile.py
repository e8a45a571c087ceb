"""The population files: the fast writers and reader against the row-wise
csv-module code they replaced and against the dense reader, and the reader's
rejection of bad files."""

import csv
import io
import math
import re
import tracemalloc
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smallarea import popfile
from smallarea.csvbytes import TextColumn
from smallarea.ingest import IngestError
from smallarea.ipf import WeightMatrix
from smallarea.cli import write_csv
from smallarea.popfile import (
    POPULATION_HEADER,
    WEIGHTS_HEADER,
    population_rows,
    read_population,
    weights_rows,
)

from dense_oracle import (
    dense_counts,
    dense_read_population,
    dense_weights,
    joined_read_population,
    sparse,
    weight_matrix,
)

# --------------------------------------------------------------------------
# Reference implementations: the row-wise writer, the csv.reader loader and
# the text-mode reader
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
    counts = dense_counts(population)
    for zi, zone in enumerate(population.zone_ids):
        col = counts[:, zi]
        for ri in np.flatnonzero(col):
            rows.append((zone, population.record_ids[ri], int(col[ri])))
    return reference_csv(["zone_id", "record_id", "count"], rows)


def reference_weights_csv(matrix) -> bytes:
    rows = []
    weights = dense_weights(matrix)
    for zi, zone in enumerate(matrix.zone_ids):
        for ri, rid in enumerate(matrix.record_ids):
            rows.append((rid, zone, weights[ri, zi]))
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


def reference_read_population(path, zone_ids, record_ids, block_lines=16384):
    """The text-mode reader that `read_population` replaced: one Python
    string per field, a dict lookup per id, `np.unique` for repeated rows."""
    zone_index = dict(zip(zone_ids, range(len(zone_ids))))
    record_index = dict(zip(record_ids, range(len(record_ids))))
    counts = np.full((len(record_ids), len(zone_ids)), -1, dtype=np.int64, order="F")
    first_line = 2

    def fail(i, message):
        raise IngestError(f"{path}: line {first_line + i}: {message}")

    with path.open(encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != ",".join(POPULATION_HEADER):
            raise IngestError(f"{path}: unexpected header {header!r}")
        while block := list(islice(fh, block_lines)):
            m = len(block)
            text = ",".join(block)
            fields = text.split(",")
            zones, records, raw = fields[0::3], fields[1::3], fields[2::3]
            if len(fields) != 3 * m or "".join(raw).count("\n") != text.count("\n"):
                i = next(i for i, line in enumerate(block) if line.count(",") != 2)
                fail(i, "expected 3 fields")
            try:
                zi = np.fromiter(map(zone_index.__getitem__, zones), np.intp, m)
                ri = np.fromiter(map(record_index.__getitem__, records), np.intp, m)
            except KeyError:
                for i, (zone, record) in enumerate(zip(zones, records)):
                    if zone not in zone_index:
                        fail(i, f"unknown zone id {zone!r}")
                    if record not in record_index:
                        fail(i, f"unknown record id {record!r}")
            digits = "".join(raw).replace("\n", "")
            try:
                if not (digits.isascii() and digits.isdigit()):
                    raise ValueError
                values = np.array(raw, dtype=np.int64)
            except (ValueError, OverflowError):
                for i, field in enumerate(raw):
                    count = field.rstrip("\n")
                    if not (count.isascii() and count.isdigit()) or int(count) >= 2**63:
                        fail(i, f"invalid count {count!r}")
            key = ri * len(zone_ids) + zi
            repeated = np.ones(m, dtype=bool)
            repeated[np.unique(key, return_index=True)[1]] = False
            repeated |= counts[ri, zi] >= 0
            if repeated.any():
                i = int(np.argmax(repeated))
                fail(i, f"duplicate row for zone {zones[i]!r}, record {records[i]!r}")
            counts[ri, zi] = values
            first_line += m
    np.maximum(counts, 0, out=counts)
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


# Counts of one digit and of many, at the powers of ten, and past the int32
# range, which the population then holds as int64.
EDGE_COUNTS = [9, 10, 99, 100, 2**31 - 1, 2**31, 10**18 - 1, 10**18, 2**63 - 1]
count_values = (
    st.integers(0, 12)
    | st.integers(0, 10**6)
    | st.integers(0, 2**63 - 1)
    | st.sampled_from(EDGE_COUNTS)
)


@st.composite
def populations(draw):
    zones, records = draw(shapes())
    counts = matrix(draw, count_values, records, zones)
    empty = draw(st.lists(st.booleans(), min_size=len(zones), max_size=len(zones)))
    counts[:, empty] = 0  # zones with no persons
    return sparse(counts, zones, records)


@st.composite
def weight_matrices(draw):
    """Weights given per record, or as zones x cells multipliers with a
    cell per record."""
    zones, records = draw(shapes())
    n = len(records)
    if draw(st.booleans()):
        return weight_matrix(matrix(draw, st.floats(), records, zones), zones, records)
    n_cells = draw(st.integers(1, n))
    multipliers = matrix(draw, st.floats(), range(n_cells), zones).T
    cells = draw(st.lists(st.integers(0, n_cells - 1), min_size=n, max_size=n))
    return WeightMatrix(multipliers, cells, zones, records)


@settings(max_examples=150, deadline=None)
@given(population=populations())
def test_population_bytes_and_round_trip(tmp_path_factory, population):
    path = tmp_path_factory.mktemp("pop") / "population.csv"
    write_population(path, population)
    assert path.read_bytes() == reference_population_csv(population)
    back = read_population(path, population.zone_ids, population.record_ids)
    assert back == population
    np.testing.assert_array_equal(
        reference_load(path, population.zone_ids, population.record_ids),
        dense_counts(population),
    )


@settings(max_examples=150, deadline=None)
@given(population=populations(), block_lines=st.sampled_from([1, 2, 3]))
def test_population_bytes_in_small_blocks(tmp_path_factory, population, block_lines):
    # Blocks of a few rows, which end inside zones, between them and next
    # to empty zones, write the same bytes.
    path = tmp_path_factory.mktemp("pop") / "population.csv"
    with mock.patch.object(popfile, "BLOCK_LINES", block_lines):
        write_population(path, population)
    assert path.read_bytes() == reference_population_csv(population)


@pytest.mark.parametrize("block_lines", [1, 2, 3])
def test_empty_zones_at_block_edges(tmp_path, monkeypatch, block_lines):
    # Zones of 0, 2, 0, 3, 0 and 1 rows, in blocks of exactly `block_lines`
    # rows but the last, some ending inside a zone; the int64 counts need
    # all 19 digits and one past the int32 range.
    counts = np.zeros((3, 6), dtype=np.int64)
    counts[[0, 2], 1] = [5, 70]
    counts[:, 3] = [1, 12, 2**63 - 1]
    counts[1, 5] = 2**31
    zones = ("Z1", "Zé2", "Z3", "Z4", "Z5", "Z6")
    population = sparse(counts, zones, ("r1", "ŕ2", "r3"))
    assert population.counts.dtype == np.int64
    monkeypatch.setattr(popfile, "BLOCK_LINES", block_lines)
    blocks = list(population_rows(population).blocks())
    assert all(block.endswith("\r\n") for block in blocks)
    sizes = [block.count("\r\n") for block in blocks]
    assert sum(sizes) == 6 and 0 < sizes[-1] <= block_lines
    assert sizes[:-1] == [block_lines] * (len(sizes) - 1)
    path = tmp_path / "population.csv"
    write_population(path, population)
    assert path.read_bytes() == reference_population_csv(population)
    assert path.read_bytes().decode("utf-8").endswith(
        "Z4,ŕ2,12\r\nZ4,r3,9223372036854775807\r\nZ6,ŕ2,2147483648\r\n"
    )


@settings(max_examples=150, deadline=None)
@given(matrix=weight_matrices())
# No records: the header alone.
@example(matrix=WeightMatrix(np.ones((2, 1)), [], ("Z1", "Zé2"), ()))
# Records sharing cells whose texts differ in length; NaN blank.
@example(
    matrix=WeightMatrix(
        [[math.nan, 2.5, -0.0], [1e-300, math.inf, 7.0]],
        [1, 0, 1, 2],
        ("Z1", "Zé2"),
        ("r1", "ŕ2", "r3", "r4"),
    )
)
# Record ids holding a NUL and a 4-byte UTF-8 character.
@example(matrix=WeightMatrix([[0.5, 1.25]], [1, 0], ("Z1",), ("a\x00b", "r\U0001f600")))
# One record in one cell: the gather of a single cell text.
@example(matrix=WeightMatrix([[3.5], [math.nan]], [0], ("Z1", "Z2"), ("r1",)))
# Zone ids that are not ASCII.
@example(
    matrix=WeightMatrix(
        [[1.0, 2.0], [4.0, 8.0]], [0, 1, 1], ("Ζώνη", "区"), ("r1", "r2", "r3")
    )
)
def test_weights_bytes(tmp_path_factory, matrix):
    path = tmp_path_factory.mktemp("w") / "weights.csv"
    write_weights(path, matrix)
    assert path.read_bytes() == reference_weights_csv(matrix)


# Every kind of cell that a report row holds.
report_cells = st.one_of(
    st.text(max_size=5),
    st.none(),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([math.nan, np.float64("nan"), -0.0, np.float64("-0.0")]),
    st.sampled_from([math.inf, -math.inf, np.float64("inf"), np.float64("-inf")]),
)


@settings(max_examples=300, deadline=None)
@given(
    header=st.lists(st.text(max_size=5), min_size=1, max_size=4),
    rows=st.lists(st.lists(report_cells, max_size=6), max_size=6),
)
def test_write_csv_writes_cells_as_the_row_wise_writer(tmp_path_factory, header, rows):
    # Numbers as repr writes them, NaN blank, None blank, text quoted as needed.
    path = tmp_path_factory.mktemp("csv") / "report.csv"
    write_csv(path, header, rows)
    assert path.read_bytes() == reference_csv(header, rows)


def test_population_of_no_records(tmp_path):
    population = sparse(np.zeros((0, 2), np.int64), ("Z1", "Z2"), ())
    path = tmp_path / "population.csv"
    write_population(path, population)
    assert path.read_bytes() == b"zone_id,record_id,count\r\n"


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
    population = sparse([[0, 3, 0]], ("Z1", "Z2", "Z3"), ("r1",))
    path = tmp_path / "population.csv"
    write_population(path, population)
    assert path.read_bytes() == b"zone_id,record_id,count\r\nZ2,r1,3\r\n"
    back = read_population(path, population.zone_ids, population.record_ids)
    assert back == population
    np.testing.assert_array_equal(dense_counts(back), [[0, 3, 0]])


def test_read_population_holds_no_dense_matrix(tmp_path):
    # A sparse file of a large population: reading it never allocates a
    # records x zones array, whose int64 form would take 4 MB here.
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
    assert peak < len(records) * len(zones)  # an eighth of the int64 matrix


def reversed_rows(path):
    """Rewrite `path` with its data rows in reverse order."""
    header, *rows = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(header + b"".join(reversed(rows)))


def held_widths(tmp_path, monkeypatch, counts, record_ids):
    """The populations of the records x zones int64 matrix `counts`: built
    by `from_columns`, then read back from its `population.csv` as written,
    in blocks of one row, and with its rows reversed. Each holds the values
    of `counts` in zone-major order."""
    population = sparse(counts, record_ids=record_ids)
    zones, records = np.nonzero(counts.T)
    path = tmp_path / "population.csv"
    write_population(path, population)
    populations = [population, read_population(path, population.zone_ids, record_ids)]
    with monkeypatch.context() as patch:
        patch.setattr(popfile, "BLOCK_LINES", 1)
        populations.append(read_population(path, population.zone_ids, record_ids))
    reversed_rows(path)
    populations.append(read_population(path, population.zone_ids, record_ids))
    for held in populations:
        np.testing.assert_array_equal(held.records, records)
        np.testing.assert_array_equal(held.counts, counts.T[zones, records])
        np.testing.assert_array_equal(
            held.indptr, np.searchsorted(zones, np.arange(counts.shape[1] + 1))
        )
        assert held.records.dtype == populations[0].records.dtype
        assert held.counts.dtype == populations[0].counts.dtype
    return populations[0]


# The largest count of a width and the first past it: the population holds
# counts in the narrowest dtype that fits its largest.
@pytest.mark.parametrize(
    "largest, dtype",
    [(255, np.uint8), (256, np.int32), (2**31 - 1, np.int32), (2**31, np.int64)],
)
def test_counts_held_in_the_narrowest_width(tmp_path, monkeypatch, largest, dtype):
    # Zones of small counts before and after the zone with the largest, so
    # that `from_columns` widens mid-way and the reader joins blocks of
    # several widths.
    counts = np.array([[1, 0, 2], [3, largest, 0], [0, 1, 4]], np.int64)
    population = held_widths(tmp_path, monkeypatch, counts, ("r0", "r1", "r2"))
    assert population.counts.dtype == dtype
    assert population.records.dtype == np.uint16


@pytest.mark.parametrize("n, dtype", [(65536, np.uint16), (65537, np.int32)])
def test_records_held_in_the_narrowest_width(tmp_path, monkeypatch, n, dtype):
    # Counts of the first and the last record, whose index is n - 1.
    counts = np.zeros((n, 2), np.int64)
    counts[[0, n - 1], 0] = [2, 1]
    counts[n - 1, 1] = 3
    record_ids = tuple(f"r{i}" for i in range(n))
    population = held_widths(tmp_path, monkeypatch, counts, record_ids)
    assert population.records.dtype == dtype
    assert population.counts.dtype == np.uint8


# zones x records of 2**31 - 65536 and of 2**31: rows out of order sort on
# an int32 (zone, record) key below 2**31 and on an int64 key from it on.
@pytest.mark.parametrize("n_zones, key", [(32767, np.int32), (32768, np.int64)])
def test_shuffled_rows_sort_on_the_narrowest_key(tmp_path, n_zones, key):
    zones = tuple(f"Z{i}" for i in range(n_zones))
    records = TextColumn.of([f"r{i}" for i in range(65536)])
    last = zones[-1]
    rows = [f"{last},r65535,3", "Z0,r7,1", f"{last},r0,2", "Z1,r65535,1"]
    path = tmp_path / "population.csv"

    def read(rows):
        path.write_text("zone_id,record_id,count\n" + "\n".join(rows) + "\n")
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            try:
                return read_population(path, zones, records)
            finally:
                assert [c.args[0].dtype for c in argsort.call_args_list] == [key]

    population = read(rows)
    assert population.indptr[[1, 2, -2, -1]].tolist() == [1, 2, 2, 4]
    assert population.records.tolist() == [7, 65535, 0, 65535]
    assert population.counts.tolist() == [1, 1, 2, 3]
    assert population.record_ids is records
    message = f"line 7: duplicate row for zone '{last}', record 'r0'"
    with pytest.raises(IngestError, match=message):
        read(rows + ["Z0,r0,1", f"{last},r0,5"])


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
        expected = [[2, 0], [0, 0], [0, 1]]
        np.testing.assert_array_equal(dense_counts(population), expected)

    def test_header_only_reads_as_empty(self, tmp_path):
        population = read_text(tmp_path, "")
        np.testing.assert_array_equal(population.indptr, [0, 0, 0])
        assert population.records.dtype == np.uint16
        assert population.counts.dtype == np.uint8
        assert population.counts.size == 0
        assert population.record_totals().tolist() == [0, 0, 0]

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

    def test_bytes_not_utf8_in_a_later_block(self, tmp_path, monkeypatch):
        # The line is counted from the start of the file, not of the block.
        monkeypatch.setattr(popfile, "BLOCK_LINES", 2)
        path = tmp_path / "population.csv"
        path.write_bytes(
            b"zone_id,record_id,count\nZ1,r1,2\nZ2,r1,1\nZ1,r2,1\nZ1,r\xff3,1\n"
        )
        message = f"{path}: line 5: bytes that are not UTF-8"
        with pytest.raises(IngestError, match=re.escape(message)):
            read_population(path, ZONES, RECORDS)

    def test_later_block_reads_like_one(self, tmp_path, monkeypatch):
        body = "Z1,r1,2\nZ2,r1,1\nZ1,r2,1\nZ1,r3,1\nZ2,r3,4\n"
        whole = read_text(tmp_path, body)
        monkeypatch.setattr(popfile, "BLOCK_LINES", 2)
        assert read_text(tmp_path, body) == whole

    @pytest.mark.parametrize(
        "bad_row, message",
        [("Z9,r1,1", "unknown zone id 'Z9'"), ("Z1,r9,1", "unknown record id 'r9'")],
    )
    def test_unknown_id_names_line(self, tmp_path, bad_row, message):
        with pytest.raises(IngestError, match=f"line 3: {message}"):
            read_text(tmp_path, f"Z1,r1,2\n{bad_row}\nZ2,r2,1\n")

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            ("Z11,r1,1", "unknown zone id 'Z11'"),
            ("Z,r1,1", "unknown zone id 'Z'"),
            ("Z1,r1\x00,1", "unknown record id 'r1\\x00'"),
            ("Z1,r1r1r1r1r1,1", "unknown record id 'r1r1r1r1r1'"),
        ],
    )
    def test_id_sharing_bytes_with_a_known_id_names_line(
        self, tmp_path, bad_row, message
    ):
        # Ids are matched on their bytes and their length: a known id's
        # prefix, or a known id with more bytes after it, is unknown.
        with pytest.raises(IngestError, match=re.escape(f"line 3: {message}")):
            read_text(tmp_path, f"Z1,r1,2\n{bad_row}\nZ2,r2,1\n")

    @pytest.mark.parametrize(
        "raw", ["-1", "2.5", "", "1e3", "+2", "99999999999999999999"]
    )
    def test_invalid_count_names_line(self, tmp_path, raw):
        message = re.escape(f"line 3: invalid count '{raw}'")
        with pytest.raises(IngestError, match=message):
            read_text(tmp_path, f"Z1,r1,2\nZ2,r2,{raw}\nZ2,r1,1\n")


# --------------------------------------------------------------------------
# The byte reader against the text-mode reader
# --------------------------------------------------------------------------

# Ids as ingest admits them, long enough to need more than 8 bytes.
long_ids = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n'),
    min_size=1,
    max_size=12,
)
BAD_COUNTS = ["-1", "2.5", "", "1e3", "+2", " 1", "1 ", "٣", "99999999999999999999"]


@st.composite
def population_files(draw, elements=st.integers(0, 2**63 - 1) | st.integers(0, 12)):
    """(zones, records, data lines, line end, final newline) of a valid
    population file of counts drawn from `elements`, with up to one
    injected fault."""
    zones = draw(st.lists(long_ids, min_size=1, max_size=4, unique=True))
    records = draw(st.lists(long_ids, min_size=1, max_size=7, unique=True))
    counts = matrix(draw, elements, records, zones)
    rows = [
        [zone, records[ri], str(counts[ri, zi])]
        for zi, zone in enumerate(zones)
        for ri in np.flatnonzero(counts[:, zi])
    ]
    faults = [None, "width", "zone", "record", "count", "duplicate"]
    fault = draw(st.sampled_from(faults))
    if fault and rows:
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        if fault == "width":
            rows[i] = draw(st.sampled_from([row[:2], row + ["1"], []]))
        elif fault == "zone":
            row[0] = draw(long_ids.filter(lambda z: z not in zones))
        elif fault == "record":
            row[1] = draw(long_ids.filter(lambda r: r not in records))
        elif fault == "count":
            row[2] = draw(st.sampled_from(BAD_COUNTS))
        else:
            rows.insert(draw(st.integers(i + 1, len(rows))), list(row))
    lines = [",".join(row) for row in rows]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return zones, records, lines, end, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(
    case=population_files(),
    block_lines=st.sampled_from([1, 2, 3, popfile.BLOCK_LINES]),
)
def test_read_population_matches_text_reader(tmp_path_factory, case, block_lines):
    zones, records, lines, end, final_newline = case
    body = end.join(lines) + (end if final_newline and lines else "")
    path = tmp_path_factory.mktemp("pop") / "population.csv"
    path.write_bytes(f"zone_id,record_id,count{end}{body}".encode("utf-8"))

    def outcome(read):
        try:
            return read()
        except IngestError as exc:
            return str(exc)

    expected = outcome(
        lambda: reference_read_population(path, zones, records, block_lines)
    )
    with mock.patch.object(popfile, "BLOCK_LINES", block_lines):
        got = outcome(lambda: dense_counts(read_population(path, zones, records)))
    if isinstance(expected, str):
        assert got == expected
    else:
        np.testing.assert_array_equal(got, expected)


# --------------------------------------------------------------------------
# The compressed reader against the dense reader
# --------------------------------------------------------------------------


@st.composite
def shuffled_files(draw):
    """`population_files` with the rows in any order, and up to two more
    faults: a repeated line anywhere, or a line of the wrong width."""
    zones, records, lines, end, final_newline = draw(population_files())
    lines = list(draw(st.permutations(lines)))
    for _ in range(draw(st.integers(0, 2))):
        if not lines:
            break
        line = lines[draw(st.integers(0, len(lines) - 1))]
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from([line, line + ",1"])))
    return zones, records, lines, end, final_newline


@st.composite
def run_files(draw):
    """(zones, records, data lines, line end, final newline) of a population
    file written as runs of rows of one zone: in (zone, record) order, so
    that a zone's run crosses block edges, or with zones that come back
    after another zone and records in any order; counts of 0 fall on a
    run's first and last rows, and a run may be of an unknown zone."""
    zones = draw(st.lists(long_ids, min_size=1, max_size=3, unique=True))
    records = draw(st.lists(long_ids, min_size=4, max_size=10, unique=True))
    unknown = draw(long_ids.filter(lambda z: z not in zones))
    order = draw(st.sampled_from(["sorted", "any", "comes back"]))
    ordered = order == "sorted"
    n_runs = draw(st.integers(1, 5))
    run_zones = draw(st.lists(st.sampled_from(zones), min_size=n_runs, max_size=n_runs))
    if ordered:
        run_zones.sort(key=zones.index)
    elif order == "comes back":
        run_zones = [*zones, zones[0]]
        n_runs = len(run_zones)
    at = draw(st.sampled_from([None, None, *range(n_runs)]))
    if at is not None:  # a run of an unknown zone
        run_zones[at] = unknown
    lines, pairs = [], set()  # no pair repeats: other tests cover that
    for zone in run_zones:
        rows = st.lists(st.sampled_from(records), min_size=1, max_size=4, unique=True)
        rows = draw(rows)
        if ordered:
            rows.sort(key=records.index)
        counts = st.sampled_from(["0", "1", "2", "12"])
        for record in rows:
            if (zone, record) not in pairs:
                pairs.add((zone, record))
                lines.append(f"{zone},{record},{draw(counts)}")
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return zones, records, lines, end, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(
    case=shuffled_files() | run_files(),
    block_lines=st.sampled_from([1, 2, 3, popfile.BLOCK_LINES]),
    chunk_bytes=st.sampled_from([1, 5, 64, popfile.CHUNK_BYTES]),
)
def test_read_population_matches_dense_reader(
    tmp_path_factory, case, block_lines, chunk_bytes
):
    # Rows in any order, repeated pairs and several faults in one file: the
    # same counts, or the same message naming the same line. The reader's
    # reads of a few bytes cut lines, and blocks, across reads. Zones are
    # looked up once per run of rows: an unknown zone is named on the first
    # row of its run, as the dense reader, which looks up every row, names it.
    zones, records, lines, end, final_newline = case
    body = end.join(lines) + (end if final_newline and lines else "")
    path = tmp_path_factory.mktemp("pop") / "population.csv"
    path.write_bytes(f"zone_id,record_id,count{end}{body}".encode("utf-8"))

    def outcome(read):
        try:
            return read()
        except IngestError as exc:
            return str(exc)

    with mock.patch.object(popfile, "BLOCK_LINES", block_lines):
        expected = outcome(lambda: dense_read_population(path, zones, records))
        with mock.patch.object(popfile, "CHUNK_BYTES", chunk_bytes):
            got = outcome(lambda: read_population(path, zones, records))
    if isinstance(expected, str):
        assert got == expected
    else:
        assert got == sparse(expected, tuple(zones), tuple(records))


# --------------------------------------------------------------------------
# The reader of columns allocated once against the append-and-join reader
# --------------------------------------------------------------------------

# Zero counts, and the largest count of a width with the first past it: a
# count column begun as uint8 widens at the first block that needs it.
WIDENING_COUNTS = [0, 1, 255, 256, 2**31 - 1, 2**31]


@st.composite
def widening_files(draw):
    """(zones, records, data lines as bytes, line end, final newline) of
    `population_files` of WIDENING_COUNTS with up to one fault of the kinds
    it injects, rows in order or shuffled, a line repeated anywhere, so that
    a repeated pair may come before another fault, and up to one line of
    bytes that are not UTF-8."""
    zones, records, lines, end, final_newline = draw(
        population_files(st.sampled_from(WIDENING_COUNTS))
    )
    if draw(st.booleans()):
        lines = list(draw(st.permutations(lines)))
    if lines and draw(st.booleans()):
        line = lines[draw(st.integers(0, len(lines) - 1))]
        lines.insert(draw(st.integers(0, len(lines))), line)
    lines = [line.encode() for line in lines]
    if lines and draw(st.integers(0, 3)) == 0:
        lines[draw(st.integers(0, len(lines) - 1))] += b"\xff"
    return zones, records, lines, end, final_newline


@settings(max_examples=300, deadline=None)
@given(
    case=widening_files(),
    block_lines=st.sampled_from([1, 2, 3, popfile.BLOCK_LINES]),
)
def test_read_population_matches_joined_reader(tmp_path_factory, case, block_lines):
    # The same population, counts and records in the same widths, or the
    # same message naming the same line.
    zones, records, lines, end, final_newline = case
    end = end.encode()
    body = end.join(lines) + (end if final_newline and lines else b"")
    path = tmp_path_factory.mktemp("pop") / "population.csv"
    path.write_bytes(b"zone_id,record_id,count" + end + body)

    def outcome(read):
        try:
            return read(path, zones, records)
        except IngestError as exc:
            return str(exc)

    with mock.patch.object(popfile, "BLOCK_LINES", block_lines):
        expected = outcome(joined_read_population)
        got = outcome(read_population)
    assert got == expected
    if not isinstance(expected, str):
        assert got.counts.dtype == expected.counts.dtype
        assert got.records.dtype == expected.records.dtype
