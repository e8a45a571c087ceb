"""The population file formats.

`population.csv` holds one `zone_id,record_id,count` row per nonzero count,
zones in constraint-table order and records in survey order within a zone.
`weights.csv` (`--dump-weights`) holds one `record_id,zone_id,weight` row per
record and zone, in the same order, weights as `repr(float)` and NaN blank.
`population_rows` and `weights_rows` give their data rows as the text that
`csv.writer` would write, with CRLF line ends. `population_rows` fills the
bytes of a block of whole zones with numpy passes over byte tables of the
ids and the digits of the counts, and makes no Python string per row;
`weights_rows` makes one string join per zone. Ids are written and split
unquoted, which is exact because ingest rejects zone and record ids that
`csv.writer` would quote (`schema.needs_quoting`).
"""

from __future__ import annotations

from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

from .ingest import IngestError, _FieldCountError, _gather, _scan_fields
from .integerize import SyntheticPopulation
from .ipf import WeightMatrix

POPULATION_HEADER = ("zone_id", "record_id", "count")
WEIGHTS_HEADER = ("record_id", "zone_id", "weight")
# Lines parsed, or rows written, at a time: splitting the whole file at once
# holds every field of it as a string, which costs more memory than the count
# matrix itself, and the writer's working arrays take about 120 bytes a row.
BLOCK_LINES = 16384


class TextRows:
    """Data rows of a CSV table held as ready-made CSV text.

    `blocks()` yields the text in order, one block of whole lines at a time;
    `len()` is the number of rows, and iterating yields each row as a list
    of its fields, so code that takes rows as lists still reads them."""

    def __init__(self, n_rows: int, blocks):
        self.n_rows = n_rows
        self.blocks = blocks

    def __len__(self) -> int:
        return self.n_rows

    def __iter__(self):
        for block in self.blocks():
            for line in block.split("\r\n")[:-1]:  # each block ends a line
                yield line.split(",")


def population_rows(population: SyntheticPopulation) -> TextRows:
    """The rows of `population.csv`, made one block of whole zones of about
    BLOCK_LINES rows at a time. A row's length is the sum of the lengths of
    its "<zone_id>," and "<record_id>," in padded byte tables, of its
    count's digits and of CRLF; one cumsum gives each row's offset in the
    block's bytes. Each id field is copied with one pass per byte column of
    its table and each count digit by digit, exactly up to 2**63 - 1."""

    def blocks():
        zone_table, zone_lengths = _field_table(population.zone_ids)
        record_table, record_lengths = _field_table(population.record_ids)
        indptr = population.indptr
        for first, end in population.zone_blocks(BLOCK_LINES):
            held = slice(indptr[first], indptr[end])
            if held.start == held.stop:  # a block of empty zones
                continue
            zones = np.repeat(np.arange(first, end), np.diff(indptr[first : end + 1]))
            records = population.records[held]
            counts = population.counts[held].astype(np.int64)  # divided below
            zone_len, record_len = zone_lengths[zones], record_lengths[records]
            digits = np.searchsorted(_POWERS_OF_TEN, counts, side="right")
            lengths = zone_len + record_len + digits + 2
            ends = np.cumsum(lengths)
            starts = ends - lengths
            out = np.empty(int(ends[-1]), np.uint8)
            _copy_fields(out, starts, zone_table, zones, zone_len)
            _copy_fields(out, starts + zone_len, record_table, records, record_len)
            last = ends - 3  # each count's last digit
            for p in range(int(digits.max())):
                inside = digits > p
                out[last[inside] - p] = counts[inside] % 10 + ord("0")
                counts //= 10
            out[ends - 2] = ord("\r")
            out[ends - 1] = ord("\n")
            yield str(out, "utf-8")

    return TextRows(population.counts.size, blocks)


def weights_rows(matrix: WeightMatrix) -> TextRows:
    """The rows of `weights.csv`: one zone's weights expanded and joined at
    a time."""

    def blocks():
        for z, zone in enumerate(matrix.zone_ids):
            col = matrix.column(z)
            values = list(map(repr, col.tolist()))
            for i in np.flatnonzero(np.isnan(col)).tolist():
                values[i] = ""
            cells = (matrix.record_ids, repeat(f",{zone},"), values, repeat("\r\n"))
            yield "".join(chain.from_iterable(zip(*cells)))

    return TextRows(len(matrix.zone_ids) * len(matrix.record_ids), blocks)


def read_population(path: Path, zone_ids, record_ids) -> SyntheticPopulation:
    """Read `population.csv` into a SyntheticPopulation over `zone_ids` and
    `record_ids`; absent (zone, record) pairs and counts of 0 count 0. Rows
    may come in any order. Lines end in LF or CRLF.

    Reads BLOCK_LINES lines at a time as bytes and matches each block's ids
    as byte keys. Rejects, naming the file and line, a row that has not 3
    fields, an unknown zone or record id, a count that is not a non-negative
    integer written in digits, and a repeated (zone, record) pair. When a
    file holds several faults, the one named is that of the first block
    with a fault, and in it a bad row before a repeated pair."""
    path = Path(path)
    if not path.exists():
        raise IngestError(f"{path}: population file not found (run synthesize)")
    find_zone, find_record = _id_finder(zone_ids), _id_finder(record_ids)
    n_records = len(record_ids)
    # Per block read: each row's zone and record index and its count.
    zones, records, counts = ([np.empty(0, np.int32)] for _ in range(3))
    in_order, last_key = True, -1  # whether the keys so far rise strictly
    first_line = 2  # line number of the current block's first line

    def stable_order(zi, ri):
        """The stable (zone, record) order of rows; raises for the first
        line that repeats the pair of an earlier line."""
        key = zi.astype(np.int64) * n_records + ri
        order = np.argsort(key, kind="stable")
        key = key[order]
        later = order[1:][key[1:] == key[:-1]]
        if later.size:
            i = int(later.min())
            zone, record = zone_ids[zi[i]], record_ids[ri[i]]
            raise IngestError(
                f"{path}: line {2 + i}: duplicate row for zone {zone!r}, "
                f"record {record!r}"
            )
        return order

    def fail(i, message):
        # A pair repeated in an earlier block is the first fault.
        stable_order(np.concatenate(zones), np.concatenate(records))
        raise IngestError(f"{path}: line {first_line + i}: {message}")

    with path.open("rb") as fh:
        header = fh.readline().decode("utf-8").removesuffix("\n").removesuffix("\r")
        if header != ",".join(POPULATION_HEADER):
            raise IngestError(f"{path}: unexpected header {header!r}")
        while block := b"".join(islice(fh, BLOCK_LINES)):
            if not block.isascii():
                block.decode("utf-8")  # rejects what a text read would
            try:
                starts, ends, lines = _scan_fields(block, 3, first_line)
            except _FieldCountError as exc:
                fail(exc.line - first_line, "expected 3 fields")
            buf = np.frombuffer(block, np.uint8)

            def field(i, j):
                return block[starts[i, j] : ends[i, j]].decode("utf-8")

            zi, zone_known = find_zone(buf, starts[:, 0], ends[:, 0])
            ri, record_known = find_record(buf, starts[:, 1], ends[:, 1])
            if not (zone_known.all() and record_known.all()):
                i = int(np.argmin(zone_known & record_known))
                if not zone_known[i]:
                    fail(i, f"unknown zone id {field(i, 0)!r}")
                fail(i, f"unknown record id {field(i, 1)!r}")
            values, valid = _digits(buf, starts[:, 2], ends[:, 2])
            if not valid.all():
                i = int(np.argmin(valid))
                fail(i, f"invalid count {field(i, 2)!r}")
            key = zi * n_records + ri
            in_order &= bool(key[0] > last_key) and bool(np.all(key[1:] > key[:-1]))
            last_key = int(key[-1])
            zones.append(zi.astype(np.int32))
            records.append(ri.astype(np.int32))
            if values.max(initial=0) < 2**31:
                values = values.astype(np.int32)
            counts.append(values)
            first_line += lines.size
    zi, ri, counts = _joined(zones), _joined(records), _joined(counts)
    if not in_order:  # rows with strictly rising keys name no pair twice
        order = stable_order(zi, ri)
        zi, ri, counts = zi[order], ri[order], counts[order]
    if not counts.all():
        held = counts != 0
        zi, ri, counts = zi[held], ri[held], counts[held]
    # zi rises: zone z's rows start where zi first reaches z.
    bounds = np.arange(len(zone_ids) + 1, dtype=np.int32)
    indptr = np.searchsorted(zi, bounds).astype(np.int64)
    return SyntheticPopulation(indptr, ri, counts, zone_ids, record_ids)


def _joined(blocks: list) -> np.ndarray:
    """The arrays of `blocks` joined into one; empties the list, so that
    they are not held twice."""
    out = np.concatenate(blocks)
    blocks.clear()
    return out


def _id_finder(ids):
    """A function that maps fields (buf, starts, ends) to the index of each
    in `ids` and whether it is one of them, comparing UTF-8 bytes: a sorted
    lookup of `_id_keys`."""
    buf, starts, ends = _id_bytes(ids)
    width = int((ends - starts).max(initial=0))
    keys = _id_keys(buf, starts, ends, width)
    order = np.argsort(keys, kind="stable")
    table = keys[order]

    def find(buf, starts, ends):
        keys = _id_keys(buf, starts, ends, width)
        if not table.size:
            return np.zeros(keys.size, np.intp), np.zeros(keys.size, bool)
        at = np.minimum(np.searchsorted(table, keys), table.size - 1)
        return order[at], table[at] == keys

    return find


def _id_bytes(ids, suffix=""):
    """The UTF-8 bytes of each id followed by `suffix`, as one uint8 buffer
    and the start and end of each."""
    lengths = np.fromiter(map(len, map(str.encode, ids)), np.intp, len(ids))
    lengths += len(suffix.encode("utf-8"))
    ends = np.cumsum(lengths)
    buf = (suffix.join(ids) + suffix).encode("utf-8")
    return np.frombuffer(buf, np.uint8), ends - lengths, ends


def _id_keys(buf, starts, ends, width) -> np.ndarray:
    """Keys equal exactly when the fields buf[starts:ends] are equal, for
    fields of up to `width` bytes: the field's length, then its bytes. A
    longer field gets a length that no field of `width` bytes has. Keys of
    up to 8 bytes are uint64, with a field's bytes read from its start as
    one big-endian word, so that fields of one length sort as bytes do."""
    lengths = np.minimum(ends - starts, width + 1)
    n_len = ((width + 1).bit_length() + 7) // 8
    if n_len + width <= 8:
        padded = np.concatenate((buf, np.zeros(8, np.uint8)))
        words = np.ndarray(buf.size + 1, ">u8", padded, strides=(1,))[starts]
        drop = (8 * (7 - np.minimum(lengths, width))).astype(np.uint64)
        body = (words.astype(np.uint64) >> np.uint64(8)) >> drop
        return lengths.astype(np.uint64) << np.uint64(8 * width) | body
    keys = np.empty((lengths.size, n_len + width), np.uint8)
    for b in range(n_len):
        keys[:, b] = lengths >> (8 * (n_len - 1 - b)) & 255
    keys[:, n_len:] = _gather(buf, starts, starts + np.minimum(lengths, width), width)
    return keys.view(f"S{n_len + width}").ravel()


def _digits(buf, starts, ends):
    """Each field buf[starts:ends] as an int64 when it is a non-negative
    integer below 2**63 written in ASCII digits, decoded digit by digit, and
    whether it is one."""
    lengths = ends - starts
    valid = (lengths > 0) & (lengths <= 19)  # 19 digits fit in uint64
    width = int(lengths[valid].max(initial=0))
    digits = _gather(buf, starts, starts + np.minimum(lengths, width), width)
    digits = (digits - np.uint8(ord("0"))).astype(np.uint64)
    value = np.zeros(lengths.size, np.uint64)
    for j in range(width):
        inside = j < lengths
        valid &= ~inside | (digits[:, j] <= 9)
        value = np.where(inside, value * np.uint64(10) + digits[:, j], value)
    valid &= value < np.uint64(2**63)
    return value.astype(np.int64), valid


# 10**k for k = 0..18: a positive int64 has as many digits as the powers it
# reaches.
_POWERS_OF_TEN = 10 ** np.arange(19, dtype=np.int64)


def _field_table(ids):
    """The UTF-8 bytes of "<id>," for each of `ids`, zero-padded to the
    longest, as one row per byte column; and the length of each."""
    buf, starts, ends = _id_bytes(ids, ",")
    lengths = ends - starts
    table = _gather(buf, starts, ends, int(lengths.max(initial=0)))
    return np.ascontiguousarray(table.T), lengths


def _copy_fields(out, at, columns, rows, lengths):
    """Copy the first `lengths` bytes of the fields `rows` of a byte-column
    table to out[at:at + lengths], one masked pass per byte column."""
    for j, column in enumerate(columns):
        inside = lengths > j
        out[at[inside] + j] = column[rows[inside]]
