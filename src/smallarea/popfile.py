"""The population file formats.

`population.csv` holds one `zone_id,record_id,count` row per nonzero count,
zones in constraint-table order and records in survey order within a zone.
`weights.csv` (`--dump-weights`) holds one `record_id,zone_id,weight` row per
record and zone, in the same order, weights as `repr(float)` and NaN blank.
`population_rows` and `weights_rows` give their data rows as the text that
`csv.writer` would write, with CRLF line ends, and make no Python string per
row. `population_rows` copies padded byte tables of the ids and the digits
of the counts with numpy passes (`_field_table`, `_copy_fields`),
BLOCK_LINES rows at a time whatever their zones.
`read_population` counts the file's line ends, allocates its record and
count columns once for that many rows, writes each block's rows into them
from the fields that `csvbytes.scan_fields` finds, and looks up a zone id
once per run of rows with the same zone field. Ids are written and split
unquoted, which is exact because ingest rejects zone and record ids that
`csv.writer` would quote (`schema.needs_quoting`).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .csvbytes import (
    BLOCK_LINES,
    CHUNK_BYTES,
    FieldCountError,
    IngestError,
    TextColumn,
    field_words,
    gather,
    id_finder,
    joined,
    line_blocks,
    line_ends,
    scan_fields,
    utf8,
)
from .integerize import SyntheticPopulation, count_dtype, record_dtype
from .ipf import WeightMatrix

POPULATION_HEADER = ("zone_id", "record_id", "count")
WEIGHTS_HEADER = ("record_id", "zone_id", "weight")


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
    """The rows of `population.csv`, made BLOCK_LINES rows at a time, a
    block ending inside a zone or not: zone z's rows in the block [a, b)
    are its held counts clipped to [a, b). A row's length is the sum of the
    lengths of its "<zone_id>," and "<record_id>," in padded byte tables, of
    its count's digits and of CRLF; one cumsum gives each row's offset in
    the block's bytes. Each id field is copied with one pass per byte column
    of its table and each count digit by digit, exactly up to 2**63 - 1."""
    indptr, n = population.indptr, population.counts.size

    def blocks():
        zone_table, zone_lengths = _field_table(population.zone_ids)
        record_table, record_lengths = _field_table(population.record_ids)
        every_zone = np.arange(len(population.zone_ids))
        for a in range(0, n, BLOCK_LINES):
            rows = slice(a, a + BLOCK_LINES)  # the stop may pass n, where indptr ends
            zones = np.repeat(every_zone, np.diff(np.clip(indptr, a, rows.stop)))
            records = population.records[rows]
            counts = population.counts[rows].astype(np.int64)  # divided in place
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

    return TextRows(n, blocks)


def weights_rows(matrix: WeightMatrix) -> TextRows:
    """The rows of `weights.csv`, a zone at a time: a record's weight in zone
    z is F[z, cell], so a zone formats "<zone_id>,<weight>" CRLF once per
    cell, and its block is one join of each record's "<record_id>," (made
    once per run) with its cell's text."""
    cells = matrix.cells

    def blocks():
        parts = [None] * (2 * cells.size)
        parts[::2] = [f"{record}," for record in matrix.record_ids]
        for zone, weights in zip(matrix.zone_ids, matrix.multipliers):
            texts = [
                f"{zone},{w!r}\r\n" if w == w else f"{zone},\r\n"  # NaN blank
                for w in weights.tolist()
            ]
            # An object array's gather is a list for any number of records.
            parts[1::2] = np.array(texts, dtype=object)[cells].tolist()
            yield "".join(parts)

    return TextRows(len(matrix.zone_ids) * cells.size, blocks)


def read_population(path: Path, zone_ids, record_ids) -> SyntheticPopulation:
    """Read `population.csv` into a SyntheticPopulation over `zone_ids` and
    `record_ids` (strings or a TextColumn, held as a TextColumn); absent
    (zone, record) pairs and counts of 0 count 0. Rows may come in any
    order. Lines end in LF or CRLF.

    Counts the file's line ends first (`line_ends`), an upper bound on its
    rows, and allocates the record and count columns once for that many:
    record indices as `record_dtype`, counts as uint8, copied into a wider
    `count_dtype` at the first block that holds a count that needs it. Then
    reads blocks of BLOCK_LINES lines, cut from byte reads, finds each
    block's fields with one `scan_fields` call, writes its rows into the
    columns, and cuts the columns to the rows read. Record ids are looked up
    row by row (`id_finder`), zone ids once per run of zone fields of equal
    length and words (about one run per zone in a file the package wrote).
    Each run's zone and length give `indptr` and show whether the rows are
    in order; rows out of order are sorted stably by a (zone, record) key,
    int32 when zones x records is below 2**31, else int64.
    Rejects, naming the file and line, bytes that are not UTF-8, a row that
    has not 3 fields, an unknown zone (on the first row of its run) or
    record id, a count that is not a non-negative integer written in digits,
    and a repeated (zone, record) pair. When a file holds several faults,
    the one named is that of the first block with a fault, and in it a bad
    row before a repeated pair. Not read by `ingest._csv_blocks`: here a
    blank line is a fault, not skipped, and a double quote is part of an id."""
    path = Path(path)
    if not path.exists():
        raise IngestError(f"{path}: population file not found (run synthesize)")
    record_ids = TextColumn.of(record_ids)
    find_zone, find_record = id_finder(zone_ids), id_finder(record_ids)
    zone_words = -(-max(map(len, map(str.encode, zone_ids)), default=0) // 8)
    n_records = len(record_ids)
    # Per block read: each run's zone index and length.
    zones, runs = [np.empty(0, np.int32)], [np.empty(0, np.int32)]
    in_order, last_key = True, -1  # whether the keys so far rise strictly
    key_type = np.int32 if len(zone_ids) * n_records < 2**31 else np.int64

    def stable_order(zi, ri):
        """The stable (zone, record) order of rows; raises for the first
        line that repeats the pair of an earlier line."""
        key = zi.astype(key_type) * n_records + ri
        order = np.argsort(key, kind="stable")
        key.sort()  # as key[order], without a second sorted copy
        later = order[1:][key[1:] == key[:-1]]
        if later.size:
            i = int(later.min())
            zone, record = zone_ids[zi[i]], record_ids[ri[i]]
            raise IngestError(
                f"{path}: line {2 + i}: duplicate row for zone {zone!r}, "
                f"record {record!r}"
            )
        return order

    def fail(line, message):
        # A pair repeated in an earlier block is the first fault.
        zi = np.repeat(np.concatenate(zones), np.concatenate(runs))
        stable_order(zi, records[:done])
        raise IngestError(f"{path}: line {line}: {message}")

    def decode(block, first_line):
        """Write the rows of one block of lines, the first `first_line`,
        into the columns after the `done` rows of the blocks before."""
        nonlocal counts, done, in_order, last_key
        try:
            starts, ends, _ = scan_fields(block, 3, first_line)
        except FieldCountError as exc:
            fail(exc.line, "expected 3 fields")
        buf = np.frombuffer(block, np.uint8)

        def text(i, j):  # field j of row i
            return block[starts[i, j] : ends[i, j]].decode("utf-8")

        # A run starts where a zone field's length or a word differs from the
        # row before's. Words past the longest zone id are not compared: such
        # fields are unknown, and their run's first row is named.
        zone_len = ends[:, 0] - starts[:, 0]
        change = zone_len[1:] != zone_len[:-1]
        for word in field_words(buf, starts[:, 0], ends[:, 0], zone_words):
            change |= word[1:] != word[:-1]
        heads = np.flatnonzero(np.concatenate(([True], change)))
        lengths = np.diff(heads, append=len(starts)).astype(np.int32)
        zi, zone_known = find_zone(buf, starts[heads, 0], ends[heads, 0])
        ri, record_known = find_record(buf, starts[:, 1], ends[:, 1])
        if not (zone_known.all() and record_known.all()):
            zone_known = np.repeat(zone_known, lengths)
            i = int(np.argmin(zone_known & record_known))
            if not zone_known[i]:
                fail(first_line + i, f"unknown zone id {text(i, 0)!r}")
            fail(first_line + i, f"unknown record id {text(i, 1)!r}")
        values, valid = _digits(buf, starts[:, 2], ends[:, 2])
        if not valid.all():
            i = int(np.argmin(valid))
            fail(first_line + i, f"invalid count {text(i, 2)!r}")
        if in_order:  # keys rise: records within each run, zones between runs
            rising = ri[1:] > ri[:-1]
            rising[heads[1:] - 1] = zi[1:] > zi[:-1]
            in_order = int(zi[0]) * n_records + int(ri[0]) > last_key and rising.all()
        last_key = int(zi[-1]) * n_records + int(ri[-1])
        zones.append(zi.astype(np.int32))
        runs.append(lengths)
        into = slice(done, done + ri.size)
        records[into] = ri
        wide = np.promote_types(counts.dtype, count_dtype(values.max(initial=0)))
        if wide != counts.dtype:
            counts = counts.astype(wide)
        counts[into] = values
        done += ri.size

    with path.open("rb") as fh:
        size = line_ends(fh, CHUNK_BYTES)  # at least the data rows
        fh.seek(0)
        header = utf8(fh.readline(), path, 1).decode()
        header = header.removesuffix("\n").removesuffix("\r")
        if header != ",".join(POPULATION_HEADER):
            raise IngestError(f"{path}: unexpected header {header!r}")
        records = np.empty(size, record_dtype(n_records))
        counts = np.empty(size, np.uint8)
        done = 0
        for block, first_line in line_blocks(fh, BLOCK_LINES, CHUNK_BYTES, path, 2):
            decode(block, first_line)
            del block  # not held while the next block is read
    zi, lengths = joined(zones), joined(runs)
    ri, counts = records[:done], counts[:done]
    del records  # so that a sorted copy of `ri` frees it
    sizes = np.zeros(len(zone_ids), np.int64)
    np.add.at(sizes, zi, lengths)
    if not in_order:  # rows with strictly rising keys name no pair twice
        zi = np.repeat(zi, lengths)
        del lengths
        order = stable_order(zi, ri)
        del zi
        ri, counts = ri[order], counts[order]
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    if not counts.all():
        held = counts != 0
        indptr -= np.searchsorted(np.flatnonzero(~held), indptr)  # 0s before
        ri, counts = ri[held], counts[held]
    return SyntheticPopulation(indptr, ri, counts, zone_ids, record_ids)


def _digits(buf, starts, ends):
    """Each field buf[starts:ends] as an int64 when it is a non-negative
    integer below 2**63 written in ASCII digits, decoded digit by digit from
    its last, and whether it is one."""
    lengths = ends - starts
    valid = (lengths > 0) & (lengths <= 19)  # 19 digits fit in uint64
    value = np.zeros(lengths.size, np.uint64)
    scale = np.uint64(1)
    for j in range(int(lengths[valid].max(initial=0))):
        inside = lengths > j
        digit = buf[ends - 1 - j].astype(np.uint64) - np.uint64(ord("0"))
        valid &= (digit <= 9) | ~inside
        digit[~inside] = 0
        value += digit * scale
        scale *= np.uint64(10)
    valid &= value < np.uint64(2**63)
    return value.astype(np.int64), valid


# 10**k for k = 0..18: a positive int64 has as many digits as the powers it
# reaches.
_POWERS_OF_TEN = 10 ** np.arange(19, dtype=np.int64)


def _field_table(ids):
    """The UTF-8 bytes of "<id>," for each of `ids`, strings or a TextColumn,
    zero-padded to the longest, as one row per byte column; and the length
    of each."""
    ids = TextColumn.of(ids)
    starts, ends = ids.starts, ids.ends
    lengths = ends - starts + 1
    table = gather(ids.data, starts, ends, int(lengths.max(initial=0)))
    table[np.arange(len(ids)), lengths - 1] = ord(",")
    return np.ascontiguousarray(table.T), lengths


def _copy_fields(out, at, columns, rows, lengths):
    """Copy the first `lengths` bytes of the fields `rows` of a byte-column
    table to out[at:at + lengths], one masked pass per byte column."""
    for j, column in enumerate(columns):
        inside = lengths > j
        out[at[inside] + j] = column[rows[inside]]
