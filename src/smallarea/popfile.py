"""The population file formats.

`population.csv` holds one `zone_id,record_id,count` row per nonzero count,
zones in constraint-table order and records in survey order within a zone.
`weights.csv` (`--dump-weights`) holds one `record_id,zone_id,weight` row per
record and zone, in the same order, weights as `repr(float)` and NaN blank.
`population_rows` and `weights_rows` give their data rows as the text that
`csv.writer` would write, with CRLF line ends, made with one string join per
zone. Ids are written and split unquoted, which is exact because ingest
rejects zone and record ids that `csv.writer` would quote
(`schema.needs_quoting`).
"""

from __future__ import annotations

from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

from .ingest import IngestError
from .integerize import SyntheticPopulation
from .ipf import WeightMatrix

POPULATION_HEADER = ("zone_id", "record_id", "count")
WEIGHTS_HEADER = ("record_id", "zone_id", "weight")
# Lines parsed at a time: splitting the whole file at once holds every field
# of it as a string, which costs more memory than the count matrix itself.
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
    """The rows of `population.csv`: one string join per zone over its
    nonzero counts."""
    ids = np.array([rid + "," for rid in population.record_ids], dtype=object)

    def blocks():
        for zone, col in zip(population.zone_ids, population.counts.T):
            nz = np.flatnonzero(col)
            if nz.size:
                lead = zone + ","
                rows = map(str.__add__, ids[nz], map(str, col[nz].tolist()))
                yield lead + f"\r\n{lead}".join(rows) + "\r\n"

    return TextRows(int(np.count_nonzero(population.counts)), blocks)


def weights_rows(matrix: WeightMatrix) -> TextRows:
    """The rows of `weights.csv`: one string join per zone."""

    def blocks():
        for zone, col in zip(matrix.zone_ids, matrix.weights.T):
            values = list(map(repr, col.tolist()))
            for i in np.flatnonzero(np.isnan(col)).tolist():
                values[i] = ""
            cells = (matrix.record_ids, repeat(f",{zone},"), values, repeat("\r\n"))
            yield "".join(chain.from_iterable(zip(*cells)))

    return TextRows(matrix.weights.size, blocks)


def read_population(path: Path, zone_ids, record_ids) -> SyntheticPopulation:
    """Read `population.csv` into a SyntheticPopulation over `zone_ids` and
    `record_ids`; absent (zone, record) pairs count 0.

    Reads BLOCK_LINES lines at a time and parses each block as columns.
    Rejects, naming the file and line, a row that has not 3 fields, an
    unknown zone or record id, a count that is not a non-negative integer
    written in digits, and a repeated (zone, record) pair."""
    path = Path(path)
    if not path.exists():
        raise IngestError(f"{path}: population file not found (run synthesize)")
    zone_index = dict(zip(zone_ids, range(len(zone_ids))))
    record_index = dict(zip(record_ids, range(len(record_ids))))
    # -1 marks a (record, zone) pair that no row has named yet.
    counts = np.full(
        (len(record_ids), len(zone_ids)), -1, dtype=np.int64, order="F"
    )
    first_line = 2  # line number of the current block's first line

    def fail(i, message):
        raise IngestError(f"{path}: line {first_line + i}: {message}")

    with path.open(encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != ",".join(POPULATION_HEADER):
            raise IngestError(f"{path}: unexpected header {header!r}")
        while block := list(islice(fh, BLOCK_LINES)):
            m = len(block)
            text = ",".join(block)
            fields = text.split(",")
            zones, records, raw = fields[0::3], fields[1::3], fields[2::3]
            # A line break ends the last field of its line, so every line has
            # 3 fields exactly when there are 3 * m fields and every line
            # break ends a third field.
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
    return SyntheticPopulation(counts=counts, zone_ids=zone_ids, record_ids=record_ids)
