"""Dense records x zones reference code: the weight expansion, `synthesize`
and population reader that each held a full records x zones matrix, kept as
oracles for the compressed representations, and conversions between the two
layouts. Also TRS with its fallback picks drawn by numpy's Generator, which
the Python PCG64 stream and its inverse-CDF picks replaced, the sorted
byte-key id lookup that the hashed `csvbytes.id_finder` replaced, the
line-by-line field scanner that the one-pass `csvbytes.scan_fields`
replaced, and the population reader that appended each block's columns and
joined them, which the reader of columns allocated once replaced."""

from itertools import islice
from pathlib import Path

import numpy as np

from smallarea import popfile
from smallarea.csvbytes import (
    FieldCountError,
    IngestError,
    TextColumn,
    field_words,
    gather,
    id_finder,
    joined,
    line_blocks,
    scan_fields,
    utf8,
)
from smallarea.integerize import (
    SyntheticPopulation,
    _systematic_pick,
    count_dtype,
    record_dtype,
)
from smallarea.ipf import WeightMatrix


def sparse(counts, zone_ids=None, record_ids=None) -> SyntheticPopulation:
    """The SyntheticPopulation of a records x zones count matrix; ids
    default to Z0, Z1, ... and r0, r1, ..."""
    counts = np.asarray(counts, dtype=np.int64)
    n, n_zones = counts.shape
    zone_ids = tuple(f"Z{i}" for i in range(n_zones)) if zone_ids is None else zone_ids
    record_ids = tuple(f"r{i}" for i in range(n)) if record_ids is None else record_ids
    capacity = np.count_nonzero(counts)
    return SyntheticPopulation.from_columns(counts.T, zone_ids, record_ids, capacity)


def dense_counts(population: SyntheticPopulation) -> np.ndarray:
    """The records x zones int64 count matrix of a population."""
    n_zones = len(population.zone_ids)
    out = np.zeros((len(population.record_ids), n_zones), dtype=np.int64)
    zone = np.repeat(np.arange(n_zones), np.diff(population.indptr))
    out[population.records, zone] = population.counts
    return out


def weight_matrix(weights, zone_ids, record_ids) -> WeightMatrix:
    """The WeightMatrix of a records x zones weight matrix: each record is
    its own cell."""
    weights = np.asarray(weights, dtype=float)
    return WeightMatrix(weights.T, np.arange(len(weights)), zone_ids, record_ids)


def dense_weights(matrix: WeightMatrix) -> np.ndarray:
    """The full expansion that `ipf._fit` made before it returned the
    multipliers: records x zones."""
    return np.take(matrix.multipliers, matrix.cells, axis=1).T


def dense_synthesize(matrix: WeightMatrix, zone_populations, seed) -> np.ndarray:
    """`synthesize` into a column-major records x zones count matrix, each
    zone drawn by `numpy_trs_zone` from numpy's own
    `default_rng([seed, zone_index])`."""
    weights = dense_weights(matrix)
    n, n_zones = weights.shape
    counts = np.zeros((n, n_zones), dtype=np.int64, order="F")
    for zi in range(n_zones):
        try:
            counts[:, zi] = numpy_trs_zone(
                weights[:, zi],
                int(zone_populations[zi]),
                np.random.default_rng([seed, zi]),
            )
        except ValueError as exc:
            raise ValueError(f"zone {matrix.zone_ids[zi]!r}: {exc}") from exc
    return counts


def numpy_trs_zone(weights, target_total: int, rng) -> np.ndarray:
    """`integerize.trs_zone` as it drew its fallback picks with numpy's
    `Generator.choice`, with `rng` a numpy Generator: integerize one zone's
    weights so the counts sum to target_total.

    counts = floor(weights); the deficit d = target - sum(counts) is filled
    by systematic PPS draws on the fractional parts. If fewer records carry
    fractional mass than d, each of them gets one slot and the remainder is
    drawn with replacement proportional to the original weights. A negative
    deficit (inconsistent inputs) is resolved by symmetric downward draws,
    never taking a count below 0.
    """
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and >= 0")
    target_total = int(target_total)
    if target_total < 0:
        raise ValueError("target_total must be >= 0")
    if target_total > 0 and w.sum() == 0:
        raise ValueError("no support to sample: target > 0 with all-zero weights")

    counts = np.floor(w).astype(np.int64)
    frac = w - counts
    d = target_total - int(counts.sum())

    if d > 0:
        n_frac = int(np.count_nonzero(frac > 0))
        if n_frac >= d > 0:
            counts += _systematic_pick(frac, d, rng)
        else:
            counts[frac > 0] += 1
            remaining = d - n_frac
            if remaining > 0:
                p = w / w.sum()
                draws = rng.choice(w.size, size=remaining, replace=True, p=p)
                np.add.at(counts, draws, 1)
    elif d < 0:
        for _ in range(-d):
            cand = np.flatnonzero(counts > 0)
            p = frac[cand]
            if p.sum() == 0:
                p = counts[cand].astype(float)
            p = p / p.sum()
            counts[rng.choice(cand, p=p)] -= 1

    return counts


def dense_read_population(path, zone_ids, record_ids) -> np.ndarray:
    """`read_population` into a records x zones count matrix, finding
    repeated rows in it with -1 as the mark of a pair no row has named."""
    path = Path(path)
    if not path.exists():
        raise IngestError(f"{path}: population file not found (run synthesize)")
    find_zone = id_finder(zone_ids)
    find_record = id_finder(record_ids)
    n_records = len(record_ids)
    counts = np.full((n_records, len(zone_ids)), -1, dtype=np.int64, order="F")
    cells = counts.reshape(-1, order="F")  # a view: zone-major cell index
    first_line = 2

    def fail(i, message):
        raise IngestError(f"{path}: line {first_line + i}: {message}")

    with path.open("rb") as fh:
        header = fh.readline().decode("utf-8").removesuffix("\n").removesuffix("\r")
        if header != ",".join(popfile.POPULATION_HEADER):
            raise IngestError(f"{path}: unexpected header {header!r}")
        while block := b"".join(islice(fh, popfile.BLOCK_LINES)):
            if not block.isascii():
                block.decode("utf-8")
            try:
                starts, ends, lines = scan_fields(block, 3, first_line)
            except FieldCountError as exc:
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
            values, valid = popfile._digits(buf, starts[:, 2], ends[:, 2])
            if not valid.all():
                i = int(np.argmin(valid))
                fail(i, f"invalid count {field(i, 2)!r}")
            key = zi * n_records + ri
            rows = np.arange(key.size)
            named = cells[key] >= 0
            cells[key] = rows
            if named.any() or (cells[key] != rows).any():
                repeated = named
                first = np.unique(key, return_index=True)[1]
                repeated[np.setdiff1d(rows, first)] = True
                i = int(np.argmax(repeated))
                zone, record = field(i, 0), field(i, 1)
                fail(i, f"duplicate row for zone {zone!r}, record {record!r}")
            cells[key] = values
            first_line += lines.size
    np.maximum(counts, 0, out=counts)
    return counts


def joined_read_population(path, zone_ids, record_ids) -> SyntheticPopulation:
    """`popfile.read_population` as each block's records and counts
    appended to lists, the counts in the block's own `count_dtype`, and
    joined after the last block, which held the columns twice. Reads
    `popfile.BLOCK_LINES` lines and `popfile.CHUNK_BYTES` bytes at a time."""
    path = Path(path)
    if not path.exists():
        raise IngestError(f"{path}: population file not found (run synthesize)")
    record_ids = TextColumn.of(record_ids)
    find_zone, find_record = id_finder(zone_ids), id_finder(record_ids)
    zone_words = -(-max(map(len, map(str.encode, zone_ids)), default=0) // 8)
    n_records = len(record_ids)
    record_type = record_dtype(n_records)
    zones, runs = [np.empty(0, np.int32)], [np.empty(0, np.int32)]
    records, counts = [np.empty(0, record_type)], [np.empty(0, np.uint8)]
    in_order, last_key = True, -1
    key_type = np.int32 if len(zone_ids) * n_records < 2**31 else np.int64

    def stable_order(zi, ri):
        key = zi.astype(key_type) * n_records + ri
        order = np.argsort(key, kind="stable")
        key.sort()
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
        zi = np.repeat(np.concatenate(zones), np.concatenate(runs))
        stable_order(zi, np.concatenate(records))
        raise IngestError(f"{path}: line {line}: {message}")

    def decode(block, first_line):
        nonlocal in_order, last_key
        try:
            starts, ends, _ = scan_fields(block, 3, first_line)
        except FieldCountError as exc:
            fail(exc.line, "expected 3 fields")
        buf = np.frombuffer(block, np.uint8)

        def text(i, j):
            return block[starts[i, j] : ends[i, j]].decode("utf-8")

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
        values, valid = popfile._digits(buf, starts[:, 2], ends[:, 2])
        if not valid.all():
            i = int(np.argmin(valid))
            fail(first_line + i, f"invalid count {text(i, 2)!r}")
        if in_order:
            rising = ri[1:] > ri[:-1]
            rising[heads[1:] - 1] = zi[1:] > zi[:-1]
            in_order = int(zi[0]) * n_records + int(ri[0]) > last_key and rising.all()
        last_key = int(zi[-1]) * n_records + int(ri[-1])
        zones.append(zi.astype(np.int32))
        runs.append(lengths)
        records.append(ri.astype(record_type))
        counts.append(values.astype(count_dtype(values.max(initial=0)), copy=False))

    with path.open("rb") as fh:
        header = utf8(fh.readline(), path, 1).decode()
        header = header.removesuffix("\n").removesuffix("\r")
        if header != ",".join(popfile.POPULATION_HEADER):
            raise IngestError(f"{path}: unexpected header {header!r}")
        sizes = popfile.BLOCK_LINES, popfile.CHUNK_BYTES
        for block, first_line in line_blocks(fh, *sizes, path, 2):
            decode(block, first_line)
    zi, lengths = joined(zones), joined(runs)
    ri, counts = joined(records), joined(counts)
    sizes = np.zeros(len(zone_ids), np.int64)
    np.add.at(sizes, zi, lengths)
    if not in_order:
        order = stable_order(np.repeat(zi, lengths), ri)
        ri, counts = ri[order], counts[order]
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    if not counts.all():
        held = counts != 0
        indptr -= np.searchsorted(np.flatnonzero(~held), indptr)
        ri, counts = ri[held], counts[held]
    return SyntheticPopulation(indptr, ri, counts, zone_ids, record_ids)


def sorted_id_finder(ids):
    """`csvbytes.id_finder` as a sorted lookup of byte keys: the keys of
    `ids` are sorted once and each field's key is found by binary search."""
    ids = TextColumn.of(ids)
    buf, starts, ends = ids.data, ids.starts, ids.ends
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
    keys[:, n_len:] = gather(buf, starts, starts + np.minimum(lengths, width), width)
    return keys.view(f"S{n_len + width}").ravel()


def line_scan_fields(data: bytes, n_fields: int, first_line=1, skip_blank=False):
    """`csvbytes.scan_fields` by lines: each line's LF is found, then the
    commas before it are counted by a binary search of all commas."""
    buf = np.frombuffer(data, np.uint8)
    breaks = np.flatnonzero(buf == ord("\n"))
    if buf.size and buf[-1] != ord("\n"):
        breaks = np.append(breaks, buf.size)
    begins = np.empty_like(breaks)
    begins[:1] = 0
    begins[1:] = breaks[:-1] + 1
    stops = breaks - ((breaks > begins) & (buf[breaks - 1] == ord("\r")))
    commas = np.flatnonzero(buf == ord(","))
    widths = np.diff(np.searchsorted(commas, breaks), prepend=0) + 1
    lines = np.arange(first_line, first_line + breaks.size)
    if skip_blank:
        keep = stops > begins
        begins, stops, widths, lines = (a[keep] for a in (begins, stops, widths, lines))
    bad = np.flatnonzero(widths != n_fields)
    if bad.size:
        raise FieldCountError(int(lines[bad[0]]), int(widths[bad[0]]))
    # Every row holds n_fields - 1 commas, and a skipped line none.
    commas = commas.reshape(lines.size, n_fields - 1)
    offset = np.int32 if buf.size < 2**31 else np.intp
    starts = np.empty((lines.size, n_fields), offset)
    ends = np.empty_like(starts)
    starts[:, 0], starts[:, 1:] = begins, commas + 1
    ends[:, :-1], ends[:, -1] = commas, stops
    return starts, ends, lines
