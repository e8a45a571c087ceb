"""The byte layer under every CSV reader and the population writer: files
are read as bytes and cut into blocks of whole lines (`line_blocks`, with
its UTF-8 check), fields are found as offsets (`scan_fields`), and ids are
matched as exact byte keys (`id_keys`, `id_finder`). Faults are
IngestErrors naming the file and line. This module imports no other module
of the package.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Lines parsed, or rows written, at a time, by the survey and population
# readers and the population writer: splitting a whole file at once holds
# every field of it as offsets or strings, which costs more memory than the
# columns it fills, and the writer's working arrays take about 120 bytes a row.
BLOCK_LINES = 16384
# Bytes the readers read at a time and cut into blocks at line ends; a read
# is allocated whole, so it adds to the reader's peak memory.
CHUNK_BYTES = 1 << 18


class IngestError(ValueError):
    """Malformed input file or configuration."""


class FieldCountError(IngestError):
    """A line holds `got` fields, not the expected number."""

    def __init__(self, line: int, got: int):
        super().__init__(f"line {line}: {got} fields")
        self.line, self.got = line, got


def line_blocks(fh, block_lines: int, chunk_bytes: int, path, line=1):
    """The rest of the binary file `path`, open as `fh`, in blocks of
    `block_lines` lines, the last one possibly shorter, each with the number
    of its first line, the first block's being `line`. Reads `chunk_bytes`
    at a time and cuts at the LF that ends each block, so no object is made
    per line. Raises IngestError naming the line of the first bytes that
    are not UTF-8."""
    pieces, lines = [], 0  # the current block's bytes so far, its whole lines
    while chunk := fh.read(chunk_bytes):
        ends = np.flatnonzero(np.frombuffer(chunk, np.uint8) == ord("\n")) + 1
        start = 0
        for end in ends[block_lines - 1 - lines :: block_lines].tolist():
            pieces.append(chunk[start:end])
            block, pieces, start = b"".join(pieces), [], end
            yield utf8(block, path, line), line
            del block  # not held while the next block is read
            line += block_lines
        pieces.append(chunk[start:])
        lines = (lines + ends.size) % block_lines
    if block := b"".join(pieces):
        yield utf8(block, path, line), line


def utf8(block: bytes, path, line: int) -> bytes:
    """`block`, whose first line is line `line` of `path`, if it is UTF-8;
    IngestError naming the line of its first bytes that are not."""
    try:
        if not block.isascii():
            block.decode("utf-8")
    except UnicodeDecodeError as exc:
        line += block.count(b"\n", 0, exc.start)
        raise IngestError(f"{path}: line {line}: bytes that are not UTF-8") from None
    return block


def scan_fields(data: bytes, n_fields: int, first_line=1, skip_blank=False):
    """Field offsets of `data`: lines of `n_fields` comma-separated,
    unquoted fields, ending in LF or CRLF (the last line may lack its end).

    Returns (starts, ends, lines): rows x n_fields arrays of the byte offset
    of each field's first byte and of the byte after its last, and each
    row's line number, the first line of `data` being `first_line`. With
    `skip_blank`, an empty line gives no row. Raises FieldCountError naming
    the first line that holds another number of fields."""
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
    starts = np.empty((lines.size, n_fields), np.intp)
    ends = np.empty_like(starts)
    starts[:, 0], starts[:, 1:] = begins, commas + 1
    ends[:, :-1], ends[:, -1] = commas, stops
    return starts, ends, lines


def gather(buf, starts, ends, width) -> np.ndarray:
    """rows x width uint8 matrix of the fields buf[starts:ends], each
    zero-padded to `width` bytes; no field may be longer."""
    if buf.size < starts.max(initial=0) + width:
        buf = np.concatenate((buf, np.zeros(width, np.uint8)))
    out = sliding_window_view(buf, width)[starts]
    out *= np.arange(width) < (ends - starts)[:, None]
    return out


def id_bytes(ids, suffix=""):
    """The UTF-8 bytes of each id followed by `suffix`, as one uint8 buffer
    and the start and end of each."""
    lengths = np.fromiter(map(len, map(str.encode, ids)), np.intp, len(ids))
    lengths += len(suffix.encode("utf-8"))
    ends = np.cumsum(lengths)
    buf = (suffix.join(ids) + suffix).encode("utf-8")
    return np.frombuffer(buf, np.uint8), ends - lengths, ends


def id_finder(ids):
    """A function that maps fields (buf, starts, ends) to the index of each
    in `ids` and whether it is one of them, comparing UTF-8 bytes: a sorted
    lookup of `id_keys`."""
    buf, starts, ends = id_bytes(ids)
    width = int((ends - starts).max(initial=0))
    keys = id_keys(buf, starts, ends, width)
    order = np.argsort(keys, kind="stable")
    table = keys[order]

    def find(buf, starts, ends):
        keys = id_keys(buf, starts, ends, width)
        if not table.size:
            return np.zeros(keys.size, np.intp), np.zeros(keys.size, bool)
        at = np.minimum(np.searchsorted(table, keys), table.size - 1)
        return order[at], table[at] == keys

    return find


def id_keys(buf, starts, ends, width) -> np.ndarray:
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


def joined(blocks: list) -> np.ndarray:
    """The arrays of `blocks` joined into one; empties the list, so that
    they are not held twice."""
    out = np.concatenate(blocks)
    blocks.clear()
    return out
