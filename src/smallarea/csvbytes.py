"""The byte layer under every CSV reader and the population writer: files
are read as bytes and cut into blocks of whole lines (`line_blocks`, with
its UTF-8 check), the survey and population readers first count a file's
line ends (`line_ends`) to allocate their columns once, the survey, table
and population readers find fields as offsets with one pass over a
block's commas and LFs (`scan_fields`, the only field scanner), and ids
are matched by their bytes (`id_finder`): each field is read in place as
little-endian 8-byte words (`field_words`) and hashed with its length
into a table of ids, and it matches an id only when its length and every
word are equal. A column of ids is held as their bytes too (`TextColumn`).
Faults are IngestErrors naming the file and line. This module imports no
other module of the package.
"""

from __future__ import annotations

import operator
import os
from collections.abc import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Lines parsed, or rows written, at a time by the population reader and
# writer (the writer's last block fewer), and record pairs compared at a
# time by `SyntheticPopulation`'s order check: splitting a whole file at
# once holds every field of it as offsets or strings, which costs more
# memory than the columns it fills, and the writer's working arrays take
# about 120 bytes a row. The survey reader reads its own `ingest.BLOCK_LINES`.
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


def line_ends(fh, chunk_bytes: int) -> int:
    """The line ends (LF, CRLF or bare CR) of the rest of the binary file
    `fh`: at least its CSV rows after the first (blank lines, line breaks in
    quoted fields and a CRLF cut between two reads only add to it), so that
    a reader can allocate its columns once for that many rows."""
    # One buffer and two masks, used again for each read: new arrays per
    # read would each be fresh pages to fault in. They take the size of the
    # rest of the file when it is shorter than `chunk_bytes`, so that reading
    # a small file holds no more than three times its size.
    rest = os.fstat(fh.fileno()).st_size - fh.tell()
    chunk = bytearray(max(1, min(chunk_bytes, rest)))
    data = np.frombuffer(chunk, np.uint8)
    lf, cr = np.empty((2, data.size), bool)
    n = 0
    while size := fh.readinto(chunk):
        n += np.count_nonzero(np.equal(data[:size], ord("\n"), out=lf[:size]))
        if chunk.find(b"\r", 0, size) >= 0:
            np.equal(data[:size], ord("\r"), out=cr[:size])
            # A CR ends a line when the next byte is not an LF (cr > lf).
            np.greater(cr[: size - 1], lf[1:size], out=cr[: size - 1])
            n += np.count_nonzero(cr[:size])
    return n


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
    of each field's first byte and of the byte after its last, int32 when
    `data` is shorter than 2 GiB, and each row's line number, the first
    line of `data` being `first_line`. With `skip_blank`, an empty line
    gives no row. Raises FieldCountError naming the first line that holds
    another number of fields.

    Every comma and LF ends a field, and each field starts one byte after
    the separator before it. Only when the LFs are not exactly every
    n_fields-th separator are the fields of each line counted, to drop blank
    lines or name the line of another width. A CR is cut from line ends only."""
    buf = np.frombuffer(data, np.uint8)
    offset = np.int32 if buf.size < 2**31 else np.intp
    ends = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    is_lf = buf[ends] == ord("\n")  # before narrowing, as intp indexes faster
    ends = ends.astype(offset, copy=False)
    if buf.size and buf[-1] != ord("\n"):  # the last line lacks its end
        ends, is_lf = np.append(ends, offset(buf.size)), np.append(is_lf, True)
    starts = np.empty_like(ends)
    starts[:1] = 0
    starts[1:] = ends[:-1] + 1
    lines = np.arange(first_line, first_line + np.count_nonzero(is_lf))
    last = slice(n_fields - 1, None, n_fields)  # each row's last field
    regular = lines.size * n_fields == ends.size and is_lf[last].all()
    regular &= not (skip_blank and n_fields == 1)  # a blank line looks like a row
    at = last if regular else np.flatnonzero(is_lf)
    ends[at] -= (ends[at] > starts[at]) & (buf[ends[at] - 1] == ord("\r"))
    if not regular:
        widths = np.diff(at, prepend=-1)
        if skip_blank:
            blank = (widths == 1) & (starts[at] == ends[at])
            starts, ends = np.delete(starts, at[blank]), np.delete(ends, at[blank])
            widths, lines = widths[~blank], lines[~blank]
        bad = np.flatnonzero(widths != n_fields)
        if bad.size:
            raise FieldCountError(int(lines[bad[0]]), int(widths[bad[0]]))
    shape = (lines.size, n_fields)
    return starts.reshape(shape), ends.reshape(shape), lines


def gather(buf, starts, ends, width) -> np.ndarray:
    """rows x width uint8 matrix of the fields buf[starts:ends], each
    zero-padded to `width` bytes; no field may be longer."""
    if buf.size < starts.max(initial=0) + width:
        buf = np.concatenate((buf, np.zeros(width, np.uint8)))
    out = sliding_window_view(buf, width)[starts]
    out *= np.arange(width) < (ends - starts)[:, None]
    return out


def field_bytes(buf, starts, ends) -> np.ndarray:
    """The bytes of the fields buf[starts:ends], one after another, as one
    uint8 array."""
    lengths = ends - starts
    total = int(lengths.sum())
    shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return buf[shift + np.arange(total, dtype=shift.dtype)]


def field_words(buf, starts, ends, n_words: int) -> np.ndarray:
    """n_words x fields uint64 matrix: word k of the field buf[starts:ends]
    is its bytes 8k to 8k + 8 read as a little-endian number, with the
    bytes past the field's end zero. The words are read in place, those
    that would run past the end of `buf` shifted down from its last 8
    bytes."""
    lengths = ends - starts
    out = np.empty((n_words, lengths.size), np.uint64)
    if buf.size < 8:
        buf = np.concatenate((buf, np.zeros(8, np.uint8)))
    last = buf.size - 8  # the offset of the last whole word
    words = np.ndarray(last + 1, "<u8", buf, strides=(1,))
    for k in range(n_words):
        at = starts + 8 * k
        word = words[np.minimum(at, last)]
        late = np.flatnonzero(at > last)
        word[late] >>= ((at[late] - last) * 8).astype(np.uint64)
        np.bitwise_and(word, _LOW_BYTES[np.clip(lengths - 8 * k, 0, 8)], out=out[k])
    return out


# _LOW_BYTES[b]: a uint64 of b low bytes 0xff, for b = 0..8.
_LOW_BYTES = np.array([(1 << (8 * b)) - 1 for b in range(9)], np.uint64)
# An odd multiplier with no pattern in its bits (2**64 over the golden ratio).
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _slots(lengths, words, salt: int, bits: int) -> np.ndarray:
    """The slot in a table of 2**bits of each field of `lengths` and
    `words`: a multiplicative hash of its length, `salt` and its words."""
    h = lengths.astype(np.uint64)
    h += np.uint64(salt)
    h *= _MIX
    for word in words:
        h ^= word
        h *= _MIX
    h ^= h >> np.uint64(29)
    h *= _MIX
    h >>= np.uint64(64 - bits)
    return h.view(np.intp)


def id_finder(ids):
    """A function that maps fields (buf, starts, ends) to the index of each
    in `ids`, strings or a TextColumn, and whether it is one of them,
    comparing UTF-8 bytes; an id given twice maps to its first index.

    Each id is hashed with its length and words (`field_words`) into an
    int32 table of 2 to 4 slots per id (a power of two); the first id to
    reach a slot holds it, and the others that reach it, unless equal to
    it (the function's rising `repeats`), go to a further table with
    another salt. A field is looked up table by table: it is that id when
    its length and every word equal those of the id in its slot, is none
    when the slot is empty, and is looked up in the next table when the
    slot holds another id. A hash alone never decides a match."""
    ids = TextColumn.of(ids)
    starts, ends = ids.starts, ids.ends
    lengths = ends - starts
    n = lengths.size
    n_words = -(-int(lengths.max(initial=0)) // 8)
    words = field_words(ids.data, starts, ends, n_words)
    # Row n marks an empty slot: a length no field has.
    id_lengths = np.append(lengths, -1)
    id_words = np.concatenate((words, np.zeros((n_words, 1), np.uint64)), axis=1)
    tables, repeats = [], []  # per level: (salt, bits, slot table), repeats
    rows = np.arange(n, dtype=np.int32)  # the ids still to place
    while rows.size or not tables:
        salt, bits = len(tables), (2 * rows.size - 1).bit_length()
        slots = _slots(lengths[rows], words[:, rows], salt, bits)
        table = np.full(1 << bits, n, np.int32)
        np.minimum.at(table, slots, rows)
        holder = table[slots]
        same = (id_words[:, holder] == words[:, rows]).all(axis=0)
        same &= id_lengths[holder] == lengths[rows]
        repeats.append(rows[same & (holder != rows)])
        rows = rows[~same]
        tables.append((salt, bits, table))

    def look(level, lengths, words):
        """The id that each field is in the table `level`, n where none, and
        the fields whose slot there holds another id."""
        salt, bits, table = level
        at = table[_slots(lengths, words, salt, bits)].astype(np.intp)
        miss = id_lengths[at] != lengths
        for k in range(n_words):
            miss |= id_words[k, at] != words[k]
        other = np.flatnonzero(miss & (at != n))
        np.copyto(at, n, where=miss)
        return at, other

    def find(buf, starts, ends):
        lengths = ends - starts
        words = field_words(buf, starts, ends, n_words)
        index, rows = look(tables[0], lengths, words)
        for level in tables[1:]:
            if not rows.size:
                break
            index[rows], other = look(level, lengths[rows], words[:, rows])
            rows = rows[other]
        known = index != n
        np.copyto(index, 0, where=~known)
        return index, known

    find.repeats = np.sort(np.concatenate(repeats))
    return find


def joined(blocks: list) -> np.ndarray:
    """The arrays of `blocks` joined into one; empties the list, so that
    they are not held twice."""
    out = np.concatenate(blocks)
    blocks.clear()
    return out


def read_only(values, dtype) -> np.ndarray:
    """A read-only view of `values` as a `dtype` array: a copy only when
    `values` is not one."""
    out = np.asarray(values, dtype=dtype).view()
    out.flags.writeable = False
    return out


class TextColumn(Sequence):
    """A read-only sequence of str held as their UTF-8 bytes, one after
    another in the uint8 array `data`, and the offset in it where each ends:
    two arrays instead of a Python string per entry. `[i]` decodes one
    string, iterating decodes them in order, and `==` compares the bytes of
    two columns."""

    def __init__(self, data, ends):
        self.data, self.ends = read_only(data, np.uint8), read_only(ends, np.intp)

    @classmethod
    def of(cls, texts) -> TextColumn:
        """`texts` if it is a TextColumn, else a column of its strings."""
        if isinstance(texts, TextColumn):
            return texts
        lengths = np.fromiter(map(len, map(str.encode, texts)), np.intp, len(texts))
        return cls(np.frombuffer("".join(texts).encode(), np.uint8), np.cumsum(lengths))

    @classmethod
    def of_fields(cls, buf, starts, ends) -> TextColumn:
        """A column of the fields buf[starts:ends]."""
        return cls(field_bytes(buf, starts, ends), np.cumsum(ends - starts))

    @property
    def starts(self) -> np.ndarray:
        """The offset in `data` where each string starts."""
        starts = np.zeros_like(self.ends)
        starts[1:] = self.ends[:-1]
        return starts

    def __len__(self) -> int:
        return self.ends.size

    def __getitem__(self, i) -> str:
        i = range(self.ends.size)[operator.index(i)]  # negative from the end
        start = int(self.ends[i - 1]) if i else 0
        return self.data[start : self.ends[i]].tobytes().decode("utf-8")

    def __iter__(self):
        raw, start = self.data.tobytes(), 0
        for end in self.ends.tolist():
            yield raw[start:end].decode("utf-8")
            start = end

    def __eq__(self, other):
        if not isinstance(other, TextColumn):
            return NotImplemented
        return np.array_equal(self.ends, other.ends) and np.array_equal(
            self.data, other.data
        )
