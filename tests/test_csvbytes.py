"""The byte-level kernels of `csvbytes` against plain references: the hashed
id lookup against the sorted byte-key lookup it replaced, the one-pass field
scanner against the line-by-line scanner it replaced, the field offsets
and words against Python slicing, and a TextColumn against a tuple of its
strings."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smallarea.csvbytes import (
    FieldCountError,
    TextColumn,
    field_bytes,
    field_words,
    id_finder,
    scan_fields,
)

from dense_oracle import line_scan_fields, sorted_id_finder

# Letters of 1 to 4 UTF-8 bytes, NUL among them.
letters = st.sampled_from(["a", "b", "\0", "é", "Α", "θ", "€", "😀"])
# Shared heads, so that ids agree in their first 8 or 16 bytes.
heads = st.sampled_from(["", "abcdefgh", "Αθήνα/a", "abcdefghijklmnop"])


def utf8_len(text: str) -> int:
    return len(text.encode())


ids_40 = st.builds(str.__add__, heads, st.text(letters, max_size=24)).filter(
    lambda t: utf8_len(t) <= 40
)


@st.composite
def lookups(draw):
    """(ids, fields, buffer bytes, starts, ends): fields that are ids, ids
    with a byte more or less, or other text, laid out in one buffer with
    bytes between them, the last field ending at its last byte or not."""
    ids = draw(st.lists(ids_40, max_size=12))
    if ids and draw(st.booleans()):
        ids += draw(st.lists(st.sampled_from(ids), max_size=3))  # repeats
    others = ids_40 | st.text(letters, max_size=6)
    if ids:
        chosen = st.sampled_from(ids)
        others = others | chosen.map(lambda t: t + "a") | chosen.map(lambda t: t[:-1])
    fields = draw(st.lists((st.sampled_from(ids) if ids else others) | others))
    data, starts, ends = b"", [], []
    for field in fields:
        data += draw(st.sampled_from([b"", b",", b"\0", b"xyz\n"]))
        starts.append(len(data))
        data += field.encode()
        ends.append(len(data))
    if not draw(st.booleans()):  # the last field ends at the buffer's last byte
        data += b"\n"
    return ids, fields, data, starts, ends


@settings(max_examples=500, deadline=None)
@given(case=lookups(), offset=st.sampled_from([np.int32, np.intp]))
def test_id_finder_matches_sorted_keys(case, offset):
    ids, fields, data, starts, ends = case
    buf = np.frombuffer(data, np.uint8)
    starts, ends = np.array(starts, offset), np.array(ends, offset)
    index, known = id_finder(ids)(buf, starts, ends)
    expected_index, expected_known = sorted_id_finder(ids)(buf, starts, ends)
    np.testing.assert_array_equal(known, expected_known)
    np.testing.assert_array_equal(index[known], expected_index[known])
    # Each field in `ids` maps to its first index there.
    assert known.tolist() == [f in ids for f in fields]
    assert index[known].tolist() == [ids.index(f) for f in fields if f in ids]
    assert index.dtype == np.intp


# Up to about 300 ids of a few letters: distinct ids share hash slots, so
# that the index needs more than one table, and most ids repeat.
many_ids = st.lists(
    st.text(st.sampled_from(["a", "b", "\0", "é"]), max_size=4), max_size=300
)


@settings(max_examples=300, deadline=None)
@given(ids=many_ids)
def test_id_finder_build_reports_each_repeat(ids):
    first = {}  # each id's first index
    repeats = [i for i, t in enumerate(ids) if first.setdefault(t, i) != i]
    column = TextColumn.of(ids)
    find = id_finder(column)
    assert find.repeats.tolist() == repeats
    index, known = find(column.data, column.starts, column.ends)
    assert known.all() and index.tolist() == [first[t] for t in ids]


@settings(max_examples=200, deadline=None)
@given(case=lookups(), n_words=st.integers(0, 6))
def test_field_words_and_bytes_read_each_field(case, n_words):
    _, fields, data, starts, ends = case
    buf = np.frombuffer(data, np.uint8)
    starts, ends = np.array(starts, np.int32), np.array(ends, np.int32)
    words = field_words(buf, starts, ends, n_words)
    for f, field in enumerate(fields):
        raw = field.encode().ljust(8 * n_words, b"\0")[: 8 * n_words]
        assert words[:, f].tolist() == np.frombuffer(raw, "<u8").tolist()
    assert field_bytes(buf, starts, ends).tobytes() == "".join(fields).encode()


# Ids that are not ASCII, end in a NUL, or differ from another only by one.
text_ids = st.lists(
    st.builds(str.__add__, st.sampled_from(["", "r1", "Αθήνα-"]), st.text(letters))
    | st.sampled_from(["r1", "r1\0", "r1\0\0", "Αθήνα-1"]),
    max_size=10,
)


@settings(max_examples=300, deadline=None)
@given(ids=text_ids, other=text_ids)
@example(ids=[], other=["r1"])
def test_text_column_reads_like_a_tuple(ids, other):
    column = TextColumn.of(ids)
    assert len(column) == len(ids)
    lengths = np.array([len(i.encode()) for i in ids], np.intp)
    # One start per string, none for an empty column.
    assert column.starts.tolist() == (np.cumsum(lengths) - lengths).tolist()
    assert column.ends.tolist() == np.cumsum(lengths).tolist()
    assert [column[i] for i in range(-len(ids), len(ids))] == ids + ids
    assert [column[np.int64(i)] for i in range(len(ids))] == ids
    for i in (len(ids), -len(ids) - 1):
        with pytest.raises(IndexError):
            column[i]
    assert list(column) == ids and tuple(column) == tuple(ids)
    assert all(type(i) is str for i in column)
    assert list(reversed(column)) == ids[::-1]
    assert all(i in column for i in ids)
    # Equal columns hold equal strings, compared byte for byte.
    assert (column == TextColumn.of(other)) == (ids == other)
    assert (column != TextColumn.of(other)) == (ids != other)
    assert column != tuple(ids)  # as a tuple never equals a list
    assert TextColumn.of(column) is column
    assert not column.data.flags.writeable and not column.ends.flags.writeable
    # A column of fields reads the same strings.
    data = ",".join(ids).encode()
    ends = np.cumsum(lengths + 1) - 1
    starts = ends - lengths
    fields = TextColumn.of_fields(np.frombuffer(data, np.uint8), starts, ends)
    assert fields == column and list(fields.starts) == list(column.starts)


def test_text_column_tells_a_trailing_nul_apart():
    column = TextColumn.of(["r1", "r1\0", "Αθήνα\0"])
    assert list(column) == ["r1", "r1\0", "Αθήνα\0"]
    assert column != TextColumn.of(["r1", "r1", "Αθήνα"])
    index, known = id_finder(column)(column.data, column.starts, column.ends)
    assert index.tolist() == [0, 1, 2] and known.all()


def test_scan_fields_offsets_are_int32():
    starts, ends, lines = scan_fields(b"a,bc\r\nd,\n", 2)
    assert starts.dtype == ends.dtype == np.int32
    assert (starts.tolist(), ends.tolist()) == ([[0, 2], [6, 8]], [[1, 4], [7, 8]])
    assert lines.tolist() == [1, 2]


# Field text: letters of 1 to 4 UTF-8 bytes, a space and a bare CR.
field_text = st.text(
    st.sampled_from(["a", "b", " ", "\r", "é", "Α", "€", "😀"]), max_size=4
)


@st.composite
def csv_blocks(draw):
    """(bytes, n_fields): lines of mostly n_fields fields, some of 1 to 4
    fields or blank, each ending in LF or CRLF, the last in either or none."""
    n_fields = draw(st.integers(1, 4))
    rows = st.lists(field_text, min_size=n_fields, max_size=n_fields)
    others = st.lists(field_text, min_size=1, max_size=4) | st.just([""])
    lines = draw(st.lists(rows | rows | others, max_size=12))
    ends = st.sampled_from(["\n", "\r\n"])
    text = "".join(",".join(fields) + draw(ends) for fields in lines)
    if lines:
        text = text.removesuffix(draw(st.sampled_from(["", "\n", "\r\n"])))
    return text.encode(), n_fields


@settings(max_examples=500, deadline=None)
@given(case=csv_blocks(), first_line=st.integers(1, 10**6), skip_blank=st.booleans())
def test_scan_fields_matches_line_scanner(case, first_line, skip_blank):
    data, n_fields = case
    args = (data, n_fields, first_line, skip_blank)
    try:
        expected = line_scan_fields(*args)
    except FieldCountError as exc:
        with pytest.raises(FieldCountError) as got:
            scan_fields(*args)
        assert (got.value.line, got.value.got) == (exc.line, exc.got)
        return
    for a, b in zip(scan_fields(*args), expected):
        assert (a.dtype, a.shape, a.tolist()) == (b.dtype, b.shape, b.tolist())


@pytest.mark.parametrize(
    "data, fields, lines",
    [
        (b"a\n\nb\r\n\r\n", [(0, 1), (3, 4)], [1, 3]),
        (b"\n\r\n", [], []),
        (b"a\n\r\nb", [(0, 1), (4, 5)], [1, 3]),
    ],
)
def test_scan_fields_skips_blank_lines_of_one_field(data, fields, lines):
    # Such a block has one LF per separator, as a block of rows has.
    starts, ends, got = scan_fields(data, 1, skip_blank=True)
    assert list(zip(starts[:, 0].tolist(), ends[:, 0].tolist())) == fields
    assert got.tolist() == lines
    assert starts.shape == (len(lines), 1)
