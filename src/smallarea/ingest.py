"""File loading: constraint tables, survey microdata, crosswalks, external
reference tables and the pipeline configuration.

All files are UTF-8 CSV with comma separators. Zone ids and record ids may
not be empty, nor contain a comma, a double quote or a line break, as the
population files are written unquoted (`schema.needs_quoting`). The files
are read as bytes through `csvbytes`. The configuration is YAML with the key
paths documented on PipelineConfig.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path

import numpy as np
import yaml

from .csvbytes import (
    CHUNK_BYTES,
    FieldCountError,
    IngestError,
    TextColumn,
    gather,
    id_finder,
    joined,
    line_blocks,
    line_ends,
    scan_fields,
    utf8,
)
from .indicators import MpiDimension, MpiIndicator, MpiSpec
from .schema import (
    ConstraintTable,
    Crosswalk,
    Schema,
    SchemaError,
    SurveyDataset,
    VariableDef,
    encode_categories,
    needs_quoting,
)

# Lines that `_csv_blocks` reads at a time: a row of the example's survey
# holds 17 fields against the population's 3, so a block of the population
# reader's csvbytes.BLOCK_LINES lines would take about 8 MiB of field
# offsets and working arrays.
BLOCK_LINES = 4096


@dataclass(frozen=True)
class PipelineConfig:
    """Fully defaulted run configuration.

    YAML layout (defaults in parentheses):

      schema:
        constraint_variables: [{name, categories: [...]}, ...]
        external_variables:   [{name, categories: [...]}, ...]
        income_field: income
        household_field: household_id
        deprivation_fields: [...]
      paths:
        constraints: ...   survey: ...   output_dir: ...
        external_actual: ...   crosswalk: ...      # optional
      ipf: {max_iterations (100), tolerance (1e-6)}
      seed: (0)
      equivalize: (false)
      poverty:
        arop_fraction: (0.6)
        md_threshold: (3)
        mpi: {cutoff, dimensions: [{name, weight, indicators: [...]}]}
    """

    schema: Schema
    constraints_path: Path
    survey_path: Path
    output_dir: Path
    external_actual_path: Path | None = None
    crosswalk_path: Path | None = None
    max_iterations: int = 100
    tolerance: float = 1e-6
    seed: int = 0
    equivalize: bool = False
    arop_fraction: float = 0.6
    md_threshold: int = 3
    mpi_spec: MpiSpec | None = None

    def __post_init__(self):
        if self.tolerance <= 0:
            raise IngestError(f"ipf.tolerance must be > 0, got {self.tolerance}")
        if self.max_iterations < 1:
            raise IngestError("ipf.max_iterations must be >= 1")
        if not (0 < self.arop_fraction < 1):
            raise IngestError(
                f"poverty.arop_fraction must be in (0,1), got {self.arop_fraction}"
            )
        if self.md_threshold < 1:
            raise IngestError("poverty.md_threshold must be >= 1")
        if not (0 <= self.seed < 2**64):
            raise IngestError("seed must fit in 64 unsigned bits")


# --------------------------------------------------------------------------
# Constraint and external reference tables
# --------------------------------------------------------------------------

def _nonnegative(raw: str, what: str, path, lineno: int) -> float:
    """`raw` as a finite number >= 0; IngestError naming the line otherwise."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise IngestError(f"{path}: line {lineno}: invalid {what} {raw!r}")
    return value


def csv_rows(path, header):
    """Rows of the CSV file `path` as (line, row), `line` being the line on
    which the row ends, read by `_csv_blocks`. Checks that the header is
    `header`; blank rows are skipped."""
    n = len(header)
    with path.open("rb") as fh:
        blocks = _csv_blocks(path, fh)
        got = next(blocks, None)
        if got != header:
            raise IngestError(
                f"{path}: expected header {','.join(header)!r}, got {got}"
            )
        for data, starts, ends, lines in blocks:
            fields = _strings(data, starts.ravel(), ends.ravel())
            for i, line in enumerate(lines.tolist()):
                yield line, fields[n * i : n * (i + 1)]


def load_constraints(path, schema: Schema):
    """Read long-format `zone_id,variable,category,count` into one
    ConstraintTable per constraint variable, in schema order (`_long_tables`)."""
    return _long_tables(Path(path), schema.constraint_vars, "constraint")


def load_external_actual(path) -> ConstraintTable:
    """Read a long-format actual table, laid out as constraints.csv, into the
    ConstraintTable of its one variable (`_long_tables`)."""
    return _long_tables(Path(path), (), "external")[0]


def _long_tables(path, variables, what: str) -> list:
    """The ConstraintTables of the long-format `zone_id,variable,category,count`
    file `path`, read in one pass: one per VariableDef of `variables`, with
    its categories, or, with no `variables`, one of the first row's variable,
    its categories in order of first appearance and any other variable
    refused. Zones are in order of first appearance; an absent cell is 0. A
    table of no rows is refused, `what` naming it.

    Each row is checked in this order, so that the first faulty line is the
    one named: its count (finite, >= 0), its variable and category, its zone
    id where it first appears (not empty, and needing no quoting, as the
    population files write it unquoted), then that its cell is not repeated."""
    learned = not variables
    known = {v.name: {c: i for i, c in enumerate(v.categories)} for v in variables}
    zones: dict[str, int] = {}
    cells: dict[tuple, float] = {}  # (zone index, variable, category index)
    header = ["zone_id", "variable", "category", "count"]
    for line, (zone, var, cat, raw) in csv_rows(path, header):
        count = _nonnegative(raw, "count", path, line)
        if learned and not known:
            known[var] = {}
        categories = known.get(var)
        if categories is None:
            if learned:
                first = next(iter(known))
                raise IngestError(
                    f"{path}: line {line}: mixed variables {first!r}/{var!r}"
                )
            raise IngestError(f"{path}: unknown variable {var!r} at line {line}")
        ci = categories.get(cat)
        if ci is None:
            if not learned:
                raise IngestError(f"{path}: unknown category {cat!r} at line {line}")
            ci = categories[cat] = len(categories)
        zi = zones.get(zone)
        if zi is None:
            if not zone or needs_quoting(zone):
                fault = "holds a comma, quote or line break" if zone else "is empty"
                raise IngestError(f"{path}: line {line}: zone id {zone!r} {fault}")
            zi = zones[zone] = len(zones)
        if (zi, var, ci) in cells:
            raise IngestError(
                f"{path}: line {line}: duplicate cell ({zone}, {var}, {cat})"
            )
        cells[zi, var, ci] = count
    if not cells:
        raise IngestError(f"{path}: empty {what} table")
    counts = {var: np.zeros((len(zones), len(cats))) for var, cats in known.items()}
    for (zi, var, ci), count in cells.items():
        counts[var][zi, ci] = count
    return [
        ConstraintTable(var, tuple(zones), tuple(known[var]), table)
        for var, table in counts.items()
    ]


# --------------------------------------------------------------------------
# Survey microdata
# --------------------------------------------------------------------------

def load_survey(path, schema: Schema) -> SurveyDataset:
    """Read a wide CSV, one row per individual, into a columnar SurveyDataset.

    Mandatory columns: record_id, the household field, one column per
    constraint and external variable, the income field (blank = missing) and
    every deprivation field (0/1). Every other column is read as numbers
    (blank = NaN), or kept as None when a value does not parse as a number.
    Lines end in LF or CRLF and blank lines are skipped.

    The file is read twice: once to count its line ends (`line_ends`), for
    which each column is allocated once, then in blocks of BLOCK_LINES lines
    (`_csv_blocks`), each decoded straight into its rows of the columns,
    each in its narrowest form: category labels are encoded from their
    UTF-8 bytes (`encode_categories`) into one-byte codes where they fit,
    record and household ids are kept as their bytes (TextColumns), incomes
    are cast from their bytes at once (`_incomes`), and a deprivation field
    that is one byte 0 or 1 is read from that byte. From the first block
    that holds a double quote or a bare CR on, the `csv` module splits the
    rows, so that quoted fields are honoured.

    Errors name the file and the line of the bad row. When a file holds
    several faults, the one named is the first fault of the first block
    that holds one, checked in this order: bytes that are not UTF-8, a wrong
    number of fields or a row that the `csv` module rejects, then a bad income,
    deprivation flag or category. A repeated record id, a record id that
    needs quoting, an empty record id and an empty household id are named
    only when no block holds another fault, in that order."""
    path = Path(path)
    with path.open("rb") as fh:
        size = line_ends(fh, CHUNK_BYTES)
        fh.seek(0)
        return _decode_survey(path, schema, _csv_blocks(path, fh), size)


def _decode_survey(path, schema, rows, size: int) -> SurveyDataset:
    """The survey of `rows`: its header, then blocks of at most `size` data
    rows in all, as (bytes, starts, ends, lines) of `_csv_blocks`. Each
    column is allocated once for `size` rows, and cut to the rows read."""
    variables = schema.constraint_vars + schema.external_vars
    fields = schema.deprivation_fields
    mandatory = (
        ["record_id", schema.household_field]
        + [v.name for v in variables]
        + [schema.income_field]
        + list(fields)
    )
    header = next(rows, [])
    missing = [c for c in mandatory if c not in header]
    if missing:
        raise IngestError(f"{path}: missing mandatory columns {missing}")
    column = {name: j for j, name in enumerate(header)}  # the last of a name
    income = header.index(schema.income_field)  # the first of its name
    flagged = [column[f] for f in fields]
    lines, incomes = np.empty(size, np.intp), np.empty(size)
    flags = np.empty((size, len(fields)), bool)
    codes = {v.name: np.empty(size, v.code_dtype) for v in variables}
    finders = [(v, id_finder(v.categories)) for v in variables]
    # A numeric column becomes None at the first block with a value that is
    # not a number.
    numeric = {name: np.empty(size) for name in header if name not in mandatory}
    # The record ids, then the household ids: the bytes of each block, joined
    # once at the end, and the end of each id in the joined bytes.
    id_bytes = ([np.empty(0, np.uint8)], [np.empty(0, np.uint8)])
    id_ends = np.empty((2, size), np.intp)

    def decode(done, data, starts, ends, at) -> int:
        """Write the columns of one block of rows into the rows from `done`
        on; the number of its rows."""
        into = slice(done, done + at.size)
        buf = np.frombuffer(data, np.uint8)
        j = column["record_id"]
        ids = TextColumn.of_fields(buf, starts[:, j], ends[:, j])
        incomes[into] = _incomes(data, starts[:, income], ends[:, income], at, path)
        value, valid = _flags(data, starts[:, flagged], ends[:, flagged])
        bad = np.argwhere(~valid)
        if bad.size:
            i, f = bad[0]
            raise IngestError(
                f"{path}: line {at[i]}: deprivation field {fields[f]!r} must be 0/1"
            )
        flags[into] = value
        for var, find in finders:
            j = column[var.name]
            try:
                found = encode_categories(var, find, buf, starts[:, j], ends[:, j], ids)
            except SchemaError as exc:
                raise IngestError(f"{path}: line {at[exc.row]}: {exc}") from None
            codes[var.name][into] = found
        for name, values in numeric.items():
            if values is not None:
                j = column[name]
                texts = [t.strip() for t in _strings(data, starts[:, j], ends[:, j])]
                try:
                    values[into] = _floats(texts)
                except ValueError:
                    numeric[name] = None
        j = column[schema.household_field]
        households = TextColumn.of_fields(buf, starts[:, j], ends[:, j])
        for k, texts in enumerate((ids, households)):
            id_bytes[k].append(texts.data)
            before = id_ends[k, done - 1] if done else 0
            np.add(texts.ends, before, out=id_ends[k, into])
        lines[into] = at
        return at.size

    done = 0
    for block in rows:
        done += decode(done, *block)
        del block  # not held while the next block is read
    try:
        return SurveyDataset.from_codes(
            schema,
            *(TextColumn(joined(id_bytes[k]), id_ends[k, :done]) for k in (0, 1)),
            codes={name: values[:done] for name, values in codes.items()},
            incomes=incomes[:done],
            deprivations=flags[:done],
            numeric={
                name: None if values is None else values[:done]
                for name, values in numeric.items()
            },
        )
    except SchemaError as exc:
        if exc.row is None:
            raise
        raise IngestError(f"{path}: line {lines[exc.row]}: {exc}") from None


def _csv_blocks(path, fh):
    """The header of the CSV file `path`, open as the binary `fh`, then its
    data rows in blocks as (bytes, starts, ends, lines), without blank
    lines: blocks of BLOCK_LINES lines that `scan_fields` splits, up to the
    first block that holds a double quote or a bare CR; from it on, blocks
    of BLOCK_LINES rows that the `csv` module splits, quoted fields
    honoured. Yields nothing for an empty file. Raises IngestError naming
    the line of a row whose width is not the header's, or that the `csv`
    module rejects."""
    header = None
    blocks = line_blocks(fh, BLOCK_LINES, CHUNK_BYTES, path)
    try:
        for data, first_line in blocks:
            if b'"' in data or (b"\r" in data and _bare_cr(data)):
                break
            if header is None:
                end = data.find(b"\n")
                first = (data if end < 0 else data[:end]).removesuffix(b"\r")
                header = first.decode("utf-8").split(",") if first else []
                yield header
            block = scan_fields(data, len(header), first_line, skip_blank=True)
            if first_line == 1:  # row 0 is the header
                block = tuple(a[1:] for a in block)
            yield (data, *block)
            del data, block  # not held while the next block is read
        else:
            return
        texts = chain([data], (d for d, _ in blocks))
        del data  # held by `texts` only, until the reader is past it
        reader = csv.reader(
            chain.from_iterable(io.StringIO(t.decode(), newline="") for t in texts)
        )
        before = first_line - 1  # the lines before `texts`, each a row or blank
        if header is None:
            header = next(reader, None) or []
            yield header
        rows = ((before + reader.line_num, row) for row in reader if row)
        while block := list(islice(rows, BLOCK_LINES)):
            yield _csv_fields(block, len(header))
    except FieldCountError as exc:
        raise IngestError(
            f"{path}: line {exc.line}: expected {len(header)} fields, got {exc.got}"
        ) from None
    except csv.Error as exc:
        raise IngestError(f"{path}: line {before + reader.line_num}: {exc}") from None


def _bare_cr(data: bytes) -> bool:
    """Whether `data` holds a CR that no LF follows, its last byte a CR too."""
    if data.endswith(b"\r"):
        return True
    buf = np.frombuffer(data, np.uint8)
    return bool(np.any((buf[:-1] == ord("\r")) & (buf[1:] != ord("\n"))))


def _flags(data, starts, ends):
    """Each field data[starts:ends] of a rows x fields matrix as a bool, and
    whether it reads 0 or 1: a field of one byte from that byte, any other
    stripped of white space."""
    bare = ends - starts == 1
    byte = np.zeros(starts.shape, np.uint8)
    byte[bare] = np.frombuffer(data, np.uint8)[starts[bare]]
    value = byte == ord("1")
    valid = value | (byte == ord("0"))
    rest = ~valid
    if rest.any():
        texts = [t.strip() for t in _strings(data, starts[rest], ends[rest])]
        value[rest] = [t == "1" for t in texts]
        valid[rest] = [t in ("0", "1") for t in texts]
    return value, valid


def _floats(texts) -> np.ndarray:
    """The stripped fields `texts` as numbers, blank as NaN; ValueError if
    one is not a number."""
    return np.array([float(t) if t else math.nan for t in texts], float)


def _incomes(data, starts, ends, lines, path) -> np.ndarray:
    """Incomes from their fields data[starts:ends], stripped: blank is NaN,
    anything else must be a finite number >= 0 (IngestError naming the line
    otherwise). The fields are gathered into one bytes array (`_fixed`) and
    cast to float at once, which reads a field as `float` does; they are
    read one by one, to keep `float`'s reading and name the line, when
    there is no such array, when the cast refuses one (white space alone,
    digits that are not ASCII), or when one is negative or not finite."""
    raw = _fixed(data, starts, ends)
    if raw is not None:
        blank = ends == starts
        raw[blank] = b"0"
        try:
            values = raw.astype(float)
        except ValueError:
            values = None
        if values is not None and np.all(np.isfinite(values) & (values >= 0)):
            values[blank] = math.nan
            return values
    raw = [t.strip() for t in _strings(data, starts, ends)]
    return np.array(
        [
            _nonnegative(r, "income", path, line) if r else math.nan
            for r, line in zip(raw, lines)
        ]
    )


# --------------------------------------------------------------------------
# Fields of a block of rows
# --------------------------------------------------------------------------

def _csv_fields(rows, n_fields: int):
    """`scan_fields` for rows that the `csv` module split, as (line, fields),
    each ending on its line: the fields, UTF-8 encoded and joined into new
    bytes, with their offsets in them and the lines as an array. Raises
    FieldCountError naming the first row that has not `n_fields` fields."""
    for line, row in rows:
        if len(row) != n_fields:
            raise FieldCountError(line, len(row))
    fields = [f.encode() for _, row in rows for f in row]
    lengths = np.fromiter(map(len, fields), np.intp, len(fields))
    ends = np.cumsum(lengths).reshape(len(rows), n_fields)
    starts = ends - lengths.reshape(ends.shape)
    return b"".join(fields), starts, ends, np.array([r[0] for r in rows], np.intp)


def _strings(data: bytes, starts, ends) -> list:
    """The UTF-8 fields data[starts:ends] as Python strings: cast from one
    bytes array (`_fixed`) when all are ASCII, else decoded one by one."""
    raw = _fixed(data, starts, ends)
    if raw is not None:
        codes = raw.view(np.uint8)
        if codes.max(initial=0) < 128:
            return codes.astype(np.uint32).view(f"U{raw.itemsize}").tolist()
    return [data[a:b].decode() for a, b in zip(starts.tolist(), ends.tolist())]


def _fixed(data: bytes, starts, ends):
    """The fields data[starts:ends] as one bytes array of the longest
    field's width; None when `data` holds a NUL, which such an array drops
    from a field's end, or a long field would make it far larger."""
    width = max(int((ends - starts).max(initial=0)), 1)
    if b"\0" in data or starts.size * width > 4 * len(data) + 4096:
        return None
    raw = gather(np.frombuffer(data, np.uint8), starts, ends, width)
    return raw.view(f"S{width}").ravel()


# --------------------------------------------------------------------------
# Crosswalks
# --------------------------------------------------------------------------

def load_crosswalks(path):
    """Read `variable,fine_category,group_category`; one Crosswalk per
    variable appearing in the file, keyed by variable name."""
    path = Path(path)
    maps: dict[str, dict] = {}
    header = ["variable", "fine_category", "group_category"]
    for lineno, (var, fine, group) in csv_rows(path, header):
        m = maps.setdefault(var, {})
        if fine in m and m[fine] != group:
            raise IngestError(
                f"{path}: line {lineno}: {fine!r} mapped to both "
                f"{m[fine]!r} and {group!r}"
            )
        m[fine] = group
    return {var: Crosswalk(var, m) for var, m in maps.items()}


# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------

_KNOWN_TOP = {"schema", "paths", "ipf", "seed", "equivalize", "poverty"}
_KIND_NAMES = {
    dict: "a mapping", list: "a list", str: "a string",
    bool: "a boolean", int: "an integer",
}


def _warn_unknown(mapping, known, context):
    for key in mapping:
        if key not in known:
            # Imported here: logging adds memory and imports to every process.
            import logging

            logging.getLogger(__name__).warning(
                "ignoring unknown config key %s.%s", context, key
            )


def load_config(path) -> PipelineConfig:
    """Parse the YAML configuration into a fully defaulted PipelineConfig.
    Unknown keys warn; invalid values, missing keys, a section of the wrong
    type, bad YAML and bytes that are not UTF-8 raise IngestError naming the
    file, and the key or line where it can."""
    path = Path(path)
    # A stream named by the path makes PyYAML's marks name the file.
    stream = io.StringIO(utf8(path.read_bytes(), path, 1).decode("utf-8"))
    stream.name = str(path)
    try:
        raw = _mapping(yaml.safe_load(stream), "configuration")
        _warn_unknown(raw, _KNOWN_TOP, "")
        schema = _parse_schema(
            _mapping(raw.get("schema") or {}, "schema", ("constraint_variables",))
        )
        paths = _mapping(
            raw.get("paths") or {}, "paths", ("constraints", "survey", "output_dir")
        )
        _warn_unknown(
            paths,
            {"constraints", "survey", "output_dir", "external_actual", "crosswalk"},
            "paths",
        )
        base = path.parent

        def resolve(p):
            p = Path(p)
            return p if p.is_absolute() else base / p

        ipf_cfg = _mapping(raw.get("ipf") or {}, "ipf")
        _warn_unknown(ipf_cfg, {"max_iterations", "tolerance"}, "ipf")
        pov = _mapping(raw.get("poverty") or {}, "poverty")
        _warn_unknown(pov, {"arop_fraction", "md_threshold", "mpi"}, "poverty")
        mpi = pov.get("mpi")
        mpi_spec = _parse_mpi(_mapping(mpi, "poverty.mpi")) if mpi else None

        return PipelineConfig(
            schema=schema,
            constraints_path=resolve(paths["constraints"]),
            survey_path=resolve(paths["survey"]),
            output_dir=resolve(paths["output_dir"]),
            external_actual_path=(
                resolve(paths["external_actual"])
                if "external_actual" in paths
                else None
            ),
            crosswalk_path=(
                resolve(paths["crosswalk"]) if "crosswalk" in paths else None
            ),
            max_iterations=_of(
                int, ipf_cfg.get("max_iterations", 100), "ipf.max_iterations"
            ),
            tolerance=_number(ipf_cfg.get("tolerance", 1e-6), "ipf.tolerance"),
            seed=_of(int, raw.get("seed", 0), "seed"),
            equivalize=_of(bool, raw.get("equivalize", False), "equivalize"),
            arop_fraction=_number(
                pov.get("arop_fraction", 0.6), "poverty.arop_fraction"
            ),
            md_threshold=_of(int, pov.get("md_threshold", 3), "poverty.md_threshold"),
            mpi_spec=mpi_spec,
        )
    except (TypeError, ValueError, yaml.YAMLError) as exc:
        raise IngestError(f"{path}: {exc}") from exc


def _of(kind, value, key: str):
    """`value`, read at config key `key`, if it is a `kind` (dict, list, str,
    bool or int, a YAML boolean not counting as an int); IngestError naming
    the key if not."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise IngestError(f"{key} must be {_KIND_NAMES[kind]}")
    return value


def _number(value, key: str) -> float:
    """`value`, read at config key `key`, as a float if it is a YAML number,
    integer or not (a boolean does not count); IngestError naming the key
    if not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise IngestError(f"{key} must be a number")
    return float(value)


def _mapping(value, key: str, required=()) -> dict:
    """`value`, read at config key `key`, if it is a mapping that holds every
    key of `required`; IngestError naming the key if not."""
    value = _of(dict, value, key)
    for name in required:
        if name not in value:
            raise IngestError(f"{key} has no {name!r}")
    return value


def _items(value, key: str, required) -> list:
    """(key, item) for each item of the list `value` read at config key `key`,
    each item a mapping that holds every key of `required`."""
    return [
        (f"{key}[{n}]", _mapping(item, f"{key}[{n}]", required))
        for n, item in enumerate(_of(list, value, key))
    ]


def _texts(value, key: str) -> tuple:
    """The list of strings `value`, read at config key `key`."""
    items = enumerate(_of(list, value, key))
    return tuple(_of(str, v, f"{key}[{n}]") for n, v in items)


def _parse_schema(raw) -> Schema:
    _warn_unknown(
        raw,
        {
            "constraint_variables",
            "external_variables",
            "income_field",
            "household_field",
            "deprivation_fields",
        },
        "schema",
    )

    def vardefs(key):
        items = _items(raw.get(key, []), f"schema.{key}", ("name", "categories"))
        return tuple(
            VariableDef(
                _of(str, i["name"], f"{at}.name"),
                _texts(i["categories"], f"{at}.categories"),
            )
            for at, i in items
        )

    def text(key, default):
        return _of(str, raw.get(key, default), f"schema.{key}")

    try:
        return Schema(
            constraint_vars=vardefs("constraint_variables"),
            external_vars=vardefs("external_variables"),
            income_field=text("income_field", "income"),
            deprivation_fields=_texts(
                raw.get("deprivation_fields", []), "schema.deprivation_fields"
            ),
            household_field=text("household_field", "household_id"),
        )
    except SchemaError as exc:
        raise IngestError(f"bad schema section: {exc}") from exc


def _parse_mpi(raw) -> MpiSpec:
    _warn_unknown(raw, {"cutoff", "dimensions"}, "poverty.mpi")
    dims = []
    raw_dims = _items(raw.get("dimensions") or [], "poverty.mpi.dimensions", ("name",))
    for where, d in raw_dims:
        inds = []
        for at, i in _items(d.get("indicators", []), f"{where}.indicators", ("field",)):
            if "below" in i:
                threshold = _number(i["below"], f"{at}.below")
                kind = {"kind": "below", "threshold": threshold}
            elif "in" in i:
                kind = {"kind": "in", "values": tuple(_of(list, i["in"], f"{at}.in"))}
            else:
                kind = {}
            field = _of(str, i["field"], f"{at}.field")
            weight = i.get("weight")
            if weight is not None:
                weight = _number(weight, f"{at}.weight")
            inds.append(MpiIndicator(field, weight=weight, **kind))
        weight = _number(d.get("weight", 1.0 / len(raw_dims)), f"{where}.weight")
        name = _of(str, d["name"], f"{where}.name")
        dims.append(MpiDimension(name, weight, tuple(inds)))
    cutoff = _number(raw.get("cutoff", 1.0 / 3.0), "poverty.mpi.cutoff")
    try:
        return MpiSpec(tuple(dims), cutoff=cutoff)
    except SchemaError as exc:
        raise IngestError(f"bad poverty.mpi section: {exc}") from exc
