"""File loading: constraint tables, survey microdata, crosswalks, external
reference tables and the pipeline configuration.

All files are UTF-8 CSV with comma separators. Zone ids and record ids may
not contain a comma, a double quote or a line break, because the population
files are written unquoted (`schema.needs_quoting`). The configuration is
YAML with the key paths documented on PipelineConfig.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml
from numpy.lib.stride_tricks import sliding_window_view

from .indicators import MpiDimension, MpiIndicator, MpiSpec
from .schema import (
    ConstraintTable,
    Schema,
    SchemaError,
    SurveyDataset,
    VariableDef,
    needs_quoting,
)

log = logging.getLogger(__name__)


class IngestError(ValueError):
    """Malformed input file or configuration."""


@dataclass(frozen=True)
class Crosswalk:
    """Many-to-one mapping from fine categories to grouped categories for one
    variable (e.g. industry sections aggregated for external validation)."""

    variable: str
    mapping: dict  # fine category -> group category

    def group(self, fine: str) -> str:
        try:
            return self.mapping[fine]
        except KeyError:
            raise IngestError(
                f"category {fine!r} missing from crosswalk for {self.variable!r}"
            ) from None

    def groups(self) -> tuple[str, ...]:
        seen = []
        for g in self.mapping.values():
            if g not in seen:
                seen.append(g)
        return tuple(seen)


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
# Constraint tables
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


def _csv_rows(path, header):
    """Rows of the CSV file `path` as (line, row), `line` being the line on
    which the row ends. Checks that the header is `header` and that each
    row has as many fields; blank rows are skipped."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got != header:
            raise IngestError(
                f"{path}: expected header {','.join(header)!r}, got {got}"
            )
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise IngestError(
                    f"{path}: line {reader.line_num}: expected {len(header)} fields"
                )
            yield reader.line_num, row


def _read_long(path):
    """Rows of a long-format `zone_id,variable,category,count` table as
    (line, zone, variable, category, count). Checks the header, the row
    width and the count (finite, >= 0), and rejects a repeated
    (zone, variable, category) cell."""
    rows = []
    seen = set()
    header = ["zone_id", "variable", "category", "count"]
    for lineno, (zone, var, cat, raw) in _csv_rows(path, header):
        count = _nonnegative(raw, "count", path, lineno)
        if (zone, var, cat) in seen:
            raise IngestError(
                f"{path}: line {lineno}: duplicate cell ({zone}, {var}, {cat})"
            )
        seen.add((zone, var, cat))
        rows.append((lineno, zone, var, cat, count))
    return rows


def load_constraints(path, schema: Schema):
    """Read long-format `zone_id,variable,category,count` into one
    ConstraintTable per constraint variable. Zones are ordered by first
    appearance in the file; absent (zone, category) cells become 0."""
    path = Path(path)
    vardefs = {v.name: v for v in schema.constraint_vars}
    zone_index: dict[str, int] = {}
    cells: dict[str, list] = {name: [] for name in vardefs}
    for lineno, zone, var, cat, count in _read_long(path):
        if var not in vardefs:
            raise IngestError(f"{path}: unknown variable {var!r} at line {lineno}")
        if cat not in vardefs[var].categories:
            raise IngestError(f"{path}: unknown category {cat!r} at line {lineno}")
        if needs_quoting(zone):
            raise IngestError(
                f"{path}: line {lineno}: zone id {zone!r} holds a comma, quote "
                "or line break"
            )
        zi = zone_index.setdefault(zone, len(zone_index))
        cells[var].append((zi, vardefs[var].index(cat), count))

    zones = tuple(zone_index)
    tables = []
    for var in schema.constraint_vars:
        counts = np.zeros((len(zones), len(var.categories)))
        for zi, ci, value in cells[var.name]:
            counts[zi, ci] = value
        tables.append(ConstraintTable(var.name, zones, var.categories, counts))
    return tables


def save_constraints(tables, path):
    """Inverse of load_constraints (full-precision counts, round-trip safe)."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["zone_id", "variable", "category", "count"])
        for t in tables:
            for zi, zone in enumerate(t.zones):
                for ci, cat in enumerate(t.categories):
                    writer.writerow(
                        [zone, t.variable, cat, repr(float(t.counts[zi, ci]))]
                    )


# --------------------------------------------------------------------------
# Survey microdata
# --------------------------------------------------------------------------

def load_survey(path, schema: Schema) -> SurveyDataset:
    """Read a wide CSV, one row per individual, into a columnar SurveyDataset.

    Mandatory columns: record_id, the household field, one column per
    constraint and external variable, the income field (blank = missing) and
    every deprivation field (0/1). Every other column is read as numbers
    (blank = NaN), or kept as None when a value does not parse as a number.
    Lines end in LF or CRLF and blank lines are skipped. Fields are split by
    the byte scanner unless the file holds a double quote, a NUL or a bare CR;
    then `csv.reader` splits them and quoted fields are honoured. Errors name
    the file and line of the first bad row."""
    path = Path(path)
    variables = schema.constraint_vars + schema.external_vars
    mandatory = (
        ["record_id", schema.household_field]
        + [v.name for v in variables]
        + [schema.income_field]
        + list(schema.deprivation_fields)
    )

    data = path.read_bytes()
    if not data.isascii():
        data.decode("utf-8")  # rejects what a text read would
    quoted = b'"' in data or b"\0" in data or data.count(b"\r") != data.count(b"\r\n")
    if quoted:
        text = data.decode("utf-8")
        header = next(csv.reader(io.StringIO(text, newline="")), None) or []
    else:  # the first line, split at its commas
        end = data.find(b"\n")
        first = (data if end < 0 else data[:end]).removesuffix(b"\r")
        header = first.decode("utf-8").split(",") if first else []
    missing = [c for c in mandatory if c not in header]
    if missing:
        raise IngestError(f"{path}: missing mandatory columns {missing}")
    try:
        if quoted:
            data, starts, ends, lines = _csv_fields(text, len(header))
        else:
            starts, ends, lines = _scan_fields(data, len(header), skip_blank=True)
    except _FieldCountError as exc:
        raise IngestError(
            f"{path}: line {exc.line}: expected {len(header)} fields, got {exc.got}"
        ) from None
    # Row 0 is the header.
    starts, ends, lines = starts[1:], ends[1:], lines[1:].tolist()
    buf = np.frombuffer(data, np.uint8)
    is_ascii = data.isascii()
    column = {name: j for j, name in enumerate(header)}  # the last of a name

    def labels(j):
        """Column j as a numpy str array."""
        width = max(int((ends[:, j] - starts[:, j]).max(initial=0)), 1)
        raw = _gather(buf, starts[:, j], ends[:, j], width)
        if is_ascii:  # each byte is its code point
            return raw.astype(np.uint32).view(f"U{width}").ravel()
        return np.char.decode(raw.view(f"S{width}").ravel(), "utf-8")

    def strings(j):
        """Column j as Python strings, which keep the trailing NULs that a
        numpy str array drops."""
        if b"\0" not in data:
            return labels(j).tolist()
        return [data[s:e].decode() for s, e in zip(starts[:, j], ends[:, j])]

    incomes = _incomes(strings(header.index(schema.income_field)), lines, path)
    fields = schema.deprivation_fields
    flags = np.asarray([labels(column[f]) for f in fields], dtype=str)
    flags = np.char.strip(flags.reshape(len(fields), len(lines)))
    bad = np.argwhere(~np.isin(flags, ("0", "1")).T)
    if bad.size:
        i, f = bad[0]
        raise IngestError(
            f"{path}: line {lines[i]}: deprivation field {fields[f]!r} must be 0/1"
        )
    numeric = {}
    for name in header:
        if name not in mandatory:
            values = np.char.strip(labels(column[name]))
            try:
                numeric[name] = np.where(values == "", "nan", values).astype(float)
            except ValueError:
                numeric[name] = None
    try:
        return SurveyDataset(
            schema,
            record_ids=strings(column["record_id"]),
            household_ids=strings(column[schema.household_field]),
            categories={v.name: labels(column[v.name]) for v in variables},
            incomes=incomes,
            deprivations=(flags == "1").T,
            numeric=numeric,
        )
    except SchemaError as exc:
        if exc.row is None:
            raise
        raise IngestError(f"{path}: line {lines[exc.row]}: {exc}") from None


def _incomes(texts, lines, path) -> np.ndarray:
    """Incomes from their field texts, stripped: blank is NaN, anything else
    must be a finite number >= 0 (IngestError naming the line otherwise)."""
    raw = [t.strip() for t in texts]
    try:
        values = np.array([float(r) if r else math.nan for r in raw])
        blank = np.array([not r for r in raw], dtype=bool)
        if (blank | (np.isfinite(values) & (values >= 0))).all():
            return values
    except ValueError:
        pass
    # Some income is bad: check them one by one to name its line.
    return np.array(
        [
            _nonnegative(r, "income", path, line) if r else math.nan
            for r, line in zip(raw, lines)
        ]
    )


# --------------------------------------------------------------------------
# Field scanner
# --------------------------------------------------------------------------

class _FieldCountError(IngestError):
    """A line holds `got` fields, not the expected number."""

    def __init__(self, line: int, got: int):
        super().__init__(f"line {line}: {got} fields")
        self.line, self.got = line, got


def _scan_fields(data: bytes, n_fields: int, first_line=1, skip_blank=False):
    """Field offsets of `data`: lines of `n_fields` comma-separated,
    unquoted fields, ending in LF or CRLF (the last line may lack its end).

    Returns (starts, ends, lines): rows x n_fields arrays of the byte offset
    of each field's first byte and of the byte after its last, and each
    row's line number, the first line of `data` being `first_line`. With
    `skip_blank`, an empty line gives no row. Raises _FieldCountError naming
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
        raise _FieldCountError(int(lines[bad[0]]), int(widths[bad[0]]))
    # Every row holds n_fields - 1 commas, and a skipped line none.
    commas = commas.reshape(lines.size, n_fields - 1)
    starts = np.empty((lines.size, n_fields), np.intp)
    ends = np.empty_like(starts)
    starts[:, 0], starts[:, 1:] = begins, commas + 1
    ends[:, :-1], ends[:, -1] = commas, stops
    return starts, ends, lines


def _csv_fields(text: str, n_fields: int):
    """`_scan_fields` for CSV text that `csv.reader` must split: the fields,
    unquoted and UTF-8 encoded, joined into new bytes, with their offsets in
    them and the line on which each row ends; blank lines give no row."""
    reader = csv.reader(io.StringIO(text, newline=""))
    rows, lines = [], []
    for row in reader:
        if row:
            if len(row) != n_fields:
                raise _FieldCountError(reader.line_num, len(row))
            rows.append(row)
            lines.append(reader.line_num)
    fields = [f.encode() for row in rows for f in row]
    lengths = np.fromiter(map(len, fields), np.intp, len(fields))
    ends = np.cumsum(lengths).reshape(len(rows), n_fields)
    starts = ends - lengths.reshape(ends.shape)
    return b"".join(fields), starts, ends, np.array(lines, dtype=np.intp)


def _gather(buf, starts, ends, width) -> np.ndarray:
    """rows x width uint8 matrix of the fields buf[starts:ends], each
    zero-padded to `width` bytes; no field may be longer."""
    if buf.size < starts.max(initial=0) + width:
        buf = np.concatenate((buf, np.zeros(width, np.uint8)))
    out = sliding_window_view(buf, width)[starts]
    out *= np.arange(width) < (ends - starts)[:, None]
    return out


# --------------------------------------------------------------------------
# Crosswalks and external reference tables
# --------------------------------------------------------------------------

def load_crosswalks(path):
    """Read `variable,fine_category,group_category`; one Crosswalk per
    variable appearing in the file, keyed by variable name."""
    path = Path(path)
    maps: dict[str, dict] = {}
    header = ["variable", "fine_category", "group_category"]
    for lineno, (var, fine, group) in _csv_rows(path, header):
        m = maps.setdefault(var, {})
        if fine in m and m[fine] != group:
            raise IngestError(
                f"{path}: line {lineno}: {fine!r} mapped to both "
                f"{m[fine]!r} and {group!r}"
            )
        m[fine] = group
    return {var: Crosswalk(var, m) for var, m in maps.items()}


def load_external_actual(path) -> ConstraintTable:
    """Read a long-format actual table for one external variable into a
    ConstraintTable. Layout as constraints.csv; exactly one variable per
    file. Zones and categories are ordered by first appearance."""
    path = Path(path)
    rows = _read_long(path)
    if not rows:
        raise IngestError(f"{path}: empty external table")
    variable = rows[0][2]
    zones: dict[str, int] = {}
    cats: dict[str, int] = {}
    for lineno, zone, var, cat, _ in rows:
        if var != variable:
            raise IngestError(
                f"{path}: line {lineno}: mixed variables {variable!r}/{var!r}"
            )
        zones.setdefault(zone, len(zones))
        cats.setdefault(cat, len(cats))
    counts = np.zeros((len(zones), len(cats)))
    for _, zone, _, cat, count in rows:
        counts[zones[zone], cats[cat]] = count
    return ConstraintTable(variable, tuple(zones), tuple(cats), counts)


# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------

_KNOWN_TOP = {"schema", "paths", "ipf", "seed", "equivalize", "poverty"}


def _warn_unknown(mapping, known, context):
    for key in mapping:
        if key not in known:
            log.warning("ignoring unknown config key %s.%s", context, key)


def load_config(path) -> PipelineConfig:
    """Parse the YAML configuration into a fully defaulted PipelineConfig.
    Unknown keys warn; invalid values raise IngestError."""
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise IngestError(f"{path}: configuration must be a mapping")
    _warn_unknown(raw, _KNOWN_TOP, "")

    try:
        schema = _parse_schema(raw.get("schema") or {})
        paths = raw.get("paths") or {}
        _warn_unknown(
            paths,
            {"constraints", "survey", "output_dir", "external_actual", "crosswalk"},
            "paths",
        )
        for key in ("constraints", "survey", "output_dir"):
            if key not in paths:
                raise IngestError(f"paths.{key} is required")
        base = path.parent

        def resolve(p):
            p = Path(p)
            return p if p.is_absolute() else base / p

        ipf_cfg = raw.get("ipf") or {}
        _warn_unknown(ipf_cfg, {"max_iterations", "tolerance"}, "ipf")
        pov = raw.get("poverty") or {}
        _warn_unknown(pov, {"arop_fraction", "md_threshold", "mpi"}, "poverty")
        mpi_spec = _parse_mpi(pov.get("mpi")) if pov.get("mpi") else None

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
            max_iterations=int(ipf_cfg.get("max_iterations", 100)),
            tolerance=float(ipf_cfg.get("tolerance", 1e-6)),
            seed=int(raw.get("seed", 0)),
            equivalize=bool(raw.get("equivalize", False)),
            arop_fraction=float(pov.get("arop_fraction", 0.6)),
            md_threshold=int(pov.get("md_threshold", 3)),
            mpi_spec=mpi_spec,
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, IngestError):
            raise
        raise IngestError(f"{path}: {exc}") from exc


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
    if "constraint_variables" not in raw:
        raise IngestError("schema.constraint_variables is required")

    def vardefs(items):
        out = []
        for item in items:
            out.append(VariableDef(item["name"], tuple(item["categories"])))
        return tuple(out)

    try:
        return Schema(
            constraint_vars=vardefs(raw["constraint_variables"]),
            external_vars=vardefs(raw.get("external_variables", [])),
            income_field=raw.get("income_field", "income"),
            deprivation_fields=tuple(raw.get("deprivation_fields", [])),
            household_field=raw.get("household_field", "household_id"),
        )
    except (KeyError, SchemaError) as exc:
        raise IngestError(f"bad schema section: {exc}") from exc


def _parse_mpi(raw) -> MpiSpec:
    _warn_unknown(raw, {"cutoff", "dimensions"}, "poverty.mpi")
    dims = []
    raw_dims = raw.get("dimensions") or []
    for d in raw_dims:
        inds = []
        for i in d.get("indicators", []):
            if "below" in i:
                inds.append(
                    MpiIndicator(
                        i["field"],
                        kind="below",
                        threshold=float(i["below"]),
                        weight=i.get("weight"),
                    )
                )
            elif "in" in i:
                inds.append(
                    MpiIndicator(
                        i["field"],
                        kind="in",
                        values=tuple(i["in"]),
                        weight=i.get("weight"),
                    )
                )
            else:
                inds.append(MpiIndicator(i["field"], weight=i.get("weight")))
        weight = d.get("weight", 1.0 / len(raw_dims))
        dims.append(MpiDimension(d["name"], float(weight), tuple(inds)))
    try:
        return MpiSpec(tuple(dims), cutoff=float(raw.get("cutoff", 1.0 / 3.0)))
    except SchemaError as exc:
        raise IngestError(f"bad poverty.mpi section: {exc}") from exc
