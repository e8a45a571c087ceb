"""Shared data model: constraint variables, census tables, survey microdata.

Everything here is immutable after construction and safe to share across
threads. Zone ids and category labels are case-sensitive exact strings.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields

import numpy as np


class SchemaError(ValueError):
    """Structural problem in the data model (unknown variable, bad counts, ...).
    `row` is the 0-based index of the survey record at fault, when there is one."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


def needs_quoting(text: str) -> bool:
    """True when `csv.writer` would quote `text`: it holds a comma, a double
    quote, CR or LF. The population files write ids unquoted, so zone and
    record ids must not need quoting."""
    return re.search('[,"\r\n]', text) is not None


@dataclass(frozen=True)
class VariableDef:
    """A categorical variable with an ordered category list."""

    name: str
    categories: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "categories", tuple(self.categories))
        if len(self.categories) < 2:
            raise SchemaError(f"variable {self.name!r} needs >= 2 categories")
        if any(not c for c in self.categories):
            raise SchemaError(f"variable {self.name!r} has an empty category label")
        if len(set(self.categories)) != len(self.categories):
            raise SchemaError(f"variable {self.name!r} has duplicate categories")

    def index(self, category: str) -> int:
        try:
            return self.categories.index(category)
        except ValueError:
            raise SchemaError(
                f"unknown category {category!r} for variable {self.name!r}"
            ) from None


@dataclass(frozen=True)
class Schema:
    """Declares the dataset pairing: constraint variables (in fitting order),
    external variables, the income field, deprivation item fields and the
    household id field."""

    constraint_vars: tuple[VariableDef, ...]
    external_vars: tuple[VariableDef, ...] = ()
    income_field: str = "income"
    deprivation_fields: tuple[str, ...] = ()
    household_field: str = "household_id"

    def __post_init__(self):
        object.__setattr__(self, "constraint_vars", tuple(self.constraint_vars))
        object.__setattr__(self, "external_vars", tuple(self.external_vars))
        object.__setattr__(self, "deprivation_fields", tuple(self.deprivation_fields))
        if not self.constraint_vars:
            raise SchemaError("at least one constraint variable is required")
        names = [v.name for v in self.constraint_vars] + [
            v.name for v in self.external_vars
        ]
        if len(set(names)) != len(names):
            raise SchemaError("variable names must be unique")

    def constraint_var(self, name: str) -> VariableDef:
        for v in self.constraint_vars:
            if v.name == name:
                return v
        raise SchemaError(f"unknown constraint variable {name!r}")

    def variable(self, name: str) -> VariableDef:
        for v in self.constraint_vars + self.external_vars:
            if v.name == name:
                return v
        raise SchemaError(f"unknown variable {name!r}")


@dataclass(frozen=True)
class ConstraintTable:
    """Zone x category counts of one variable: a census table, an external
    reference table or the aggregate of a synthetic population."""

    variable: str
    zones: tuple[str, ...]
    categories: tuple[str, ...]
    counts: np.ndarray  # shape (n_zones, n_categories), float

    def __post_init__(self):
        object.__setattr__(self, "zones", tuple(self.zones))
        object.__setattr__(self, "categories", tuple(self.categories))
        counts = np.asarray(self.counts, dtype=float)
        if counts.shape != (len(self.zones), len(self.categories)):
            raise SchemaError(
                f"counts shape {counts.shape} does not match "
                f"{len(self.zones)} zones x {len(self.categories)} categories"
            )
        counts = counts.copy()
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    def zone_totals(self) -> np.ndarray:
        return self.counts.sum(axis=1)


class SurveyDataset:
    """Survey microdata as read-only columns with one entry per record,
    checked at construction.

    `categories` maps every schema variable, constraint and external, to the
    records' category labels; they are encoded as intp codes in schema
    category order. `incomes` holds NaN for a missing income (default: all
    missing), `deprivations` is a records x deprivation-fields bool matrix
    (default: no items) and `numeric` maps every further survey column to
    floats, NaN where blank, or to None when its values are not all numbers.
    Record ids are unique and need no CSV quoting. A SchemaError about one
    record carries its 0-based index in `row`.
    """

    def __init__(
        self,
        schema: Schema,
        record_ids,
        household_ids,
        categories,
        incomes=None,
        deprivations=None,
        numeric=None,
    ):
        self.schema = schema
        self.record_ids = tuple(record_ids)
        self.household_ids = tuple(household_ids)
        self.n = n = len(self.record_ids)
        _, first = np.unique(np.asarray(self.record_ids, dtype=str), return_index=True)
        if first.size < n:
            i = int(np.flatnonzero(np.bincount(first, minlength=n) == 0)[0])
            raise SchemaError(f"duplicate record id {self.record_ids[i]!r}", i)
        if len(self.household_ids) != n:
            raise SchemaError(f"{len(self.household_ids)} household ids, {n} records")
        if needs_quoting("".join(self.record_ids)):
            i = next(i for i, rid in enumerate(self.record_ids) if needs_quoting(rid))
            raise SchemaError(
                f"record id {self.record_ids[i]!r} holds a comma, quote or line break",
                i,
            )
        if "" in self.household_ids:
            i = self.household_ids.index("")
            raise SchemaError(f"record {self.record_ids[i]!r}: empty household id", i)

        self._codes = {}
        for var in schema.constraint_vars + schema.external_vars:
            labels = _column(categories[var.name], str, (n,), f"{var.name!r} labels")
            known = np.asarray(var.categories)
            order = np.argsort(known, kind="stable")
            at = np.searchsorted(known, labels, sorter=order)
            codes = order[np.minimum(at, len(known) - 1)]
            bad = np.flatnonzero(known[codes] != labels)
            if bad.size:
                i = int(bad[0])
                raise SchemaError(
                    f"record {self.record_ids[i]!r}: invalid category "
                    f"{str(labels[i])!r} for variable {var.name!r}",
                    i,
                )
            self._codes[var.name] = _column(codes, np.intp, (n,), "codes")

        k = len(schema.deprivation_fields)
        if incomes is None:
            incomes = np.full(n, math.nan)
        if deprivations is None:
            deprivations = np.zeros((n, 0))
        self.incomes = _column(incomes, float, (n,), "incomes")
        self.deprivations = _column(deprivations, bool, (n, k), "deprivations")
        self.numeric = {
            name: None if v is None else _column(v, float, (n,), f"column {name!r}")
            for name, v in (numeric or {}).items()
        }

    def category_codes(self, variable: str) -> np.ndarray:
        """Integer category index per record for `variable`."""
        if variable not in self._codes:
            raise SchemaError(f"unknown variable {variable!r}")
        return self._codes[variable]

    def category_counts(self, variable: str, weights=None) -> np.ndarray:
        """Records per category of `variable`, in schema category order; with
        one weight per record, the weighted totals."""
        codes = self.category_codes(variable)
        k = len(self.schema.variable(variable).categories)
        return np.bincount(codes, weights=weights, minlength=k)

    def column(self, name: str) -> np.ndarray:
        """Value per record of a deprivation field (0/1), the income field or
        another numeric survey column; NaN where missing."""
        fields = self.schema.deprivation_fields
        if name in fields:
            return self.deprivations[:, fields.index(name)].astype(float)
        if name == self.schema.income_field:
            return self.incomes
        if self.numeric.get(name) is None:
            raise SchemaError(f"no numeric survey column {name!r}")
        return self.numeric[name]


def _column(values, dtype, shape, what) -> np.ndarray:
    """Read-only array copy of `values`; SchemaError unless it has `shape`."""
    out = np.array(values, dtype=dtype)
    if out.shape != shape:
        raise SchemaError(f"{what} have shape {out.shape}, expected {shape}")
    out.flags.writeable = False
    return out


def read_only(values, dtype) -> np.ndarray:
    """A read-only view of `values` as a `dtype` array: a copy only when
    `values` is not one."""
    out = np.asarray(values, dtype=dtype).view()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ConsistencyReport:
    """Pre-pipeline hygiene summary for one (tables, survey) pairing. Its
    scalars are Python floats; `zone_totals` holds numpy arrays."""

    zones: tuple[str, ...]
    variables: tuple[str, ...]
    zone_totals: dict  # variable -> np.ndarray of per-zone totals
    max_rel_disagreement: float
    disagreements: tuple  # (zone_id, variable, rel_disagreement) beyond tolerance
    empty_cells: tuple  # (variable, category) in census but absent from survey
    bad_cells: tuple  # (variable, zone_id, category, value) negative/non-finite

    # "consistent" threshold; larger disagreements are reported
    TOLERANCE = 1e-9
    # above this the pipeline refuses to proceed without an explicit override
    WARN_THRESHOLD = 0.05

    def __eq__(self, other):
        """Field by field, with the arrays of `zone_totals` compared as
        arrays and NaN equal to NaN, so that a report of tables holding a
        NaN count equals itself."""
        if not isinstance(other, ConsistencyReport):
            return NotImplemented
        return all(
            _same(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )

    @property
    def clean(self) -> bool:
        return (
            self.max_rel_disagreement <= self.TOLERANCE
            and not self.empty_cells
            and not self.bad_cells
        )


def _same(a, b) -> bool:
    """a == b for the values a ConsistencyReport holds (tuples, dicts of
    arrays, floats and strings), with NaN equal to NaN."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b, equal_nan=True)
    if isinstance(a, tuple):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return a == b or (a != a and b != b)


def check_consistency(schema, tables, survey) -> ConsistencyReport:
    """Cross-check constraint tables against each other and the survey.

    Flags zone totals that disagree across variables, census categories with
    zero survey representation (IPF cannot populate them) and negative or
    non-finite counts. Structural mismatches raise SchemaError.
    """
    by_var = {t.variable: t for t in tables}
    for var in schema.constraint_vars:
        if var.name not in by_var:
            raise SchemaError(f"no constraint table for variable {var.name!r}")
        table = by_var[var.name]
        if table.categories != var.categories:
            raise SchemaError(
                f"table for {var.name!r} has categories {table.categories}, "
                f"schema declares {var.categories}"
            )
    zones = tables[0].zones
    for t in tables:
        if t.zones != zones:
            raise SchemaError(
                f"zone list mismatch: table {t.variable!r} differs from "
                f"{tables[0].variable!r}"
            )

    ref_totals = by_var[schema.constraint_vars[0].name].zone_totals()
    zone_totals = {}
    disagreements = []
    bad_cells = []
    empty_cells = []
    max_rel = 0.0
    for var in schema.constraint_vars:
        t = by_var[var.name]
        totals = zone_totals[var.name] = t.zone_totals()
        bad = ~np.isfinite(t.counts) | (t.counts < 0)
        for zi, ci in zip(*np.nonzero(bad)):
            value = float(t.counts[zi, ci])
            bad_cells.append((var.name, zones[zi], t.categories[ci], value))
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.abs(totals - ref_totals) / ref_totals
        rel = np.where(ref_totals > 0, rel, np.where(totals == 0, 0.0, math.inf))
        max_rel = float(np.fmax.reduce(rel, initial=max_rel))  # NaN is skipped
        for zi in np.flatnonzero(rel > ConsistencyReport.TOLERANCE):
            disagreements.append((zones[zi], var.name, float(rel[zi])))
        present = survey.category_counts(var.name) > 0
        census_mass = t.counts.sum(axis=0) > 0
        for ci in np.flatnonzero(census_mass & ~present):
            empty_cells.append((var.name, var.categories[ci]))

    return ConsistencyReport(
        zones=zones,
        variables=tuple(v.name for v in schema.constraint_vars),
        zone_totals=zone_totals,
        max_rel_disagreement=max_rel,
        disagreements=tuple(disagreements),
        empty_cells=tuple(empty_cells),
        bad_cells=tuple(bad_cells),
    )


def rescale_constraints(tables, reference_variable: str):
    """Scale every non-reference table's zone rows so each zone total equals
    the reference table's zone total. Within-row category proportions are
    preserved exactly (a single multiplicative factor per row)."""
    by_var = {t.variable: t for t in tables}
    if reference_variable not in by_var:
        raise SchemaError(f"reference variable {reference_variable!r} not in tables")
    ref_totals = by_var[reference_variable].zone_totals()

    out = []
    for t in tables:
        if t.variable == reference_variable:
            out.append(t)
            continue
        totals = t.zone_totals()
        zero = totals == 0
        wrong = np.flatnonzero(zero != (ref_totals == 0))
        if wrong.size:
            zi = int(wrong[0])
            problem = (
                f"zero total vs reference {ref_totals[zi]}"
                if zero[zi]
                else f"reference total 0 with nonzero total {totals[zi]}"
            )
            raise SchemaError(
                f"cannot rescale zone {t.zones[zi]!r} for variable "
                f"{t.variable!r}: {problem}"
            )
        # A row of total 0 against a reference of 0 is kept as it is.
        factor = np.divide(ref_totals, totals, out=np.ones_like(totals), where=~zero)
        counts = t.counts * factor[:, None]
        out.append(ConstraintTable(t.variable, t.zones, t.categories, counts))
    return out
