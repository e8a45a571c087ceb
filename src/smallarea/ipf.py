"""Deterministic reweighting of survey records to zone constraint tables.

One iteration is one sweep over the constraint variables in schema order;
each variable fit multiplies every record's weight by
census_count / current_weighted_total for its category. Sweeps repeat until
the total absolute error (TAE) over all variables and categories drops below
tolerance * zone population, or the iteration cap is hit.

A fit factor depends only on a record's combination of constraint categories,
its cell, so records of one cell keep the ratio of their initial weights at
every sweep. The fit therefore runs on the cells (mass = the cell's summed
initial weights) and is held as the zones x cells multipliers F. `ipf_all`
starts every record at weight 1, so a record's weight in zone z is
F[z, cell], expanded one zone at a time; `ipf_zone`, which takes initial
weights, multiplies its expanded column by them. Zones are
fitted together, in blocks, as a zones x cells matrix of multipliers, each
zone sweeping until it stops on its own test. Category totals are summed by
`np.bincount` cell by cell in a fixed order, so a zone's result does not
depend on zone order or on which other zones are still being fitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .csvbytes import TextColumn, read_only
from .schema import SurveyDataset


@dataclass(frozen=True)
class ZoneConvergence:
    """One zone's fit; its fields are the columns of convergence.csv."""

    zone_id: str
    iterations: int
    tae: float  # absolute persons
    rel_tae: float  # tae / zone population (0 for empty zones)
    converged: bool
    # The constraint category with the largest |fitted - census| after the
    # last sweep ("" and 0 when the fit is exact), and whether no survey
    # record falls in it, so that no weighting can fit it.
    worst_variable: str
    worst_category: str
    worst_abs_error: float
    unsupported: bool


@dataclass(frozen=True)
class ConvergenceInfo:
    zones: tuple[ZoneConvergence, ...]

    @property
    def all_converged(self) -> bool:
        return all(z.converged for z in self.zones)

    @property
    def max_rel_tae(self) -> float:
        return max((z.rel_tae for z in self.zones), default=0.0)


@dataclass(frozen=True)
class WeightMatrix:
    """Fractional weights of records in zones, held as the fit: zones x cells
    multipliers F and the cell of each record, whose weight in zone z is
    F[z, cell]. `column(z)` expands one zone. The arrays are read-only views
    of the given ones, not copies, when their dtypes are float and intp.
    `record_ids` is held as a TextColumn, strings encoded once."""

    multipliers: np.ndarray
    cells: np.ndarray
    zone_ids: tuple[str, ...]
    record_ids: TextColumn

    def __post_init__(self):
        multipliers = read_only(self.multipliers, float)
        cells = read_only(self.cells, np.intp)
        if (
            multipliers.ndim != 2
            or len(multipliers) != len(self.zone_ids)
            or cells.shape != (len(self.record_ids),)
            or np.any(cells < 0)
            or np.any(cells >= multipliers.shape[1])
        ):
            raise ValueError("weight matrix shape mismatch")
        object.__setattr__(self, "multipliers", multipliers)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "zone_ids", tuple(self.zone_ids))
        object.__setattr__(self, "record_ids", TextColumn.of(self.record_ids))

    def column(self, z: int) -> np.ndarray:
        """The weight of each record in zone z: F[z, cell]."""
        return self.multipliers[z][self.cells]


def tae(weights, zone_constraints, survey: SurveyDataset) -> float:
    """Total absolute error: sum over constraint variables and categories of
    |weighted survey total - census count|."""
    weights = np.asarray(weights, dtype=float)
    total = 0.0
    for var in survey.schema.constraint_vars:
        target = np.asarray(zone_constraints[var.name], dtype=float)
        fitted = survey.category_counts(var.name, weights)
        total += float(np.abs(fitted - target).sum())
    return total


# (zone, cell) pairs fitted together; see _fit.
BLOCK_CELLS = 1 << 15


class _Fit(NamedTuple):
    multipliers: np.ndarray  # zones x cells
    cells: np.ndarray  # the cell of each record
    iterations: np.ndarray  # per zone
    tae: np.ndarray  # per zone
    converged: np.ndarray  # per zone
    errors: np.ndarray  # zones x categories of every variable: |fitted - census|


def _cells(survey: SurveyDataset):
    """Collapse the records to their constraint-category combinations.
    Returns (category codes of each cell, one row per constraint variable;
    the cell of each record)."""
    codes = np.stack(
        [survey.category_codes(v.name) for v in survey.schema.constraint_vars]
    )
    dims = [len(v.categories) for v in survey.schema.constraint_vars]
    if math.prod(dims) < 2**62:
        key = np.ravel_multi_index(codes, dims)
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    else:  # too many combinations for one integer key
        _, first, inverse = np.unique(
            codes, axis=1, return_index=True, return_inverse=True
        )
    return codes[:, first], inverse.ravel()


def _fit(survey: SurveyDataset, targets, max_iterations, tolerance, init=None):
    """Fit every zone at once. `targets` holds one zones x categories array
    of census counts per constraint variable, in schema order; the first
    gives the zone populations. `init` holds the records' initial weights,
    None for 1. A zone of population 0 gets zero weights, 0 iterations and
    TAE 0."""
    cell_codes, inverse = _cells(survey)
    n_cells = len(cell_codes[0])
    mass = np.bincount(inverse, weights=init, minlength=n_cells).astype(float)
    targets = [np.asarray(t, dtype=float) for t in targets]
    n_zones = len(targets[0])
    pop = targets[0].sum(axis=1)
    n_cats = [t.shape[1] for t in targets]

    multipliers = np.ones((n_zones, n_cells))
    multipliers[pop == 0] = 0.0
    iterations = np.zeros(n_zones, dtype=np.int64)
    total_error = np.zeros(n_zones)
    errors = np.zeros((n_zones, sum(n_cats)))

    def totals(rows, codes, ncat):
        """Weighted survey totals, zones x categories, of multiplier rows:
        one bincount over the flat (zone, category) bin of each cell."""
        index = (np.arange(len(rows))[:, None] * ncat + codes).ravel()
        weighted = (rows * mass).ravel()
        return np.bincount(index, weighted, len(rows) * ncat).reshape(-1, ncat)

    # Zones are fitted in blocks of about BLOCK_CELLS (zone, cell) pairs,
    # which bounds the working arrays; a zone's fit does not depend on them.
    fitted_zones = np.flatnonzero(pop != 0)
    step = max(1, BLOCK_CELLS // max(n_cells, 1))
    for first in range(0, fitted_zones.size, step):
        zones = fitted_zones[first : first + step]  # zones still sweeping
        live = multipliers[zones]  # their multipliers
        while zones.size:
            err = [
                np.abs(totals(live, codes, k) - t[zones])
                for codes, k, t in zip(cell_codes, n_cats, targets)
            ]
            current = np.zeros(zones.size)
            for e in err:
                current += e.sum(axis=1)
            total_error[zones] = current
            errors[zones] = np.concatenate(err, axis=1)
            going = current > tolerance * pop[zones]
            going &= iterations[zones] < max_iterations
            if not going.all():
                multipliers[zones[~going]] = live[~going]
                zones, live = zones[going], live[going]
            for codes, k, t in zip(cell_codes, n_cats, targets):
                fitted = totals(live, codes, k)
                factor = np.ones(fitted.shape)
                np.divide(t[zones], fitted, out=factor, where=fitted > 0)
                live *= factor[:, codes]
            iterations[zones] += 1

    converged = total_error <= tolerance * pop
    return _Fit(multipliers, inverse, iterations, total_error, converged, errors)


def ipf_zone(
    survey: SurveyDataset,
    zone_constraints,
    init_weights=None,
    max_iterations: int = 100,
    tolerance: float = 1e-6,
):
    """Fit one zone. `zone_constraints` maps variable name -> category count
    vector (schema category order). Returns (weights, iterations, final TAE,
    converged flag).

    Categories with census count 0 and weighted survey total 0 leave weights
    untouched (factor 1); a category with census count > 0 but no weighted
    survey support cannot be fitted and shows up as non-convergence.
    """
    targets = [
        np.asarray(zone_constraints[v.name], dtype=float)[None, :]
        for v in survey.schema.constraint_vars
    ]
    init = np.ones(survey.n) if init_weights is None else np.array(init_weights, float)
    if np.any(init <= 0) or not np.all(np.isfinite(init)):
        raise ValueError("init_weights must be positive and finite")
    fit = _fit(survey, targets, max_iterations, tolerance, init)
    return (
        fit.multipliers[0][fit.cells] * init,
        int(fit.iterations[0]),
        float(fit.tae[0]),
        bool(fit.converged[0]),
    )


def ipf_all(
    survey: SurveyDataset,
    tables,
    max_iterations: int = 100,
    tolerance: float = 1e-6,
):
    """Fit every zone of the constraint tables, each as ipf_zone would
    without initial weights.

    Returns (WeightMatrix, ConvergenceInfo). Non-convergence is reported via
    flags, never raised."""
    by_var = {t.variable: t for t in tables}
    zones = tables[0].zones
    variables = survey.schema.constraint_vars
    targets = [by_var[v.name].counts for v in variables]
    fit = _fit(survey, targets, max_iterations, tolerance)
    labels = [(v.name, c) for v in variables for c in v.categories]
    supported = np.concatenate([survey.category_counts(v.name) for v in variables]) > 0
    pop = by_var[variables[0].name].counts.sum(axis=1)
    worst = fit.errors.argmax(axis=1)
    worst_error = fit.errors[np.arange(len(zones)), worst]
    diags = []
    for zi, zone in enumerate(zones):
        k, error, err = int(worst[zi]), float(worst_error[zi]), float(fit.tae[zi])
        variable, category = labels[k] if error > 0 else ("", "")
        diags.append(
            ZoneConvergence(
                zone_id=zone,
                iterations=int(fit.iterations[zi]),
                tae=err,
                rel_tae=err / float(pop[zi]) if pop[zi] > 0 else 0.0,
                converged=bool(fit.converged[zi]),
                worst_variable=variable,
                worst_category=category,
                worst_abs_error=error,
                unsupported=error > 0 and not supported[k],
            )
        )
    matrix = WeightMatrix(fit.multipliers, fit.cells, zones, survey.record_ids)
    return matrix, ConvergenceInfo(tuple(diags))
