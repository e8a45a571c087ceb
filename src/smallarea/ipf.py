"""Deterministic reweighting of survey records to zone constraint tables.

One iteration is one sweep over the constraint variables in schema order;
each variable fit multiplies every record's weight by
census_count / current_weighted_total for its category. Sweeps repeat until
the total absolute error (TAE) over all variables and categories drops below
tolerance * zone population, or the iteration cap is hit. Zones are fitted
independently, so results do not depend on zone execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schema import SurveyDataset


@dataclass(frozen=True)
class ZoneConvergence:
    zone_id: str
    iterations: int
    tae: float  # absolute persons
    rel_tae: float  # tae / zone population (0 for empty zones)
    converged: bool


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
    """Fractional weights, records x zones. `weights` is held as a
    read-only view of the given array, not a copy."""

    weights: np.ndarray
    zone_ids: tuple[str, ...]
    record_ids: tuple[str, ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).view()
        if w.shape != (len(self.record_ids), len(self.zone_ids)):
            raise ValueError("weight matrix shape mismatch")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "zone_ids", tuple(self.zone_ids))
        object.__setattr__(self, "record_ids", tuple(self.record_ids))


def tae(weights, zone_constraints, survey: SurveyDataset) -> float:
    """Total absolute error: sum over constraint variables and categories of
    |weighted survey total - census count|."""
    weights = np.asarray(weights, dtype=float)
    total = 0.0
    for var in survey.schema.constraint_vars:
        target = np.asarray(zone_constraints[var.name], dtype=float)
        codes = survey.category_codes(var.name)
        fitted = np.bincount(codes, weights=weights, minlength=len(var.categories))
        total += float(np.abs(fitted - target).sum())
    return total


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
    n = survey.n
    w = np.ones(n) if init_weights is None else np.asarray(init_weights, dtype=float)
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise ValueError("init_weights must be positive and finite")
    w = w.copy()

    ref_var = survey.schema.constraint_vars[0].name
    zone_pop = float(np.sum(zone_constraints[ref_var]))
    if zone_pop == 0:
        return np.zeros(n), 0, 0.0, True
    threshold = tolerance * zone_pop

    prepared = []
    for var in survey.schema.constraint_vars:
        target = np.asarray(zone_constraints[var.name], dtype=float)
        codes = survey.category_codes(var.name)
        prepared.append((codes, target, len(var.categories)))

    current = tae(w, zone_constraints, survey)
    iterations = 0
    while current > threshold and iterations < max_iterations:
        for codes, target, ncat in prepared:
            fitted = np.bincount(codes, weights=w, minlength=ncat)
            factor = np.ones(ncat)
            fittable = fitted > 0
            factor[fittable] = target[fittable] / fitted[fittable]
            w *= factor[codes]
        iterations += 1
        current = tae(w, zone_constraints, survey)
    return w, iterations, current, current <= threshold


def ipf_all(
    survey: SurveyDataset,
    tables,
    max_iterations: int = 100,
    tolerance: float = 1e-6,
    init_weights=None,
):
    """Apply ipf_zone independently per zone of the constraint tables.

    Returns (WeightMatrix, ConvergenceInfo). Non-convergence is reported via
    flags, never raised."""
    by_var = {t.variable: t for t in tables}
    zones = tables[0].zones
    n = survey.n
    weights = np.zeros((n, len(zones)))
    diags = []
    for zi, zone in enumerate(zones):
        constraints = {
            var.name: by_var[var.name].counts[zi]
            for var in survey.schema.constraint_vars
        }
        w, iters, err, ok = ipf_zone(
            survey,
            constraints,
            init_weights=init_weights,
            max_iterations=max_iterations,
            tolerance=tolerance,
        )
        weights[:, zi] = w
        ref = survey.schema.constraint_vars[0].name
        pop = float(np.sum(constraints[ref]))
        diags.append(
            ZoneConvergence(
                zone_id=zone,
                iterations=iters,
                tae=err,
                rel_tae=err / pop if pop > 0 else 0.0,
                converged=ok,
            )
        )
    matrix = WeightMatrix(
        weights=weights,
        zone_ids=zones,
        record_ids=survey.record_ids,
    )
    return matrix, ConvergenceInfo(tuple(diags))
