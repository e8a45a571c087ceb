"""Zone-level income statistics and poverty measures.

Operates on a synthetic population (integer replication counts per survey
record per zone, an `integerize.SyntheticPopulation`): equivalized income
summaries, at-risk-of-poverty rates under a metro-wide ("spatially absolute")
or per-zone ("spatially relative") poverty line, material deprivation rates,
and the adjusted headcount ratio M0 = H * A with its components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .integerize import SyntheticPopulation
from .schema import SchemaError, SurveyDataset


# --------------------------------------------------------------------------
# Multidimensional poverty specification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MpiIndicator:
    """One deprivation indicator.

    kind:
      "flag"  - boolean field (a deprivation item or a 0/1 extra column)
      "below" - numeric field, deprived when value < threshold
      "in"    - categorical variable, deprived when category in `values`
    """

    field: str
    kind: str = "flag"
    threshold: float | None = None
    values: tuple[str, ...] = ()
    weight: float | None = None  # share of the dimension weight; default equal

    def __post_init__(self):
        if self.kind not in ("flag", "below", "in"):
            raise SchemaError(f"unknown indicator kind {self.kind!r}")
        if self.kind == "below" and self.threshold is None:
            raise SchemaError(f"indicator {self.field!r}: 'below' needs a threshold")
        if self.kind == "in" and not self.values:
            raise SchemaError(f"indicator {self.field!r}: 'in' needs category values")
        object.__setattr__(self, "values", tuple(self.values))


@dataclass(frozen=True)
class MpiDimension:
    name: str
    weight: float
    indicators: tuple[MpiIndicator, ...]

    def __post_init__(self):
        object.__setattr__(self, "indicators", tuple(self.indicators))
        if not self.indicators:
            raise SchemaError(f"dimension {self.name!r} has no indicators")

    def indicator_weights(self) -> list[float]:
        explicit = [i.weight for i in self.indicators]
        if all(w is None for w in explicit):
            return [self.weight / len(self.indicators)] * len(self.indicators)
        if any(w is None for w in explicit):
            raise SchemaError(
                f"dimension {self.name!r}: give all indicator weights or none"
            )
        total = sum(explicit)
        if not math.isclose(total, 1.0, abs_tol=1e-9):
            raise SchemaError(
                f"dimension {self.name!r}: indicator weight shares sum to {total}, "
                "expected 1"
            )
        return [self.weight * w for w in explicit]


@dataclass(frozen=True)
class MpiSpec:
    dimensions: tuple[MpiDimension, ...]
    cutoff: float = 1.0 / 3.0

    def __post_init__(self):
        object.__setattr__(self, "dimensions", tuple(self.dimensions))
        total = sum(d.weight for d in self.dimensions)
        if abs(total - 1.0) > 1e-9:
            raise SchemaError(f"dimension weights sum to {total}, expected 1")
        if not (0 < self.cutoff <= 1):
            raise SchemaError(f"cutoff must be in (0, 1], got {self.cutoff}")


@dataclass(frozen=True)
class MpiResult:
    headcount: float  # H, share of persons whose score meets the cutoff
    intensity: float  # A, mean censored score among those persons (0 if none)
    adjusted: float  # M0 = H * A


# --------------------------------------------------------------------------
# Elementary operations
# --------------------------------------------------------------------------

def equivalize(household_income, n_adults, n_children=0):
    """Equivalized income on the modified-OECD scale:
    income / (1 + 0.5*(n_adults - 1) + 0.3*n_children). Scalars or arrays,
    elementwise."""
    if np.any(np.less(n_adults, 1)):
        raise ValueError("household needs at least one adult")
    if np.any(np.less(n_children, 0)):
        raise ValueError("negative child count")
    if not np.all(np.isfinite(household_income)):
        raise ValueError("income must be finite")
    return household_income / (1.0 + 0.5 * (n_adults - 1) + 0.3 * n_children)


class _RankedIncomes:
    """Observed incomes sorted once, and the weighted statistics of a count
    column over them. Every weighted median in this package comes from here.

    NaN incomes are missing: they take no part in any statistic."""

    def __init__(self, incomes):
        incomes = np.asarray(incomes, dtype=float)
        self.valid = np.flatnonzero(~np.isnan(incomes))
        self.observed = incomes[self.valid]
        self.index = self.valid[np.argsort(self.observed)]
        self.sorted = incomes[self.index]

    def column(self, col):
        """(cum, median) of one column of per-record counts. `cum[k]` is the
        number of persons counted on the k lowest observed incomes, so
        `cum[-1]` is the column's total. The median follows weighted_median's
        convention and is NaN when the column counts nobody."""
        cum = np.zeros(self.index.size + 1, dtype=col.dtype)
        np.cumsum(col[self.index], out=cum[1:])
        half = cum[-1] / 2.0
        if not half > 0:
            return cum, math.nan
        lo = int(np.searchsorted(cum, half, side="left"))
        median = self.sorted[lo - 1]
        if cum[lo] == half:
            # The next counted income; an equal one averages to itself.
            hi = int(np.searchsorted(cum, half, side="right"))
            median = (median + self.sorted[hi - 1]) / 2.0
        return cum, median

    def mean(self, col, total):
        """Weighted mean income of a column counting `total` > 0 persons,
        an np.sum in survey record order (a BLAS dot's bits vary)."""
        return np.sum(self.observed * col[self.valid]) / total

    def below(self, cum, line):
        """Persons counted in `cum` with an observed income below `line`."""
        return cum[np.searchsorted(self.sorted, line, side="left")]


def weighted_median(values, counts) -> float:
    """Weighted median with a fixed boundary convention: the smallest value
    whose cumulative count reaches half the total; when the half-total falls
    exactly on the boundary between two distinct values, their mean.
    Non-positive counts and NaN values take no part."""
    counts = np.asarray(counts, dtype=float)
    _, median = _RankedIncomes(values).column(np.where(counts > 0, counts, 0.0))
    if math.isnan(median):
        raise ValueError("empty population")
    return median


def percent_change(earlier: float, later: float) -> float:
    """100 * (later - earlier) / earlier; earlier must be positive."""
    if not earlier > 0:
        raise ValueError(f"earlier value must be > 0, got {earlier}")
    return 100.0 * (later - earlier) / earlier


# --------------------------------------------------------------------------
# Population-level measures
# --------------------------------------------------------------------------

def equivalized_incomes(survey: SurveyDataset, do_equivalize: bool) -> np.ndarray:
    """Per-record equivalized income vector (NaN for missing incomes).

    When `do_equivalize`, the survey's income field is read as household
    income and divided by the modified-OECD scale built from the `n_adults`
    and `n_children` columns (no `n_children` column means no children);
    otherwise the field is used verbatim as already-equivalized income. A
    record with an observed income and a household size that is blank, not
    an integer, or out of range raises SchemaError naming the record.
    """
    raw = survey.incomes
    if not do_equivalize:
        return raw
    valid = np.flatnonzero(~np.isnan(raw))
    n_adults = survey.column("n_adults")[valid]
    n_children = 0.0
    if "n_children" in survey.numeric:
        n_children = survey.column("n_children")[valid]

    def whole(x, least):
        return np.isfinite(x) & (np.trunc(x) == x) & (x >= least)

    bad = ~(whole(n_adults, 1) & whole(n_children, 0))
    if bad.any():
        rid = survey.record_ids[valid[np.argmax(bad)]]
        raise SchemaError(
            f"record {rid!r}: equivalization needs integer 'n_adults' >= 1 and "
            "'n_children' >= 0"
        )
    out = np.full(survey.n, math.nan)
    out[valid] = equivalize(raw[valid], n_adults, n_children)
    return out


@dataclass(frozen=True)
class IncomeIndicators:
    """Per-zone income figures of a population; NaN for zones with no
    counted person with observed income."""

    means: np.ndarray
    medians: np.ndarray
    line: float  # metro-wide poverty line; NaN when nobody is observed
    arop_absolute: np.ndarray  # shares below `line`
    lines: np.ndarray  # per-zone poverty lines
    arop_relative: np.ndarray  # shares below each zone's line
    excluded: np.ndarray  # persons with missing income


def income_indicators(
    population: SyntheticPopulation, incomes: np.ndarray, fraction: float = 0.6
) -> IncomeIndicators:
    """The figures of income_summary, arop_absolute and arop_relative from
    one ranked pass per zone. Like arop_absolute, raises when no counted
    person has an observed income."""
    figures = _income_pass(population, incomes, fraction)
    if math.isnan(figures.line):
        raise ValueError("no counted person with observed income")
    return figures


def _income_pass(population, incomes, fraction=0.6) -> IncomeIndicators:
    """IncomeIndicators with one cumsum per zone over the ranked incomes;
    `line` is NaN when no counted person has an observed income."""
    ranked = _RankedIncomes(incomes)
    line = fraction * ranked.column(population.record_totals())[1]
    n = len(population.zone_ids)
    means, medians, abs_rates, lines, rel_rates = (
        np.full(n, math.nan) for _ in range(5)
    )
    for z, col in enumerate(population.columns()):
        cum, medians[z] = ranked.column(col)
        if cum[-1] > 0:
            means[z] = ranked.mean(col, cum[-1])
            abs_rates[z] = ranked.below(cum, line) / cum[-1]
            lines[z] = fraction * medians[z]
            rel_rates[z] = ranked.below(cum, lines[z]) / cum[-1]
    excluded = population.zone_sums(np.isnan(incomes), 2)[:, 1]
    return IncomeIndicators(means, medians, line, abs_rates, lines, rel_rates, excluded)


def arop_absolute(
    population: SyntheticPopulation, incomes: np.ndarray, fraction: float = 0.6
):
    """AROP with a single metro-wide line: fraction * pooled weighted median.

    Records with missing income are excluded from both numerator and
    denominator. Returns (per-zone rates, poverty line, per-zone excluded
    counts)."""
    figures = income_indicators(population, incomes, fraction)
    return figures.arop_absolute, figures.line, figures.excluded


def arop_relative(
    population: SyntheticPopulation, incomes: np.ndarray, fraction: float = 0.6
):
    """AROP with per-zone lines: fraction * each zone's weighted median.

    Returns (per-zone rates, per-zone lines); both NaN for zones with no
    counted person with observed income."""
    figures = _income_pass(population, incomes, fraction)
    return figures.arop_relative, figures.lines


def md_rate(
    population: SyntheticPopulation, deprivations: np.ndarray, threshold: int = 3
):
    """Material deprivation rate per zone: weighted share of persons lacking
    at least `threshold` of the listed items."""
    lacked = deprivations.sum(axis=1)
    deprived = lacked >= threshold
    persons = population.zone_sums(deprived, 2)
    totals, hit = persons.sum(axis=1).astype(float), persons[:, 1]
    return np.where(totals > 0, hit / np.where(totals > 0, totals, 1), math.nan)


def deprivation_scores(survey: SurveyDataset, spec: MpiSpec) -> np.ndarray:
    """Per-record weighted deprivation score c in [0, 1]. A `flag` or `below`
    indicator reads a deprivation field, the income field or a numeric survey
    column (SurveyDataset.column); a blank value is never deprived. An `in`
    indicator names a schema variable and some of its categories."""
    score = np.zeros(survey.n)
    for dim in spec.dimensions:
        for ind, w in zip(dim.indicators, dim.indicator_weights()):
            if ind.kind == "in":
                vardef = survey.schema.variable(ind.field)
                unknown = [v for v in ind.values if v not in vardef.categories]
                if unknown:
                    raise SchemaError(
                        f"indicator {ind.field!r}: {unknown} are not categories "
                        f"of {ind.field!r}"
                    )
                codes = survey.category_codes(ind.field)
                sel = np.array([c in ind.values for c in vardef.categories])
                deprived = sel[codes]
            elif ind.kind == "below":
                deprived = survey.column(ind.field) < ind.threshold
            else:  # flag
                values = survey.column(ind.field)
                deprived = (values != 0) & ~np.isnan(values)
            score += w * deprived
    return score


def mpi(population: SyntheticPopulation, survey: SurveyDataset, spec: MpiSpec):
    """Per-zone Alkire-Foster measures plus the pooled (metro) result.

    H = weighted share of persons with score >= cutoff, A = weighted mean
    score among them, M0 = H * A, each summed in record order. Returns (list
    of per-zone MpiResult, metro MpiResult from `record_totals()`)."""
    score = deprivation_scores(survey, spec)
    # small slack so scores assembled from thirds compare equal to k = 1/3
    poor = score >= spec.cutoff - 1e-9

    def compute(records, counts) -> MpiResult:
        total = counts.sum()
        if total == 0:
            return MpiResult(math.nan, math.nan, math.nan)
        held = poor[records]
        wp = counts[held].sum()
        h = wp / total
        a = float(np.sum(score[records[held]] * counts[held]) / wp) if wp > 0 else 0.0
        return MpiResult(float(h), a, float(h * a))

    records, counts = population.records, population.counts
    per_zone = [compute(records[s], counts[s]) for s in population.slices()]
    pooled = population.record_totals()
    return per_zone, compute(np.flatnonzero(pooled), pooled[pooled > 0])


def income_summary(population: SyntheticPopulation, incomes: np.ndarray):
    """Per-zone weighted mean and median of observed incomes. Returns
    (means, medians); NaN for zones with no counted person with observed
    income. The metro figures are those of the one-zone population of
    `population.record_totals()`."""
    figures = _income_pass(population, incomes)
    return figures.means, figures.medians
