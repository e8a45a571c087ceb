"""Goodness-of-fit between synthetic aggregates and reference tables.

Internal validation compares zone-level synthetic counts of the constraint
variables against the census tables; external validation does the same for a
variable that was not used in fitting (optionally grouped via a crosswalk)
plus a metro-level share comparison. Metrics: coefficient of determination
(squared Pearson correlation), standard error about identity (an R²-style
statistic about the 45° line) and a pooled-variance two-tailed t-test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integerize import SyntheticPopulation
from .schema import ConstraintTable, Crosswalk, SchemaError, SurveyDataset


@dataclass(frozen=True)
class ValidationMetrics:
    r_squared: float
    sei: float
    t_stat: float
    p_value: float


@dataclass(frozen=True)
class ValidationReport:
    # rows of (variable, category, ValidationMetrics)
    metrics: tuple
    # rows of (variable, group, census_pct, simulated_pct, diff)
    shares: tuple
    # rows of (variable, zone_id, category, actual, simulated)
    scatter: tuple


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

def _vectors(actual, simulated):
    """`actual` and `simulated` as float arrays; ValueError unless they have
    the same shape."""
    a = np.asarray(actual, dtype=float)
    s = np.asarray(simulated, dtype=float)
    if a.shape != s.shape:
        raise ValueError("vectors must have the same length")
    return a, s


def r_squared(actual, simulated) -> float:
    """Squared Pearson correlation between actual and simulated values, from
    np.sum reductions (a BLAS dot's bits vary with its thread count). NaN
    when undefined (n < 3, or either vector constant)."""
    a, s = _vectors(actual, simulated)
    if a.size < 3 or np.ptp(a) == 0 or np.ptp(s) == 0:
        return math.nan
    da, ds = a - a.mean(), s - s.mean()
    r = float(np.sum(da * ds) / math.sqrt(np.sum(da * da) * np.sum(ds * ds)))
    return r * r


def sei(actual, simulated) -> float:
    """Standard error about identity:
    1 - sum((sim - act)^2) / sum((act - mean(act))^2).
    Equals 1 at perfect fit, penalizes deviations from the 45° line (unlike
    the regression-based R²) and can go negative for very poor fits. NaN when
    undefined (n < 3 or constant actual)."""
    a, s = _vectors(actual, simulated)
    if a.size < 3 or np.ptp(a) == 0:
        return math.nan
    sse = float(((s - a) ** 2).sum())
    sst = float(((a - a.mean()) ** 2).sum())
    return 1.0 - sse / sst


def student_t_two_tailed_p(t_stat: float, df: int) -> float:
    """Two-tailed Student-t tail probability via the regularized incomplete
    beta function: p = I_{df/(df+t²)}(df/2, 1/2). NaN for a NaN t."""
    if df < 1:
        raise ValueError("df must be >= 1")
    if math.isnan(t_stat):
        return math.nan
    if math.isinf(t_stat):
        return 0.0
    t2 = t_stat * t_stat
    x, y = df / (df + t2), t2 / (df + t2)
    if df > 2000:
        return _betainc_half_large_a(df / 2.0, x, y)
    return _betainc(df / 2.0, 0.5, x, y)


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta function I_x(a, b), with y = 1 - x given
    separately so that neither loses digits to the subtraction.

    Evaluates the continued fraction (Numerical Recipes' betacf, modified
    Lentz) where it converges quickly, x < (a + 1) / (a + b + 2), and
    I_x(a, b) = 1 - I_y(b, a) elsewhere."""
    if x == 0.0:
        return 0.0
    if y == 0.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, y, x)
    log_x = math.log(x) if x < 0.5 else math.log1p(-y)
    log_y = math.log(y) if y < 0.5 else math.log1p(-x)
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * log_x + b * log_y
    )
    tiny = 1e-300  # keeps the Lentz terms off zero
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = frac = 1.0 / (d if abs(d) > tiny else tiny)
    for m in range(1, 100_000):
        for coef in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + coef * d
            c = 1.0 + coef / c
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = c if abs(c) > tiny else tiny
            frac *= d * c
        if abs(d * c - 1.0) < 1e-16:
            return front * frac / a
    raise ArithmeticError(f"incomplete beta I_{x!r}({a!r}, {b!r}) did not converge")


def _betainc_half_large_a(a: float, x: float, y: float) -> float:
    """I_x(a, 1/2) for a > 1000, with y = 1 - x given separately.

    `_betainc` loses digits there: lgamma(a + 1/2) - lgamma(a) cancels, and
    its continued fraction, fed x near 1, cancels too, together 4e-10
    relative at a = 5e6. This is the asymptotic expansion in a of DiDonato
    and Morris (1992, ACM TOMS 708, BGRAT) for b = 1/2, whose incomplete
    gamma function Q(1/2, z) is erfc(sqrt z); it holds 1e-14 from a = 1000."""
    if x == 0.0:
        return 0.0
    if y == 0.0:
        return 1.0
    b = 0.5
    nu = a + 0.5 * (b - 1.0)
    log_x = math.log(x) if y > 0.375 else math.log1p(-y)
    z = -nu * log_x
    r = math.exp(-z) * math.sqrt(z / math.pi)  # exp(-z) z^b / Γ(b)
    u = r * math.exp(_log_gamma_ratio_half(a) - b * math.log(nu))
    if u == 0.0:
        return 0.0
    v = 0.25 / (nu * nu)
    t2 = 0.25 * log_x * log_x
    j = math.erfc(math.sqrt(z)) / r
    total, t, cn, c, d = j, 1.0, 1.0, [], []
    for n in range(1, 31):
        bp2n = b + 2.0 * (n - 1)
        j = (bp2n * (bp2n + 1.0) * j + (z + bp2n + 1.0) * t) * v
        t *= t2
        cn /= (2.0 * n) * (2.0 * n + 1.0)
        c.append(cn)
        s = sum((b * (i + 1) - n) * c[i] * d[n - 2 - i] for i in range(n - 1))
        d.append((b - 1.0) * cn + s / n)
        total += d[-1] * j
        if abs(d[-1] * j) <= 1e-16 * total:
            break
    return u * total


def _log_gamma_ratio_half(z: float) -> float:
    """log(Γ(z + 1/2) / Γ(z)) for large z, by its asymptotic series
    (1/2) log z + sum_n (-1)^n (B_n(1/2) - B_n) / (n (n - 1) z^(n - 1))
    in the Bernoulli numbers B_n, to the z^-9 term; the next is below 1e-35
    at z = 1000. lgamma(z + 1/2) - lgamma(z) would keep only about
    1e-16 * z log z of it (2e-8 at z = 5e6)."""
    w = 1.0 / (z * z)
    series = 1 / 8 - w * (1 / 192 - w * (1 / 640 - w * (17 / 14336 - w * 31 / 18432)))
    return 0.5 * math.log(z) - series / z


def t_test_equal_variance(actual, simulated):
    """Pooled-variance two-sample two-tailed t-test treating the two vectors
    as independent samples of equal size n. Returns (t, p).

    Degenerate inputs: zero pooled variance with equal means gives (0, 1);
    with unequal means gives (signed inf, 0)."""
    a, s = _vectors(actual, simulated)
    n = a.size
    if n < 2:
        raise ValueError("need n >= 2")
    diff = s.mean() - a.mean()
    var_a = float(((a - a.mean()) ** 2).sum()) / (n - 1)
    var_s = float(((s - s.mean()) ** 2).sum()) / (n - 1)
    pooled = ((n - 1) * var_s + (n - 1) * var_a) / (2 * n - 2)
    df = 2 * n - 2
    if pooled == 0:
        if diff == 0:
            return 0.0, 1.0
        return math.copysign(math.inf, diff), 0.0
    t = diff / math.sqrt(pooled * 2.0 / n)
    return float(t), student_t_two_tailed_p(t, df)


def metrics_for(actual, simulated) -> ValidationMetrics:
    a, s = _vectors(actual, simulated)
    t, p = t_test_equal_variance(a, s) if a.size >= 2 else (math.nan, math.nan)
    return ValidationMetrics(r_squared(a, s), sei(a, s), t, p)


# --------------------------------------------------------------------------
# Aggregation and reports
# --------------------------------------------------------------------------

def aggregate(
    population: SyntheticPopulation,
    survey: SurveyDataset,
    variable: str,
    crosswalk: Crosswalk | None = None,
) -> ConstraintTable:
    """Sum replication counts per zone per category of `variable`, exactly
    in int64 (`SyntheticPopulation.zone_sums`); with a crosswalk, each fine
    category counts for its group."""
    codes = survey.category_codes(variable)
    categories = survey.schema.variable(variable).categories
    if crosswalk is not None:
        groups = crosswalk.groups()
        group_of = np.array([groups.index(crosswalk.group(c)) for c in categories])
        codes, categories = group_of[codes], groups
    counts = population.zone_sums(codes, len(categories))
    return ConstraintTable(variable, population.zone_ids, categories, counts)


def _share_rows(actual: ConstraintTable, simulated):
    """Metro-level percentage share rows of the actual and simulated zones x
    categories counts."""
    actual_totals = actual.counts.sum(axis=0)
    simulated_totals = simulated.sum(axis=0)
    act_pct = 100.0 * actual_totals / actual_totals.sum()
    sim_pct = 100.0 * simulated_totals / simulated_totals.sum()
    return tuple(
        (actual.variable, cat, float(a), float(s), float(s - a))
        for cat, a, s in zip(actual.categories, act_pct, sim_pct)
    )


def _zone_rows(actual: ConstraintTable, simulated):
    """Zone-level comparison of the actual and the simulated zones x
    categories counts, category by category: (metrics rows, scatter rows)."""
    metrics = []
    scatter = []
    for ci, cat in enumerate(actual.categories):
        a, s = actual.counts[:, ci], simulated[:, ci]
        metrics.append((actual.variable, cat, metrics_for(a, s)))
        scatter.extend(
            (actual.variable, zone, cat, float(x), float(y))
            for zone, x, y in zip(actual.zones, a, s)
        )
    return metrics, scatter


def internal_validation(
    population: SyntheticPopulation, survey: SurveyDataset, tables
) -> ValidationReport:
    """Per constraint category across zones: R², SEI, t and p, plus
    metro-level shares and plot-ready scatter pairs."""
    metrics = []
    shares = []
    scatter = []
    for table in tables:
        sim = aggregate(population, survey, table.variable)
        if sim.zones != table.zones:
            raise SchemaError(
                f"zone mismatch between population and census table "
                f"{table.variable!r}"
            )
        table_metrics, table_scatter = _zone_rows(table, sim.counts)
        metrics += table_metrics
        scatter += table_scatter
        shares += _share_rows(table, sim.counts)
    return ValidationReport(tuple(metrics), tuple(shares), tuple(scatter))


def external_validation(
    population: SyntheticPopulation,
    survey: SurveyDataset,
    external_actual: ConstraintTable,
    crosswalk: Crosswalk | None = None,
) -> ValidationReport:
    """Validate an unconstrained variable: metro-level share comparison
    always; per-group zone-level metrics and scatter pairs when the actual
    table is supplied at zone level (zone ids matching the population)."""
    sim = aggregate(population, survey, external_actual.variable, crosswalk)
    for cat in external_actual.categories:
        if cat not in sim.categories:
            raise SchemaError(
                f"external category {cat!r} not produced by the simulated "
                f"aggregate of {external_actual.variable!r}"
            )
    order = [sim.categories.index(c) for c in external_actual.categories]
    sim_counts = sim.counts[:, order]
    shares = _share_rows(external_actual, sim_counts)
    metrics, scatter = [], []
    if len(external_actual.zones) > 1:
        if external_actual.zones != population.zone_ids:
            raise SchemaError(
                "zone id mismatch between external actual table and population"
            )
        metrics, scatter = _zone_rows(external_actual, sim_counts)
    return ValidationReport(tuple(metrics), tuple(shares), tuple(scatter))
