"""Truncate-replicate-sample integerization of fractional zone weights.

Each record is replicated floor(weight) times; the remaining slots up to the
zone's census population are filled by sampling records in proportion to the
fractional parts of their weights. The per-zone totals match the census
populations exactly.

The fractional-slot draw uses systematic probability-proportional-to-size
sampling on the fractional parts: with d slots and fractional mass F, the
cumulative fraction axis is probed at equally spaced points (u + k) * F / d
for a single uniform u. When the inputs are consistent (F == d, the usual
case after a converged fit) every fractional part is < 1, so the d selected
records are distinct and each record's inclusion probability equals its
fractional part exactly, making the expected count equal to the weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RngSpec:
    """Reproducibility contract: PCG64 seeded per zone with
    SeedSequence([master_seed, zone_index]); zones never share a stream."""

    master_seed: int

    generator = "numpy PCG64, SeedSequence([seed, zone_index])"

    def stream(self, zone_index: int) -> np.random.Generator:
        return np.random.default_rng([self.master_seed, zone_index])


@dataclass(frozen=True)
class SyntheticPopulation:
    """Integer replication counts, records x zones. `counts` is held as a
    read-only view of the given array, not a copy; the producers allocate it
    column-major, so each zone's column is contiguous."""

    counts: np.ndarray
    zone_ids: tuple[str, ...]
    record_ids: tuple[str, ...]

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64).view()
        if c.shape != (len(self.record_ids), len(self.zone_ids)):
            raise ValueError("count matrix shape mismatch")
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "zone_ids", tuple(self.zone_ids))
        object.__setattr__(self, "record_ids", tuple(self.record_ids))

    def zone_totals(self) -> np.ndarray:
        return self.counts.sum(axis=0)


def _systematic_pick(frac: np.ndarray, d: int, rng) -> np.ndarray:
    """Pick d slots proportional to frac via systematic PPS; returns
    per-record increment counts. frac must have positive mass."""
    pos = np.flatnonzero(frac > 0)
    cum = np.cumsum(frac[pos])
    total = cum[-1]
    points = (rng.random() + np.arange(d)) * (total / d)
    idx = np.searchsorted(cum, points, side="right")
    idx = np.minimum(idx, len(pos) - 1)  # guard float edge at the top
    inc = np.zeros(frac.size, dtype=np.int64)
    np.add.at(inc, pos[idx], 1)
    return inc


def trs_zone(weights, target_total: int, rng) -> np.ndarray:
    """Integerize one zone's weights so the counts sum to target_total.

    counts = floor(weights); the deficit d = target - sum(counts) is filled
    by systematic PPS draws on the fractional parts. If fewer records carry
    fractional mass than d, each of them gets one slot and the remainder is
    drawn with replacement proportional to the original weights. A negative
    deficit (inconsistent inputs) is resolved by symmetric downward draws,
    never taking a count below 0.
    """
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and >= 0")
    target_total = int(target_total)
    if target_total < 0:
        raise ValueError("target_total must be >= 0")
    if target_total > 0 and w.sum() == 0:
        raise ValueError("no support to sample: target > 0 with all-zero weights")

    counts = np.floor(w).astype(np.int64)
    frac = w - counts
    d = target_total - int(counts.sum())

    if d > 0:
        n_frac = int(np.count_nonzero(frac > 0))
        if n_frac >= d > 0:
            counts += _systematic_pick(frac, d, rng)
        else:
            counts[frac > 0] += 1
            remaining = d - n_frac
            if remaining > 0:
                p = w / w.sum()
                draws = rng.choice(w.size, size=remaining, replace=True, p=p)
                np.add.at(counts, draws, 1)
    elif d < 0:
        for _ in range(-d):
            cand = np.flatnonzero(counts > 0)
            p = frac[cand]
            if p.sum() == 0:
                p = counts[cand].astype(float)
            p = p / p.sum()
            counts[rng.choice(cand, p=p)] -= 1

    return counts


def synthesize(weight_matrix, zone_populations, seed: int) -> SyntheticPopulation:
    """Apply trs_zone per zone with independent per-zone RNG streams.

    `zone_populations` are the integer zone targets (reference constraint
    totals rounded half-up). Deterministic for a fixed seed, independent of
    zone execution order."""
    spec = RngSpec(seed)
    n, n_zones = weight_matrix.weights.shape
    counts = np.zeros((n, n_zones), dtype=np.int64, order="F")  # zone columns
    for zi in range(n_zones):
        try:
            counts[:, zi] = trs_zone(
                weight_matrix.weights[:, zi],
                int(zone_populations[zi]),
                spec.stream(zi),
            )
        except ValueError as exc:
            raise ValueError(f"zone {weight_matrix.zone_ids[zi]!r}: {exc}") from exc
    return SyntheticPopulation(
        counts=counts,
        zone_ids=weight_matrix.zone_ids,
        record_ids=weight_matrix.record_ids,
    )


def round_half_up(x) -> np.ndarray:
    """Round zone population targets half-up (census counts should already be
    integers; this guards pre-scaled inputs)."""
    return np.floor(np.asarray(x, dtype=float) + 0.5).astype(np.int64)
