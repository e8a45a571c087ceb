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

from .schema import read_only


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
    """Integer replication counts of records in zones, held as compressed
    zone columns in `population.csv` row order: zone z counts
    `counts[indptr[z]:indptr[z + 1]]` persons of the records
    `records[indptr[z]:indptr[z + 1]]`, which increase within a zone, and
    every other record 0 times. Only positive counts are held; the producers
    hold them as int32 when every one fits. The arrays are read-only views of
    the given ones, not copies, when `indptr` is int64, `records` int32 and
    `counts` int32 or int64."""

    indptr: np.ndarray
    records: np.ndarray
    counts: np.ndarray
    zone_ids: tuple[str, ...]
    record_ids: tuple[str, ...]

    def __post_init__(self):
        indptr = read_only(self.indptr, np.int64)
        records = read_only(self.records, np.int32)
        counts = np.asarray(self.counts)
        wide = counts.dtype != np.int32
        counts = read_only(counts, np.int64 if wide else np.int32)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "zone_ids", tuple(self.zone_ids))
        object.__setattr__(self, "record_ids", tuple(self.record_ids))
        nnz = counts.size
        if (
            indptr.shape != (len(self.zone_ids) + 1,)
            or records.shape != (nnz,)
            or indptr[0] != 0
            or indptr[-1] != nnz
            or np.any(np.diff(indptr) < 0)
        ):
            raise ValueError("compressed zone columns do not match the zone ids")
        # Within a zone each record follows the one before it.
        unordered = records[1:] <= records[:-1]
        starts = indptr[1:-1]
        unordered[starts[(starts > 0) & (starts < nnz)] - 1] = False
        if (
            np.any(unordered)
            or np.any(counts <= 0)
            or np.any(records < 0)
            or np.any(records >= len(self.record_ids))
        ):
            raise ValueError(
                "counts must be positive, of known records, in record order"
            )

    def __eq__(self, other):
        """Equal ids and counts: a population has one compressed form."""
        if not isinstance(other, SyntheticPopulation):
            return NotImplemented
        arrays = ("indptr", "records", "counts")
        return (
            self.zone_ids == other.zone_ids
            and self.record_ids == other.record_ids
            and all(np.array_equal(getattr(self, a), getattr(other, a)) for a in arrays)
        )

    @classmethod
    def from_columns(cls, columns, zone_ids, record_ids, capacity: int):
        """Compress per-record count columns, one per zone, each as it comes,
        into arrays of `capacity` counts, at least the nonzero counts of all
        columns. The population holds the filled part of those arrays."""
        records = np.empty(capacity, dtype=np.int32)
        counts = np.empty(capacity, dtype=np.int32)
        indptr = [0]
        for col in columns:
            col = np.asarray(col)
            nz = np.flatnonzero(col != 0)
            values = col[nz]
            if counts.dtype == np.int32 and values.max(initial=0) >= 2**31:
                counts = counts.astype(np.int64)
            a, b = indptr[-1], indptr[-1] + nz.size
            records[a:b] = nz
            counts[a:b] = values
            indptr.append(b)
        end = indptr[-1]
        return cls(indptr, records[:end], counts[:end], zone_ids, record_ids)

    def slices(self):
        """Each zone's slice of `records` and `counts`, in zone order."""
        bounds = self.indptr.tolist()
        return map(slice, bounds[:-1], bounds[1:])

    def zone_blocks(self, size: int):
        """(first, end) ranges of zones that split the held counts into runs
        of about `size` or fewer; a zone is never split."""
        starts = np.arange(size, self.counts.size, size)
        cuts = np.searchsorted(self.indptr, starts, side="right") - 1
        bounds = np.unique(np.concatenate(([0], cuts, [len(self.zone_ids)])))
        return zip(bounds[:-1].tolist(), bounds[1:].tolist())

    def zone_totals(self, where=None) -> np.ndarray:
        """Persons per zone, int64; with `where`, one bool per record, only
        the persons of the records where it holds. Differences of one running
        sum at the zone pointers."""
        running = np.zeros(self.counts.size + 1, dtype=np.int64)
        if where is None:
            running[1:] = self.counts
        else:
            np.multiply(self.counts, where[self.records], out=running[1:])
        np.cumsum(running, out=running)
        return running[self.indptr[1:]] - running[self.indptr[:-1]]

    def record_totals(self) -> np.ndarray:
        """Persons per record over all zones: the pooled (metro) column."""
        totals = np.zeros(len(self.record_ids), dtype=np.int64)
        np.add.at(totals, self.records, self.counts.astype(np.int64, copy=False))
        return totals

    def columns(self):
        """Each zone's counts as a per-record int64 column, zone by zone. One
        buffer is reused: a column holds until the next is made."""
        col = np.zeros(len(self.record_ids), dtype=np.int64)
        for zone in self.slices():
            col[self.records[zone]] = self.counts[zone]
            yield col
            col.fill(0)


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
    """Apply trs_zone per zone with independent per-zone RNG streams, to one
    expanded weight column at a time.

    `zone_populations` are the integer zone targets (reference constraint
    totals rounded half-up). Deterministic for a fixed seed, independent of
    zone execution order."""
    spec = RngSpec(seed)
    targets = np.asarray(zone_populations, dtype=np.int64)
    n = len(weight_matrix.record_ids)

    def columns():
        for zi, zone in enumerate(weight_matrix.zone_ids):
            try:
                weights = weight_matrix.column(zi)
                yield trs_zone(weights, int(targets[zi]), spec.stream(zi))
            except ValueError as exc:
                raise ValueError(f"zone {zone!r}: {exc}") from exc

    # A zone holds at most one count per person and one per record.
    capacity = int(np.minimum(np.maximum(targets, 0), n).sum())
    return SyntheticPopulation.from_columns(
        columns(), weight_matrix.zone_ids, weight_matrix.record_ids, capacity
    )


def round_half_up(x) -> np.ndarray:
    """Round zone population targets half-up (census counts should already be
    integers; this guards pre-scaled inputs)."""
    return np.floor(np.asarray(x, dtype=float) + 0.5).astype(np.int64)
