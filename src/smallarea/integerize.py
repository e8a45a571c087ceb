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

Each zone draws from its own PCG64 stream (`RngSpec`), computed in Python
bit for bit as numpy computes it; the fallback paths pick records from its
uniforms as `Generator.choice` does. No output bit depends on numpy's RNGs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .csvbytes import BLOCK_LINES, TextColumn, read_only


@dataclass(frozen=True)
class RngSpec:
    """Reproducibility contract: PCG64 seeded per zone with
    SeedSequence([master_seed, zone_index]); zones never share a stream.
    `stream` draws what numpy's `default_rng([master_seed, zone_index])`
    draws, computed in Python."""

    master_seed: int

    generator = "numpy PCG64, SeedSequence([seed, zone_index])"

    def stream(self, zone_index: int) -> ZoneStream:
        return ZoneStream((self.master_seed, zone_index))


class ZoneStream:
    """The PCG64 stream of numpy's `default_rng(list(entropy))` for
    non-negative ints, in Python: `random()` and `random(size)` draw its
    doubles bit for bit. `drew_array` tells if an array was drawn."""

    __slots__ = ("state", "inc", "drew_array")

    def __init__(self, entropy):
        entropy = tuple(map(operator.index, entropy))
        if min(entropy) < 0:
            raise ValueError("expected non-negative integer")  # as numpy says
        self.state, self.inc = _seed(entropy)
        self.drew_array = False

    def random(self, size=None):
        """The next double in [0, 1), or the next `size` as a float64 array;
        each is the top 53 bits of a PCG64 step's XSL-RR output."""
        state, inc, outs = self.state, self.inc, []
        for _ in range(1 if size is None else size):
            state = (state * _PCG_MULT + inc) & _M128
            rot, low = state >> 122, (state >> 64 ^ state) & _M64
            outs.append((low >> rot | low << (64 - rot)) & _M64)
        self.state = state
        if size is None:
            return (outs[0] >> 11) * 2.0**-53
        self.drew_array = True
        return (np.array(outs, np.uint64) >> 11) * 2.0**-53


# SeedSequence's hash constants (bit_generator.pyx) and PCG64's 128-bit
# multiplier (src/pcg64/pcg64.h), both in numpy's random package.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _hasher(h: int, mult: int):
    """SeedSequence's hash of one uint32 word, whose constant `h` is
    multiplied by `mult` at each call."""

    def hashmix(value: int) -> int:
        nonlocal h
        value ^= h
        h = h * mult & _M32
        value = value * h & _M32
        return value ^ value >> 16

    return hashmix


def _seed(entropy) -> tuple[int, int]:
    """The PCG64 (state, inc) of numpy's `default_rng(list(entropy))` for
    non-negative ints, in numpy's steps: SeedSequence's pool of 4 uint32
    words and `generate_state(4, uint64)`, then PCG64's `set_seed`."""
    words = []
    for n in entropy:  # each int as its uint32 words, low first; 0 as [0]
        words.append(n & _M32)
        while n := n >> 32:
            words.append(n & _M32)

    def mix(x, y):
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ r >> 16

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    # 8 uint32 words of the pool cycled, read as 4 little-endian uint64.
    state = list(map(_hasher(_INIT_B, _MULT_B), pool + pool))
    s = [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]
    initstate, initseq = s[0] << 64 | s[1], s[2] << 64 | s[3]

    inc = (initseq << 1 | 1) & _M128
    # set_seed: state 0, a step (to inc), adding initstate, a step.
    return ((inc + initstate) * _PCG_MULT + inc) & _M128, inc


@dataclass(frozen=True)
class SyntheticPopulation:
    """Integer replication counts of records in zones, held as compressed
    zone columns in `population.csv` row order: zone z counts
    `counts[indptr[z]:indptr[z + 1]]` persons of the records
    `records[indptr[z]:indptr[z + 1]]`, which increase within a zone, and
    every other record 0 times. Only positive counts are held. The producers
    hold `records` as uint16 when every record index fits, else int32
    (`record_dtype`), and `counts` in the narrowest of uint8, int32 and int64
    that holds them (`count_dtype`). The arrays are read-only views of the
    given ones, not copies, when `indptr` is int64, `records` uint16 or int32
    and `counts` uint8, int32 or int64. `record_ids` is held as a
    TextColumn, strings encoded once."""

    indptr: np.ndarray
    records: np.ndarray
    counts: np.ndarray
    zone_ids: tuple[str, ...]
    record_ids: TextColumn

    def __post_init__(self):
        indptr = read_only(self.indptr, np.int64)
        records, counts = np.asarray(self.records), np.asarray(self.counts)
        narrow = records.dtype == np.uint16
        records = read_only(records, np.uint16 if narrow else np.int32)
        kept = counts.dtype in _COUNT_DTYPES
        counts = read_only(counts, counts.dtype if kept else np.int64)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "zone_ids", tuple(self.zone_ids))
        object.__setattr__(self, "record_ids", TextColumn.of(self.record_ids))
        nnz = counts.size
        if (
            indptr.shape != (len(self.zone_ids) + 1,)
            or records.shape != (nnz,)
            or indptr[0] != 0
            or indptr[-1] != nnz
            or np.any(np.diff(indptr) < 0)
        ):
            raise ValueError("compressed zone columns do not match the zone ids")
        if (
            not _in_record_order(indptr, records)
            or counts.min(initial=1) <= 0
            or records.min(initial=0) < 0
            or (nnz and records.max() >= len(self.record_ids))
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
        records = np.empty(capacity, dtype=record_dtype(len(record_ids)))
        counts = np.empty(capacity, dtype=np.uint8)
        indptr = [0]
        for col in columns:
            col = np.asarray(col)
            nz = np.flatnonzero(col != 0)
            values = col[nz]
            wide = np.promote_types(counts.dtype, count_dtype(values.max(initial=0)))
            if wide != counts.dtype:
                counts = counts.astype(wide)
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

    def zone_sums(self, codes, k: int) -> np.ndarray:
        """Zones x k int64 sums: [z, c] counts the persons of zone z in the
        records r with codes[r] == c, for int or bool `codes` with one entry
        per record. Summed a zone's slice at a time into its row, exactly,
        with no array per held count of the population."""
        codes = np.asarray(codes)
        if codes.dtype == bool:  # indices 0 and 1, not a mask
            codes = codes.view(np.uint8)
        out = np.zeros((len(self.zone_ids), k), dtype=np.int64)
        for row, zone in zip(out, self.slices()):
            # np.add.at adds int64 counts to int64 sums on its fast path.
            counts = self.counts[zone].astype(np.int64)
            np.add.at(row, codes[self.records[zone]], counts)
        return out

    def record_totals(self) -> np.ndarray:
        """Persons per record over all zones: the pooled (metro) column,
        summed a zone's slice at a time at the first call and then held,
        read-only, for the next."""
        totals = self.__dict__.get("_record_totals")
        if totals is None:
            totals = np.zeros(len(self.record_ids), dtype=np.int64)
            for zone in self.slices():
                counts = self.counts[zone].astype(np.int64)  # as in zone_sums
                np.add.at(totals, self.records[zone], counts)
            totals.flags.writeable = False
            object.__setattr__(self, "_record_totals", totals)
        return totals

    def columns(self):
        """Each zone's counts as a per-record int64 column, zone by zone. One
        buffer is reused: a column holds until the next is made."""
        col = np.zeros(len(self.record_ids), dtype=np.int64)
        for zone in self.slices():
            col[self.records[zone]] = self.counts[zone]
            yield col
            col.fill(0)


def _in_record_order(indptr, records) -> bool:
    """Whether within each zone every record follows the one before it:
    pairs compared BLOCK_LINES at a time, those across a zone start cleared,
    so that the check makes no bool per held count."""
    for a in range(1, records.size, BLOCK_LINES):
        b = min(a + BLOCK_LINES, records.size)
        unordered = records[a:b] <= records[a - 1 : b - 1]
        heads = indptr[np.searchsorted(indptr, a) : np.searchsorted(indptr, b)]
        unordered[heads - a] = False  # a zone's first record follows another zone
        if unordered.any():
            return False
    return True


def record_dtype(n_records: int) -> np.dtype:
    """The dtype of the record indices of a population of `n_records`
    records: uint16 when every index fits, else int32."""
    return np.dtype(np.uint16 if n_records <= 1 << 16 else np.int32)


_COUNT_DTYPES = tuple(map(np.dtype, (np.uint8, np.int32, np.int64)))


def count_dtype(largest) -> np.dtype:
    """The narrowest of uint8, int32 and int64 that holds non-negative
    counts up to `largest`."""
    return next(t for t in _COUNT_DTYPES if largest <= np.iinfo(t).max)


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


def _pick(p, u):
    """The indices `Generator.choice(len(p), p=p)` picks with uniforms u."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return cdf.searchsorted(u, side="right")


def trs_zone(weights, target_total: int, rng) -> np.ndarray:
    """Integerize one zone's weights so the counts sum to target_total.

    counts = floor(weights); the deficit d = target - sum(counts) is filled
    by systematic PPS draws on the fractional parts. If fewer records carry
    fractional mass than d, each of them gets one slot and the remainder is
    drawn with replacement proportional to the original weights. A negative
    deficit (inconsistent inputs) is resolved by symmetric downward draws,
    never taking a count below 0.

    `rng` needs `random()` and `random(size)` only. Systematic PPS draws one
    bare `random()`, and each other path one array: an array marks a
    zone that left systematic PPS.
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
        if n_frac >= d:
            counts += _systematic_pick(frac, d, rng)
        else:
            counts[frac > 0] += 1
            draws = _pick(w / w.sum(), rng.random(d - n_frac))
            np.add.at(counts, draws, 1)
    elif d < 0:
        # The -d uniforms drawn at once are those drawn one at a time.
        for u in rng.random(-d):
            cand = np.flatnonzero(counts > 0)
            p = frac[cand]
            if p.sum() == 0:
                p = counts[cand].astype(float)
            counts[cand[_pick(p / p.sum(), u)]] -= 1

    return counts


def synthesize(
    weight_matrix, zone_populations, seed: int, *, fallbacks: list | None = None
) -> SyntheticPopulation:
    """Apply trs_zone per zone with independent per-zone RNG streams, to one
    expanded weight column at a time.

    `zone_populations` are the integer zone targets (reference constraint
    totals rounded half-up). Deterministic for a fixed seed, independent of
    zone execution order. A list given as `fallbacks` collects, in zone
    order, the ids of the zones where trs_zone left systematic PPS: the
    zones whose stream was asked for an array."""
    spec = RngSpec(seed)
    targets = np.asarray(zone_populations, dtype=np.int64)
    n = len(weight_matrix.record_ids)

    def columns():
        for zi, zone in enumerate(weight_matrix.zone_ids):
            try:
                stream = spec.stream(zi)
                weights = weight_matrix.column(zi)
                counts = trs_zone(weights, int(targets[zi]), stream)
            except ValueError as exc:
                raise ValueError(f"zone {zone!r}: {exc}") from exc
            if fallbacks is not None and stream.drew_array:
                fallbacks.append(zone)
            yield counts

    # A zone holds at most one count per person and one per record.
    capacity = int(np.minimum(np.maximum(targets, 0), n).sum())
    return SyntheticPopulation.from_columns(
        columns(), weight_matrix.zone_ids, weight_matrix.record_ids, capacity
    )


def round_half_up(x) -> np.ndarray:
    """Round zone population targets half-up (census counts should already be
    integers; this guards pre-scaled inputs)."""
    return np.floor(np.asarray(x, dtype=float) + 0.5).astype(np.int64)
