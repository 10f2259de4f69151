"""Controller-DRAM hot-vector cache for the RM-SSD lookup path.

The paper argues RM-SSD wins over RecSSD partly because it keeps *no*
cache on the critical path (Section VI-C, Fig. 14): its throughput is
locality-invariant by construction.  RecSSD (Wilkening et al.) and
RecFlash make the opposite bet — skewed embedding access patterns let a
small cache of hot vectors absorb most flash reads.  This module makes
that trade-off *measurable* instead of asserted: an optional cache of
embedding vectors held in controller DRAM, consulted by the Embedding
Lookup Engine **before** EV translation.  A hit skips the FTL pass and
the flash read entirely and is handed straight to the EV Sum unit after
a short DRAM fetch; only misses reach the flash channels, so absorbed
reads decrement per-channel load one for one.

Three admission policies cover the design space the related systems
explore:

* ``"lru"`` — classic probe-and-fill with LRU eviction (RecSSD's
  host-cache discipline, moved into the device);
* ``"freq"`` — frequency-gated admission: a vector is only admitted
  after it has missed ``admit_after`` times (TinyLFU-style doorkeeper),
  which keeps the cold tail of Fig. 4's access pattern from flushing
  the hot set;
* ``"static"`` — static-hot (RecFlash): the cache fills once — either
  explicitly via :meth:`VectorCache.warm` with a profiled hot set, or
  lazily on first misses — and is never evicted afterwards.

Cache decisions are pure functions of the probe sequence, so the DES
path and the vectorized fast path — which probe in the same issue
order — produce identical hit sets, identical timing, and identical
span trees (the PR 2 bitwise-equivalence contract, extended by
``tests/test_vcache_equivalence.py``).

A batch is probed as one array program over int64 key codes
(:func:`encode`), not key by key (:func:`_stack_hits`): ``"freq"`` and
``"static"`` are the same LRU over the accesses they admit.  The
reference is the per-key model in ``tests/test_vcache_probe.py``.

Timing model: cached vectors stream from controller DRAM at
:data:`DRAM_BYTES_PER_CYCLE` (a conservative single-channel DDR share
at the 200 MHz controller clock), overlapping the flash reads of the
same batch; the embedding stage ends when the slower of the two
streams drains.  Capacity is counted in *vectors* — the unit the EV
Sum consumes — so ``--vcache-vectors`` maps directly onto controller
DRAM bytes via ``capacity * EVsize``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

#: Admission policies understood by :class:`VectorCache`.
POLICIES = ("lru", "freq", "static")

#: Controller-DRAM streaming bandwidth seen by the EV Sum unit, in
#: bytes per controller cycle (64-bit interface at the 200 MHz clock).
#: A 64 B vector costs 8 cycles — far below its ~2800-cycle flash read.
DRAM_BYTES_PER_CYCLE = 8.0

#: Default miss count before ``"freq"`` admits a vector.
DEFAULT_ADMIT_AFTER = 2


def fetch_cycles(vectors: int, ev_size: int) -> float:
    """Controller cycles to stream ``vectors`` cached EVs from DRAM.

    The fetches of one batch are serialized on the DRAM interface but
    overlap the flash reads of the same batch's misses; the lookup
    engine charges ``max(flash, dram)`` for the combined stage.
    """
    return max(vectors, 0) * (ev_size / DRAM_BYTES_PER_CYCLE)


#: ``_stack_hits`` counts its ``q`` leftover windows one by one while their total
#: length is at most this times ``(R + n) * q.bit_length()``, the wavelet's work.
DIRECT_COUNT_WIDTH = 12

#: An access at most this far after its key's previous one repeats a key of any
#: window it lies this far into; 64 cuts lookup_rmc1_vcache's counts 155 -> 21.
NEAR_GAP = 64

#: ``Probe.refs`` value of a lookup that missed the cache.
MISS = np.iinfo(np.int64).min


def _integers(name: str, values) -> np.ndarray:
    """``values`` as a 1-D int64 array; refused unless integers (or empty)."""
    array = np.asarray(values)
    if array.ndim != 1 or (array.size and array.dtype.kind not in "iu"):
        raise ValueError(f"{name} must be 1-D integers, got {array.dtype} {array.shape}")
    return array.astype(np.int64, copy=False)


def encode(tables, rows) -> np.ndarray:
    """The cache key of each ``(table, row)``: ``(table << 32) | row``."""
    tables, rows = _integers("tables", tables), _integers("rows", rows)
    if tables.size and (
        min(tables.min(), rows.min()) < 0 or tables.max() >> 31 or rows.max() >> 32
    ):
        raise ValueError("vector-cache keys need 0 <= table < 2**31, 0 <= row < 2**32")
    return (tables << 32) | rows


def _previous(stream: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable sort ``order`` of ``stream``, the sorted positions that
    ``start`` a key, and each position's previous occurrence (-1: none)."""
    n = stream.size
    shift = max(n - 1, 1).bit_length()
    if n and (stream.min() < 0 or stream.max() >> (63 - shift)):
        stream = np.unique(stream, return_inverse=True)[1]
    # Sorting ``key << shift | position`` is the stable argsort, ~5x faster.
    ordered = np.sort(stream << shift | np.arange(n))
    order = ordered & ((1 << shift) - 1)
    ordered >>= shift
    start = np.concatenate((ordered[:1] >= 0, ordered[1:] != ordered[:-1]))
    # Each sorted position's predecessor, -1 where its key starts.
    ordered[1:] = order[:-1]
    ordered[start] = -1
    prev = np.empty(n, dtype=np.int64)
    prev[order] = ordered
    return order, start, prev


def _carry(order: np.ndarray, start: np.ndarray, own: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Each position's ``own`` at its key's latest non-:data:`MISS`
    position up to it, by position and in ``order``; and each key's
    last position, oldest first."""
    ordered = own[order]
    source = start | (ordered != MISS)
    ordered = ordered[np.maximum.accumulate(np.where(source, np.arange(order.size), 0))]
    carried = np.empty_like(own)
    carried[order] = ordered
    return carried, ordered, np.sort(order[np.append(start[1:], start[:1])])


def _count_below(
    values: np.ndarray, lo: np.ndarray, hi: np.ndarray, limit: np.ndarray
) -> np.ndarray:
    """``#{j in [lo, hi) : values[j] < limit}`` per query, for ``values``
    in ``[-1, n)`` and ``limit`` in ``[0, n)``: one wavelet matrix over
    ``values`` rank-compressed to the limits, O((n + queries) log queries).
    Its arrays are int32 (``n < 2**30``): batch-sized int64 temporaries
    cost more than the arithmetic."""
    rank = np.zeros(values.size + 1, dtype=np.int32)
    rank[limit + 1] = 1
    np.cumsum(rank, out=rank)
    values, limit = rank[values + 1], rank[limit + 1].astype(np.int64)
    count = np.zeros(lo.size, dtype=np.int64)
    index = np.arange(values.size, dtype=np.int32)
    zeros = np.zeros(values.size + 1, dtype=np.int32)
    for bit in range(int(rank[-1]).bit_length() - 1, -1, -1):
        # Bits above ``bit`` are spent, so each shift is 0 or 1.
        high, up = values >> bit, limit >> bit
        np.cumsum(1 - high, out=zeros[1:])
        nz, below = int(zeros[-1]), zeros[:-1]
        # A limit with this bit set counts the range's zeros and follows
        # its ones; otherwise the query follows the zeros.
        at_lo, at_hi = zeros[lo], zeros[hi]
        count += up * (at_hi - at_lo)
        lo = at_lo + up * (nz + lo - 2 * at_lo)
        hi = at_hi + up * (nz + hi - 2 * at_hi)
        limit &= (1 << bit) - 1
        # Stable partition: zeros to below[i], ones to nz + i - below[i].
        values[below + high * (nz + index - 2 * below)] = values & ((1 << bit) - 1)
    return count


def _stack_hits(prev: np.ndarray, resident: int, capacity: int) -> np.ndarray:
    """LRU hit mask of ``stream[resident:]``: fewer than ``capacity``
    distinct keys occur strictly between an access ``t`` and its previous
    one ``p``, i.e. ``#{j in (p, t) : prev[j] < p} < capacity``.  No ``p``
    is a miss; a gap under ``capacity``, or at most ``capacity`` keys in
    all, a hit; ``capacity`` never-seen keys in the gap a miss; under
    ``capacity`` accesses bar its :data:`NEAR_GAP` repeats, a hit.  The
    rest are counted, window by window while short (:data:`DIRECT_COUNT_WIDTH`)."""
    t, p = np.arange(resident, prev.size), prev[resident:]
    fresh = np.cumsum(prev < 0)
    if not fresh.size or fresh[-1] <= capacity:
        return p >= 0
    gap, seen = t - p, p >= 0
    hit = seen & (gap <= capacity)
    open_ = np.flatnonzero(seen & ~hit)
    near = np.zeros(prev.size + 1, dtype=np.int64)
    np.cumsum(gap <= NEAR_GAP, out=near[resident + 1 :])
    p, t = p[open_], t[open_]
    few = t - p - 1 - near[t] + near[np.minimum(p + NEAR_GAP, t)] < capacity
    hit[open_[few]] = True
    keep = ~few & (fresh[t - 1] - fresh[p] < capacity)
    open_, p, t = open_[keep], p[keep], t[keep]
    if (t - p).sum() > DIRECT_COUNT_WIDTH * prev.size * open_.size.bit_length():
        hit[open_] = _count_below(prev, p + 1, t, p) < capacity
    else:
        for at, a, b in zip(open_.tolist(), p.tolist(), t.tolist()):
            hit[at] = np.count_nonzero(prev[a + 1 : b] < a) < capacity
    return hit


def _at_least(name: str, value, least: int) -> int:
    """``value`` as an int; refused unless an integer (not a bool) ``>= least``."""
    integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not integer or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


@dataclass
class Probe:
    """Decisions of one batch probe; :meth:`VectorCache.bind` adds bytes.

    ``refs`` holds one entry per probed key, in issue order: an arena
    slot (``>= 0``) for a hit on a vector resident before the batch,
    :data:`MISS` for a miss, or ``~p`` for a hit on a key that the miss
    at stream position ``p`` of the *same* batch filled; ``miss_positions``
    lists the misses.  The counts are the batch's (the cache's are cumulative).
    """

    refs: np.ndarray
    hits: int
    misses: int
    evictions: int
    fills: int
    miss_positions: np.ndarray


class VectorCache:
    """Fixed-capacity cache of embedding vectors in controller DRAM.

    Keys are ``(table_id, row_index)`` pairs, as :func:`encode` codes;
    values are the vector's fp32 contents (so a hit returns bit-identical
    data to the flash read it absorbs), held in one ``(capacity, dim)``
    arena of slots.  All statistics are cumulative across batches;
    :attr:`hit_ratio` is the replayable Fig. 14 metric.
    """

    def __init__(
        self,
        capacity_vectors: int,
        policy: str = "lru",
        admit_after: int = DEFAULT_ADMIT_AFTER,
        ev_size: int = 0,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(
                f"unknown vcache policy {policy!r}; expected one of {POLICIES}"
            )
        self.capacity_vectors = _at_least("capacity_vectors", capacity_vectors, 0)
        self.policy = policy
        self.admit_after = _at_least("admit_after", admit_after, 1)
        #: Bytes per cached vector (0 when unknown; set by the engine).
        self.ev_size = _at_least("ev_size", ev_size, 0)
        #: ``(capacity, dim)`` float32, allocated by the first fill.
        self._arena: Optional[np.ndarray] = None
        self.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._codes.size

    def __contains__(self, key: Tuple[int, int]) -> bool:
        return bool(np.any(self._codes == encode([key[0]], [key[1]])))

    @property
    def capacity_bytes(self) -> int:
        return self.capacity_vectors * self.ev_size

    @property
    def lookups(self) -> int:
        """Total probes observed (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VectorCache(capacity={self.capacity_vectors}, "
            f"policy={self.policy!r}, size={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )

    # ------------------------------------------------------------------
    # Probe (decide) and bind (move bytes): one pair per batch
    # ------------------------------------------------------------------
    def probe(self, keys: np.ndarray) -> Probe:
        """Probe the key codes ``keys`` in issue order; fill per policy
        on a miss.

        Pure key bookkeeping: hit / miss / admit / evict decisions, LRU
        order, doorkeeper counts and the cumulative counters advance
        exactly as one probe per key would advance them, and no vector
        is read or written.  Bytes move in :meth:`bind`, which must run
        before the next probe whenever the batch admitted anything.
        """
        if self._unbound:
            raise RuntimeError("the previous probe's fills were never bound")
        keys = _integers("keys", keys)
        refs = np.full(keys.size, MISS, dtype=np.int64)
        evictions, fills = self.evictions, self.fills
        start = 0
        while self.capacity_vectors and start < keys.size:
            start = self._fill(keys, refs, start)
        missed = np.flatnonzero(refs == MISS)
        self._unbound = int(np.count_nonzero(self._refs < 0))
        self.hits += keys.size - missed.size
        self.misses += missed.size
        batch = (self.evictions - evictions, self.fills - fills)
        return Probe(refs, keys.size - missed.size, missed.size, *batch, missed)

    def _fill(self, keys: np.ndarray, refs: np.ndarray, start: int) -> int:
        """LRU over the admitted accesses of ``keys[start:]``; returns
        where it stopped.

        A ``warm()``-pinned key below the doorkeeper threshold rejects
        misses once evicted, which the admission mask, computed up front,
        cannot know: the run is cut at its first miss, exact up to there.
        """
        stop, capacity, resident = keys.size, self.capacity_vectors, self._codes.size
        low = self._codes[:0]
        if self.policy == "freq":
            low = self._codes[self._seen(self._codes) < self.admit_after - 1]
        while True:
            kept = start + self._admitted(keys[start:stop])
            admitted = keys[kept] if kept.size < stop - start else keys[start:stop]
            stream = np.concatenate((self._codes, admitted))
            order, begin, prev = _previous(stream)
            hit = _stack_hits(prev, resident, capacity)
            cut = kept[~hit & np.isin(keys[kept], low)] if low.size else low
            if not cut.size:
                break
            stop = int(cut[0])
        own = np.concatenate((self._refs, np.where(hit, MISS, ~kept)))
        own, ordered, last = _carry(order, begin, own)
        at = np.flatnonzero(hit)
        refs[kept[at]] = own[resident + at]
        final = last[-capacity:]
        # A residency ends where its run of equal ``own`` ends, inside its key's
        # accesses or at the last (bar the final keys'): evicted in that order.
        inside = np.flatnonzero((ordered[1:] != ordered[:-1]) & ~begin[1:])
        gone = np.sort(np.concatenate((order[inside], last[:-capacity])))
        freed = own[gone]
        self._free = np.concatenate((self._free, freed[freed >= 0]))
        self._codes, self._refs = stream[final], own[final]
        self.evictions += gone.size
        self.fills += kept.size - int(np.count_nonzero(hit))
        if self.policy == "freq":
            missed = keys[start:stop][refs[start:stop] == MISS]
            merged = np.concatenate((self._door_keys, missed))
            self._door_keys, inverse = np.unique(merged, return_inverse=True)
            weights = np.concatenate((self._door_counts, np.ones(missed.size)))
            self._door_counts = np.bincount(inverse, weights).astype(np.int64)
        return stop

    def _admitted(self, keys: np.ndarray) -> np.ndarray:
        """Positions of the accesses the policy lets into LRU: all; under
        ``"static"`` those of keys resident or first seen while there is
        room; under ``"freq"`` all but a non-resident key's first
        ``max(0, admit_after - 1 - count)``."""
        if self.policy == "lru":
            return np.arange(keys.size)
        if self.policy == "static":
            new = self._first_new(keys)[: self.capacity_vectors - len(self)]
            return np.flatnonzero(np.isin(keys, np.concatenate((self._codes, keys[new]))))
        order, start, _ = _previous(keys)
        index = np.arange(keys.size)
        rank = index - np.maximum.accumulate(np.where(start, index, 0))
        ordered = keys[order]
        need = np.maximum(self.admit_after - 1 - self._seen(ordered), 0)
        admitted = np.empty(keys.size, dtype=bool)
        admitted[order] = rank >= np.where(np.isin(ordered, self._codes), 0, need)
        return np.flatnonzero(admitted)

    def _first_new(self, keys: np.ndarray) -> np.ndarray:
        """Positions of the first access of each non-resident key, in order."""
        _, first = np.unique(keys, return_index=True)
        return np.sort(first[~np.isin(keys[first], self._codes)])

    def _seen(self, keys: np.ndarray) -> np.ndarray:
        """Doorkeeper miss counts of ``keys``."""
        at = np.searchsorted(self._door_keys, keys).clip(max=self._door_keys.size - 1)
        return np.where(self._door_keys[at] == keys, self._door_counts[at], 0)

    def bind(self, probe: Probe, rows: np.ndarray, out=None) -> np.ndarray:
        """Every row of one probed batch in issue order, into ``out`` (a
        new block when ``None``), which is returned: ``rows``, the
        ``(misses, dim)`` float32 block the misses read from flash, and
        each hit's row from the arena or the same-batch miss that filled
        its key.  Then the fills still resident after the batch are copied
        into free arena slots, the oldest fill taking the top of the stack.
        """
        m, dim = probe.misses, getattr(self._arena, "shape", rows.shape)[1:]
        if rows.dtype != np.float32 or rows.ndim != 2 or rows.shape != (m, *dim):
            shape = f"({m}, {dim[0] if dim else 'dim'})"
            raise ValueError(f"rows must be float32 {shape}, got {rows.dtype} {rows.shape}")
        if not rows.shape[1]:
            out = np.empty((probe.refs.size, 0), dtype=np.float32)
        else:
            # One gather from [arena; rows]; scattering the rows cost ~1.8x as much.
            index, misses = probe.refs.copy(), probe.miss_positions
            index[misses] = np.arange(self.capacity_vectors, self.capacity_vectors + m)
            fresh = np.flatnonzero(index < 0)
            index[fresh] = self.capacity_vectors + np.searchsorted(misses, ~index[fresh])
            source = np.concatenate((self._arena_for(rows.shape[1]), rows))
            out = np.take(source, index, axis=0, out=out, mode="clip")
        if self._unbound:
            pending = np.flatnonzero(self._refs < 0)
            taken = self._free[::-1][: pending.size]
            self._free = self._free[: self._free.size - pending.size]
            self._arena_for(rows.shape[1])[taken] = out[~self._refs[pending]]
            self._refs[pending] = taken
            self._unbound = 0
        return out

    def hit_mask(self, keys: np.ndarray) -> np.ndarray:
        """Whether each key hit: :meth:`probe` + :meth:`bind` of a key-only
        cache (a page cache, a hit-ratio replay), moving no vector byte."""
        probe = self.probe(keys)
        self.bind(probe, np.empty((probe.misses, 0), dtype=np.float32))
        return probe.refs != MISS

    def _arena_for(self, dim: int) -> np.ndarray:
        if self._arena is None:
            self._arena = np.empty((self.capacity_vectors, dim), dtype=np.float32)
        return self._arena

    def access(
        self, key: Tuple[int, int], loader: Callable[[], np.ndarray]
    ) -> Optional[np.ndarray]:
        """One-key :meth:`probe` + :meth:`bind` of a ``(table, row)`` key.

        Returns a copy of the cached vector on a hit (refreshing
        recency) or ``None`` on a miss.  ``loader`` is only called when
        the policy admits the vector — it fetches the fp32 contents
        functionally.
        """
        probe = self.probe(encode([key[0]], [key[1]]))
        if probe.hits:
            return self._arena[probe.refs[0]].copy()
        if probe.fills:
            self.bind(probe, np.array(loader(), dtype=np.float32, ndmin=2))
        return None

    # ------------------------------------------------------------------
    # Warming (static-hot pinning; usable by any policy)
    # ------------------------------------------------------------------
    def warm(self, keys: np.ndarray, vectors) -> int:
        """Pre-fill with the key codes ``keys`` and their ``vectors``,
        oldest first.

        Stops at the first new key that finds the cache full; present
        keys are refreshed (last vector wins) without consuming a slot.
        Does not touch the hit/miss statistics.  Returns the number of
        vectors now resident.
        """
        keys = _integers("keys", keys)
        if not keys.size:
            return len(self)
        vectors = np.asarray(vectors, dtype=np.float32).reshape(keys.size, -1)
        first = self._first_new(keys)
        room, resident = self.capacity_vectors - len(self), len(self)
        if first.size > room:
            keys, vectors = keys[: first[room]], vectors[: first[room]]
            first = first[:room]
        own = np.concatenate((self._refs, np.full(keys.size, MISS)))
        own[resident + first] = self._free[::-1][: first.size]
        self._free = self._free[: self._free.size - first.size]
        stream = np.concatenate((self._codes, keys))
        own, _, last = _carry(*_previous(stream)[:2], own)
        self._codes, self._refs = stream[last], own[last]
        fresh = last[last >= resident]
        if fresh.size:
            self._arena_for(vectors.shape[1])[own[fresh]] = vectors[fresh - resident]
        return len(self)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.fills = 0

    def clear(self) -> None:
        """Drop all entries, doorkeeper state, and statistics."""
        # Resident keys oldest first and their arena slots; from a probe
        # to its bind, a key the batch filled holds ``~position``.
        self._codes = np.empty(0, dtype=np.int64)
        self._refs = np.empty(0, dtype=np.int64)
        self._free = np.arange(self.capacity_vectors, dtype=np.int64)
        #: Fills of the last probe still resident and awaiting bind.
        self._unbound = 0
        # Doorkeeper miss counts of the "freq" policy, by sorted key
        # after a -1 that no key matches.
        self._door_keys, self._door_counts = np.array([-1]), np.array([0])
        self.reset_stats()
