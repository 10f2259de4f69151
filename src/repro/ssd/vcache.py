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

Timing model: cached vectors stream from controller DRAM at
:data:`DRAM_BYTES_PER_CYCLE` (a conservative single-channel DDR share
at the 200 MHz controller clock), overlapping the flash reads of the
same batch; the embedding stage ends when the slower of the two
streams drains.  Capacity is counted in *vectors* — the unit the EV
Sum consumes — so ``--vcache-vectors`` maps directly onto controller
DRAM bytes via ``capacity * EVsize``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple

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
    if vectors <= 0:
        return 0.0
    return vectors * (ev_size / DRAM_BYTES_PER_CYCLE)


#: ``Probe.refs`` value of a lookup that missed the cache.
MISS = np.iinfo(np.int64).min


@dataclass
class Probe:
    """Decisions of one batch probe; :meth:`VectorCache.bind` adds bytes.

    ``refs`` holds one entry per probed key, in issue order: an arena
    slot (``>= 0``) for a hit on a vector resident before the batch,
    :data:`MISS` for a miss, or ``~p`` for a hit on a key that the miss
    at stream position ``p`` of the *same* batch filled.  The four
    counts are the batch's own (the cache's counters are cumulative).
    """

    refs: np.ndarray
    hits: int
    misses: int
    evictions: int
    fills: int

    def miss_positions(self) -> np.ndarray:
        return np.flatnonzero(self.refs == MISS)


class VectorCache:
    """Fixed-capacity cache of embedding vectors in controller DRAM.

    Keys are ``(table_id, row_index)`` pairs; values are the vector's
    fp32 contents (so a hit returns bit-identical data to the flash
    read it absorbs), held in one ``(capacity, dim)`` arena of slots.
    All statistics are cumulative across batches; :attr:`hit_ratio` is
    the replayable Fig. 14 metric.
    """

    def __init__(
        self,
        capacity_vectors: int,
        policy: str = "lru",
        admit_after: int = DEFAULT_ADMIT_AFTER,
        ev_size: int = 0,
    ) -> None:
        if capacity_vectors < 0:
            raise ValueError("capacity must be non-negative")
        if policy not in POLICIES:
            raise ValueError(
                f"unknown vcache policy {policy!r}; expected one of {POLICIES}"
            )
        if admit_after < 1:
            raise ValueError("admit_after must be >= 1")
        self.capacity_vectors = capacity_vectors
        self.policy = policy
        self.admit_after = admit_after
        #: Bytes per cached vector (0 when unknown; set by the engine).
        self.ev_size = ev_size
        # Key -> arena slot in LRU order; between a probe and its bind,
        # a key the batch filled maps to ``~position`` instead.
        self._slots: "OrderedDict[Hashable, int]" = OrderedDict()
        self._free = list(range(capacity_vectors))
        #: ``(capacity, dim)`` float32, allocated by the first fill.
        self._arena: Optional[np.ndarray] = None
        #: Fills of the last probe still resident and awaiting bind.
        self._unbound = 0
        # Doorkeeper miss counts for the "freq" policy.
        self._freq: Dict[Hashable, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.fills = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._slots

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
    def probe(self, keys: Iterable[Hashable]) -> Probe:
        """Probe ``keys`` in issue order; fill per policy on a miss.

        Pure key bookkeeping: hit / miss / admit / evict decisions, LRU
        order, doorkeeper counts and the cumulative counters advance
        exactly as one probe per key would advance them, and no vector
        is read or written.  Bytes move in :meth:`bind`, which must run
        before the next probe whenever the batch admitted anything.
        """
        if self._unbound:
            raise RuntimeError("the previous probe's fills were never bound")
        slots = self._slots
        slot_of = slots.get
        touch = slots.move_to_end
        capacity = self.capacity_vectors
        admit_after = self.admit_after
        fill_only = self.policy == "static"
        doorkeeper = self._freq if self.policy == "freq" else None
        free = self._free
        refs: List[int] = []
        fills = evictions = dropped = 0
        for key in keys:
            ref = slot_of(key)
            if ref is not None:
                touch(key)
                refs.append(ref)
                continue
            refs.append(MISS)
            if capacity == 0:
                continue
            if fill_only:
                if len(slots) >= capacity:
                    continue
            elif doorkeeper is not None:
                seen = doorkeeper.get(key, 0) + 1
                doorkeeper[key] = seen
                if seen < admit_after:
                    continue
            if len(slots) >= capacity:
                # A slot freed here is handed out again only by bind,
                # after the batch's hits on its old occupant were read;
                # a fill of this batch evicted again just disappears.
                old = slots.popitem(last=False)[1]
                evictions += 1
                if old >= 0:
                    free.append(old)
                else:
                    dropped += 1
            slots[key] = -len(refs)
            fills += 1
        out = np.array(refs, dtype=np.int64)
        misses = int(np.count_nonzero(out == MISS))
        self._unbound = fills - dropped
        self.hits += len(refs) - misses
        self.misses += misses
        self.evictions += evictions
        self.fills += fills
        return Probe(out, len(refs) - misses, misses, evictions, fills)

    def bind(self, probe: Probe, rows: np.ndarray) -> None:
        """Resolve the bytes of one probed batch, in place in ``rows``.

        ``rows`` is ``(len(keys), dim)`` float32 with every miss row
        already gathered from flash.  Hit rows are copied in — from the
        arena, or from the same-batch miss that filled the key — and
        then the fills still resident after the whole batch are copied
        out into free arena slots.  A key filled and evicted again
        within the batch never reaches the arena.
        """
        refs = probe.refs
        resident = np.flatnonzero(refs >= 0)
        if resident.size:
            rows[resident] = self._arena[refs[resident]]
        fresh = np.flatnonzero((refs < 0) & (refs != MISS))
        if fresh.size:
            rows[fresh] = rows[~refs[fresh]]
        if self._unbound:
            # Everything the batch touched sits at the recent end.
            slots = self._slots
            keys: List[Hashable] = []
            positions: List[int] = []
            for key, ref in reversed(slots.items()):
                if ref < 0:
                    keys.append(key)
                    positions.append(~ref)
                    if len(keys) == self._unbound:
                        break
            taken = self._free[-len(keys):]
            del self._free[-len(keys):]
            slots.update(zip(keys, taken))
            self._arena_for(rows.shape[1])[taken] = rows[positions]
            self._unbound = 0

    def _arena_for(self, dim: int) -> np.ndarray:
        if self._arena is None:
            self._arena = np.empty((self.capacity_vectors, dim), dtype=np.float32)
        return self._arena

    def access(
        self, key: Hashable, loader: Callable[[], np.ndarray]
    ) -> Optional[np.ndarray]:
        """One-key :meth:`probe` + :meth:`bind`.

        Returns a copy of the cached vector on a hit (refreshing
        recency) or ``None`` on a miss.  ``loader`` is only called when
        the policy admits the vector — it fetches the fp32 contents
        functionally.
        """
        probe = self.probe((key,))
        if probe.hits:
            return self._arena[probe.refs[0]].copy()
        if probe.fills:
            self.bind(probe, np.array(loader(), dtype=np.float32, ndmin=2))
        return None

    # ------------------------------------------------------------------
    # Warming (static-hot pinning; usable by any policy)
    # ------------------------------------------------------------------
    def warm(
        self, items: Iterable[Tuple[Hashable, np.ndarray]]
    ) -> int:
        """Pre-fill with ``(key, vector)`` pairs, oldest first.

        Stops at capacity; already-present keys are refreshed without
        consuming a slot.  Does not touch the hit/miss statistics.
        Returns the number of vectors now resident.
        """
        slots = self._slots
        for key, value in items:
            slot = slots.get(key)
            if slot is not None:
                slots.move_to_end(key)
            elif len(slots) >= self.capacity_vectors:
                break
            else:
                slot = slots[key] = self._free.pop()
            self._arena_for(len(value))[slot] = value
        return len(slots)

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
        self._slots.clear()
        self._free = list(range(self.capacity_vectors))
        self._unbound = 0
        self._freq.clear()
        self.reset_stats()
