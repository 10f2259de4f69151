"""Deterministic streaming quantile sketch (KLL-style compactors).

The windowed serving series (:mod:`repro.obs.timeseries`) answer
"what was p99 in *this* window"; this module answers "what are the
deep tails of the *whole* stream" — p999/p9999 — without retaining
every sample.  A :class:`QuantileSketch` keeps a ladder of compactor
buffers: level ``h`` holds items that each represent ``2**h``
original observations.  When a level fills past its capacity ``k``,
its buffer is sorted and every second item is promoted one level up
(weight doubles), halving the footprint.

Two properties matter here more than asymptotic optimality:

* **Determinism.**  Classic KLL flips a coin per compaction to decide
  whether the even- or odd-indexed survivors are kept.  That would
  poison the repo's byte-identical-export contracts, so the schedule
  here is *deterministic*: each level alternates parity, starting
  with the even offset.  Same stream -> same sketch -> same bytes.
* **A checkable error contract.**  :meth:`rank_error_bound` returns a
  bound ``B`` (in ranks) such that for any query the true rank of the
  returned value is within ``B`` of the target rank.  The bound is
  computed from what actually happened — levels that never compacted
  contribute nothing — so a stream shorter than ``k`` is *exact*
  (``B == 0``).  ``tests/test_obs_sketch.py`` property-tests the
  contract against exact sorted ranks.

Why the bound holds: one compaction at level ``h`` keeps either the
even- or odd-indexed half of the sorted buffer.  For any threshold
``x``, the estimated rank (sum of surviving weights ``<= x``) moves by
at most ``2**h`` — upward for the even offset, downward for the odd.
Because parities strictly alternate per level, the running error at
level ``h`` stays within ``±2**h`` no matter how many compactions run
(partial sums of alternating terms each in ``[0, 2**h]``).  Summing
over compacted levels ``h < H`` gives ``B_levels < 2**H``; a query can
additionally miss by the weight of the item it lands on (``<= 2**H``).
Since level ``H`` only exists once ``>= k/2`` items were promoted into
it, ``2**H <= 4N/k`` — the relative rank error is ``O(1/k)``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

#: Default compactor capacity: relative rank error <= ~8/k = 0.2%,
#: comfortably inside p999 resolution for streams up to ~1e6 samples
#: while holding O(k log(N/k)) floats.
DEFAULT_K = 4096


class QuantileSketch:
    """Streaming rank sketch with a deterministic compaction schedule.

    ``k`` is the per-level compactor capacity; memory is
    ``O(k log(n/k))`` floats and the rank-error bound scales as
    ``O(n/k)`` (see the module docstring for the exact accounting).
    """

    __slots__ = ("k", "n", "_levels", "_parity", "_compactions")

    def __init__(self, k: int = DEFAULT_K) -> None:
        if k < 2:
            raise ValueError("sketch capacity k must be >= 2")
        self.k = int(k)
        #: Total observations inserted (sum of retained weights).
        self.n = 0
        self._levels: List[List[float]] = [[]]
        #: Next compaction offset per level (0 keeps even indices, 1
        #: keeps odd) — alternated deterministically instead of the
        #: classic coin flip.
        self._parity: List[int] = [0]
        #: Compactions performed per level (drives the error bound).
        self._compactions: List[int] = [0]

    def insert(self, value: float) -> None:
        """Insert one observation (weight 1)."""
        self._levels[0].append(float(value))
        self.n += 1
        if len(self._levels[0]) >= self.k:
            self._compress()

    def extend(self, values) -> None:
        for value in values:
            self.insert(value)

    def _compress(self) -> None:
        """Compact every over-full level, bottom-up."""
        level = 0
        while level < len(self._levels):
            buffer = self._levels[level]
            if len(buffer) < self.k:
                level += 1
                continue
            buffer.sort()
            # Compact the even-length prefix; an odd leftover stays.
            pairs = len(buffer) // 2
            offset = self._parity[level]
            self._parity[level] ^= 1
            self._compactions[level] += 1
            survivors = buffer[offset : 2 * pairs : 2]
            leftover = buffer[2 * pairs :]
            if level + 1 == len(self._levels):
                self._levels.append([])
                self._parity.append(0)
                self._compactions.append(0)
            self._levels[level + 1].extend(survivors)
            self._levels[level] = leftover
            level += 1

    # -- queries ---------------------------------------------------------

    def _weighted_items(self) -> List[Tuple[float, int]]:
        items: List[Tuple[float, int]] = []
        for level, buffer in enumerate(self._levels):
            weight = 1 << level
            items.extend((value, weight) for value in buffer)
        items.sort()
        return items

    def quantile(self, q: float) -> float:
        """The q-th percentile (0-100): smallest retained value whose
        cumulative (estimated) rank reaches the target."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if self.n == 0:
            return 0.0
        items = self._weighted_items()
        target = q / 100.0 * self.n
        cumulative = 0
        for value, weight in items:
            cumulative += weight
            if cumulative >= target:
                return value
        return items[-1][0]

    def rank_error_bound(self) -> int:
        """Worst-case |true rank - target rank| for any quantile query.

        Sum of ``2**h`` over every level that has compacted at least
        once (the alternating-parity drift bound), plus the coarsest
        retained weight (query granularity).  0 when nothing has been
        compacted — the sketch still holds every sample exactly.
        """
        drift = sum(
            1 << level
            for level, compactions in enumerate(self._compactions)
            if compactions
        )
        if drift == 0:
            return 0
        top_weight = max(
            (1 << level for level, buf in enumerate(self._levels) if buf),
            default=1,
        )
        return drift + top_weight

    @property
    def retained(self) -> int:
        """Items currently held (the memory footprint in floats)."""
        return sum(len(buffer) for buffer in self._levels)

    def as_dict(self) -> dict:
        """Export payload: tail quantiles plus the error contract."""
        return {
            "k": self.k,
            "n": self.n,
            "retained": self.retained,
            "rank_error_bound": self.rank_error_bound(),
            "p99_ns": self.quantile(99.0),
            "p999_ns": self.quantile(99.9),
            "p9999_ns": self.quantile(99.99),
            "max_ns": self.quantile(100.0),
        }


def resolve_sketch(k: Optional[int]) -> Optional[QuantileSketch]:
    """``None`` disables sketching; a capacity builds one."""
    return None if k is None else QuantileSketch(k)
