"""The one replay of a unit-capacity FIFO :class:`~repro.sim.resources.Server`.

Every stage the simulator models is one (FTL MUX, channel buses, the
Eq. 1 engines, the host pre-send stages).  ``Server.serve`` stays the
reference and the oracle of ``tests/test_maxplus.py``; the fast paths
call this module instead.  Its exactness rules, stated once:

* ``max(t, free)`` is spelled ``t if t >= free else free``: the DES's
  ``max()`` keeps its first argument on ties, signed zeros included.
* The caller resumes at ``t + (finish - t)`` (``sim.timeout(finish -
  now)``), not at ``finish``; the round trip is not always exact.
* Sums — back-to-back finishes, busy time — are sequential
  (``np.add.accumulate`` or a left-to-right loop), never a closed form.
  A closed form may only *predict* (:func:`_guess_run_heads`), and a
  prediction is verified before use (:func:`_verified`).

``repro.ssd.fastpath._step_reads`` keeps one inline statement of the
step by these rules: a call per read would add ~20 ns to a ~0.5 us
step that whole channels run through.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

#: Below this many jobs the reference loop beats the segmented scan:
#: the scan's fixed cost (~0.2 ms of small numpy calls) buys about
#: 1000 loop steps on the benchmark box (loop 105/230/375 us vs scan
#: 190/210/250 us at 512/1024/2048 jobs).  Both are bitwise-identical,
#: so the threshold is pure performance.
VECTOR_MIN_JOBS = 1024


def serve(t: float, free: float, duration: float) -> Tuple[float, float, float]:
    """A job offered at ``t`` to a server free at ``free``: ``(start,
    finish, resume)``, ``finish`` being the server's next ``free``."""
    start = t if t >= free else free
    finish = start + duration
    return start, finish, t + (finish - t)


def resume(t, finish):
    """When a caller that offered at ``t`` resumes (scalars or arrays)."""
    return t + (finish - t)


def busy_sum(busy: float, durations) -> float:
    """``Server.busy_time`` after one ``serve`` per duration."""
    return _accumulate(busy, durations).item(-1)


def serve_burst(t: float, free: float, durations) -> Tuple[np.ndarray, ...]:
    """Jobs all offered at one instant ``t``: ``(starts, finishes,
    resumes)`` in issue order.  They form one busy run, one sequential
    accumulate from ``max(t, free)``; only behind zero-length jobs,
    where a finish ties ``t`` and ``t`` wins, is it verified."""
    d = np.asarray(durations, dtype=np.float64)
    edges = _accumulate(t if t >= free else free, d)
    starts, finishes = edges[:-1], edges[1:]
    # Job i > 0 starts at finish[i - 1] unless that ties t, which wins.
    if d.size > 1 and not t < finishes[:-1].min():
        verified = _verified(t, d, starts, finishes)
        starts, finishes = verified or _serve_chain_loop(np.full(d.size, t), d, free)
    return starts, finishes, resume(t, finishes)


def serve_chain(
    arrivals: np.ndarray,
    durations: np.ndarray,
    free0: float = 0.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Replay sequential ``Server.serve`` calls at sorted ``arrivals``:
    ``(starts, finishes)``, ``start[i] = max(arrival[i], finish[i - 1])``,
    ``finish[-1] = free0``.

    Chains of :data:`VECTOR_MIN_JOBS` or more are one array program:
    *speculate* the busy-run heads (:func:`_guess_run_heads`),
    *accumulate* each run sequentially (:func:`_accumulate_runs`),
    *verify* every index (:func:`_verified`).  Anything unverified — a
    near-tie inside the guess's rounding, NaN — and every short chain
    takes :func:`_serve_chain_loop`.
    """
    t = np.ascontiguousarray(arrivals, dtype=np.float64)
    d = np.ascontiguousarray(durations, dtype=np.float64)
    if t.shape != d.shape:
        raise ValueError("one duration per arrival required")
    free = float(free0)
    if t.size >= VECTOR_MIN_JOBS:
        finishes = _accumulate_runs(t, d, free, _guess_run_heads(t, d, free))
        verified = _verified(t, d, np.append(free, finishes[:-1]), finishes)
        if verified is not None:
            return verified
    return _serve_chain_loop(t, d, free)


def _accumulate(first: float, durations) -> np.ndarray:
    """``[first, first + d0, first + d0 + d1, ...]``, left to right."""
    steps = np.empty(len(durations) + 1, dtype=np.float64)
    steps[0] = first
    steps[1:] = durations
    return np.add.accumulate(steps)


def _verified(
    t, d: np.ndarray, prev_finish: np.ndarray, finishes: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``(starts, finishes)`` if ``max(t, prev_finish) + d`` reproduces
    the candidate ``finishes`` bit for bit at every index, else ``None``.
    The recurrence has one solution (induction on the index), so a
    verified candidate is the loop's result whatever produced it."""
    starts = np.where(t >= prev_finish, t, prev_finish)
    if np.array_equal((starts + d).view(np.int64), finishes.view(np.int64)):
        return starts, finishes
    return None


def _serve_chain_loop(
    t: np.ndarray, d: np.ndarray, free: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Reference left-to-right replay (`max` written as the DES's)."""
    n = t.size
    starts = np.empty(n, dtype=np.float64)
    finishes = np.empty(n, dtype=np.float64)
    arrivals = t.tolist()
    durations = d.tolist()
    for i in range(n):
        arrival = arrivals[i]
        start = arrival if arrival >= free else free
        free = start + durations[i]
        starts[i] = start
        finishes[i] = free
    return starts, finishes


def _guess_run_heads(t: np.ndarray, d: np.ndarray, free: float) -> np.ndarray:
    """Which jobs start at their own arrival (head a busy run): a guess.

    Unrolled, the recurrence is ``start[i] = W[i] + max(free0,
    max_{h <= i}(t[h] - W[h]))`` with ``W`` the exclusive prefix sum of
    the durations, so job ``i`` finds the server idle iff its slack
    ``t[i] - W[i]`` reaches every earlier slack and ``free0``.  The
    prefix sum rounds unlike the DES's run-by-run additions: a guess
    for :func:`_verified` to check, never a result.
    """
    work_before = np.cumsum(d)
    work_before -= d
    slack = t - work_before
    ceiling = np.empty_like(slack)
    ceiling[0] = free
    np.maximum.accumulate(slack[:-1], out=ceiling[1:])
    np.maximum(ceiling, free, out=ceiling)
    return slack >= ceiling


def _accumulate_runs(
    t: np.ndarray, d: np.ndarray, free: float, heads: np.ndarray
) -> np.ndarray:
    """Finishes of every busy run, each a sequential float accumulate.

    A run is a head job and the jobs queued behind it; its finishes
    are the prefix sums of ``[t[head], d[head], d[head + 1], ...]``
    (``free`` replaces ``t[0]`` when job 0 itself has to wait).
    Single-job runs are one elementwise add.  The others are packed
    into zero-padded 2-D blocks bucketed by power-of-two length —
    one ``np.add.accumulate(axis=1)`` per bucket, at most ~15 calls
    and under ``2n`` padded elements whatever the load.
    """
    n = t.size
    run_start = np.flatnonzero(heads)
    base = t[run_start]
    if not heads[0]:
        run_start = np.concatenate(([0], run_start))
        base = np.concatenate(([free], base))
    lengths = np.diff(run_start, append=n)
    single = lengths == 1
    solo = run_start[single]
    finishes = np.empty(n, dtype=np.float64)
    finishes[solo] = base[single] + d[solo]
    # frexp's exponent of length - 1 is its bit length: runs of 2 jobs
    # land in bucket 1, 3-4 in bucket 2, 5-8 in bucket 3, ...
    bucket = np.frexp(lengths - 1.0)[1]
    for k in np.unique(bucket[~single]).tolist():
        rows = np.flatnonzero(bucket == k)
        run_length = lengths[rows]
        width = int(run_length.max())
        columns = np.arange(width)
        inside = columns < run_length[:, None]
        jobs = (run_start[rows][:, None] + columns)[inside]
        block = np.zeros((rows.size, width + 1), dtype=np.float64)
        block[:, 0] = base[rows]
        block[:, 1:][inside] = d[jobs]
        finishes[jobs] = np.add.accumulate(block, axis=1)[:, 1:][inside]
    return finishes
