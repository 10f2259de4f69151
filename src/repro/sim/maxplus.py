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

from repro.sim.workspace import CHUNK, Workspace

#: Below this many jobs the reference loop beats the segmented scan at
#: high load (both bitwise-identical: pure performance).  Loop vs scan,
#: 2-vCPU box, us, utilisation 0.2/0.6/0.95: 256 jobs 40 vs 43/53/110,
#: 512 88 vs 65/114/166, 1024 175 vs 66/130/192, 2048 350 vs 87/168/210.
#: The fleet's ~100-job per-replica chains stay on the loop.
VECTOR_MIN_JOBS = 1024

#: Jobs per busy run :func:`_accumulate_runs` advances level by level
#: before 2-D blocks take the rest.  Nine 20 000-job chains at utilisation
#: 0.2/0.6/0.95 (same box): blocks alone 5.6/6.8/7.4 ms, 8 levels
#: 1.8/2.4/3.5 ms, 16 levels 1.8/2.3/3.2 ms, 32 or 64 within noise of 16.
_LEVELS = 16


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
    """``Server.busy_time`` after one ``serve`` per duration, summed a
    chunk at a time (the same additions in the same order)."""
    for first in range(0, len(durations), CHUNK):
        chunk = durations[first : first + CHUNK]
        busy = _accumulate(busy, chunk, np.empty(len(chunk) + 1)).item(-1)
    return busy


def serve_burst(t: float, free: float, durations, ws: Workspace) -> Tuple[np.ndarray, ...]:
    """Jobs all offered at one instant ``t``: ``(starts, finishes)`` in
    issue order, which may be views of ``ws``.  They form one busy run,
    one sequential accumulate from ``max(t, free)``; only behind
    zero-length jobs, where a finish ties ``t`` and ``t`` wins, is it
    verified."""
    d = np.asarray(durations, dtype=np.float64)
    edges = _accumulate(t if t >= free else free, d, ws("burst", d.size + 1, np.float64))
    starts, finishes = edges[:-1], edges[1:]
    # Job i > 0 starts at finish[i - 1] unless that ties t, which wins.
    if d.size > 1 and not t < finishes[:-1].min():
        verified = _verified(t, d, starts, finishes)
        starts, finishes = verified or _serve_chain_loop(np.full(d.size, t), d, free)
    return starts, finishes


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


def _accumulate(first: float, durations, steps: np.ndarray) -> np.ndarray:
    """``[first, first + d0, first + d0 + d1, ...]``, left to right, in
    the float64 ``steps``."""
    steps[0] = first
    steps[1:] = durations
    return np.add.accumulate(steps, out=steps)


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
    Every run's head is one elementwise add; then level ``k`` advances
    the ``k``-th job of every run longer than ``k`` in one statement,
    ``finish[j] = finish[j - 1] + d[j]`` (runs sorted longest first, so
    the busy ones are a prefix).  Runs still busy after :data:`_LEVELS`
    levels go to zero-padded 2-D blocks bucketed by power-of-two length,
    one ``np.add.accumulate(axis=1)`` per bucket.
    """
    jobs = np.flatnonzero(heads)
    base = t[jobs]
    if not heads[0]:
        jobs = np.concatenate(([0], jobs))
        base = np.concatenate(([free], base))
    finishes = np.empty(t.size, dtype=np.float64)
    last = base + d[jobs]
    finishes[jobs] = last
    lengths = np.diff(jobs, append=t.size)
    longer = np.flatnonzero(lengths > 1)
    longer = longer[np.argsort(-lengths[longer])]
    jobs, lengths, last = jobs[longer], lengths[longer], last[longer]
    # busy[k]: how many runs are longer than k jobs.
    busy = np.searchsorted(-lengths, -np.arange(_LEVELS + 1)).tolist()
    for level in range(1, _LEVELS):
        runs = busy[level]
        if not runs:
            return finishes
        level_jobs = jobs[:runs] + level
        last = last[:runs] + d[level_jobs]
        finishes[level_jobs] = last
    runs = busy[_LEVELS]
    jobs, lengths, last = jobs[:runs] + _LEVELS, lengths[:runs] - _LEVELS, last[:runs]
    # frexp's exponent of length - 1 is its bit length: runs with 1 job
    # left land in bucket 0, 2 in bucket 1, 3-4 in bucket 2, ...
    bucket = np.frexp(lengths - 1.0)[1]
    for k in np.unique(bucket).tolist():
        rows = np.flatnonzero(bucket == k)
        run_length = lengths[rows]
        width = int(run_length.max())
        columns = np.arange(width)
        inside = columns < run_length[:, None]
        block_jobs = (jobs[rows][:, None] + columns)[inside]
        block = np.zeros((rows.size, width + 1), dtype=np.float64)
        block[:, 0] = last[rows]
        block[:, 1:][inside] = d[block_jobs]
        finishes[block_jobs] = np.add.accumulate(block, axis=1)[:, 1:][inside]
    return finishes
