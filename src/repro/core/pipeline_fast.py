"""Closed-form replay of the three-stage serving pipeline.

The DES path in :mod:`repro.core.pipeline_sim` spawns three generator
processes per batch, so the *simulator* dominates the wall clock of
every latency-vs-load curve and SLA bisection — a six-point sweep of
20 000 batches a point is seconds of heap pushes.  This module replays
the same structure in closed form: with unit-capacity stage servers
and sorted arrivals, each stage is the max-plus recurrence

    start[i]  = max(arrival[i], finish[i - 1])
    finish[i] = start[i] + duration[i]

computed over whole arrival arrays by :func:`serve_chain` — guess the
busy runs from the recurrence's closed form, accumulate each run
sequentially, verify the recurrence at every index, fall back to the
scalar loop otherwise — and the top stage's service order is the
stable sort of the per-batch ready times ``max(emb_done, bot_done)``.
The result stays columnar: :func:`replay_serving` returns the
``(n, 6)`` stage-stamp table and the ``(n, 3)`` stage times it
evaluated, and nothing downstream has to turn them into per-batch
objects.  The replay feeds no observer — every reader of the timeline
sits after the path branch (``PipelineSimulator._observe``).

Exactness mirrors the lookup fast path (``repro.ssd.fastpath``):

* ``Server.serve`` computes ``finish = max(now, free_at) + duration``
  but resumes the caller at ``now + (finish - now)`` — the replay
  tracks both quantities instead of assuming the round trip is exact.
* Sequential float accumulation (back-to-back server finishes) is
  replayed with ``np.add.accumulate`` or an explicit left-to-right
  loop; the closed form (a prefix sum) only ever *predicts* where the
  busy runs start, and the prediction is verified before use.
* DES tie-breaking is positional: stage calls happen in batch-index
  order on equal arrivals, and top-stage service order is ``(ready
  time, batch index)`` — exactly what a stable argsort reproduces.

Stage-time callables are evaluated in the same global order as the
DES (``emb(0), bot(0), emb(1), bot(1), ...`` then ``top`` in service
order), so index-pure jitter callables — the documented contract —
replay bit for bit.  Constant stage times (the serving path) skip the
evaluation loop outright.  ``RMSSD_FASTPATH=0`` (the same flag as the
lookup fast path) falls back to the DES; see ``docs/performance.md``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.ssd import fastpath

#: Below this many jobs the reference loop beats the segmented scan:
#: the scan's fixed cost (~0.2 ms of small numpy calls) buys about
#: 1000 loop steps on the benchmark box (loop 105/230/375 us vs scan
#: 190/210/250 us at 512/1024/2048 jobs).  Both are bitwise-identical,
#: so the threshold is pure performance.
VECTOR_MIN_JOBS = 1024


def resolve_fast(fast: Optional[bool]) -> bool:
    """``fast=`` kwarg resolution: explicit wins, then ``RMSSD_FASTPATH``."""
    if fast is not None:
        return bool(fast)
    return fastpath.enabled()


def serve_chain(
    arrivals: np.ndarray,
    durations: np.ndarray,
    free0: float = 0.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Replay sequential ``Server.serve`` calls at sorted ``arrivals``.

    Returns ``(starts, finishes)`` with ``start[i] = max(arrival[i],
    finish[i - 1])`` (``finish[-1] = free0``), every float op in the
    exact order the DES performs it.

    Chains of :data:`VECTOR_MIN_JOBS` or more run as one array program
    at every load — *speculate, accumulate, verify*:

    1. guess which jobs head a busy run from the closed form of the
       recurrence (:func:`_guess_run_heads`; not bitwise, only a guess);
    2. compute every run's finishes as the *sequential* float
       accumulate of ``[start_head, d_head, d_head+1, ...]``
       (:func:`_accumulate_runs`), the DES's own additions in its order;
    3. recompute ``starts = where(t >= prev_finish, t, prev_finish)`` —
       ``max(now, free_at)`` spelled as :func:`_serve_chain_loop`
       spells it — and accept only if ``starts + d`` reproduces the
       finishes bit for bit at every index.

    The recurrence has exactly one solution, built left to right from
    ``free0``; arrays that satisfy it at every index *are* that
    solution (induction on the index), so an accepted result is the
    loop's result bit for bit whatever the guess was.  Anything else —
    a near-tie inside the closed form's rounding, NaN — falls back to
    the loop, which is also the small-chain path and the differential
    oracle of ``tests/test_pipeline_fast_equivalence.py``.
    """
    t = np.ascontiguousarray(arrivals, dtype=np.float64)
    d = np.ascontiguousarray(durations, dtype=np.float64)
    if t.shape != d.shape:
        raise ValueError("one duration per arrival required")
    free = float(free0)
    if t.size >= VECTOR_MIN_JOBS:
        finishes = _accumulate_runs(t, d, free, _guess_run_heads(t, d, free))
        prev_finish = np.empty_like(finishes)
        prev_finish[0] = free
        prev_finish[1:] = finishes[:-1]
        starts = np.where(t >= prev_finish, t, prev_finish)
        if np.array_equal((starts + d).view(np.int64), finishes.view(np.int64)):
            return starts, finishes
    return _serve_chain_loop(t, d, free)


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
        # Server.serve: start = max(now, free_at); max() keeps the
        # first argument on ties, so spell the comparison the same way.
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
    prefix sum rounds differently from the DES's run-by-run additions,
    so this is a prediction for :func:`serve_chain` to verify, never a
    result.
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


def require_finite(stage_times) -> None:
    """Refuse NaN/inf stage times — NaN slips through every ``< 0`` /
    ``> 0`` test and would poison each stamp after it.  The replay
    checks its arrays, the DES each value as it evaluates it."""
    if not bool(np.isfinite(stage_times).all()):
        raise ValueError("stage times must be finite")


def replay_serving(
    emb_fn,
    bot_fn,
    top_fn,
    arrivals: Sequence[float],
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Replay ``PipelineSimulator.run``'s DES in closed form.

    ``emb_fn``/``bot_fn``/``top_fn`` are per-batch stage times: either
    callables of the batch index or plain numbers.  Constants skip the
    per-index evaluation loop entirely (``np.full``) — with no
    callable there is no observable evaluation order, so the skip is
    bitwise-invisible and saves ~3n Python calls per replay.

    Returns ``(timeline, durations, makespan_ns)``: ``timeline`` is
    the ``(n, 6)`` stage-stamp table in
    :data:`~repro.obs.critpath.STAMP_FIELDS` order and ``durations``
    the ``(n, 3)`` emb/bot/top stage times as evaluated — the same
    floats the DES writes into its own tables row by row — both stored
    column-major so each column is contiguous
    (:class:`~repro.core.pipeline_sim.PipelineRunResult` carries the
    tables as they are).
    """
    t = np.ascontiguousarray(arrivals, dtype=np.float64)
    n = t.size
    # Flows bootstrap at clock 0, so a batch can never be served
    # before t=0 even if its nominal arrival is negative.
    t_call = np.maximum(t, 0.0)

    # The stage-time table, one contiguous row per stage, filled in place.
    durations = np.empty((3, n), dtype=np.float64)
    emb, bot, top = durations
    if callable(emb_fn) or callable(bot_fn):
        emb_of = emb_fn if callable(emb_fn) else (lambda _i, _v=float(emb_fn): _v)
        bot_of = bot_fn if callable(bot_fn) else (lambda _i, _v=float(bot_fn): _v)
        for index in range(n):
            # DES evaluation order: emb then bot, per batch, at arrival.
            emb[index] = emb_of(index)
            bot[index] = bot_of(index)
    else:
        emb[:] = float(emb_fn)
        bot[:] = float(bot_fn)
    require_finite(durations[:2])
    if np.any(emb < 0):
        raise ValueError("negative service duration")

    # Embedding stage: always served, even zero-length jobs.
    emb_start, emb_finish = serve_chain(t_call, emb)
    emb_done = t_call + (emb_finish - t_call)

    # Bottom stage: only positive durations touch the server; the
    # others complete instantly at the batch's service clock.
    bot_start = t_call.copy()
    bot_done = t_call.copy()
    served_bot = np.flatnonzero(bot > 0)
    if served_bot.size:
        tb = t_call[served_bot]
        bot_chain_start, bot_chain_finish = serve_chain(tb, bot[served_bot])
        bot_start[served_bot] = bot_chain_start
        bot_done[served_bot] = tb + (bot_chain_finish - tb)

    # Top stage: ready when both predecessors are done; the DES serves
    # in (ready time, batch index) order — a stable sort.
    ready = np.maximum(emb_done, bot_done)
    order = np.argsort(ready, kind="stable")
    if callable(top_fn):
        for index in order.tolist():
            top[index] = top_fn(index)
    else:
        top[:] = float(top_fn)
    require_finite(top)
    top_start = ready.copy()
    top_done = ready.copy()
    ready_sorted = ready[order]
    served_mask = top[order] > 0
    served_top = order[served_mask]
    if served_top.size:
        ready_served = ready_sorted[served_mask]
        top_chain_start, top_chain_finish = serve_chain(
            ready_served, top[served_top]
        )
        top_start[served_top] = top_chain_start
        top_done[served_top] = ready_served + (top_chain_finish - ready_served)

    # One contiguous row per stamp, handed out transposed: consumers
    # read whole columns (latency = top_done - arrival), never rows.
    timeline = np.stack(
        (emb_start, emb_done, bot_start, bot_done, top_start, top_done)
    ).T
    makespan = float(top_done.max()) if n else 0.0
    return timeline, durations.T, makespan
