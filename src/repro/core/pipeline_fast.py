"""Closed-form replay of the three-stage serving pipeline.

The DES path in :mod:`repro.core.pipeline_sim` spawns three generator
processes per batch, so the *simulator* dominates the wall clock of
every latency-vs-load curve and SLA bisection — a six-point sweep of
20 000 batches a point is seconds of heap pushes.  This module replays
the same structure in closed form: with unit-capacity stage servers
and sorted arrivals, each stage is the max-plus recurrence

    start[i]  = max(arrival[i], finish[i - 1])
    finish[i] = start[i] + duration[i]

computed over whole arrival arrays by
:func:`repro.sim.maxplus.serve_chain` (which states the exactness
rules), and the top stage serves in ``(ready time, batch index)``
order — the DES's positional tie-break, a stable argsort of
``max(emb_done, bot_done)``.

The result stays columnar: :func:`replay_serving` returns the
``(n, 6)`` stage-stamp table and the ``(n, 3)`` stage times it
evaluated, and nothing downstream has to turn them into per-batch
objects.  The replay feeds no observer — every reader of the timeline
sits after the path branch (``PipelineSimulator._observe``).

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

from repro.sim import maxplus
from repro.ssd import fastpath


def resolve_fast(fast: Optional[bool]) -> bool:
    """``fast=`` kwarg resolution: explicit wins, then ``RMSSD_FASTPATH``."""
    if fast is not None:
        return bool(fast)
    return fastpath.enabled()


def require_finite(stage_times) -> None:
    """Refuse NaN/inf stage times — NaN slips through every ``< 0`` /
    ``> 0`` test and would poison each stamp after it.  The replay
    checks its arrays, the DES each value as it evaluates it."""
    if not bool(np.isfinite(stage_times).all()):
        raise ValueError("stage times must be finite")


def _taken(durations: np.ndarray, order: Optional[np.ndarray] = None):
    """The positive-duration jobs in service ``order`` (None: index
    order), or None when that is every batch in index order."""
    positive = durations > 0
    if order is not None:
        return order[positive[order]]
    return None if positive.all() else np.flatnonzero(positive)


def _serve_stage(offered: np.ndarray, durations: np.ndarray, jobs=None):
    """One stage server taking ``jobs`` (indices in service order; None
    for every batch in index order, served on the columns themselves)
    at their ``offered`` instants: the ``(start, done)`` columns; a
    batch it does not take is done at its offer."""
    if jobs is None:
        start, finish = maxplus.serve_chain(offered, durations)
        return start, maxplus.resume(offered, finish)
    start, done = offered.copy(), offered.copy()
    start[jobs], done[jobs] = _serve_stage(offered[jobs], durations[jobs])
    return start, done


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

    # Embedding stage: always served, even zero-length jobs.  Bottom
    # stage: only positive durations touch the server; the others
    # complete instantly at the batch's service clock.
    emb_start, emb_done = _serve_stage(t_call, emb)
    bot_start, bot_done = _serve_stage(t_call, bot, _taken(bot))

    # Top stage: ready when both predecessors are done; the DES serves
    # in (ready time, batch index) order — a stable sort, the identity
    # when ready never decreases.
    ready = np.maximum(emb_done, bot_done)
    order = np.argsort(ready, kind="stable") if np.any(ready[1:] < ready[:-1]) else None
    if callable(top_fn):
        for index in range(n) if order is None else order.tolist():
            top[index] = top_fn(index)
    else:
        top[:] = float(top_fn)
    require_finite(top)
    top_start, top_done = _serve_stage(ready, top, _taken(top, order))

    # One contiguous row per stamp, handed out transposed: consumers
    # read whole columns (latency = top_done - arrival), never rows.
    timeline = np.stack(
        (emb_start, emb_done, bot_start, bot_done, top_start, top_done)
    ).T
    makespan = float(top_done.max()) if n else 0.0
    return timeline, durations.T, makespan
