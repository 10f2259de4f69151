"""Vectorized replay of the two-phase flash read protocol.

The DES path spawns one Python generator process per embedding vector
read; a realistic batch costs tens of thousands of heap pushes and
callback dispatches, so the *simulator* — not the simulated SSD —
becomes the bottleneck.  This module replays the exact same protocol
(request overhead -> die flush -> shared-bus transfer) without any
processes or events: per channel, one arithmetic step per read applies
the same greedy resource semantics as :class:`repro.sim.resources.
Resource` (FIFO die mutex) and :class:`repro.sim.resources.Server`
(FIFO channel bus), reproducing the DES service order *and* its float
arithmetic bit for bit.

Exactness rests on three properties of the kernel:

* Events fire in ``(time, sequence)`` order and sequences are assigned
  at scheduling time, so within one channel the order of two events of
  the same instant is the order in which the events that scheduled
  them fired (channel events are only ever scheduled while processing
  channel events; the per-request entry timeouts are all scheduled up
  front, in issue order, before any channel event exists).
* ``Server.serve`` computes ``finish = max(now, free_at) + duration``
  but resumes the caller at ``now + (finish - now)`` — the replay
  tracks both quantities instead of assuming the round trip is exact.
* Sequential float accumulation (``busy_time``, back-to-back server
  finishes) is replayed with ``np.add.accumulate`` or an explicit
  left-to-right loop, never with closed-form multiplication.

The fast path is only entered when the event queue is idle (no
concurrent block I/O sharing the channels); ``RMSSD_FASTPATH=0``
disables it globally.  See ``docs/performance.md``.
"""

from __future__ import annotations

import os
from bisect import insort
from typing import Tuple

import numpy as np

from repro.obs import names

#: Environment variable that disables the fast path when set to a
#: falsey value ("0", "false", "off", "no").  Unset means enabled.
ENV_FLAG = "RMSSD_FASTPATH"

_FALSEY = ("0", "false", "off", "no")


def enabled() -> bool:
    """Whether ``RMSSD_FASTPATH`` allows the vectorized fast path."""
    return os.environ.get(ENV_FLAG, "1").strip().lower() not in _FALSEY


def serialize_server(server, count: int, service_ns: float) -> np.ndarray:
    """Replay ``count`` back-to-back ``Server.serve`` calls issued *now*.

    Mirrors the DES case where every caller enqueues at the current
    time (all FTL lookups of a batch are requested in the same
    scheduling round): job ``i`` finishes at ``max(now, free_at) +
    (i + 1) * service_ns`` — accumulated sequentially, because float
    addition does not distribute — and its caller resumes at
    ``now + (finish_i - now)``.

    Updates the server's ``_free_at``/``busy_time``/``jobs_served``
    exactly as ``count`` real calls would, and returns the resume
    (fire) times in issue order.
    """
    t0 = server.sim.now
    steps = np.empty(count + 1, dtype=np.float64)
    steps[0] = t0 if t0 > server._free_at else server._free_at
    steps[1:] = service_ns
    accumulated = np.add.accumulate(steps)
    finishes = accumulated[1:]
    busy = np.empty(count + 1, dtype=np.float64)
    busy[0] = server.busy_time
    busy[1:] = service_ns
    if count:
        server.busy_time = float(np.add.accumulate(busy)[-1])
        server._free_at = float(finishes[-1])
        server.jobs_served += count
        profiler = getattr(server.sim, "profiler", None)
        if profiler is not None:
            # Job i starts where job i-1 finished: accumulated[i] is
            # both finish_{i-1} and start_i, the same floats the DES
            # ``Server.serve`` records (all jobs arrive at t0).
            starts = accumulated[:-1]
            for index in range(count):
                profiler.record_service(
                    server.name,
                    t0,
                    float(starts[index]),
                    float(finishes[index]),
                    server.kind,
                )
    return t0 + (finishes - t0)


_INF = float("inf")


def _replay_channel(
    enter_ns: np.ndarray,
    die_ids: np.ndarray,
    transfer_ns: np.ndarray,
    oh_ns: float,
    flush_ns: float,
    num_dies: int,
    bus_free: float,
    bus_busy: float,
    staged: bool,
    profiler=None,
    bus_name=None,
    die_names=None,
) -> Tuple[np.ndarray, float, float]:
    """Replay one channel's reads; returns completion times + bus state.

    ``enter_ns`` (sorted, issue order) carries one entry per request:
    with ``staged=True`` it is the time the request *enters* the flash
    stage (an upstream server released it; the request-overhead wait
    still follows), with ``staged=False`` it is the time the overhead
    wait already elapsed (the overhead timeouts were scheduled up
    front, as ``FlashArray.run_reads`` does).

    One step per read, in die-grant order.  A die holds one read at a
    time and serves its reads in issue order, so each die has at most
    one *pending grant*: its next read, granted at ``g = max(arrive,
    prev_done)``.  Flush ends at ``f = g + flush``, monotone in ``g``,
    so the bus serves reads in grant order and a step is the
    ``Server.serve`` arithmetic applied at ``f``.  The step to take is
    the smallest pending grant; the kernel breaks equal ``g`` by event
    sequence number, i.e. by *when the event that pushed the grant was
    itself scheduled*.  A grant is pushed either by the read's own
    arrival (die idle; scheduled when the read entered, at ``e_i`` —
    or before everything, ``-inf``, when the arrivals were scheduled up
    front) or by the previous read's completion (scheduled when that
    read won the bus, at its ``f_j``); entries are drained before
    equal-time channel events, so an arrival sorts before a completion
    of the same moment, and equal moments of one kind fall back to
    issue index / bus rank.  The same comparison decides whether the
    previous completion is processed before an arrival of the same
    instant, i.e. whether that arrival finds its die idle.
    """
    n = len(enter_ns)
    # Index ``n`` is a sentinel read that never arrives; it ends every
    # die's queue, so "no follower" is the idle-die case below.
    arrive = (enter_ns + oh_ns if staged else enter_ns).tolist() + [_INF]
    entered = (enter_ns.tolist() if staged else [-_INF] * n) + [_INF]
    durations = transfer_ns.tolist()
    completion = [0.0] * n
    # Per-die issue-order queues, the position of each die's pending
    # grant, and the pending grants themselves, kept sorted, as (g,
    # moment, kind, rank, die) — kind 0 pushed by an arrival, 1 by a
    # completion.
    queues = [
        np.flatnonzero(die_ids == die).tolist() + [n] for die in range(num_dies)
    ]
    position = [0] * num_dies
    busy_since = [arrive[queue[0]] for queue in queues]
    sampled = [0] * num_dies
    pending = sorted(
        (arrive[queue[0]], entered[queue[0]], 0, queue[0], die)
        for die, queue in enumerate(queues)
    )
    for rank in range(n):
        g, _, _, _, die = pending.pop(0)
        queue = queues[die]
        here = position[die]
        idx = queue[here]
        # Server.serve on the shared bus: the caller resumes at
        # now + (finish - now), not at finish.
        f = g + flush_ns
        duration = durations[idx]
        begin = f if f > bus_free else bus_free
        finish = begin + duration
        bus_free = finish
        bus_busy = bus_busy + duration
        done = f + (finish - f)
        completion[idx] = done
        if profiler is not None:
            profiler.record_service(
                bus_name, f, begin, finish, names.KIND_CHANNEL_BUS
            )
        here += 1
        position[die] = here
        follower = queue[here]
        arrival = arrive[follower]
        if done < arrival or (done == arrival and f < entered[follower]):
            # Resource.release found no waiter: the die idles until
            # the follower's own arrival grants it.
            insort(pending, (arrival, entered[follower], 0, follower, die))
            if profiler is not None:
                profiler.record_busy(
                    die_names[die], busy_since[die], done, names.KIND_DIE
                )
                busy_since[die] = arrival
            continue
        # Hand-off: the follower was already waiting, the busy interval
        # stays open (Resource keeps ``_busy_since`` across hand-offs).
        insort(pending, (done, f, 1, rank, die))
        if profiler is not None:
            # Resource.acquire samples the waiters ahead of every read
            # that arrives while the die is held; reads arriving before
            # this completion is processed see the queue from ``here``.
            probe = max(sampled[die], here)
            while True:
                waiter = queue[probe]
                arrival = arrive[waiter]
                if done < arrival or (done == arrival and f < entered[waiter]):
                    break
                profiler.record_queue_depth(die_names[die], arrival, probe - here)
                probe += 1
            sampled[die] = probe
    return np.array(completion, dtype=np.float64), bus_free, bus_busy


def replay_reads(
    flash,
    enter_ns: np.ndarray,
    channel_ids: np.ndarray,
    die_ids: np.ndarray,
    transfer_ns: np.ndarray,
    staged: bool,
) -> Tuple[np.ndarray, float]:
    """Replay a batch of flash reads across channels.

    All arrays are in issue order.  Channels are independent once the
    entry times are known (the shared upstream FTL stage is serialized
    by :func:`serialize_server` *before* this call), so each channel
    replays on its own.  Writes the post-batch bus state back into the
    flash array's channel servers and mirrors the sanitizer's
    per-channel accounting; the caller is responsible for advancing
    the simulation clock (``sim.run(until=end)``).

    Returns ``(completion_ns, end_ns)`` where ``end_ns`` equals the
    simulated time at which the DES event queue would have drained.
    """
    timing = flash.timing
    sanitizer = flash.sanitizer
    profiler = getattr(flash.sim, "profiler", None)
    completion = np.empty(len(enter_ns), dtype=np.float64)
    for channel in flash.channels:
        members = np.flatnonzero(channel_ids == channel.index)
        if members.size == 0:
            continue
        channel_transfers = transfer_ns[members]
        if sanitizer is not None:
            sanitizer.channel_batch(channel.name, int(members.size))
            sanitizer.check_latency(
                channel.name, "request_overhead_ns", timing.request_overhead_ns
            )
            sanitizer.check_latency(channel.name, "flush_ns", timing.flush_ns)
            for value in np.unique(channel_transfers):
                sanitizer.check_latency(channel.name, "transfer_ns", float(value))
        done, bus_free, bus_busy = _replay_channel(
            enter_ns[members],
            die_ids[members],
            channel_transfers,
            timing.request_overhead_ns,
            timing.flush_ns,
            len(channel.dies),
            channel.bus._free_at,
            channel.bus.busy_time,
            staged,
            profiler,
            channel.bus.name,
            [die.name for die in channel.dies],
        )
        channel.bus._free_at = bus_free
        channel.bus.busy_time = bus_busy
        channel.bus.jobs_served += int(members.size)
        completion[members] = done
    end = float(completion.max()) if len(enter_ns) else flash.sim.now
    return completion, end
