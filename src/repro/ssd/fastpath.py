"""Vectorized replay of the two-phase flash read protocol.

The DES path spawns one Python generator process per embedding vector
read; a realistic batch costs tens of thousands of heap pushes and
callback dispatches, so the *simulator* — not the simulated SSD —
becomes the bottleneck.  This module replays the exact same protocol
(request overhead -> die flush -> shared-bus transfer) without any
processes or events, applying the same greedy resource semantics as
:class:`repro.sim.resources.Resource` (FIFO die mutex) and
:class:`repro.sim.resources.Server` (FIFO channel bus) and reproducing
the DES service order *and* its float arithmetic bit for bit.

Exactness rests on two properties of the kernel:

* Events fire in ``(time, sequence)`` order and sequences are assigned
  at scheduling time, so within one channel the order of two events of
  the same instant is the order in which the events that scheduled
  them fired: a read's arrival was scheduled when it entered the flash
  stage, a completion when its read won the bus (the tie key of
  :func:`_step_reads`).
* The channel bus is a FIFO ``Server``, replayed by the rules
  :mod:`repro.sim.maxplus` states: ``max`` kept on ties, the caller
  resumed at ``f + (finish - f)``, busy time summed left to right.

A channel is replayed by two cooperating pieces:

**The step loop** (:func:`_step_reads`) takes one arithmetic step per
read, in die-grant order, and is the *only* scalar statement of the
protocol — tie rule, idle dies, busy bus and all.  It replays whole
channels whenever a profiler is attached (its record calls live
there) or the channel is short, every stretch the scan refuses, and
it is the oracle the scan is tested against.

**The scan** (:func:`_scan_reads`) exploits what the vector-grained
read is designed to be: die-bound.  While a die's next read is already
waiting when the previous one completes (*hand-off*), the bus is free
when its flush ends (``f >= bus_free``, so ``begin == f``) and the
round trip ``f + (finish - f)`` lands on ``finish``, that die's reads
are one sequential float chain, ``accumulate([g0, flush, d0, flush,
d1, ...])`` — the step loop's own additions in its own order.  From
the state the step loop keeps (per-die queue position, the pending
grants, ``bus_free``, ``bus_busy``, rank) the scan speculates that
chain for a window of reads per die, merges the dies' steps by grant
time, verifies every step elementwise, applies the verified *prefix*
and hands the state back.

*Soundness.*  A step's inputs are its die's previous step and the
previous step on the bus, both earlier in merged order; so by
induction on that order, if every step of a prefix passes its checks
computed from speculated inputs, those inputs were the true ones and
the prefix is the step loop's result.  Nothing that belongs in the
prefix can be missing from it: each die's first step left out (window
ran out, or a die-local check failed) has a speculated grant no later
than its true grant — the follower of a verified step is granted when
that step completes or, if the die idles, later — and all its later
steps come after it, so the merged order is cut strictly before the
earliest such grant.

*What the scan refuses* (the prefix ends there and the step loop
takes a stretch): a flush that ends while the bus is busy (the
first-round collision of dies granted together, bus-bound page reads
on many-die geometries, a phase-locked die whose ``f`` lands one ulp
under ``bus_free`` at a binade crossing); a follower that finds its
die idle; an inexact round trip; and equal grant times — a tie
invalidates both sides, so the scan never applies the tie rule.

The fast path is only entered when the event queue is idle (no
concurrent block I/O sharing the channels); ``RMSSD_FASTPATH=0``
disables it globally.  See ``docs/performance.md``.
"""

from __future__ import annotations

import os
from bisect import insort
from itertools import accumulate
from typing import List, Sequence, Tuple

import numpy as np

from repro.obs import names
from repro.sim import maxplus
from repro.sim.workspace import Workspace, gather

#: Environment variable that disables the fast path when set to a
#: falsey value ("0", "false", "off", "no").  Unset means enabled.
ENV_FLAG = "RMSSD_FASTPATH"

_FALSEY = ("0", "false", "off", "no")


def enabled() -> bool:
    """Whether ``RMSSD_FASTPATH`` allows the vectorized fast path."""
    return os.environ.get(ENV_FLAG, "1").strip().lower() not in _FALSEY


_INF = float("inf")
#: The read that never arrives: (arrive, entered, duration, issue).
_SENTINEL = (_INF, _INF, 0.0, np.iinfo(np.int64).max)

#: Channels with fewer reads than this are replayed by the step loop
#: alone.  A scan attempt costs ~0.1 ms of small numpy calls before it
#: computes anything, 200 loop steps' worth (step loop 0.42-0.53 us per
#: read; on a backlogged two-die channel at Table II timing, loop
#: against scan: 244/275 us at 512 reads, 407/339 at 768, 521/400 at
#: 1024, 917/489 at 2048, 1717/668 at 4096).  Both are
#: bitwise-identical, so the threshold is pure performance.
SCAN_MIN_READS = 1024
#: Chain elements (dies x reads per die) the first scan attempt
#: speculates, the growth factor after an attempt whose windows ran
#: out with nothing refused, and the cap.  A refused attempt computes
#: its elements for nothing (92 us at 512 elements, 174 at 2048, 484
#: at 8192), so input the scan gets nowhere on pays first-size
#: attempts only; an accepted one costs ~120 us + 55 ns per element,
#: and past 8192 the per-read cost stops falling (138/146/166 ns per
#: read of ``lookup_rmc2`` at caps of 8192/16384/32768).
SCAN_FIRST_CELLS = 512
SCAN_GROWTH = 4
SCAN_MAX_CELLS = 8192
#: Reads per die the step loop takes past a refused step before the
#: next attempt (one step re-bases a die that lost the bus by an ulp;
#: a first-round collision takes a few); doubles while attempts keep
#: accepting fewer reads than that, so 30 000 reads the scan never
#: gets through cost ten attempts.
SCAN_FIRST_STRETCH = 16


class _ChannelReplay:
    """One channel's replay state, shared by the scan and the step loop.

    Reads live in *slots*, die-major: die ``k`` owns the contiguous
    slots ``[head[k], tail[k])`` in issue order and ``head[k]``
    advances past each replayed read.  Slot ``n`` is a sentinel read
    that never arrives; it follows every die's last read, so "no
    follower" is the idle-die case.  ``pending`` holds every die's
    *pending grant*, sorted, as ``(g, moment, kind, rank, die)`` — see
    :func:`_step_reads` for the key.
    """

    __slots__ = (
        "flush_ns", "arrive", "entered", "durations", "issue", "completion",
        "head", "tail", "pending", "bus_free", "bus_busy", "rank",
    )

    def __init__(self, enter_ns, die_counts, transfer_ns, issue, oh_ns,
                 flush_ns, bus_free, bus_busy, ws: Workspace) -> None:
        n = len(issue)
        self.flush_ns = flush_ns
        self.tail = list(accumulate(die_counts))
        self.head = [end - count for end, count in zip(self.tail, die_counts)]
        table = ws("channel", 3 * (n + 1), np.float64).reshape(3, n + 1)
        table[:, n] = _SENTINEL[:3]
        self.arrive, self.entered, self.durations = table
        gather(enter_ns, issue, self.entered[:n])
        np.add(self.entered[:n], oh_ns, out=self.arrive[:n])
        self.durations[:n] = transfer_ns[issue]
        self.issue = ws("channel_issue", n + 1)
        self.issue[:n] = issue
        self.issue[n] = _SENTINEL[3]
        self.completion = ws("completion", n, np.float64)
        self.pending = sorted(
            (self.arrive.item(slot), self.entered.item(slot), 0,
             self.issue.item(slot), die)
            for die, slot in enumerate(
                lo if lo < end else n for lo, end in zip(self.head, self.tail)
            )
        )
        self.bus_free = bus_free
        self.bus_busy = bus_busy
        self.rank = 0


def _step_reads(
    ch: _ChannelReplay, reach: int, profiler=None, bus_name=None, die_names=None
) -> None:
    """The step loop: one arithmetic step per read, until a die has
    replayed ``reach`` reads or the channel is done.

    The only scalar statement of the protocol.  One step per read, in
    die-grant order.  A die holds one read at a time and serves its
    reads in issue order, so each die has at most one *pending grant*:
    its next read, granted at ``g = max(arrive, prev_done)``.  Flush
    ends at ``f = g + flush``, monotone in ``g``, so the bus serves
    reads in grant order and a step is the ``Server.serve`` arithmetic
    applied at ``f``.  The step to take is the smallest pending grant;
    the kernel breaks equal ``g`` by event sequence number, i.e. by
    *when the event that pushed the grant was itself scheduled*.  A
    grant is pushed either by the read's own arrival (die idle;
    scheduled when the read entered, at ``e_i``) or by the previous
    read's completion (scheduled when that read won
    the bus, at its ``f_j``); entries are drained before equal-time
    channel events, so an arrival sorts before a completion of the
    same moment, and equal moments of one kind fall back to issue
    index / bus rank.  The same comparison decides whether the
    previous completion is processed before an arrival of the same
    instant, i.e. whether that arrival finds its die idle.

    Works on Python lists of each die's next ``reach`` reads and
    their follower, laid end to end, so a short stretch converts few
    slots and a whole-channel call (``reach`` = the channel's read
    count) converts every slot once.  ``profiler`` may only be passed
    to a whole-channel call: its busy intervals and queue samples stay
    open from step to step.
    """
    flush_ns = ch.flush_ns
    total = len(ch.completion)
    arrive: List[float] = []
    entered: List[float] = []
    durations: List[float] = []
    issue: List[int] = []
    cursor = []
    # A die whose list ends on a real read, not on the sentinel, stops
    # the loop when it gets there: that read's follower is out of reach.
    fence = []
    for lo, end in zip(ch.head, ch.tail):
        hi = min(lo + reach + 1, end)
        cursor.append(len(arrive))
        arrive += ch.arrive[lo:hi].tolist()
        entered += ch.entered[lo:hi].tolist()
        durations += ch.durations[lo:hi].tolist()
        issue += ch.issue[lo:hi].tolist()
        if hi == end:
            arrive.append(_SENTINEL[0])
            entered.append(_SENTINEL[1])
            durations.append(_SENTINEL[2])
            issue.append(_SENTINEL[3])
            fence.append(-1)
        else:
            fence.append(len(arrive) - 1)
    first = cursor[:]
    completion = [0.0] * len(arrive)
    pending = ch.pending
    bus_free = ch.bus_free
    bus_busy = ch.bus_busy
    busy_since = [arrive[here] for here in cursor]
    sampled = [0] * len(cursor)
    rank = ch.rank - 1  # nothing left to replay: the loop never binds it
    for rank in range(ch.rank, total):
        g, _, _, _, die = pending.pop(0)
        here = cursor[die]
        # maxplus.serve on the shared bus, inline: the caller resumes
        # at f + (finish - f), not at finish.
        f = g + flush_ns
        duration = durations[here]
        begin = f if f >= bus_free else bus_free
        finish = begin + duration
        bus_free = finish
        bus_busy = bus_busy + duration
        done = f + (finish - f)
        completion[here] = done
        if profiler is not None:
            profiler.record_service(
                bus_name, f, begin, finish, names.KIND_CHANNEL_BUS
            )
        here += 1
        cursor[die] = here
        arrival = arrive[here]
        if done < arrival or (done == arrival and f < entered[here]):
            # Resource.release found no waiter: the die idles until
            # the follower's own arrival grants it.
            insort(pending, (arrival, entered[here], 0, issue[here], die))
            if profiler is not None:
                profiler.record_busy(
                    die_names[die], busy_since[die], done, names.KIND_DIE
                )
                busy_since[die] = arrival
        else:
            # Hand-off: the follower was already waiting, the busy
            # interval stays open (Resource keeps ``_busy_since``
            # across hand-offs).
            insort(pending, (done, f, 1, rank, die))
            if profiler is not None:
                # Resource.acquire samples the waiters ahead of every
                # read that arrives while the die is held; reads
                # arriving before this completion is processed see the
                # queue from ``here``.
                probe = max(sampled[die], here)
                while True:
                    arrival = arrive[probe]
                    if done < arrival or (done == arrival and f < entered[probe]):
                        break
                    profiler.record_queue_depth(
                        die_names[die], arrival, probe - here
                    )
                    probe += 1
                sampled[die] = probe
        if here == fence[die]:
            break
    for die, (start, stop) in enumerate(zip(first, cursor)):
        lo = ch.head[die]
        ch.head[die] = hi = lo + stop - start
        ch.completion[lo:hi] = completion[start:stop]
    ch.bus_free = bus_free
    ch.bus_busy = bus_busy
    ch.rank = rank + 1


def _scan_reads(ch: _ChannelReplay, cells: int) -> Tuple[int, bool]:
    """The scan: replay a verified prefix of about ``cells`` reads, the
    same number from every die that has any left.

    Speculates that every die keeps handing off onto a free bus, so
    its reads are one float chain ``accumulate([g0, flush, d0, flush,
    d1, ...])`` — the step loop's additions in the step loop's order —
    merges the dies' steps by grant time, checks every step
    elementwise and applies the longest prefix that checks out.
    Returns ``(reads replayed, blocked)``; ``blocked`` says the prefix
    stopped at a step the scan refuses (the step loop's to take)
    rather than at the end of a window.  See the module docstring for
    why an accepted prefix is the step loop's result bit for bit.
    """
    live = [die for die, (lo, end) in enumerate(zip(ch.head, ch.tail)) if lo < end]
    rows = len(live)
    head = np.array([ch.head[die] for die in live])
    tail = np.array([ch.tail[die] for die in live])
    room = tail - head
    width = max(1, min(cells // rows, max(room.tolist())))
    columns = np.arange(width + 1)
    # Slots of each die's next ``width`` reads plus one follower; past
    # the queue's end every column is the sentinel.
    slot = head[:, None] + columns
    slot = np.where(slot < tail[:, None], slot, len(ch.completion))
    duration = ch.durations[slot[:, :-1]]
    links = np.empty((rows, 2 * width + 1))
    grants = {entry[4]: entry for entry in ch.pending}
    links[:, 0] = [grants[die][0] for die in live]
    links[:, 1::2] = ch.flush_ns
    links[:, 2::2] = duration
    chain = np.add.accumulate(links, axis=1)
    grant, flush_end, finish = chain[:, :-1:2], chain[:, 1::2], chain[:, 2::2]
    # (flush end, finish) of every step, one row per cell.
    ends = chain[:, 1:].reshape(rows * width, 2)
    # Die-local checks: the round trip lands on ``finish`` and the
    # follower was waiting, judged as the step loop judges it.
    sound = flush_end + (finish - flush_end) == finish
    arrival = ch.arrive[slot[:, 1:]]
    moment = ch.entered[slot[:, 1:]]
    idle = (finish < arrival) | ((finish == arrival) & (flush_end < moment))
    sound[:, 1:] &= ~idle[:, :-1]
    length = np.logical_and.accumulate(sound, axis=1).sum(axis=1)
    # Each die's first step left out has a speculated grant no later
    # than its true one, so only steps granted strictly before the
    # earliest of them are known to be all there.
    each = np.arange(rows)
    beyond = np.where(length < room, chain[each, 2 * length], _INF)
    cut_row = int(beyond.argmin())
    cut = beyond.item(cut_row)
    take = (columns[:-1] < length[:, None]) & (grant < cut)
    # Merge by grant time and check the shared bus in that order: free
    # when the flush ends, and grants strictly increasing — a tie
    # refuses both sides, its order is the step loop's to decide.
    merged_grant = grant[take]
    order = np.argsort(merged_grant, kind="stable")
    merged_grant = merged_grant[order]
    cell = np.flatnonzero(take)[order]
    merged_flush, merged_finish = ends[cell].T
    bus_free = np.empty_like(merged_finish)
    bus_free[:1] = ch.bus_free
    bus_free[1:] = merged_finish[:-1]
    good = merged_flush >= bus_free
    rising = merged_grant[1:] > merged_grant[:-1]
    good[1:] &= rising
    good[:-1] &= rising
    accepted = good.size if good.all() else int(good.argmin())
    blocked = accepted < good.size or (
        cut < _INF and length.item(cut_row) < width
    )
    if accepted == 0:
        return 0, blocked
    # Apply the prefix: completions, bus state, each die's next grant.
    cell = cell[:accepted]
    row_of = cell // width
    count = np.bincount(row_of, minlength=rows)
    done = columns[:-1] < count[:, None]
    ch.completion[slot[:, :-1][done]] = finish[done]
    ch.bus_free = merged_finish.item(accepted - 1)
    ch.bus_busy = maxplus.busy_sum(ch.bus_busy, duration.ravel()[cell])
    # Bus rank of each die's last replayed step (a repeated index
    # keeps the last value assigned).
    rank = np.empty(rows, dtype=np.intp)
    rank[row_of] = np.arange(ch.rank, ch.rank + accepted)
    last = count - 1
    follower = slot[each, count]
    for row, reads, is_idle, arrived, entered, index, finished, flushed, at in zip(
        range(rows),
        count.tolist(),
        idle[each, last].tolist(),
        ch.arrive[follower].tolist(),
        ch.entered[follower].tolist(),
        ch.issue[follower].tolist(),
        finish[each, last].tolist(),
        flush_end[each, last].tolist(),
        rank.tolist(),
    ):
        if reads:
            die = live[row]
            ch.head[die] += reads
            grants[die] = (
                (arrived, entered, 0, index, die)
                if is_idle
                else (finished, flushed, 1, at, die)
            )
    ch.pending = sorted(grants.values())
    ch.rank += accepted
    return accepted, blocked


def _replay_channel(
    enter_ns: np.ndarray,
    die_counts: Sequence[int],
    transfer_ns: np.ndarray,
    issue: np.ndarray,
    oh_ns: float,
    flush_ns: float,
    bus_free: float,
    bus_busy: float,
    ws: Workspace,
    profiler=None,
    bus_name=None,
    die_names=None,
) -> Tuple[np.ndarray, float, float]:
    """Replay one channel's reads; returns completion times + bus state.

    ``issue`` holds the issue indices of the channel's reads die-major:
    die ``k``'s ``die_counts[k]`` reads, in issue order, after die
    ``k - 1``'s; their completion times go back in that order.
    ``enter_ns`` and ``transfer_ns`` hold every read of the batch in
    issue order, ``enter_ns`` sorted: the time the request *enters* the
    flash stage (an upstream server released it, or
    ``FlashArray.run_reads`` issued it); the request-overhead wait still
    follows.

    With a profiler attached, or fewer than :data:`SCAN_MIN_READS`
    reads, the step loop replays the whole channel.  Otherwise the
    scan takes what it can verify and the step loop the stretches in
    between: a window that grows while nothing is refused and falls
    back to what the last attempt got through, a stretch that doubles
    while attempts get nowhere.
    """
    n = len(issue)
    ch = _ChannelReplay(
        enter_ns, die_counts, transfer_ns, issue, oh_ns, flush_ns,
        bus_free, bus_busy, ws,
    )
    if profiler is not None or n < SCAN_MIN_READS:
        _step_reads(ch, n, profiler, bus_name, die_names)
    cells, stretch = SCAN_FIRST_CELLS, SCAN_FIRST_STRETCH
    while ch.rank < n:
        taken, blocked = _scan_reads(ch, cells)
        if not blocked:
            cells = min(cells * SCAN_GROWTH, SCAN_MAX_CELLS)
            stretch = SCAN_FIRST_STRETCH
            continue
        cells = max(SCAN_FIRST_CELLS, taken)
        _step_reads(ch, stretch)
        stretch = stretch * 2 if taken < stretch else SCAN_FIRST_STRETCH
    return ch.completion, ch.bus_free, ch.bus_busy


def replay_reads(
    flash,
    enter_ns: np.ndarray,
    channel_ids: np.ndarray,
    die_ids: np.ndarray,
    transfer_ns: np.ndarray,
    ws: Workspace,
) -> float:
    """Replay a batch of flash reads across channels.

    All arrays are in issue order.  Channels are independent once the
    entry times are known (the shared upstream FTL stage is serialized
    by ``SSDController.serve_ftl_batch`` *before* this call), so each
    channel replays on its own.  Writes the post-batch bus state back into the
    flash array's channel servers and mirrors the sanitizer's
    per-channel accounting; the caller is responsible for advancing
    the simulation clock (``sim.run(until=end)``).

    Returns ``end_ns``, the simulated time at which the DES event queue
    would have drained.
    """
    timing = flash.timing
    sanitizer = flash.sanitizer
    profiler = getattr(flash.sim, "profiler", None)
    # One stable sort groups the reads by channel, then die, each
    # group in issue order, over keys of the smallest type that holds
    # them.
    n = len(enter_ns)
    dies = flash.geometry.dies_per_channel
    groups = len(flash.channels) * dies
    key = ws("group", n, np.min_scalar_type(groups))
    np.multiply(channel_ids, dies, out=key, casting="unsafe")
    np.add(key, die_ids, out=key, casting="unsafe")
    counts = np.bincount(key, minlength=groups).reshape(-1, dies).tolist()
    order = np.argsort(key, kind="stable")
    end = -_INF
    stop = 0
    for channel, die_counts in zip(flash.channels, counts):
        start, stop = stop, stop + sum(die_counts)
        if start == stop:
            continue
        issue = order[start:stop]
        if sanitizer is not None:
            sanitizer.channel_batch(channel.name, stop - start)
            sanitizer.check_latency(
                channel.name, "request_overhead_ns", timing.request_overhead_ns
            )
            sanitizer.check_latency(channel.name, "flush_ns", timing.flush_ns)
            for value in np.unique(transfer_ns[issue]):
                sanitizer.check_latency(channel.name, "transfer_ns", float(value))
        done, bus_free, bus_busy = _replay_channel(
            enter_ns,
            die_counts,
            transfer_ns,
            issue,
            timing.request_overhead_ns,
            timing.flush_ns,
            channel.bus._free_at,
            channel.bus.busy_time,
            ws,
            profiler,
            channel.bus.name,
            [die.name for die in channel.dies],
        )
        end = max(end, done.max())
        channel.bus._free_at = bus_free
        channel.bus.busy_time = bus_busy
        channel.bus.jobs_served += stop - start
    return float(end) if n else flash.sim.now
