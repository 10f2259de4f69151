"""Per-request critical-path attribution and tail exemplars.

The SLO engine (repro.obs.slo) says *that* a window blew its tail
objective and the autoscaler (repro.host.autoscale) reacts — but
neither can say *why*: which concrete requests landed in the tail, and
where each one spent its time.  This module closes that gap.  From the
serving timeline every pipeline run already produces — the arrival
column and the ``(n, 6)`` stage-stamp table (:data:`STAMP_FIELDS`) —
:func:`breakdowns` decomposes each request into

* ``dispatch_wait_ns`` — admission delay before the request reached a
  replica queue (0 today: the dispatch plan assigns at arrival);
* ``queue_ns`` — wait for the critical branch's stage server plus the
  wait for the top stage after the branch finished;
* ``emb_ns`` / ``bot_ns`` — service time of the *critical* branch of
  the parallel embedding∥bottom section (the other reads 0.0, its
  service was hidden);
* ``top_ns`` — top-MLP service time,

with the paper's section IV-C tie-break (equal finish times blame the
embedding stage, mirroring the profiler's bottleneck report).

**Conservation is exact by construction**: ``latency_ns`` is defined
as the component sum evaluated in one fixed order (see
:func:`component_sum`), not as the telescoped ``top_done - arrival``
difference — float addition is not associative, so summing raw
timestamp differences in any other order could miss the end-to-end
latency by an ulp.  :func:`breakdowns` still cross-checks the sum
against the raw latency within a relative tolerance, so a mis-stamped
row cannot hide behind the definition.

Determinism/parity: breakdowns are elementwise float arithmetic on the
stamp table, read in one place
(:meth:`repro.core.pipeline_sim.PipelineSimulator._observe`, after the
DES/fast branch).  The table is bitwise-equal between the DES and the
closed-form replay, so the exported ``rmssd-explain/v1`` documents are
**byte-identical** across paths (asserted by ``cmp`` in
``tools/check.sh`` and by ``tests/test_explain_equivalence.py``).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import percentile

#: Version tag of the explain export document.
EXPLAIN_SCHEMA = "rmssd-explain/v1"

#: The six stage stamps of one batch, in the column order of the
#: serving timeline's ``(n, 6)`` table — the single definition shared
#: by the producers (``repro.core.pipeline_sim`` /
#: ``pipeline_fast.replay_serving``) and every reader.  ``*_start_ns``
#: is when a stage's *service* began (after any wait for the stage
#: server), so queueing and service time separate cleanly.
STAMP_FIELDS = (
    "emb_start_ns",
    "emb_done_ns",
    "bot_start_ns",
    "bot_done_ns",
    "top_start_ns",
    "top_done_ns",
)

#: Breakdown components, in the fixed summation order that *defines*
#: ``latency_ns``.  Validators (tools/check_trace.py --explain) must
#: recompute the sum in exactly this order.
COMPONENTS = ("dispatch_wait_ns", "queue_ns", "emb_ns", "bot_ns", "top_ns")

#: Relative slack for the cross-check of the component sum against the
#: raw ``top_done - arrival`` latency (the sum is exact by definition;
#: the raw difference telescopes in a different order).
CONSERVATION_RTOL = 1e-9

#: Default SLO quantiles attributed by :func:`build_explain_document`.
DEFAULT_QUANTILES = (50.0, 95.0, 99.0)


def component_sum(breakdown: Dict[str, float]) -> float:
    """The breakdown's latency: components added in the fixed order.

    ``((((dispatch_wait + queue) + emb) + bot) + top)`` — every
    producer and every validator uses this exact association, so
    "components sum to latency" is an equality, not a tolerance.
    Works on one request's floats and on whole columns alike.
    """
    total = 0.0
    for key in COMPONENTS:
        total = total + breakdown[key]
    return total


def breakdowns(
    arrivals_ns: np.ndarray, stamps_ns: np.ndarray
) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    """Critical-path decomposition of a whole serving timeline.

    Returns the five :data:`COMPONENTS` columns plus ``latency_ns``
    (their :func:`component_sum`), and the mask of batches whose
    critical stage is the embedding one.  The embedding and bottom-MLP
    stages run in parallel; only the branch that finished last (ties ->
    embedding, the profiler's tie-break) is on the critical path, so
    its wait and service are charged and the other branch's service
    reads 0.0.
    """
    emb_start, emb_done, bot_start, bot_done, top_start, top_done = stamps_ns.T
    emb_critical = emb_done >= bot_done
    branch_start = np.where(emb_critical, emb_start, bot_start)
    branch_done = np.where(emb_critical, emb_done, bot_done)
    columns = {
        "dispatch_wait_ns": np.zeros_like(arrivals_ns),
        "queue_ns": (branch_start - arrivals_ns) + (top_start - branch_done),
        "emb_ns": np.where(emb_critical, emb_done - emb_start, 0.0),
        "bot_ns": np.where(emb_critical, 0.0, bot_done - bot_start),
        "top_ns": top_done - top_start,
    }
    latency = component_sum(columns)
    raw = top_done - arrivals_ns
    off = np.abs(latency - raw) > CONSERVATION_RTOL * np.maximum(np.abs(raw), 1.0)
    if off.any():
        batch = int(np.argmax(off))
        raise ValueError(
            f"batch {batch}: components sum to {float(latency[batch])} ns but "
            f"the timeline's end-to-end latency is {float(raw[batch])} ns"
        )
    columns["latency_ns"] = latency
    return columns, emb_critical


class CritPathCollector:
    """Accumulates per-request breakdowns from pipeline runs.

    Fed by :meth:`repro.core.pipeline_sim.PipelineSimulator._observe`
    with each finished run's columns; the cluster simulator sets the
    replica context before each replica's replay so breakdowns carry
    the serving replica id.
    """

    def __init__(self) -> None:
        self.requests: List[Dict[str, float]] = []
        self._replica = 0

    def __len__(self) -> int:
        return len(self.requests)

    def set_replica(self, replica: int) -> None:
        """Replica id stamped on subsequently recorded requests."""
        self._replica = int(replica)

    def reset(self) -> None:
        """Drop accumulated requests (the replica context survives)."""
        self.requests = []

    def record_run(self, arrivals_ns: np.ndarray, stamps_ns: np.ndarray) -> None:
        """Record one run's timeline: one breakdown dict per batch."""
        columns, emb_critical = breakdowns(arrivals_ns, stamps_ns)
        replica = self._replica
        rows = zip(
            arrivals_ns.tolist(),
            *(columns[key].tolist() for key in COMPONENTS),
            emb_critical.tolist(),
            columns["latency_ns"].tolist(),
        )
        for batch, row in enumerate(rows):
            arrival, wait, queue, emb, bot, top, on_emb, latency = row
            self.requests.append(
                {
                    "arrival_ns": arrival,
                    "dispatch_wait_ns": wait,
                    "queue_ns": queue,
                    "emb_ns": emb,
                    "bot_ns": bot,
                    "top_ns": top,
                    "critical_stage": "emb" if on_emb else "bot",
                    "replica": replica,
                    "batch": batch,
                    "latency_ns": latency,
                }
            )

def canonical_order(requests: Sequence[dict]) -> List[dict]:
    """Requests sorted by (arrival, replica, batch) — the document
    order, identical on both paths ((replica, batch) is unique)."""
    return sorted(requests, key=itemgetter("arrival_ns", "replica", "batch"))


def tail_exemplars(
    requests: Sequence[dict], threshold_ns: float, top_k: int
) -> List[dict]:
    """The ``top_k`` slowest requests at or above ``threshold_ns``.

    Deterministic tie-breaking: equal latencies order by (arrival,
    replica, batch), so all-identical-latency runs still yield a
    stable exemplar list.
    """
    tail = [r for r in requests if r["latency_ns"] >= threshold_ns]
    tail.sort(
        key=lambda r: (-r["latency_ns"], r["arrival_ns"], r["replica"], r["batch"])
    )
    return tail[: max(0, int(top_k))]


def _tail_summary(tail: Sequence[dict]) -> dict:
    """Blame shares and component means over one quantile's tail."""
    # Column by column: each sum runs left to right in tail order.
    sums = {}
    for key in (*COMPONENTS, "latency_ns"):
        total = 0.0
        for request in tail:
            total += request[key]
        sums[key] = total
    queue_by_replica: Dict[str, float] = {}
    for request in tail:
        rid = str(request["replica"])
        queue_by_replica[rid] = queue_by_replica.get(rid, 0.0) + request["queue_ns"]
    count = len(tail)
    latency_sum, queue_sum = sums["latency_ns"], sums["queue_ns"]
    return {
        "count": count,
        "mean_ns": {key: total / count for key, total in sums.items()},
        "blame": {
            key: (sums[key] / latency_sum if latency_sum > 0 else 0.0)
            for key in COMPONENTS
        },
        "queue_share_by_replica": {
            rid: (share / queue_sum if queue_sum > 0 else 0.0)
            for rid, share in sorted(queue_by_replica.items())
        },
    }


def build_explain_document(
    requests: Sequence[dict],
    quantiles: Sequence[float] = DEFAULT_QUANTILES,
    top_k: int = 3,
    meta: Optional[dict] = None,
    include_requests: bool = True,
) -> dict:
    """Assemble the ``rmssd-explain/v1`` document.

    Per SLO quantile: the latency value, the tail (requests at or
    above it) with blame shares per component and per-replica queue
    shares, and the ``top_k`` concrete exemplar requests.  Empty
    request lists export an empty document (count 0, no quantiles)
    rather than raising — an idle window is an answer, not an error.
    """
    ordered = canonical_order(requests)
    latencies = sorted(r["latency_ns"] for r in ordered)
    entries = []
    if ordered:
        for q in quantiles:
            value = percentile(latencies, q, presorted=True)
            tail = tail_exemplars(ordered, value, top_k=len(ordered))
            entries.append(
                {
                    "q": float(q),
                    "latency_ns": value,
                    "tail": _tail_summary(tail),
                    "exemplars": tail[: max(0, int(top_k))],
                }
            )
    document: dict = {
        "schema": EXPLAIN_SCHEMA,
        "meta": dict(meta) if meta else {},
        "components": list(COMPONENTS),
        "quantiles": entries,
        "totals": _totals(ordered),
    }
    if include_requests:
        document["requests"] = {"count": len(ordered), "records": ordered}
    else:
        document["requests"] = {"count": len(ordered)}
    return document


def _totals(ordered: Sequence[dict]) -> dict:
    if not ordered:
        return {"count": 0, "mean_latency_ns": 0.0, "blame": {}}
    summary = _tail_summary(ordered)
    return {
        "count": summary["count"],
        "mean_latency_ns": summary["mean_ns"]["latency_ns"],
        "blame": summary["blame"],
    }

