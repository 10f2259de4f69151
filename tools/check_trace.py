"""Validate exported observability JSON (trace, metrics, profile).

The ``trace-smoke``/``profile-smoke`` gates run a tiny instrumented
inference and pipe the resulting JSON through this checker:

* the trace is valid JSON with a ``traceEvents`` list;
* every track (pid, tid) has balanced ``B``/``E`` events with
  non-decreasing timestamps and proper nesting (an ``E`` always closes
  the most recent open ``B`` of the same name);
* required span names (``--require``) all appear;
* with ``--metrics``, the metrics JSON has the registry schema
  (counters/gauges/histograms/snapshots) and every histogram carries
  the quantile summary fields;
* with ``--profile``, the profile JSON has the ``rmssd-profile/v1``
  schema and is internally consistent: utilizations in [0, 1], every
  resource's busy time <= the run's elapsed time, busy timelines
  sorted and non-overlapping inside [0, elapsed], queue depths
  non-negative, and the bottleneck report well formed;
* with *both* a trace and ``--profile``, the two exports of the same
  run are cross-checked: the profile's busy intervals for span-mapped
  resources (FTL MUX, channel buses, EV Sum) must lie inside the
  union of the corresponding trace spans;
* with ``--timeseries``, the windowed export has the
  ``rmssd-timeseries/v1`` schema and is internally consistent:
  strictly increasing window indices located at ``index * window_ns``,
  per-kind invariants (ordered latency quantiles, gauge min <= last <=
  max, non-negative counter deltas), conservation (window deltas/counts
  sum to each series' total; per-window busy time sums to each
  resource's total busy time; utilizations in [0, 1]), and a
  well-formed ``slo`` section whose alerts reference declared
  objectives inside the evaluated window range.  When ``--metrics`` is
  also given, series totals are cross-checked against the registry
  export's counters and histogram counts;
* with ``--explain``, the critical-path attribution export has the
  ``rmssd-explain/v1`` schema and is internally consistent: every
  request's components sum **exactly** (fixed summation order) to its
  ``latency_ns``, records are in canonical (arrival, replica, batch)
  order, each quantile's tail/blame/exemplars re-derive from the
  records, exemplar latencies are at or above the reported quantile
  value, and blame shares lie in [0, 1] and sum to 1.  With *both* a
  trace and ``--explain``, every explain record must match a ``batch``
  span of the trace (same [arrival, completion) interval).

Every input goes through one loader (:func:`load`) and is parsed once.
An input that is missing, not JSON, or not a JSON object exits 1 with
one ``check_trace: <path>: ...`` line; otherwise the exit status is 0,
or 1 with one line per problem found.

Usage::

    python -m tools.check_trace trace.json \
        --require translate flash_read ev_sum \
        --metrics metrics.json --profile profile.json \
        --timeseries timeseries.json --explain explain.json
"""

from __future__ import annotations

import argparse
import bisect
import json
import sys
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from repro.obs import names
from repro.obs.critpath import COMPONENTS as EXPLAIN_COMPONENTS, EXPLAIN_SCHEMA
from repro.obs.profiler import PROFILE_SCHEMA, STAGE_KEYS
from repro.obs.timeseries import TIMESERIES_SCHEMA

HISTOGRAM_FIELDS = (
    "count", "mean_ns", "p50_ns", "p95_ns", "p99_ns", "min_ns", "max_ns",
)

#: Relative slack for float conservation sums (window busy times are
#: exact interval differences re-added in a different order).
CONSERVATION_RTOL = 1e-9

#: Slack allowed in the trace/profile cross-check, in nanoseconds:
#: both files derive from the same float quantities, so this only
#: absorbs the µs conversion in the Chrome export.
CROSS_CHECK_TOLERANCE_NS = 1.0


class LoadError(Exception):
    """An input file that cannot be validated at all."""


class Document(NamedTuple):
    """One parsed input file and the path its diagnostics name."""

    path: str
    data: dict


#: What every validator accepts: a path, or a document already loaded.
Source = Union[str, Document]


def load(source: Source) -> Document:
    """The one loader every input goes through.

    A :class:`Document` is returned as is, so a file shared by several
    checks is parsed once.  Raises :class:`LoadError` for a missing
    file, text that is not JSON, or a JSON value that is not an object.
    """
    if isinstance(source, Document):
        return source
    try:
        with open(source) as handle:
            data = json.load(handle)
    except (OSError, ValueError) as error:
        raise LoadError(f"{source}: cannot load: {error}") from None
    if not isinstance(data, dict):
        raise LoadError(
            f"{source}: cannot load: expected a JSON object, "
            f"got {type(data).__name__}"
        )
    return Document(source, data)


def check_trace(trace: Source, require: List[str]) -> List[str]:
    """Returns a list of problems (empty = valid)."""
    problems: List[str] = []
    path, document = load(trace)
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return [f"{path}: no traceEvents list"]

    stacks: dict = {}
    last_ts: dict = {}
    seen_names = set()
    for index, event in enumerate(events):
        phase = event.get("ph")
        if phase == "M":
            continue
        if phase not in ("B", "E"):
            problems.append(f"event {index}: unexpected phase {phase!r}")
            continue
        track = (event.get("pid"), event.get("tid"))
        ts = event.get("ts")
        name = event.get("name")
        if not isinstance(ts, (int, float)):
            problems.append(f"event {index}: missing/invalid ts")
            continue
        if ts < last_ts.get(track, float("-inf")):
            problems.append(
                f"event {index} ({name!r}): ts {ts} goes backwards on "
                f"track {track}"
            )
        last_ts[track] = ts
        stack = stacks.setdefault(track, [])
        if phase == "B":
            stack.append(name)
            seen_names.add(name)
        elif not stack:
            problems.append(
                f"event {index}: E for {name!r} with no open span "
                f"on track {track}"
            )
        else:
            if stack[-1] != name:
                problems.append(
                    f"event {index}: E for {name!r} but innermost open "
                    f"span is {stack[-1]!r} (track {track})"
                )
            stack.pop()
    for track, stack in stacks.items():
        if stack:
            problems.append(
                f"track {track}: {len(stack)} span(s) never closed: {stack}"
            )
    if not seen_names:
        problems.append("trace contains no spans")
    for name in require:
        if name not in seen_names:
            problems.append(f"required span {name!r} missing from trace")
    return problems


def check_metrics(metrics: Source) -> List[str]:
    problems: List[str] = []
    path, document = load(metrics)
    for section in ("counters", "gauges", "histograms", "snapshots"):
        if not isinstance(document.get(section), dict):
            problems.append(f"{path}: missing section {section!r}")
    for name, histogram in document.get("histograms", {}).items():
        for field in HISTOGRAM_FIELDS:
            if field not in histogram:
                problems.append(
                    f"{path}: histogram {name!r} missing {field!r}"
                )
    return problems


def check_profile(profile: Source) -> List[str]:
    """Internal consistency of a ``rmssd-profile/v1`` export."""
    problems: List[str] = []
    path, document = load(profile)
    if document.get("schema") != PROFILE_SCHEMA:
        return [f"{path}: schema {document.get('schema')!r} is not "
                f"{PROFILE_SCHEMA!r}"]
    elapsed = document.get("elapsed_ns")
    if not isinstance(elapsed, (int, float)) or elapsed < 0:
        return [f"{path}: invalid elapsed_ns {elapsed!r}"]
    resources = document.get("resources")
    if not isinstance(resources, dict) or not resources:
        problems.append(f"{path}: no resources profiled")
        resources = {}
    for name, entry in resources.items():
        utilization = entry.get("utilization", -1.0)
        if not 0.0 <= utilization <= 1.0:
            problems.append(
                f"{path}: {name}: utilization {utilization} outside [0, 1]"
            )
        busy = entry.get("busy_ns", -1.0)
        if busy < 0 or busy > elapsed:
            problems.append(
                f"{path}: {name}: busy_ns {busy} outside [0, elapsed="
                f"{elapsed}]"
            )
        intervals = entry.get("busy_intervals", [])
        cursor = 0.0
        covered = 0.0
        for start, end in intervals:
            if start < cursor or end < start:
                problems.append(
                    f"{path}: {name}: busy timeline not sorted/disjoint "
                    f"at [{start}, {end}]"
                )
                break
            cursor = end
            covered += end - start
        if cursor > elapsed:
            problems.append(
                f"{path}: {name}: busy timeline extends past elapsed "
                f"({cursor} > {elapsed})"
            )
        if not entry.get("intervals_omitted", 0) and intervals:
            # Full timeline exported: it must account for busy_ns.
            if abs(covered - busy) > max(1e-6 * busy, 1e-6):
                problems.append(
                    f"{path}: {name}: timeline covers {covered} ns but "
                    f"busy_ns says {busy}"
                )
        queue = entry.get("queue")
        if queue is not None:
            if queue.get("max_depth", -1) < 0 or queue.get("mean_depth", -1.0) < 0:
                problems.append(f"{path}: {name}: negative queue depth")
    channels = document.get("channels", {})
    for name, entry in channels.items():
        utilization = entry.get("utilization", -1.0)
        if not 0.0 <= utilization <= 1.0:
            problems.append(
                f"{path}: channel group {name}: utilization {utilization} "
                "outside [0, 1]"
            )
    bottleneck = document.get("bottleneck")
    if not isinstance(bottleneck, dict):
        problems.append(f"{path}: missing bottleneck report")
        return problems
    stage = bottleneck.get("bottleneck_stage")
    if stage not in STAGE_KEYS:
        problems.append(f"{path}: bottleneck_stage {stage!r} not in "
                        f"{STAGE_KEYS}")
    slack = bottleneck.get("slack_ns", {})
    for key in STAGE_KEYS:
        if slack.get(key, -1.0) < 0:
            problems.append(f"{path}: negative slack for stage {key!r}")
    invariant = bottleneck.get("invariant", {})
    if not isinstance(invariant.get("holds"), bool):
        problems.append(f"{path}: invariant report missing 'holds'")
    elif not invariant["holds"] and not bottleneck.get("warnings"):
        problems.append(
            f"{path}: invariant violated but no structured warning emitted"
        )
    return problems


def _check_window_list(
    prefix: str, windows, window_ns: float, problems: List[str]
) -> bool:
    """Shared shape checks (strictly increasing indices, aligned
    ``start_ns``); False when ``windows`` is not a list."""
    if not isinstance(windows, list):
        problems.append(f"{prefix}: windows is not a list")
        return False
    previous = None
    for window in windows:
        index = window.get("index")
        if not isinstance(index, int) or index < 0:
            problems.append(f"{prefix}: invalid window index {index!r}")
            break
        if previous is not None and index <= previous:
            problems.append(
                f"{prefix}: window indices not strictly increasing "
                f"({previous} then {index})"
            )
        previous = index
        start = window.get("start_ns")
        if start != index * window_ns:
            problems.append(
                f"{prefix}: window {index} start_ns {start!r} != "
                f"index * window_ns ({index * window_ns})"
            )
    return True


def _sums_match(total: float, parts: float) -> bool:
    return abs(parts - total) <= max(CONSERVATION_RTOL * abs(total), 1e-6)


def check_timeseries(
    timeseries: Source, metrics: Optional[Source] = None
) -> List[str]:
    """Internal consistency of a ``rmssd-timeseries/v1`` export.

    With ``metrics``, series totals are also cross-checked against
    the registry export of the same run: a windowed counter's deltas
    must sum to the exported counter value and a latency series' window
    counts to the exported histogram count — i.e. every timestamped
    observation landed in exactly one window.
    """
    problems: List[str] = []
    path, document = load(timeseries)
    if document.get("schema") != TIMESERIES_SCHEMA:
        return [f"{path}: schema {document.get('schema')!r} is not "
                f"{TIMESERIES_SCHEMA!r}"]
    window_ns = document.get("window_ns")
    if not isinstance(window_ns, (int, float)) or window_ns <= 0:
        return [f"{path}: invalid window_ns {window_ns!r}"]
    series = document.get("series")
    if not isinstance(series, dict):
        return [f"{path}: missing series section"]

    for name, entry in series.items():
        prefix = f"{path}: series {name!r}"
        kind = entry.get("kind")
        windows = entry.get("windows", [])
        if not _check_window_list(prefix, windows, window_ns, problems):
            continue
        if kind == "counter":
            for window in windows:
                delta = window.get("delta", -1)
                if delta < 0:
                    problems.append(
                        f"{prefix}: window {window.get('index')} has "
                        f"negative delta {delta}"
                    )
                rate = window.get("rate_per_s")
                if rate is not None and not _sums_match(
                    rate, delta / (window_ns / 1e9)
                ):
                    problems.append(
                        f"{prefix}: window {window.get('index')} rate "
                        f"{rate} inconsistent with delta {delta}"
                    )
        elif kind == "latency":
            for window in windows:
                count = window.get("count", 0)
                if count < 1:
                    problems.append(
                        f"{prefix}: window {window.get('index')} has "
                        f"count {count} < 1 (empty windows are omitted)"
                    )
                p50 = window.get("p50_ns", 0.0)
                p95 = window.get("p95_ns", 0.0)
                p99 = window.get("p99_ns", 0.0)
                low = window.get("min_ns", 0.0)
                high = window.get("max_ns", 0.0)
                if not low <= p50 <= p95 <= p99 <= high:
                    problems.append(
                        f"{prefix}: window {window.get('index')} quantiles "
                        f"not ordered: min {low} p50 {p50} p95 {p95} "
                        f"p99 {p99} max {high}"
                    )
        elif kind == "gauge":
            for window in windows:
                low = window.get("min", 0.0)
                high = window.get("max", 0.0)
                last = window.get("last", 0.0)
                if not low <= last <= high:
                    problems.append(
                        f"{prefix}: window {window.get('index')} gauge "
                        f"min {low} last {last} max {high} not ordered"
                    )
        else:
            problems.append(f"{prefix}: unknown kind {kind!r}")
        # Conservation: every observation landed in exactly one window.
        amount = {"counter": "delta", "latency": "count"}.get(kind)
        if amount is not None:
            running = sum(window.get(amount, 0) for window in windows)
            if running != entry.get("total"):
                problems.append(
                    f"{prefix}: window {amount}s sum to {running} but "
                    f"total says {entry.get('total')}"
                )

    utilization = document.get("utilization")
    if utilization is not None:
        if not isinstance(utilization, dict):
            problems.append(f"{path}: utilization section is not a dict")
            utilization = {}
        for name, entry in utilization.items():
            prefix = f"{path}: utilization {name!r}"
            windows = entry.get("windows", [])
            if not _check_window_list(prefix, windows, window_ns, problems):
                continue
            covered = 0.0
            for window in windows:
                fraction = window.get("utilization", -1.0)
                if not 0.0 <= fraction <= 1.0 + CONSERVATION_RTOL:
                    problems.append(
                        f"{prefix}: window {window.get('index')} "
                        f"utilization {fraction} outside [0, 1]"
                    )
                busy = window.get("busy_ns", -1.0)
                if busy < 0 or busy > window_ns * (1 + CONSERVATION_RTOL):
                    problems.append(
                        f"{prefix}: window {window.get('index')} busy_ns "
                        f"{busy} outside [0, window_ns={window_ns}]"
                    )
                else:
                    covered += busy
            total_busy = entry.get("busy_ns", 0.0)
            if not _sums_match(total_busy, covered):
                problems.append(
                    f"{prefix}: window busy times sum to {covered} ns but "
                    f"busy_ns says {total_busy}"
                )

    slo = document.get("slo")
    if slo is not None:
        if not isinstance(slo, dict):
            problems.append(f"{path}: slo section is not a dict")
            slo = {}
        objectives = slo.get("objectives", [])
        declared = set()
        spans: Dict[str, Tuple[int, int]] = {}
        for objective in objectives:
            name = objective.get("name")
            declared.add(name)
            indices = [w.get("index", -1) for w in objective.get("windows", [])]
            if indices:
                if indices != list(range(indices[0], indices[-1] + 1)):
                    problems.append(
                        f"{path}: slo objective {name!r}: evaluated "
                        f"windows are not a contiguous range"
                    )
                spans[name] = (indices[0], indices[-1])
            for window in objective.get("windows", []):
                if not isinstance(window.get("ok"), bool):
                    problems.append(
                        f"{path}: slo objective {name!r} window "
                        f"{window.get('index')} missing 'ok' verdict"
                    )
                    break
        for objective in objectives:
            for alert in objective.get("alerts", []):
                target = alert.get("objective")
                if target not in declared:
                    problems.append(
                        f"{path}: slo alert references undeclared "
                        f"objective {target!r}"
                    )
                    continue
                span = spans.get(target)
                window = alert.get("window", -1)
                if span is None or not span[0] <= window <= span[1]:
                    problems.append(
                        f"{path}: slo alert for {target!r} fires in window "
                        f"{window}, outside the evaluated range {span}"
                    )

    if metrics:
        registry = load(metrics).data
        # A counter's total is its exported value, a latency series'
        # total its histogram's count.
        exported = {
            "counter": registry.get("counters", {}),
            "latency": {name: histogram.get("count") for name, histogram
                        in registry.get("histograms", {}).items()},
        }
        shared = 0
        for name, entry in series.items():
            kind = entry.get("kind")
            values = exported.get(kind, {})
            if name in values:
                shared += 1
                if entry.get("total") != values[name]:
                    problems.append(
                        f"cross-check: {kind} {name!r}: timeseries total "
                        f"{entry.get('total')} != metrics export "
                        f"{values[name]}"
                    )
        if shared == 0 and series and not problems:
            problems.append(
                "cross-check: no shared series between timeseries and "
                "metrics exports"
            )
    return problems


#: Profile resource name -> trace span name, for resources that appear
#: in both exports.  Dies have no spans (the trace shows the channel,
#: not its dies) and the MLP/host spans use lanes, so the overlap check
#: covers the serialized resources whose mapping is 1:1.
def _span_name_for(resource: str) -> Optional[str]:
    if resource == names.SERVER_FTL_MUX:
        return names.FTL
    if resource == names.EV_SUM:
        return names.EV_SUM
    index = resource.rpartition("-")[0][len("channel"):]
    if index.isdigit() and resource == names.channel_bus_name(int(index)):
        return names.channel_name(int(index))
    return None


def _trace_spans(trace: Source) -> Dict[str, List[Tuple[float, float]]]:
    """Sorted ``[start_ns, end_ns)`` intervals per span name in a trace."""
    open_spans: Dict[tuple, List[float]] = {}
    intervals: Dict[str, List[Tuple[float, float]]] = {}
    for event in load(trace).data.get("traceEvents", []):
        phase = event.get("ph")
        if phase not in ("B", "E"):
            continue
        name = event.get("name")
        key = (event.get("pid"), event.get("tid"), name)
        ts_ns = float(event.get("ts", 0.0)) * 1000.0
        if phase == "B":
            open_spans.setdefault(key, []).append(ts_ns)
        elif open_spans.get(key):
            start = open_spans[key].pop()
            intervals.setdefault(name, []).append((start, ts_ns))
    return {name: sorted(pairs) for name, pairs in intervals.items()}


def _union(pairs: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Merged union of sorted intervals."""
    union = [list(pairs[0])]
    for start, end in pairs[1:]:
        if start <= union[-1][1]:
            union[-1][1] = max(union[-1][1], end)
        else:
            union.append([start, end])
    return [tuple(pair) for pair in union]


def cross_check(trace: Source, profile: Source) -> List[str]:
    """Overlap consistency between a trace and a profile of one run.

    Every profile busy interval of a span-mapped resource must lie
    inside the union of that span's trace occurrences — the profile
    may merge (dies hand off back to back) but never invent busy time
    the trace does not show.
    """
    problems: List[str] = []
    spans = _trace_spans(trace)
    checked = 0
    for resource, entry in load(profile).data.get("resources", {}).items():
        span_name = _span_name_for(resource)
        if span_name is None:
            continue
        if span_name not in spans:
            problems.append(
                f"cross-check: profile has {resource!r} but the trace "
                f"never emitted a {span_name!r} span"
            )
            continue
        union = _union(spans[span_name])
        for start, end in entry.get("busy_intervals", []):
            contained = any(
                a - CROSS_CHECK_TOLERANCE_NS <= start
                and end <= b + CROSS_CHECK_TOLERANCE_NS
                for a, b in union
            )
            if not contained:
                problems.append(
                    f"cross-check: {resource}: busy [{start}, {end}] ns "
                    f"outside the {span_name!r} spans"
                )
                break
            checked += 1
    if checked == 0 and not problems:
        problems.append(
            "cross-check: no overlapping resources between trace and profile"
        )
    return problems


def _explain_component_sum(record: dict) -> float:
    """Fixed-order component sum — the *definition* of ``latency_ns``
    in the explain schema, so the comparison below is exact equality."""
    total = 0.0
    for key in EXPLAIN_COMPONENTS:
        total = total + record[key]
    return total


def _explain_percentile(ordered: List[float], q: float) -> float:
    """Mirror of repro.analysis.metrics.percentile (presorted input)."""
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] * (1 - fraction) + ordered[upper] * fraction


def _check_shares(
    prefix: str, problems: List[str], shares: Dict[str, float],
    partition: bool,
) -> None:
    """Each share lies in [0, 1]; shares of a nonzero total sum to 1."""
    for key, share in shares.items():
        if not 0.0 <= share <= 1.0 + CONSERVATION_RTOL:
            problems.append(
                f"{prefix} share of {key} is {share}, outside [0, 1]"
            )
    total = sum(shares.values(), 0.0)
    if partition and not _sums_match(1.0, total):
        problems.append(f"{prefix} shares sum to {total}, not 1")


def check_explain(explain: Source) -> List[str]:
    """Internal consistency of a ``rmssd-explain/v1`` export."""
    problems: List[str] = []
    path, document = load(explain)
    if document.get("schema") != EXPLAIN_SCHEMA:
        return [f"{path}: schema {document.get('schema')!r} is not "
                f"{EXPLAIN_SCHEMA!r}"]
    if tuple(document.get("components", ())) != EXPLAIN_COMPONENTS:
        return [f"{path}: components {document.get('components')!r} != "
                f"{list(EXPLAIN_COMPONENTS)}"]
    requests = document.get("requests")
    if not isinstance(requests, dict) or not isinstance(
        requests.get("count"), int
    ):
        return [f"{path}: missing requests section"]
    count = requests["count"]
    totals = document.get("totals", {})
    if totals.get("count") != count:
        problems.append(
            f"{path}: totals.count {totals.get('count')} != requests.count "
            f"{count}"
        )
    records = requests.get("records")
    quantiles = document.get("quantiles", [])
    if count == 0 and quantiles:
        problems.append(f"{path}: quantile entries despite zero requests")
    if records is None:
        return problems
    if len(records) != count:
        problems.append(
            f"{path}: {len(records)} records but requests.count says {count}"
        )
    previous_key = None
    for index, record in enumerate(records):
        for key in EXPLAIN_COMPONENTS:
            value = record.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                problems.append(
                    f"{path}: record {index}: component {key} is {value!r}"
                )
                return problems
        # Exact by definition: latency IS the fixed-order sum, and a
        # JSON round-trip preserves floats bit for bit.
        if record.get("latency_ns") != _explain_component_sum(record):
            problems.append(
                f"{path}: record {index}: components sum to "
                f"{_explain_component_sum(record)} but latency_ns says "
                f"{record.get('latency_ns')} (conservation violated)"
            )
        order_key = (
            record.get("arrival_ns"), record.get("replica"),
            record.get("batch"),
        )
        if previous_key is not None and order_key < previous_key:
            problems.append(
                f"{path}: record {index}: out of canonical "
                f"(arrival, replica, batch) order"
            )
        previous_key = order_key
    if problems:
        return problems
    ordered = sorted(r["latency_ns"] for r in records)
    for entry in quantiles:
        q = entry.get("q")
        if not isinstance(q, (int, float)) or not 0.0 <= q <= 100.0:
            problems.append(f"{path}: invalid quantile {q!r}")
            continue
        prefix = f"{path}: p{q:g}"
        value = entry.get("latency_ns")
        expected = _explain_percentile(ordered, q)
        if not _sums_match(expected, value):
            problems.append(
                f"{prefix}: latency {value} != recomputed percentile "
                f"{expected}"
            )
            continue
        tail = [r for r in records if r["latency_ns"] >= value]
        summary = entry.get("tail", {})
        if summary.get("count") != len(tail):
            problems.append(
                f"{prefix}: tail count {summary.get('count')} != "
                f"{len(tail)} records at/above the quantile"
            )
            continue
        blame = summary.get("blame", {})
        _check_shares(
            f"{prefix}: blame", problems,
            {key: blame.get(key, -1.0) for key in EXPLAIN_COMPONENTS},
            partition=sum(r["latency_ns"] for r in tail) > 0,
        )
        means = summary.get("mean_ns", {})
        for key in EXPLAIN_COMPONENTS:
            expected_mean = sum(r[key] for r in tail) / len(tail)
            if not _sums_match(expected_mean, means.get(key, -1.0)):
                problems.append(
                    f"{prefix}: mean {key} {means.get(key)} != recomputed "
                    f"{expected_mean}"
                )
        _check_shares(
            f"{prefix}: queue", problems,
            {f"replica {rid}": share for rid, share
             in summary.get("queue_share_by_replica", {}).items()},
            partition=sum(r["queue_ns"] for r in tail) > 0,
        )
        exemplars = entry.get("exemplars", [])
        if len(exemplars) > len(tail):
            problems.append(
                f"{prefix}: {len(exemplars)} exemplars exceed the tail "
                f"of {len(tail)}"
            )
        previous_latency = None
        for exemplar in exemplars:
            latency = exemplar.get("latency_ns", -1.0)
            if latency < value:
                problems.append(
                    f"{prefix}: exemplar latency {latency} below the "
                    f"reported quantile {value}"
                )
                break
            if previous_latency is not None and latency > previous_latency:
                problems.append(
                    f"{prefix}: exemplars not sorted by descending latency"
                )
                break
            previous_latency = latency
    if count:
        expected_mean = sum(r["latency_ns"] for r in records) / count
        if not _sums_match(expected_mean, totals.get("mean_latency_ns", -1.0)):
            problems.append(
                f"{path}: totals.mean_latency_ns "
                f"{totals.get('mean_latency_ns')} != recomputed "
                f"{expected_mean}"
            )
    return problems


def cross_check_explain(trace: Source, explain: Source) -> List[str]:
    """Every explain record must match a ``batch`` span of the trace.

    Both exports describe the same run: a record's
    ``[arrival, arrival + latency)`` interval must appear as a
    ``batch`` span (within the trace's µs-conversion tolerance), and
    the span and record counts must agree.
    """
    records = load(explain).data.get("requests", {}).get("records")
    if records is None:
        return [
            "cross-check: explain document carries no records "
            "(exported without them?)"
        ]
    batch_spans = _trace_spans(trace).get(names.SPAN_BATCH, [])
    if len(batch_spans) != len(records):
        return [
            f"cross-check: trace has {len(batch_spans)} batch spans but "
            f"the explain document has {len(records)} records"
        ]
    starts = [span[0] for span in batch_spans]
    for record in records:
        begin = record["arrival_ns"]
        end = begin + record["latency_ns"]
        lo = bisect.bisect_left(starts, begin - CROSS_CHECK_TOLERANCE_NS)
        hi = bisect.bisect_right(starts, begin + CROSS_CHECK_TOLERANCE_NS)
        if not any(
            abs(batch_spans[i][1] - end) <= CROSS_CHECK_TOLERANCE_NS
            for i in range(lo, hi)
        ):
            return [
                f"cross-check: record (replica {record.get('replica')}, "
                f"batch {record.get('batch')}) interval [{begin}, {end}] "
                f"ns has no matching batch span in the trace"
            ]
    return []


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="check_trace", description=__doc__.splitlines()[0]
    )
    parser.add_argument("trace", nargs="?", default=None,
                        help="Chrome-trace JSON file")
    parser.add_argument(
        "--require", nargs="*", default=[],
        help="span names that must appear in the trace",
    )
    parser.add_argument(
        "--metrics", default=None,
        help="also validate a metrics JSON export",
    )
    parser.add_argument(
        "--profile", default=None,
        help="also validate a utilization-profile JSON export "
             "(cross-checked against the trace when both are given)",
    )
    parser.add_argument(
        "--timeseries", default=None,
        help="also validate a windowed timeseries JSON export "
             "(cross-checked against --metrics when both are given)",
    )
    parser.add_argument(
        "--explain", default=None,
        help="also validate a critical-path attribution JSON export "
             "(cross-checked against the trace when both are given)",
    )
    args = parser.parse_args(argv)
    subject = args.trace or args.profile or args.timeseries or args.explain
    if subject is None:
        parser.error(
            "need a trace file, --profile, --timeseries, and/or --explain"
        )
    try:
        trace, metrics, profile, timeseries, explain = (
            None if path is None else load(path) for path in (
                args.trace, args.metrics, args.profile, args.timeseries,
                args.explain,
            )
        )
    except LoadError as error:
        print(f"check_trace: {error}", file=sys.stderr)
        return 1
    problems: List[str] = []
    if trace:
        problems += check_trace(trace, args.require)
    if metrics:
        problems += check_metrics(metrics)
    if profile:
        problems += check_profile(profile)
        if trace:
            problems += cross_check(trace, profile)
    if timeseries:
        problems += check_timeseries(timeseries, metrics)
    if explain:
        problems += check_explain(explain)
        if trace and not problems:
            problems += cross_check_explain(trace, explain)
    if problems:
        for problem in problems:
            print(f"check_trace: {problem}", file=sys.stderr)
        return 1
    print(f"check_trace: {subject} OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
