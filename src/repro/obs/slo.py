"""Declarative SLOs with multi-window burn-rate alerting.

RM-SSD's serving argument is an SLA argument (Fig. 12/13: sustained
QPS under a latency bound); this module turns that bound into a
monitored *objective* evaluated on the simulated clock:

    engine.objective(names.SLO_SERVING_TAIL,
                     names.METRIC_SERVING_LATENCY,
                     quantile=99.9, threshold_ns=2e6)

declares "p999(serving.latency_ns) < 2 ms, per window".  Evaluation
is pure post-processing of the windowed latency series a windowed
:class:`~repro.obs.metrics.MetricsRegistry` already collects
(:mod:`repro.obs.timeseries`): a window *violates* when it has
observations and its interpolated quantile exceeds the threshold.

Alerting follows SRE multi-window burn-rate practice: the *burn rate*
over a trailing span of L windows is

    (violating windows in span) / L / error_budget

where the budget is the tolerated violating-window fraction.  A rule
fires when both its long span (sustained burn) and its short span
(still happening *now*) exceed the rule's threshold — the long span
gives the alert memory, the short span resets it quickly once the
incident ends.  Two default severities mirror the classic fast/slow
pairing: ``page`` (6/2 windows, 10x budget) and ``ticket`` (24/6
windows, 2x budget).  Alerts are emitted as structured events on the
simulated clock, once per rising edge — `tests/test_obs_slo.py` pins
that an injected violation fires in exactly the expected window.

The rule is stated once, as a fold (:class:`BurnRateFold`): windows go
in in index order, each window's count and quantile are read exactly
once, and the burn rates come from running counts over the last
``max(long_windows)`` flags — the same ``bad / span / budget``
expression a re-summation would evaluate, so every reported burn is
bit-equal to one (`tests/slo_oracle.py` is that re-summation, kept as
the differential oracle).  :meth:`SLOEngine.evaluate` runs the fold
over a finished series; the autoscaler keeps one alive and advances it
epoch by epoch, whenever it is :meth:`~BurnRateFold.due`.  What makes
the incremental use sound is that a *closed* window is final: an empty
window complies and, with one rule per severity, can never raise an
alert, so consuming it before later data exists changes nothing a
later evaluation would see.

Determinism: evaluation reads only the windowed series (whose inputs
are bitwise-equal across the DES and fast paths) and does integer
window arithmetic, so SLO reports are byte-identical across paths.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import asdict, dataclass
from typing import Deque, Dict, List, Sequence, Set, Tuple

from repro.obs import names
from repro.obs.timeseries import checked_width


@dataclass(frozen=True)
class Objective:
    """One declarative SLO: ``quantile(metric) < threshold_ns`` per
    window, with ``budget`` the tolerated violating-window fraction."""

    name: str
    metric: str
    quantile: float
    threshold_ns: float
    budget: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile <= 100.0:
            raise ValueError("objective quantile must be in (0, 100]")
        if not (math.isfinite(self.threshold_ns) and self.threshold_ns > 0):
            raise ValueError("threshold_ns must be positive and finite")
        if not 0.0 < self.budget <= 1.0:
            raise ValueError("error budget must be a fraction in (0, 1]")


@dataclass(frozen=True)
class BurnRateRule:
    """One severity tier: fire when the burn rate over the trailing
    ``long_windows`` *and* ``short_windows`` spans both reach
    ``burn_threshold`` times the budget."""

    severity: str
    long_windows: int
    short_windows: int
    burn_threshold: float

    def __post_init__(self) -> None:
        for span in ("long_windows", "short_windows"):
            if not isinstance(getattr(self, span), numbers.Integral):
                raise ValueError(f"{span} must be an integer number of windows")
        if self.long_windows < 1 or self.short_windows < 1:
            raise ValueError("burn-rate spans must be >= 1 window")
        if self.short_windows > self.long_windows:
            raise ValueError("short span must not exceed the long span")
        if not (math.isfinite(self.burn_threshold) and self.burn_threshold > 0):
            raise ValueError("burn_threshold must be positive and finite")


#: The classic SRE fast/slow pairing, in window units.
DEFAULT_RULES: Tuple[BurnRateRule, ...] = (
    BurnRateRule(
        severity=names.ALERT_PAGE,
        long_windows=6,
        short_windows=2,
        burn_threshold=10.0,
    ),
    BurnRateRule(
        severity=names.ALERT_TICKET,
        long_windows=24,
        short_windows=6,
        burn_threshold=2.0,
    ),
)


def alert_order(alert: dict) -> tuple:
    """Sort key of alert events: (time, severity, objective)."""
    return alert["t_ns"], alert["severity"], alert["objective"]


class BurnRateFold:
    """The burn-rate rule for one objective, as a fold over windows.

    Windows are consumed once each, in index order.  The state is what
    the rule needs of the past and no more: the violation flags of the
    last ``max(long_windows)`` windows, their running count per span,
    and the rising-edge flag per severity.  Windows before ``start``
    comply, as does a window with no observations.  ``record`` is the
    objective's report so far: the window table and every alert.
    """

    def __init__(
        self,
        objective: Objective,
        rules: Sequence[BurnRateRule],
        window_ns: float,
        start: int = 0,
    ) -> None:
        self.objective = objective
        self.rules = tuple(rules)
        self.window_ns = window_ns
        #: The next window to consume; every window below it is final.
        self.next_index = start
        self.record: dict = {**asdict(objective), "windows": [], "alerts": []}
        spans = sorted(
            {s for r in self.rules for s in (r.long_windows, r.short_windows)}
        )
        #: Violating windows among the trailing ``span``, per span.
        self._bad: Dict[int, int] = dict.fromkeys(spans, 0)
        self._flags: Deque[bool] = deque(maxlen=max(spans, default=0) + 1)
        self._fired: Dict[str, bool] = {r.severity: False for r in self.rules}
        #: Unconsumed windows noted with an observation at or over the
        #: threshold.
        self._suspects: Set[int] = set()

    def note(self, index: int, value_ns: float) -> None:
        """Tell the fold that window ``index`` received an observation
        of ``value_ns`` (see :meth:`due`)."""
        if value_ns >= self.objective.threshold_ns:
            self._suspects.add(index)

    def due(self, stop: int) -> bool:
        """Whether advancing to ``stop`` could raise an alert, given
        every observation was passed to :meth:`note`.

        Only a violating window raises one: with one rule per severity,
        a complying window leaves every burn rate where it was or lower.
        A window whose observations all lie below the threshold
        complies, because its quantile interpolates inside its observed
        range and rounds at most one ulp past its largest observation.
        A fold that is not due may leave its windows unread; the next
        :meth:`advance` reads them with the rest, in order.
        """
        return any(index < stop for index in self._suspects)

    def advance(self, series, stop: int) -> List[dict]:
        """Consume windows ``[next_index, stop)`` and return the alerts
        that rose in them.  Each window's count and quantile are read
        exactly once, in one call, so ``stop`` must not pass a window
        that can still receive observations."""
        self._suspects = {index for index in self._suspects if index >= stop}
        objective, flags, fired = self.objective, self._flags, self._fired
        alerts = self.record["alerts"]
        already = len(alerts)
        indices = range(self.next_index, stop)
        reads = (
            series.window_percentiles(self.next_index, stop, objective.quantile)
            if series is not None
            else [(0, 0.0)] * len(indices)
        )
        for index, (count, value) in zip(indices, reads):
            bad = count > 0 and value > objective.threshold_ns
            self.record["windows"].append(
                {
                    "index": index,
                    "start_ns": index * self.window_ns,
                    "count": count,
                    "value_ns": value,
                    "ok": not bad,
                }
            )
            flags.append(bad)
            for span in self._bad:
                # The flag that just slid out of the trailing span.
                left = flags[-span - 1] if len(flags) > span else False
                self._bad[span] += bad - left
            burn = {
                span: violating / span / objective.budget
                for span, violating in self._bad.items()
            }
            # Rising-edge alert per rule: fire the window the condition
            # becomes true, stay silent while it holds, re-arm once clear.
            for rule in self.rules:
                long_burn = burn[rule.long_windows]
                short_burn = burn[rule.short_windows]
                active = (
                    long_burn >= rule.burn_threshold
                    and short_burn >= rule.burn_threshold
                )
                if active and not fired[rule.severity]:
                    alerts.append(
                        {
                            "type": names.ALERT_BURN_RATE,
                            "severity": rule.severity,
                            "objective": objective.name,
                            "window": index,
                            "t_ns": (index + 1) * self.window_ns,
                            "long_burn": long_burn,
                            "short_burn": short_burn,
                            "long_windows": rule.long_windows,
                            "short_windows": rule.short_windows,
                        }
                    )
                fired[rule.severity] = active
        self.next_index = max(self.next_index, stop)
        return alerts[already:]


class SLOEngine:
    """Holds declared objectives; evaluates them against a windowed
    registry's latency series."""

    def __init__(
        self,
        window_ns: float,
        rules: Sequence[BurnRateRule] = DEFAULT_RULES,
    ) -> None:
        self.window_ns = float(checked_width(window_ns))
        self.rules: Tuple[BurnRateRule, ...] = tuple(rules)
        if len({rule.severity for rule in self.rules}) != len(self.rules):
            # Rules sharing a rising-edge flag could raise an alert in
            # a complying window — and closed windows must be final.
            raise ValueError("burn-rate rules need distinct severities")
        self._objectives: List[Objective] = []

    def objective(
        self,
        name: str,
        metric: str,
        quantile: float = 99.9,
        threshold_ns: float = 1e6,
        budget: float = 0.01,
    ) -> Objective:
        """Declare one objective; returns the frozen record."""
        declared = Objective(
            name=name,
            metric=metric,
            quantile=quantile,
            threshold_ns=threshold_ns,
            budget=budget,
        )
        self._objectives.append(declared)
        return declared

    @property
    def objectives(self) -> Tuple[Objective, ...]:
        return tuple(self._objectives)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _evaluate_objective(self, objective: Objective, series) -> dict:
        """The fold, run from the first to the last data window."""
        indices = series.window_indices() if series is not None else []
        fold = BurnRateFold(
            objective, self.rules, self.window_ns, indices[0] if indices else 0
        )
        if indices:
            fold.advance(series, indices[-1] + 1)
        return fold.record

    def evaluate(self, metrics) -> List[dict]:
        """Evaluate every objective against ``metrics`` (a windowed
        :class:`~repro.obs.metrics.MetricsRegistry`)."""
        return [
            self._evaluate_objective(objective, metrics.series(objective.metric))
            for objective in self._objectives
        ]

    def alerts(self, metrics) -> List[dict]:
        """All alert events across objectives, in (time, severity) order."""
        events: List[dict] = []
        for record in self.evaluate(metrics):
            events.extend(record["alerts"])
        events.sort(key=alert_order)
        return events

    def report_dict(self, metrics) -> dict:
        """The ``slo`` section of the timeseries document."""
        return {
            "window_ns": self.window_ns,
            "rules": [
                {
                    "severity": rule.severity,
                    "long_windows": rule.long_windows,
                    "short_windows": rule.short_windows,
                    "burn_threshold": rule.burn_threshold,
                }
                for rule in self.rules
            ],
            "objectives": self.evaluate(metrics),
        }
