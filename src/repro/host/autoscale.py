"""SLA-driven autoscaling for the cluster serving study.

The paper's scale-out context (FleetRec, capacity-driven clusters)
assumes someone decides *how many* RM-SSDs serve the model.  This
module is that someone: a closed-loop controller that watches the
same signals an operator would —

* **burn-rate alerts** from the :class:`~repro.obs.slo.SLOEngine`
  (the PR-8 multi-window page/ticket rules) evaluated over a private
  *control* registry fed with each batch's latency at dispatch time;
* the **bottleneck invariant** of
  :meth:`~repro.obs.profiler.Profiler.bottleneck_report` — whether
  the embedding stage still bounds the replica pipeline, which tells
  the controller that adding replicas buys linear throughput (and is
  recorded on every scaling event for the post-mortem);
* the epoch's **offered/capacity ratio**, the scale-*down* signal.

Decisions happen at fixed *epochs* (a whole number of SLO windows),
with hysteresis: a page alert scales up immediately, scale-down
requires a cooldown since the last action plus a run of quiet epochs
below the utilization watermark.  Every action is logged as a
:class:`ScalingEvent` that lands in the ``rmssd-timeseries/v1``
document's ``cluster`` section.

The alert stream is incremental.  The controller keeps one
:class:`~repro.obs.slo.BurnRateFold` per objective and, at each epoch
boundary ``t``, advances it over the windows that closed since the
last one — every window below ``floor(t / window)``, the same floor
division that files an observation into its window — so a run costs
one pass over its windows however many epochs it has.  The invariant
that licenses this is the loop's causality: a batch dispatched at or
after ``t`` completes at or after ``t``, hence in a window the fold
has not consumed.  :meth:`Autoscaler.observe` checks it on every
observation and raises rather than let a late completion go unseen.
Each observation is appended straight to the control histogram and
noted to the folds; the histogram bins its waiting rows when a fold due
to advance (one that could raise an alert) reads every window it
consumes, in one call.

Determinism: the controller sees only simulated-clock quantities (the
dispatcher's exact analytic completion times), so the decision
sequence — and therefore the whole cluster run — is identical on the
DES and fast serving paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.obs import names
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    DEFAULT_RULES,
    BurnRateFold,
    BurnRateRule,
    SLOEngine,
    alert_order,
)
from repro.obs.timeseries import window_index
from repro.sim.engine import SimulationError


@dataclass(frozen=True)
class ScalingEvent:
    """One autoscaler action, stamped on the simulated clock."""

    t_ns: float
    action: str
    from_replicas: int
    to_replicas: int
    reason: str
    #: Severity of the alert that triggered a scale-up ("" otherwise).
    severity: str
    #: Offered/capacity ratio over the evaluation epoch.
    utilization: float
    #: The replica pipeline's limiting stage (emb/bot/top) and whether
    #: the paper's embedding-stage-bottleneck invariant held — the
    #: bottleneck_report signal, evaluated on the stage composition.
    bottleneck_stage: str
    invariant_holds: bool
    #: The replica with the deepest backlog at the decision instant
    #: (ties -> lowest id) — the fleet member the page traces to.
    bottleneck_replica: int = 0

    def as_dict(self) -> dict:
        return {
            "t_ns": self.t_ns,
            "action": self.action,
            "from_replicas": self.from_replicas,
            "to_replicas": self.to_replicas,
            "reason": self.reason,
            "severity": self.severity,
            "utilization": self.utilization,
            "bottleneck_stage": self.bottleneck_stage,
            "invariant_holds": self.invariant_holds,
            "bottleneck_replica": self.bottleneck_replica,
        }


@dataclass(frozen=True)
class EpochSignal:
    """What the controller sees at one evaluation epoch."""

    t_ns: float
    replicas: int
    #: Causal alerts: burn-rate events with ``t_ns`` inside this epoch.
    alerts: Tuple[dict, ...]
    offered_qps: float
    capacity_qps: float
    bottleneck_stage: str
    invariant_holds: bool
    #: Deepest-backlog replica id at the epoch boundary (0 when the
    #: caller does not track per-replica backlogs).
    bottleneck_replica: int = 0

    @property
    def utilization(self) -> float:
        if self.capacity_qps <= 0:
            return 0.0
        return self.offered_qps / self.capacity_qps


class Autoscaler:
    """Closed-loop replica controller with hysteresis.

    ``sla_ns``/``quantile`` declare the serving-tail objective on a
    private windowed control registry; the burn-rate ``rules`` default
    to the SRE page/ticket pair.  ``epoch_windows`` sets the decision
    cadence in SLO windows; ``cooldown_epochs`` is the minimum epoch
    gap between *any* two actions, and scale-down additionally needs
    ``quiet_epochs`` alert-free epochs with utilization below
    ``scale_down_utilization``.
    """

    def __init__(
        self,
        sla_ns: float,
        quantile: float = 99.0,
        window_ns: float = 1e6,
        min_replicas: int = 1,
        max_replicas: int = 8,
        scale_up_step: int = 1,
        epoch_windows: int = 4,
        cooldown_epochs: int = 1,
        quiet_epochs: int = 2,
        scale_down_utilization: float = 0.5,
        rules: Sequence[BurnRateRule] = DEFAULT_RULES,
    ) -> None:
        if min_replicas < 1:
            raise ValueError("need at least one replica")
        if max_replicas < min_replicas:
            raise ValueError("max replicas must be >= min replicas")
        if scale_up_step < 1:
            raise ValueError("scale-up step must be >= 1")
        if epoch_windows < 1:
            raise ValueError("epoch must span at least one window")
        if cooldown_epochs < 0 or quiet_epochs < 0:
            raise ValueError("hysteresis spans must be non-negative")
        if not 0.0 < scale_down_utilization < 1.0:
            raise ValueError("scale-down watermark must be in (0, 1)")
        self.sla_ns = float(sla_ns)
        self.quantile = float(quantile)
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self.scale_up_step = scale_up_step
        self.cooldown_epochs = cooldown_epochs
        self.quiet_epochs = quiet_epochs
        self.scale_down_utilization = scale_down_utilization
        self.engine = SLOEngine(window_ns, rules=rules)
        self.engine.objective(
            names.SLO_SERVING_TAIL,
            names.METRIC_SERVING_LATENCY,
            quantile=quantile,
            threshold_ns=sla_ns,
        )
        #: Private control-plane registry: the analytic latency of every
        #: observed batch, stamped at its completion instant.
        self.control = MetricsRegistry(window_ns=window_ns)
        self.epoch_ns = epoch_windows * float(window_ns)
        self.events: List[ScalingEvent] = []
        #: One burn-rate fold per objective, advanced epoch by epoch.
        self._folds = [
            BurnRateFold(objective, self.engine.rules, self.engine.window_ns)
            for objective in self.engine.objectives
        ]
        #: Windows below this index are closed: the folds have read them.
        self._closed = 0
        self._epoch = 0
        self._last_action_epoch: Optional[int] = None
        self._quiet_run = 0

    # ------------------------------------------------------------------
    def observe(self, latency_ns: float, done_ns: float) -> None:
        """Record one dispatched batch's (exact) predicted latency.

        Raises if ``done_ns`` lands in a window an epoch has already
        closed: the folds read each window once, so a late completion
        would silently be ignored by every later alert.
        """
        window = window_index(done_ns, self.engine.window_ns)
        if window < self._closed:
            raise SimulationError(
                f"completion at {done_ns} ns lands in window {window}, "
                "which the autoscaler closed at an earlier epoch"
            )
        self.control.histogram(names.METRIC_SERVING_LATENCY).observe(
            latency_ns, t_ns=done_ns
        )
        for fold in self._folds:
            fold.note(window, latency_ns)

    def causal_alerts(self, t_ns: float) -> Tuple[dict, ...]:
        """Burn-rate alerts that became visible since the last epoch.

        Advances each objective's fold over the windows that closed in
        ``(last epoch, t_ns]`` — every window below the one holding
        ``t_ns`` — and returns the alerts that rose there (stamps
        ``<= t_ns``).  Those windows are final: a batch arriving at or
        after ``t_ns`` completes at or after it, which is what keeps
        the loop causal and what :meth:`observe` checks.  A fold that
        cannot raise an alert there (:meth:`~repro.obs.slo.BurnRateFold.
        due`) waits, and reads those windows at its next advance.
        """
        self._closed = max(self._closed, window_index(t_ns, self.engine.window_ns))
        fresh: List[dict] = []
        for fold in self._folds:
            if fold.due(self._closed):
                series = self.control.series(fold.objective.metric)
                fresh.extend(fold.advance(series, self._closed))
        fresh.sort(key=alert_order)
        return tuple(fresh)

    # ------------------------------------------------------------------
    def evaluate(self, signal: EpochSignal) -> int:
        """One control decision; returns the replica delta (0 = hold)."""
        self._epoch += 1
        if signal.alerts:
            self._quiet_run = 0
        else:
            self._quiet_run += 1
        in_cooldown = (
            self._last_action_epoch is not None
            and self._epoch - self._last_action_epoch <= self.cooldown_epochs
        )
        pages = [
            a for a in signal.alerts if a["severity"] == names.ALERT_PAGE
        ]
        if pages and signal.replicas < self.max_replicas:
            target = min(
                signal.replicas + self.scale_up_step, self.max_replicas
            )
            self._record(
                signal,
                target,
                action=names.EVENT_SCALE_UP,
                reason="burn-rate",
                severity=names.ALERT_PAGE,
            )
            return target - signal.replicas
        if (
            not in_cooldown
            and signal.replicas > self.min_replicas
            and self._quiet_run >= self.quiet_epochs
            and signal.utilization < self.scale_down_utilization
        ):
            target = signal.replicas - 1
            self._record(
                signal,
                target,
                action=names.EVENT_SCALE_DOWN,
                reason="idle-capacity",
                severity="",
            )
            return -1
        return 0

    def _record(
        self,
        signal: EpochSignal,
        target: int,
        action: str,
        reason: str,
        severity: str,
    ) -> None:
        self._last_action_epoch = self._epoch
        self.events.append(
            ScalingEvent(
                t_ns=signal.t_ns,
                action=action,
                from_replicas=signal.replicas,
                to_replicas=target,
                reason=reason,
                severity=severity,
                utilization=signal.utilization,
                bottleneck_stage=signal.bottleneck_stage,
                invariant_holds=signal.invariant_holds,
                bottleneck_replica=signal.bottleneck_replica,
            )
        )

    # ------------------------------------------------------------------
    def report_dict(self) -> dict:
        """The autoscaler's slice of the cluster document section."""
        return {
            "sla_ns": self.sla_ns,
            "quantile": self.quantile,
            "window_ns": self.engine.window_ns,
            "epoch_ns": self.epoch_ns,
            "min_replicas": self.min_replicas,
            "max_replicas": self.max_replicas,
            "scale_up_step": self.scale_up_step,
            "cooldown_epochs": self.cooldown_epochs,
            "quiet_epochs": self.quiet_epochs,
            "scale_down_utilization": self.scale_down_utilization,
            "events": [event.as_dict() for event in self.events],
        }
