"""The burn-rate *rescan*: the differential oracle for the fold.

This is `SLOEngine._evaluate_objective` (with `_burn`) and
`Autoscaler.causal_alerts` exactly as they stood before the fold
replaced them in ``src/``: every call re-derives every alert from every
window, each burn rate re-summed over its whole trailing span.  It is
quadratic and shares no state with :class:`repro.obs.slo.BurnRateFold`
— which is what makes it the oracle.  Not collected by pytest.
"""

from typing import Dict, List, Tuple

from repro.obs import names


def _burn(violating: Dict[int, bool], end: int, span: int, budget: float) -> float:
    """Burn rate over the trailing ``span`` windows ending at ``end``
    (windows with no data, or before the data, comply)."""
    bad = sum(
        1 for index in range(end - span + 1, end + 1)
        if violating.get(index, False)
    )
    return bad / span / budget


def rescan_objective(engine, objective, series) -> dict:
    record: dict = {
        "name": objective.name,
        "metric": objective.metric,
        "quantile": objective.quantile,
        "threshold_ns": objective.threshold_ns,
        "budget": objective.budget,
        "windows": [],
        "alerts": [],
    }
    indices = series.window_indices() if series is not None else []
    if not indices:
        return record
    first, last = indices[0], indices[-1]
    violating: Dict[int, bool] = {}
    for index in range(first, last + 1):
        count = series.window_count(index)
        value = series.window_percentile(index, objective.quantile)
        bad = count > 0 and value > objective.threshold_ns
        violating[index] = bad
        record["windows"].append(
            {
                "index": index,
                "start_ns": index * engine.window_ns,
                "count": count,
                "value_ns": value,
                "ok": not bad,
            }
        )
    fired: Dict[str, bool] = {rule.severity: False for rule in engine.rules}
    for index in range(first, last + 1):
        for rule in engine.rules:
            long_burn = _burn(violating, index, rule.long_windows, objective.budget)
            short_burn = _burn(violating, index, rule.short_windows, objective.budget)
            active = (
                long_burn >= rule.burn_threshold
                and short_burn >= rule.burn_threshold
            )
            if active and not fired[rule.severity]:
                record["alerts"].append(
                    {
                        "type": names.ALERT_BURN_RATE,
                        "severity": rule.severity,
                        "objective": objective.name,
                        "window": index,
                        "t_ns": (index + 1) * engine.window_ns,
                        "long_burn": long_burn,
                        "short_burn": short_burn,
                        "long_windows": rule.long_windows,
                        "short_windows": rule.short_windows,
                    }
                )
            fired[rule.severity] = active
    return record


def rescan_evaluate(engine, metrics) -> List[dict]:
    return [
        rescan_objective(engine, objective, metrics.series(objective.metric))
        for objective in engine.objectives
    ]


def rescan_alerts(engine, metrics) -> List[dict]:
    events: List[dict] = []
    for record in rescan_evaluate(engine, metrics):
        events.extend(record["alerts"])
    events.sort(key=lambda e: (e["t_ns"], e["severity"], e["objective"]))
    return events


def rescan_report(engine, metrics) -> dict:
    return {
        "window_ns": engine.window_ns,
        "rules": [
            {
                "severity": rule.severity,
                "long_windows": rule.long_windows,
                "short_windows": rule.short_windows,
                "burn_threshold": rule.burn_threshold,
            }
            for rule in engine.rules
        ],
        "objectives": rescan_evaluate(engine, metrics),
    }


def rescan_causal_alerts(
    engine, control, last_eval_ns: float, t_ns: float
) -> Tuple[dict, ...]:
    """The per-epoch rescan: all of history, filtered on the stamp."""
    return tuple(
        alert
        for alert in rescan_alerts(engine, control)
        if last_eval_ns < alert["t_ns"] <= t_ns
    )
