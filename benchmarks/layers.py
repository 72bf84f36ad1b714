"""Per-layer metrics of a traced run, derived from the tracer's aggregates.

Every workload reports every metric; a layer that does no work in a
workload reports 0 there (``physics.sample.calls`` is 0 on the network
workloads, ``vanet.run_s.sat`` is 0 everywhere but ``network.sat``).
Counts and times are per request or per call, so they do not grow with
the number of requests a faster commit fits into the run.
"""

from __future__ import annotations

import kljnsim.protocol as protocol

PHYSICS = ("physics.sample", "physics.solve_loop")
VANET = ("vanet.run_scenario", "vanet.build_topology")

#: name -> (unit, better); the order is the order of the report.
LAYER_METRICS = {
    "physics.sample.calls": ("count", "lower"),
    "physics.sample.us": ("us", "lower"),
    "physics.solve_loop.us": ("us", "lower"),
    "protocol.periods": ("count", "lower"),
    "protocol.period.us": ("us", "lower"),
    "protocol.period.self_us": ("us", "lower"),
    "protocol.period.us.g10": ("us", "lower"),
    "protocol.period.us.g100": ("us", "lower"),
    "protocol.monitor.us": ("us", "lower"),
    "protocol.kept_ratio": ("ratio", "higher"),
    "protocol.misclassified_ratio": ("ratio", "lower"),
    "protocol.us_per_secure_bit": ("us", "lower"),
    "adversary.synth_per_kept": ("ratio", "lower"),
    "adversary.apply_injection.us": ("us", "lower"),
    "adversary.monitor.us": ("us", "lower"),
    "adversary.passive_guess.us": ("us", "lower"),
    "adversary.alarms": ("count", "higher"),
    "vanet.build_topology.us": ("us", "lower"),
    "vanet.run_s.sat": ("s", "lower"),
    "vanet.run_s.churn": ("s", "lower"),
    "vanet.us_per_request.sat": ("us", "lower"),
    "vanet.us_per_request.churn": ("us", "lower"),
    "vanet.donation_ratio.sat": ("ratio", "higher"),
    "vanet.events_logged.churn": ("count", "lower"),
    "vanet.metrics_digest": ("hash", "lower"),
    "cli.self_s.sat": ("s", "lower"),
    "cli.self_s.churn": ("s", "lower"),
    "cli.bytes_written.churn": ("bytes", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


def _period_hook(tracer, args, record, duration):
    counters = tracer.counters
    counters["kept"] += bool(getattr(record, "kept", False))
    expected_level = getattr(protocol, "expected_level", None)
    if expected_level is not None and hasattr(record, "pair"):
        counters["misclassified"] += record.classified is not expected_level(record.pair)
    gamma = getattr(args[0], "gamma", None) if args else None
    if gamma is not None:
        counters[f"period_s.g{gamma:g}"] += duration
        counters[f"periods.g{gamma:g}"] += 1


def _alarm_hook(tracer, args, alarm, duration):
    tracer.counters["alarms"] += bool(alarm)


HOOKS = {"protocol.period": _period_hook, "adversary.monitor": _alarm_hook}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, kind: str, outcomes, untraced_s: float, traced_s: float) -> dict:
    """The LAYER_METRICS of one traced run of requests of ``kind``.

    ``outcomes`` are the checked results of the traced requests, in order.
    """
    counters = tracer.counters
    requests = len(tracer.requests)
    periods = tracer.calls("protocol.period")
    period_s = tracer.total_s("protocol.period")
    physics_s = tracer.total_inside_s("protocol.period", PHYSICS)
    units = sum(o.units for o in outcomes)

    def info_total(key):
        return sum(o.info.get(key, 0) for o in outcomes)

    metrics = {
        "physics.sample.calls": _ratio(tracer.calls("physics.sample"), requests),
        "physics.sample.us": tracer.mean_us("physics.sample"),
        "physics.solve_loop.us": tracer.mean_us("physics.solve_loop"),
        "protocol.periods": _ratio(periods, requests),
        "protocol.period.us": 1e6 * _ratio(period_s, periods),
        "protocol.period.self_us": 1e6 * _ratio(period_s - physics_s, periods),
        "protocol.period.us.g10": 1e6 * _ratio(counters["period_s.g10"], counters["periods.g10"]),
        "protocol.period.us.g100": 1e6 * _ratio(
            counters["period_s.g100"], counters["periods.g100"]),
        "protocol.monitor.us": tracer.mean_us("protocol.monitor"),
        "protocol.kept_ratio": _ratio(counters["kept"], periods),
        "protocol.misclassified_ratio": _ratio(counters["misclassified"], periods),
        "protocol.us_per_secure_bit": 1e6 * _ratio(period_s, counters["kept"]),
        "adversary.synth_per_kept": _ratio(
            tracer.calls("adversary.synthesize"), info_total("passive_periods")),
        "adversary.apply_injection.us": tracer.mean_us("adversary.apply_injection"),
        "adversary.monitor.us": tracer.mean_us("adversary.monitor"),
        "adversary.passive_guess.us": tracer.mean_us("adversary.passive_guess"),
        "adversary.alarms": _ratio(counters["alarms"], requests),
        "vanet.build_topology.us": tracer.mean_us("vanet.build_topology"),
        "vanet.donation_ratio.sat": 0.0,
        "vanet.events_logged.churn": 0.0,
        "vanet.metrics_digest": 0,
        "cli.bytes_written.churn": 0.0,
        "trace.overhead": _ratio(traced_s, untraced_s),
    }
    for half in ("sat", "churn"):
        mine = kind == half
        run_s = tracer.total_s("vanet.run_scenario") if mine else 0.0
        main_calls = tracer.calls("cli.main") if mine else 0
        library_s = tracer.total_inside_s("cli.main", VANET, direct=True)
        metrics[f"vanet.run_s.{half}"] = _ratio(run_s, tracer.calls("vanet.run_scenario"))
        metrics[f"vanet.us_per_request.{half}"] = 1e6 * _ratio(run_s, units)
        metrics[f"cli.self_s.{half}"] = _ratio(
            tracer.total_s("cli.main") - library_s, main_calls)
    if kind == "sat":
        metrics["vanet.donation_ratio.sat"] = _ratio(
            info_total("donations"), info_total("attempts"))
    if kind == "churn":
        metrics["vanet.events_logged.churn"] = _ratio(info_total("events"), len(outcomes))
        metrics["cli.bytes_written.churn"] = _ratio(info_total("bytes_written"), len(outcomes))
    if kind in ("sat", "churn") and "digest" in outcomes[0].info:
        # 48 bits of the digest of request 0's metrics.csv + rsd_metrics.csv.
        metrics["vanet.metrics_digest"] = int(outcomes[0].info["digest"][:12], 16)
    return {name: metrics[name] for name in LAYER_METRICS}
