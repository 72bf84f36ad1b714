"""The benchmark's workloads: each is a closed loop of one kind of request.

A workload is built once (its set-up: imports, input generation and config
validation), then the harness calls ``run`` with the request's seed and
times only that call, and afterwards passes its result to ``check``, which
returns an Outcome: the work units the request completed, and why it
failed, if it did.

Every request's seed is ``[workload seed, request index]``, so two commits
run the same request sequence.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from kljnsim import (
    ExchangeConfig,
    ExchangeTimeoutError,
    Scenario,
    estimate_ber,
    make_homogeneous_scenario,
    run_key_exchange,
    secure_bit_rate,
)
from kljnsim import cli
from kljnsim.adversary import injection_sweep, passive_sweep

import checks
from checks import Outcome
from reference import event_kernel, waveform_kernel

KEY_BITS = 128
BER_GAMMAS = (10, 30, 100)
#: Per gamma: with BER ~0.19/0.063/0.002 at gamma 10/30/100, 300 runs make a
#: tie or reversal in the strict-decrease check a ~1e-6 event.
BER_RUNS = 300
PASSIVE_PERIODS = 400
INJECTION_AMPLITUDES = (0.0, 1e-8, 1e-6, 1e-4, 1e-2, 1.0)
INJECTION_PERIODS = 20


class Keygen:
    """Back-to-back 128-bit key exchanges, the library form of
    ``kljnsim exchange``; units are key bits."""

    kind = "key"
    reference_kernel = staticmethod(waveform_kernel)

    def __init__(self, workdir: Path):
        self.config = ExchangeConfig()

    def run(self, seed):
        try:
            return run_key_exchange(self.config, KEY_BITS, seed)
        except ExchangeTimeoutError as exc:
            return exc

    def check(self, result) -> Outcome:
        if isinstance(result, ExchangeTimeoutError):
            return Outcome(0, f"timeout: {result}")
        alice, bob, stats = result
        info = {"periods": stats.periods, "kept": stats.kept_bits,
                "misclassified": stats.misclassified}
        failure = checks.check_key(alice, bob, KEY_BITS)
        return Outcome(0 if failure else KEY_BITS, failure, info)


class Ber:
    """``estimate_ber`` at gamma 10, 30 and 100 (traces of 100 to 1000
    samples); units are bit periods."""

    kind = "ber"
    reference_kernel = staticmethod(waveform_kernel)

    def __init__(self, workdir: Path):
        self.config = ExchangeConfig()

    def run(self, seed):
        return estimate_ber(self.config, BER_GAMMAS, BER_RUNS, seed)

    def check(self, table) -> Outcome:
        failure = checks.check_ber([(row.gamma, row.ber) for row in table])
        return Outcome(sum(row.runs for row in table), failure)


class Passive:
    """``passive_sweep`` on the default config; units are the secure
    periods it scores."""

    kind = "passive"
    reference_kernel = staticmethod(waveform_kernel)

    def __init__(self, workdir: Path):
        self.config = ExchangeConfig()

    def run(self, seed):
        return passive_sweep(self.config, PASSIVE_PERIODS, seed)

    def check(self, sweep) -> Outcome:
        z = sweep.cross_corr_mean / sweep.cross_corr_se
        accuracy = {s.value: a for s, a in sweep.accuracy.items()}
        failure = checks.check_passive(accuracy, sweep.periods, z)
        return Outcome(sweep.periods, failure, {"passive_periods": sweep.periods})


class Injection:
    """``injection_sweep`` over six amplitudes x RMS current; units are bit
    periods."""

    kind = "injection"
    reference_kernel = staticmethod(waveform_kernel)

    def __init__(self, workdir: Path):
        self.config = ExchangeConfig()

    def run(self, seed):
        return injection_sweep(self.config, INJECTION_AMPLITUDES, INJECTION_PERIODS, seed)

    def check(self, points) -> Outcome:
        failure = checks.check_alarms(
            [(p.relative_amplitude, p.alarm_rate) for p in points],
            self.config.alarm_tolerance,
        )
        return Outcome(
            sum(p.periods for p in points), failure,
            {"alarms": sum(p.alarms for p in points)},
        )


def saturated_scenario() -> dict:
    """The C8 shape (1000 circulating vehicles, keys expire at once) over
    2e4 s instead of 1e5 s, so a run holds ~15 calls instead of 4, and with
    an empty initial pool, whose fill would otherwise lift the per-vehicle
    rate 10% above the C8 target at this horizon."""
    return make_homogeneous_scenario(
        vehicle_count=1000, duration_s=2e4, seed=1, initial_fill=0.0)


def churn_scenario() -> dict:
    """Poisson arrivals with exponential dwell, keys valid for 600 s, two
    RSDs on 1 km and 2 km lines serving two lanes each, and the event log,
    over 13,000 s so a call takes about as long as a saturated one."""
    lanes = ("rsd-1", "rsd-1", "rsd-2", "rsd-2")
    return {
        "duration_s": 13_000.0,
        "seed": 1,
        "record_events": True,
        "protocol": {"gamma": 100.0, "key_bits": 100},
        "topology": {
            "kljn_endpoint": "rsd",
            "rsds": [
                {"id": "rsd-1", "line": {"line_length": 1000.0}},
                {"id": "rsd-2", "line": {"line_length": 2000.0}},
            ],
            "rskps": [
                {"id": f"rskp-{i + 1}", "rsd": rsd, "lane": f"lane-{i + 1}",
                 "pad_length_m": 2.0, "transfer_rate_bps": 1e6}
                for i, rsd in enumerate(lanes)
            ],
        },
        "traffic": {
            "circuit_length": 9000.0,
            "speed_range": [25.0, 35.0],
            "initial_vehicles_per_lane": 50,
            "arrival_rate_per_lane": 0.05,
            "mean_dwell_s": 2000.0,
            "provision_keys": True,
            "key_ttl_s": 600.0,
        },
        "pool": {"capacity_bits": 20_000, "initial_fill": 0.5},
    }


def _number(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as handle:
        return [{k: _number(v) for k, v in row.items()} for row in csv.DictReader(handle)]


class Network:
    """One ``kljnsim simulate`` CLI call on a generated config file; units
    are vehicle key requests (donation attempts plus skipped requests),
    read back from the metrics.csv the CLI wrote."""

    reference_kernel = staticmethod(event_kernel)

    def __init__(self, workdir: Path, kind: str, scenario: dict, saturated: bool):
        self.kind = kind
        self.config_path = workdir / f"{kind}.json"
        self.config_path.write_text(json.dumps(scenario))
        self.out = workdir / f"out-{kind}"
        parsed = Scenario.from_dict(json.loads(self.config_path.read_text()))
        self.key_bits = parsed.protocol.key_bits
        self.expected_rate = None
        if saturated:
            (rsd,) = parsed.topology.rsds
            self.expected_rate = secure_bit_rate(
                rsd.line.noise_bandwidth, parsed.protocol.gamma, rsd.parallel_channels
            )

    def run(self, seed) -> int:
        cli_seed = int(np.random.SeedSequence(seed).generate_state(1)[0])
        return cli.main([
            "simulate", "--config", str(self.config_path),
            "--seed", str(cli_seed), "--out", str(self.out),
        ])

    def check(self, exit_code: int) -> Outcome:
        if exit_code != 0:
            return Outcome(0, checks.check_network(exit_code, {}, 0, 0, None))
        (metrics,) = _read_csv(self.out / "metrics.csv")
        rsds = _read_csv(self.out / "rsd_metrics.csv")
        requests = (
            metrics["donation_success"] + metrics["fail_pool_empty"]
            + metrics["fail_window_too_short"] + metrics["fail_no_former_key"]
            + metrics["skipped_valid_key"]
        )
        digest = hashlib.sha256(
            (self.out / "metrics.csv").read_bytes() + (self.out / "rsd_metrics.csv").read_bytes()
        ).hexdigest()
        events = self.out / "events.csv"
        event_rows = 0
        if events.exists():
            with events.open() as handle:
                event_rows = sum(1 for _ in handle) - 1
        info = {
            "requests": requests,
            "donations": metrics["donation_success"],
            "attempts": requests - metrics["skipped_valid_key"],
            "digest": digest,
            "bytes_written": sum(p.stat().st_size for p in self.out.iterdir()),
            "events": event_rows,
        }
        failure = checks.check_network(
            exit_code, metrics, max(r["max_load"] for r in rsds),
            self.key_bits, self.expected_rate,
        )
        return Outcome(0 if failure else requests, failure, info)


WORKLOADS = {
    "keygen": Keygen,
    "analysis.ber": Ber,
    "analysis.passive": Passive,
    "analysis.injection": Injection,
    "network.sat": lambda workdir: Network(workdir, "sat", saturated_scenario(), True),
    "network.churn": lambda workdir: Network(workdir, "churn", churn_scenario(), False),
}
