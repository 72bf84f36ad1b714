"""Command-line entry point: seeded runs of every simulator capability,
emitting deterministic CSV files.

Subcommands::

    kljnsim exchange --config cfg.json --seed 7 --out results/
    kljnsim lifetime --config cfg.json
    kljnsim simulate --config scenario.json --runs 5
    kljnsim attack
    kljnsim ber

Exit codes: 0 success, 2 malformed configuration or failed validation,
3 I/O failure. Reruns with identical flags produce byte-identical files;
with ``--runs N`` each run r gets its own seed stream derived from
``(seed, r)`` and files carry a ``_runNNN`` suffix.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .adversary import Waveform, injection_sweep, passive_sweep
from .config import from_dict
from .errors import ConfigError
from .lifetime import LifetimeParams, key_lifetime
from .physics import as_seed_sequence
from .protocol import ExchangeConfig, estimate_ber, run_key_exchange
from .vanet import EventKind, NetworkMetrics, Scenario, _Engine, make_homogeneous_scenario

DEFAULT_SEED = 12345
_KIND_NAMES = {kind: kind.value for kind in EventKind}


def _fmt(value) -> str:
    """Deterministic CSV cell formatting (dot decimal, shortest-ish floats)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    if value is None:
        return ""
    return str(value)


def _line(*cells) -> str:
    """One CSV line, each cell through ``_fmt``."""
    return ",".join(map(_fmt, cells)) + "\n"


def _write_csv(path: Path, header, lines) -> None:
    """Write the header, then stream the already formatted ``lines``."""
    with path.open("w", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(lines)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    return data


@dataclass(frozen=True)
class _ExchangeCommand(ExchangeConfig):
    """``exchange`` config: every ExchangeConfig key plus the key length."""

    target_bits: int = field(default=100, metadata={"min": 0})


@dataclass(frozen=True)
class _Injection:
    """``attack``'s ``injection`` object: the alarm sweep."""

    relative_amplitudes: tuple[float, ...] = field(
        default=(0.0, 1e-8, 1e-6, 1e-4, 1e-2, 1.0), metadata={"min": 0}
    )
    periods_per_amplitude: int = field(default=50, metadata={"min": 1})
    waveform: Waveform = Waveform.CONSTANT


@dataclass(frozen=True)
class _AttackCommand(ExchangeConfig):
    """``attack`` config: every ExchangeConfig key plus both sweeps' sizes."""

    periods: int = field(default=2000, metadata={"min": 2})
    injection: _Injection = _Injection()


@dataclass(frozen=True)
class _BerCommand(ExchangeConfig):
    """``ber`` config: every ExchangeConfig key plus the sweep."""

    gamma_list: tuple[float, ...] = field(default=(10.0, 30.0, 100.0), metadata={"min": 1})
    runs_per_gamma: int = field(default=300, metadata={"min": 100})


def cmd_exchange(config: dict, seed, outdir: Path, suffix: str) -> None:
    exchange = from_dict(_ExchangeCommand, config, "config")
    alice, bob, stats = run_key_exchange(exchange, exchange.target_bits, seed)
    _write_csv(
        outdir / f"keys{suffix}.csv",
        ["party", "length", "key_hex"],
        [_line("alice", alice.length, alice.hex()), _line("bob", bob.length, bob.hex())],
    )
    counts = {p.value: c for p, c in stats.pair_counts.items()}
    # The exchange has no alarm path: alarms stays 0 in the frozen schema.
    _write_csv(
        outdir / f"exchange_stats{suffix}.csv",
        [
            "periods", "count_ll", "count_lh", "count_hl", "count_hh",
            "kept_bits", "misclassified_periods", "alarms", "elapsed_s",
            "keys_match",
        ],
        [_line(
            stats.periods, counts["LL"], counts["LH"], counts["HL"], counts["HH"],
            stats.kept_bits, stats.misclassified, 0, stats.elapsed_s,
            alice == bob,
        )],
    )


def cmd_lifetime(config: dict, seed, outdir: Path, suffix: str) -> None:
    if "car_count" not in config:
        config = {"car_density": 1000.0, **config}
    params = from_dict(LifetimeParams, config, "config")
    report = key_lifetime(params)
    _write_csv(
        outdir / f"lifetime{suffix}.csv",
        [
            "theta", "wave_speed_mps", "line_length_m", "gamma", "key_length_bits",
            "car_density", "parallel_channels", "noise_bandwidth_hz",
            "secure_bit_rate_bps", "per_car_rate_bps", "key_lifetime_s",
            "no_wave_warning", "gamma_warning",
        ],
        [_line(
            params.theta, params.wave_speed, params.line_length, params.gamma,
            params.key_length, report.car_density, params.parallel_channels,
            report.noise_bandwidth, report.secure_bit_rate, report.per_car_rate,
            report.key_lifetime, report.no_wave_warning, report.gamma_warning,
        )],
    )


def cmd_simulate(config: dict, seed, outdir: Path, suffix: str) -> None:
    if not config:
        config = make_homogeneous_scenario(
            vehicle_count=50, duration_s=5000.0, pool_capacity_keys=100,
            initial_fill=0.0,
        )
    scenario = Scenario.from_dict(config)
    if scenario.record_events:
        metrics = _run_streaming_events(scenario, seed, outdir / f"events{suffix}.csv")
    else:
        metrics = scenario.run(seed=seed)
    _write_csv(
        outdir / f"metrics{suffix}.csv",
        [
            "duration_s", "vehicles_created", "max_concurrent_vehicles",
            "donation_success", "fail_pool_empty", "fail_window_too_short",
            "fail_no_former_key", "skipped_valid_key", "bits_donated",
            "mean_vehicle_rate_bps", "mean_refresh_interval_s",
            "max_refresh_interval_s",
        ],
        [_line(
            metrics.duration_s, metrics.vehicles_created,
            metrics.max_concurrent_vehicles, metrics.donation_success,
            metrics.fail_pool_empty, metrics.fail_window_too_short,
            metrics.fail_no_former_key, metrics.skipped_valid_key,
            metrics.bits_donated, metrics.mean_vehicle_rate_bps,
            metrics.mean_refresh_interval_s, metrics.max_refresh_interval_s,
        )],
    )
    _write_csv(
        outdir / f"rsd_metrics{suffix}.csv",
        [
            "rsd_id", "donations", "bits_donated", "fail_pool_empty",
            "fail_window_too_short", "fail_no_former_key", "depletion_episodes",
            "max_load", "pool_available_end", "pool_generated",
        ],
        [
            _line(
                rsd_id, m.donations, m.bits_donated, m.fail_pool_empty,
                m.fail_window_too_short, m.fail_no_former_key,
                m.depletion_episodes, m.max_load, m.pool_available_end,
                m.pool_generated,
            )
            for rsd_id, m in sorted(metrics.per_rsd.items())
        ],
    )


def _run_streaming_events(scenario: Scenario, seed, path: Path) -> NetworkMetrics:
    """Run ``scenario`` and write each event row to ``path`` as it happens, in
    chunks of 4096 lines; the engine, so every config check, comes first."""
    rows: list[str] = []
    sequence = itertools.count()

    def log(time, kind, vid, rsd, lane, detail):
        # One f-string per row, equal to ``_line`` cell by cell.
        rows.append(
            f"{time:.12g},{next(sequence)},{_KIND_NAMES[kind]},{'' if vid is None else vid},"
            f"{'' if rsd is None else rsd},{'' if lane is None else lane},{detail}\n"
        )
        if len(rows) >= 4096:
            handle.writelines(rows)
            rows.clear()

    engine = _Engine(
        scenario.topology, scenario.traffic, scenario.duration_s, seed,
        scenario.protocol, scenario.pool, log=log, record_donations=False,
    )
    with path.open("w", newline="\n") as handle:
        handle.write("time_s,sequence,kind,vehicle_id,rsd_id,lane,detail\n")
        metrics = engine.run()
        handle.writelines(rows)
    return metrics


def cmd_attack(config: dict, seed, outdir: Path, suffix: str) -> None:
    attack = from_dict(_AttackCommand, config, "config")
    injection = attack.injection
    passive_seed, sweep_seed = as_seed_sequence(seed).spawn(2)
    # The cheap sweep first, so that its bad inputs fail before the long one.
    points = injection_sweep(
        attack, injection.relative_amplitudes, injection.periods_per_amplitude,
        sweep_seed, injection.waveform,
    )
    passive = passive_sweep(attack, attack.periods, passive_seed)

    _write_csv(
        outdir / f"passive_accuracy{suffix}.csv",
        ["strategy", "periods", "correct", "accuracy"],
        [
            _line(s.value, passive.periods, passive.correct[s], passive.accuracy[s])
            for s in passive.accuracy
        ],
    )
    _write_csv(
        outdir / f"alarm_sweep{suffix}.csv",
        ["relative_amplitude", "periods", "alarms", "alarm_rate"],
        [_line(p.relative_amplitude, p.periods, p.alarms, p.alarm_rate) for p in points],
    )


def cmd_ber(config: dict, seed, outdir: Path, suffix: str) -> None:
    ber = from_dict(_BerCommand, config, "config")
    table = estimate_ber(ber, ber.gamma_list, ber.runs_per_gamma, seed)
    _write_csv(
        outdir / f"ber{suffix}.csv",
        ["gamma", "runs", "errors", "ber"],
        [_line(row.gamma, row.runs, row.errors, row.ber) for row in table],
    )


COMMANDS = {
    "exchange": cmd_exchange,
    "lifetime": cmd_lifetime,
    "simulate": cmd_simulate,
    "attack": cmd_attack,
    "ber": cmd_ber,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kljnsim",
        description="Seeded simulator of resistor-noise secure key exchange "
        "and roadside key donation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("exchange", "run one key exchange and write keys plus statistics"),
        ("lifetime", "evaluate the key-lifetime planner"),
        ("simulate", "run a vehicular-network scenario"),
        ("attack", "passive-strategy accuracies and injection alarm sweep"),
        ("ber", "Monte Carlo misclassification rate per averaging ratio"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="JSON configuration file")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="base seed (default %(default)s)")
        p.add_argument("--out", metavar="DIR", default="kljn-out", help="output directory (default %(default)s)")
        p.add_argument("--runs", type=int, default=1, help="independent seeded runs (default 1)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.seed < 0:
            raise ConfigError("--seed must be a non-negative integer")
        if args.runs < 1:
            raise ConfigError("--runs must be at least 1")
        config = _load_config(args.config)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for run_index in range(args.runs):
            run_seed = np.random.SeedSequence([args.seed, run_index])
            suffix = "" if args.runs == 1 else f"_run{run_index:03d}"
            COMMANDS[args.command](config, run_seed, outdir, suffix)
        return 0
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    # ConfigError, InvalidParameterError and TopologyError subclass ValueError.
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
