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
import json
import sys
from pathlib import Path

import numpy as np

from .adversary import injection_sweep, passive_sweep
from .errors import ConfigError, InvalidParameterError
from .lifetime import LifetimeParams, key_lifetime
from .physics import LINE_FIELDS, KljnLineConfig, as_seed_sequence
from .protocol import ExchangeConfig, Party, estimate_ber, run_key_exchange
from .vanet import EventKind, Scenario, make_homogeneous_scenario

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


def _reject_unknown(config: dict, known: set[str], where: str) -> None:
    unknown = set(config) - known
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {sorted(unknown)}")


def _line_from(config: dict) -> KljnLineConfig:
    raw = config.get("line", {})
    if not isinstance(raw, dict):
        raise ConfigError("field 'line' must be an object")
    _reject_unknown(raw, LINE_FIELDS, "field 'line'")
    try:
        return KljnLineConfig(**raw)
    except (TypeError, InvalidParameterError) as exc:
        raise ConfigError(f"field 'line': {exc}") from exc


def _exchange_config(config: dict) -> ExchangeConfig:
    known = {
        "line", "gamma", "oversample", "alarm_tolerance",
        "inverting_party", "classify_on", "timeout_factor", "target_bits",
    }
    _reject_unknown(config, known, "config")
    try:
        inverting = Party(config.get("inverting_party", "bob"))
    except ValueError as exc:
        raise ConfigError("field 'inverting_party' must be 'alice' or 'bob'") from exc
    try:
        return ExchangeConfig(
            line=_line_from(config),
            gamma=float(config.get("gamma", 100.0)),
            oversample=float(config.get("oversample", 10.0)),
            alarm_tolerance=float(config.get("alarm_tolerance", 1e-9)),
            inverting_party=inverting,
            classify_on=config.get("classify_on", "both"),
            timeout_factor=float(config.get("timeout_factor", 100.0)),
        )
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_exchange(config: dict, seed, outdir: Path, suffix: str) -> None:
    exchange = _exchange_config(config)
    target = config.get("target_bits", 100)
    if not isinstance(target, int) or target < 0:
        raise ConfigError("field 'target_bits' must be a non-negative integer")
    alice, bob, stats = run_key_exchange(exchange, target, seed)
    _write_csv(
        outdir / f"keys{suffix}.csv",
        ["party", "length", "key_hex"],
        [_line("alice", alice.length, alice.hex()), _line("bob", bob.length, bob.hex())],
    )
    counts = {p.value: c for p, c in stats.pair_counts.items()}
    _write_csv(
        outdir / f"exchange_stats{suffix}.csv",
        [
            "periods", "count_ll", "count_lh", "count_hl", "count_hh",
            "kept_bits", "misclassified_periods", "alarms", "elapsed_s",
            "keys_match",
        ],
        [_line(
            stats.periods, counts["LL"], counts["LH"], counts["HL"], counts["HH"],
            stats.kept_bits, stats.misclassified, stats.alarms, stats.elapsed_s,
            alice == bob,
        )],
    )


def cmd_lifetime(config: dict, seed, outdir: Path, suffix: str) -> None:
    known = {
        "theta", "wave_speed", "line_length", "gamma", "key_length",
        "car_count", "kljn_unit_count", "car_density", "parallel_channels",
    }
    _reject_unknown(config, known, "config")
    try:
        params = LifetimeParams(
            theta=float(config.get("theta", 0.1)),
            wave_speed=float(config.get("wave_speed", 2e8)),
            line_length=float(config.get("line_length", 1000.0)),
            gamma=float(config.get("gamma", 100.0)),
            key_length=float(config.get("key_length", 100)),
            car_count=config.get("car_count"),
            kljn_unit_count=config.get("kljn_unit_count"),
            car_density=config.get("car_density", 1000.0 if "car_count" not in config else None),
            parallel_channels=int(config.get("parallel_channels", 1)),
        )
        report = key_lifetime(params)
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from exc
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
    if metrics.events is not None:
        # The one large file: one f-string per row, equal to ``_line`` cell by cell.
        _write_csv(
            outdir / f"events{suffix}.csv",
            ["time_s", "sequence", "kind", "vehicle_id", "rsd_id", "lane", "detail"],
            (
                f"{time:.12g},{seq},{_KIND_NAMES[kind]},{'' if vid is None else vid},"
                f"{'' if rsd is None else rsd},{'' if lane is None else lane},{detail}\n"
                for time, seq, kind, vid, rsd, lane, detail in metrics.events
            ),
        )


def cmd_attack(config: dict, seed, outdir: Path, suffix: str) -> None:
    known = {
        "line", "gamma", "oversample", "alarm_tolerance", "inverting_party",
        "classify_on", "timeout_factor", "periods", "injection",
    }
    _reject_unknown(config, known, "config")
    exchange = _exchange_config({k: v for k, v in config.items() if k not in ("periods", "injection")})
    periods = config.get("periods", 2000)
    if not isinstance(periods, int) or periods < 2:
        raise ConfigError("field 'periods' must be an integer >= 2")
    injection = config.get("injection", {})
    if not isinstance(injection, dict):
        raise ConfigError("field 'injection' must be an object")
    _reject_unknown(
        injection,
        {"relative_amplitudes", "periods_per_amplitude", "waveform"},
        "field 'injection'",
    )
    amplitudes = injection.get(
        "relative_amplitudes", [0.0, 1e-8, 1e-6, 1e-4, 1e-2, 1.0]
    )
    if not isinstance(amplitudes, list) or not all(
        isinstance(a, (int, float)) and a >= 0 for a in amplitudes
    ):
        raise ConfigError(
            "field 'injection.relative_amplitudes' must be a list of numbers >= 0"
        )
    per_amp = injection.get("periods_per_amplitude", 50)
    if not isinstance(per_amp, int) or per_amp < 1:
        raise ConfigError("field 'injection.periods_per_amplitude' must be a positive integer")

    passive_seed, sweep_seed = as_seed_sequence(seed).spawn(2)
    passive = passive_sweep(exchange, periods, passive_seed)
    try:
        points = injection_sweep(exchange, amplitudes, per_amp, sweep_seed)
    except InvalidParameterError as exc:
        raise ConfigError(f"field 'injection': {exc}") from exc

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
    known = {
        "line", "gamma", "oversample", "alarm_tolerance", "inverting_party",
        "classify_on", "timeout_factor", "gamma_list", "runs_per_gamma",
    }
    _reject_unknown(config, known, "config")
    exchange = _exchange_config(
        {k: v for k, v in config.items() if k not in ("gamma_list", "runs_per_gamma")}
    )
    gamma_list = config.get("gamma_list", [10, 30, 100])
    if not isinstance(gamma_list, list) or not all(
        isinstance(g, (int, float)) and g >= 1 for g in gamma_list
    ):
        raise ConfigError("field 'gamma_list' must be a list of numbers >= 1")
    runs = config.get("runs_per_gamma", 300)
    if not isinstance(runs, int) or runs < 100:
        raise ConfigError("field 'runs_per_gamma' must be an integer >= 100")
    try:
        table = estimate_ber(exchange, gamma_list, runs, seed)
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from exc
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
    # ConfigError and friends subclass ValueError; TypeError covers values of
    # the wrong JSON type reaching a numeric coercion.
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
