"""Command-line interface: subcommand outputs, exit codes, determinism."""

import csv
import hashlib
import json
import subprocess
import sys

import pytest

from kljnsim.cli import main


def run_cli(*args):
    return main(list(args))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


class TestLifetimeCommand:
    def test_worked_example_row(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {
            "theta": 0.1, "wave_speed": 2e8, "line_length": 1000,
            "gamma": 100, "key_length": 100, "car_density": 1000,
        })
        assert run_cli("lifetime", "--config", cfg, "--out", str(tmp_path)) == 0
        row = read_csv(tmp_path / "lifetime.csv")[0]
        assert row["noise_bandwidth_hz"] == "20000"
        assert row["secure_bit_rate_bps"] == "100"
        assert row["per_car_rate_bps"] == "0.1"
        assert row["key_lifetime_s"] == "1000"

    def test_parallel_channels_shorten_lifetime(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"parallel_channels": 10})
        assert run_cli("lifetime", "--config", cfg, "--out", str(tmp_path)) == 0
        row = read_csv(tmp_path / "lifetime.csv")[0]
        assert row["key_lifetime_s"] == "100"

    def test_wave_limit_violation_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {"theta": 1.5})
        assert run_cli("lifetime", "--config", cfg, "--out", str(tmp_path)) == 2
        assert "theta" in capsys.readouterr().err

    def test_fractional_parallel_channels_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {"parallel_channels": 2.7})
        assert run_cli("lifetime", "--config", cfg, "--out", str(tmp_path)) == 2
        assert "config.parallel_channels: expected an integer, got 2.7" in capsys.readouterr().err
        assert not (tmp_path / "lifetime.csv").exists()

    def test_car_count_pair(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"car_count": 500, "kljn_unit_count": 2})
        assert run_cli("lifetime", "--config", cfg, "--out", str(tmp_path)) == 0
        assert read_csv(tmp_path / "lifetime.csv")[0]["car_density"] == "250"


class TestExchangeCommand:
    def test_default_run_produces_matching_keys(self, tmp_path):
        assert run_cli("exchange", "--out", str(tmp_path)) == 0
        keys = {r["party"]: r for r in read_csv(tmp_path / "keys.csv")}
        assert keys["alice"]["key_hex"] == keys["bob"]["key_hex"]
        assert keys["alice"]["length"] == "100"
        stats = read_csv(tmp_path / "exchange_stats.csv")[0]
        assert stats["keys_match"] == "true"
        assert int(stats["kept_bits"]) == 100

    def test_malformed_config_exits_2_naming_field(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {"target_bits": -3})
        assert run_cli("exchange", "--config", cfg, "--out", str(tmp_path)) == 2
        assert "target_bits" in capsys.readouterr().err

    def test_unknown_field_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {"tarjet_bits": 100})
        assert run_cli("exchange", "--config", cfg, "--out", str(tmp_path)) == 2
        assert "tarjet_bits" in capsys.readouterr().err

    def test_boolean_gamma_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {"gamma": True})
        assert run_cli("exchange", "--config", cfg, "--out", str(tmp_path)) == 2
        assert "config.gamma: expected a number, got True" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert run_cli("exchange", "--config", str(bad), "--out", str(tmp_path)) == 2

    def test_multi_run_files_are_independent(self, tmp_path):
        assert run_cli(
            "exchange", "--out", str(tmp_path), "--runs", "2", "--seed", "5"
        ) == 0
        k0 = read_csv(tmp_path / "keys_run000.csv")
        k1 = read_csv(tmp_path / "keys_run001.csv")
        assert k0[0]["key_hex"] != k1[0]["key_hex"]


class TestSimulateCommand:
    def test_zero_traffic_metrics_row_of_zeros(self, tmp_path):
        from kljnsim import make_homogeneous_scenario

        spec = make_homogeneous_scenario(
            vehicle_count=10, duration_s=500.0, pool_capacity_keys=10,
            initial_fill=0.0,
        )
        spec["traffic"]["initial_vehicles_per_lane"] = 0
        cfg = write_json(tmp_path / "s.json", spec)
        assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path)) == 0
        row = read_csv(tmp_path / "metrics.csv")[0]
        assert row["donation_success"] == "0"
        assert row["bits_donated"] == "0"
        assert row["fail_pool_empty"] == "0"

    def test_event_log_schema(self, tmp_path):
        from kljnsim import make_homogeneous_scenario

        spec = make_homogeneous_scenario(
            vehicle_count=4, duration_s=400.0, pool_capacity_keys=10,
        )
        spec["record_events"] = True
        cfg = write_json(tmp_path / "s.json", spec)
        assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path)) == 0
        rows = read_csv(tmp_path / "events.csv")
        assert rows
        assert list(rows[0].keys()) == [
            "time_s", "sequence", "kind", "vehicle_id", "rsd_id", "lane", "detail",
        ]
        kinds = {r["kind"] for r in rows}
        assert "vehicle-arrival" in kinds and "pool-refill" in kinds

    def test_default_scenario_runs(self, tmp_path):
        assert run_cli("simulate", "--out", str(tmp_path)) == 0
        row = read_csv(tmp_path / "metrics.csv")[0]
        assert int(row["donation_success"]) > 0

    def test_bad_scenario_field_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "s.json", {"duration_s": 10})
        assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path)) == 2
        assert "topology" in capsys.readouterr().err

    def test_misspelt_topology_field_exits_2(self, tmp_path, capsys):
        from kljnsim import make_homogeneous_scenario

        spec = make_homogeneous_scenario(vehicle_count=4, duration_s=100.0)
        spec["topology"]["rskps"][0]["pad_lenght_m"] = 5.0
        cfg = write_json(tmp_path / "s.json", spec)
        assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path)) == 2
        assert "topology.rskps[0]: unknown field(s) ['pad_lenght_m']" in capsys.readouterr().err
        assert not (tmp_path / "metrics.csv").exists()

    def test_engine_error_with_event_log_writes_no_file(self, tmp_path, capsys):
        # The engine, not the parser, finds that a 10-bit pool cannot hold a
        # 100-bit key; it is built before events.csv opens.
        from kljnsim import make_homogeneous_scenario

        spec = make_homogeneous_scenario(vehicle_count=4, duration_s=100.0)
        spec["record_events"] = True
        spec["pool"]["capacity_bits"] = 10
        cfg = write_json(tmp_path / "s.json", spec)
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", cfg, "--out", str(out)) == 2
        assert "pool capacity must hold at least one key" in capsys.readouterr().err
        assert list(out.iterdir()) == []


    @pytest.mark.parametrize("where, value, named", [
        ("pad_length_m", "two", "topology.rskps[0].pad_length_m: expected a number"),
        ("theta", 2.0, "topology.rsds[0].line: theta must lie strictly between 0 and 1"),
    ])
    def test_bad_topology_value_exits_2_naming_path(self, tmp_path, capsys, where, value, named):
        from kljnsim import make_homogeneous_scenario

        spec = make_homogeneous_scenario(vehicle_count=4, duration_s=100.0)
        if where == "theta":
            spec["topology"]["rsds"][0]["line"]["theta"] = value
        else:
            spec["topology"]["rskps"][0][where] = value
        cfg = write_json(tmp_path / "s.json", spec)
        assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path)) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "metrics.csv").exists()


class TestAttackCommand:
    def test_accuracies_near_half_and_alarm_boundary(self, tmp_path):
        cfg = write_json(tmp_path / "a.json", {
            "periods": 400,
            "injection": {"relative_amplitudes": [0.0, 1e-8, 1.0],
                          "periods_per_amplitude": 20},
        })
        assert run_cli("attack", "--config", cfg, "--out", str(tmp_path)) == 0
        for row in read_csv(tmp_path / "passive_accuracy.csv"):
            assert abs(float(row["accuracy"]) - 0.5) < 0.08
        sweep = {r["relative_amplitude"]: r["alarm_rate"]
                 for r in read_csv(tmp_path / "alarm_sweep.csv")}
        assert sweep["0"] == "0"
        assert sweep["1e-08"] == "1"
        assert sweep["1"] == "1"

    def test_bad_injection_block_exits_2(self, tmp_path):
        cfg = write_json(tmp_path / "a.json", {"injection": {"relative_amplitudes": [-1]}})
        assert run_cli("attack", "--config", cfg, "--out", str(tmp_path)) == 2

    def test_unknown_waveform_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "a.json", {"injection": {"waveform": "bogus"}})
        assert run_cli("attack", "--config", cfg, "--out", str(tmp_path)) == 2
        assert "injection.waveform" in capsys.readouterr().err

    def test_waveform_reaches_injection_sweep(self, tmp_path, monkeypatch):
        from kljnsim.adversary import Waveform

        calls = []

        def fake_sweep(*args, **kwargs):
            calls.append((args, kwargs))
            return []

        monkeypatch.setattr("kljnsim.cli.injection_sweep", fake_sweep)
        cfg = write_json(tmp_path / "a.json", {
            "periods": 2, "injection": {"waveform": "gaussian"},
        })
        assert run_cli("attack", "--config", cfg, "--out", str(tmp_path)) == 0
        ((args, kwargs),) = calls
        assert Waveform.GAUSSIAN in (*args, *kwargs.values())


class TestBerCommand:
    def test_single_gamma_single_row(self, tmp_path):
        cfg = write_json(tmp_path / "b.json", {"gamma_list": [30], "runs_per_gamma": 100})
        assert run_cli("ber", "--config", cfg, "--out", str(tmp_path)) == 0
        rows = read_csv(tmp_path / "ber.csv")
        assert len(rows) == 1
        assert rows[0]["gamma"] == "30"
        assert rows[0]["runs"] == "100"

    def test_monotone_trend_on_defaults(self, tmp_path):
        assert run_cli("ber", "--out", str(tmp_path), "--seed", "2024") == 0
        rows = read_csv(tmp_path / "ber.csv")
        bers = [float(r["ber"]) for r in rows]
        assert bers[0] >= bers[1] >= bers[2]

    def test_runs_floor_enforced(self, tmp_path):
        cfg = write_json(tmp_path / "b.json", {"runs_per_gamma": 10})
        assert run_cli("ber", "--config", cfg, "--out", str(tmp_path)) == 2


class TestRangeErrors:
    @pytest.mark.parametrize("command, payload, named", [
        pytest.param(command, payload, named, id=named)
        for command, payload, named in [
            ("exchange", {"target_bits": -3}, "config.target_bits"),
            ("ber", {"gamma_list": [0.5]}, "config.gamma_list[0]"),
            ("ber", {"gamma_list": [30, 0.5]}, "config.gamma_list[1]"),
            ("ber", {"runs_per_gamma": 5}, "config.runs_per_gamma"),
            ("attack", {"periods": 1}, "config.periods"),
            ("attack", {"injection": {"periods_per_amplitude": 0}},
             "config.injection.periods_per_amplitude"),
            ("attack", {"injection": {"relative_amplitudes": [0, 1, -1]}},
             "config.injection.relative_amplitudes[2]"),
        ]
    ])
    def test_named_before_any_period(self, tmp_path, capsys, monkeypatch, command, payload,
                                     named):
        from kljnsim.protocol import _Periods, synthesize_period

        calls = []

        def counting(*args):
            calls.append(args)
            return synthesize_period(*args)

        def no_chunks(self, choices):
            calls.append(choices)
            raise AssertionError("a period ran")

        monkeypatch.setattr("kljnsim.adversary.synthesize_period", counting)
        monkeypatch.setattr(_Periods, "chunks", no_chunks)
        cfg = write_json(tmp_path / "c.json", payload)
        assert run_cli(command, "--config", cfg, "--out", str(tmp_path)) == 2
        assert f"error: {named}: " in capsys.readouterr().err
        assert calls == []


class TestDeterminismAndExitCodes:
    @pytest.mark.parametrize("command", ["exchange", "lifetime", "attack", "ber"])
    def test_reruns_byte_identical(self, tmp_path, command):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        extra = []
        if command in ("attack", "ber"):
            cfg = write_json(tmp_path / "c.json", {"periods": 100}
                             if command == "attack"
                             else {"gamma_list": [10], "runs_per_gamma": 100})
            extra = ["--config", cfg]
        assert run_cli(command, "--out", str(d1), "--seed", "9", *extra) == 0
        assert run_cli(command, "--out", str(d2), "--seed", "9", *extra) == 0
        files1 = sorted(p.name for p in d1.iterdir())
        files2 = sorted(p.name for p in d2.iterdir())
        assert files1 == files2 and files1
        for name in files1:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_output_path_collision_exits_3(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("")
        assert run_cli("lifetime", "--out", str(blocker)) == 3

    def test_missing_config_file_exits_2(self, tmp_path):
        assert run_cli("lifetime", "--config", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path)) == 2

    def test_negative_seed_exits_2(self, tmp_path):
        assert run_cli("lifetime", "--seed", "-1", "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("value", ["abc", None, [1]])
    def test_wrongly_typed_value_exits_2(self, tmp_path, value):
        cfg = write_json(tmp_path / "c.json", {"gamma": value})
        assert run_cli("exchange", "--config", cfg, "--out", str(tmp_path)) == 2

    def test_console_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "kljnsim", "lifetime", "--out", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert (tmp_path / "lifetime.csv").exists()


# sha256 of every CSV each subcommand writes at --seed 7 on its default
# config. A change that keeps the noise streams must leave every byte as it is.
PINNED_OUTPUTS = {
    "exchange": {
        "keys.csv": "3b11001886a83d23fded6bc73fe3384c05df0a933ba45beee9dec6e4ffb58686",
        "exchange_stats.csv": "14288bfdc8c53d89ce0f2f214dac89d3a65196a8d8a6adf3dbdde912cac16ee2",
    },
    "attack": {
        "passive_accuracy.csv": "6a944b5e23614813a07930f7210ba77a505e84d3ef74ab0d675e00da1b41f08b",
        "alarm_sweep.csv": "e19c8175ee92ecea71b3bb2114765a240d85b65e7ff92b9723533b5cb06a02a2",
    },
    "ber": {
        "ber.csv": "4a39c3bd3f110653c858103faf1774a6d97e85072a0827e0642653f5a8e24e54",
    },
    "lifetime": {
        "lifetime.csv": "8272905e0cfffd3ecb77894fd6965dad880eb38fcd6dbb0d1641433ff960e1d8",
    },
}


@pytest.mark.parametrize("command", list(PINNED_OUTPUTS))
def test_cli_outputs_pinned(command, tmp_path):
    assert run_cli(command, "--seed", "7", "--out", str(tmp_path)) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == PINNED_OUTPUTS[command]
