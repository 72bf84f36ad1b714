"""Discrete-event vehicular network: topology, donation flow, metrics."""

import copy
import dataclasses
import functools
import gc
import hashlib
import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kljnsim import (
    ConfigError,
    InvalidParameterError,
    PoolParams,
    ProtocolParams,
    Scenario,
    TopologyError,
    TrafficModel,
    build_topology,
    make_homogeneous_scenario,
    run_scenario,
)
from kljnsim.cli import _fmt, main as cli_main
from kljnsim.lifetime import secure_bit_rate
from kljnsim.physics import KljnLineConfig
from kljnsim.vanet import EventKind, Rsd, Rskp, Topology, _collector, _Engine
from oracles import HeapEngine


def one_rsd_spec(**rskp_overrides):
    rskp = {
        "id": "rskp-1", "rsd": "rsd-1", "lane": "lane-1",
        "pad_length_m": 2.0, "transfer_rate_bps": 1e6,
    }
    rskp.update(rskp_overrides)
    return {"rsds": [{"id": "rsd-1", "line": {}}], "rskps": [rskp]}


def generated_bits(topology, gamma=100.0, traffic=TrafficModel()):
    """Bits all pools generate in 100 s with no traffic and a large pool."""
    metrics = run_scenario(
        topology, traffic, 100.0, 1,
        protocol=ProtocolParams(gamma=gamma), pool=PoolParams(capacity_bits=10**6),
    )
    return sum(r.pool_generated for r in metrics.per_rsd.values())


class TestBuildTopology:
    def test_secure_rate_from_worked_line(self):
        # The worked line gives 100 bit/s at gamma 100.
        assert generated_bits(build_topology(one_rsd_spec())) == 10_000

    def test_no_rskps_is_valid(self):
        topo = build_topology({"rsds": [{"id": "r", "line": {}}]})
        assert topo.rskps == ()

    def test_no_rskps_means_no_donations(self):
        topo = build_topology({"rsds": [{"id": "r1", "line": {}}]})
        metrics = run_scenario(
            topo, TrafficModel(initial_vehicles_per_lane=5), 100.0, 1
        )
        assert metrics.vehicles_created == 0
        assert metrics.donation_success == 0

    def test_dangling_rskp_rejected(self):
        spec = one_rsd_spec()
        spec["rskps"][0]["rsd"] = "nope"
        with pytest.raises(TopologyError, match="unknown RSD"):
            build_topology(spec)

    def test_missing_line_rejected(self):
        with pytest.raises(TopologyError, match="missing line"):
            build_topology({"rsds": [{"id": "r"}]})

    def test_rskp_mode_requires_rskp_lines(self):
        spec = one_rsd_spec()
        spec["kljn_endpoint"] = "rskp"
        with pytest.raises(TopologyError, match="line config"):
            build_topology(spec)
        spec["rskps"][0]["line"] = {}
        assert generated_bits(build_topology(spec)) == 10_000

    def test_hand_built_rskp_mode_without_line_rejected(self):
        topo = build_topology(one_rsd_spec())
        with pytest.raises(TopologyError, match="missing line config"):
            dataclasses.replace(topo, kljn_endpoint="rskp")

    def test_hand_built_bad_endpoint_rejected(self):
        rsds = build_topology(one_rsd_spec()).rsds
        with pytest.raises(TopologyError) as info:
            Topology(rsds=rsds, kljn_endpoint="RSKP")
        assert str(info.value) == (
            "topology.kljn_endpoint: expected 'rsd' or 'rskp', got 'RSKP'"
        )

    def test_replaced_bad_endpoint_rejected(self):
        topo = build_topology(one_rsd_spec())
        with pytest.raises(TopologyError, match="kljn_endpoint"):
            dataclasses.replace(topo, kljn_endpoint="RSKP")

    def test_bad_endpoint_named_through_scenario(self):
        spec = small_scenario()
        spec["topology"]["kljn_endpoint"] = "RSKP"
        with pytest.raises(ConfigError) as info:
            Scenario.from_dict(spec)
        assert str(info.value) == (
            "scenario.topology.kljn_endpoint: expected 'rsd' or 'rskp', got 'RSKP'"
        )

    @pytest.mark.parametrize("endpoint", ["rsd", "rskp"])
    def test_pools_fill_at_protocol_gamma(self, endpoint):
        # Every pool fills at the protocol's one gamma:
        # 100 bit/s at gamma 100 becomes 200 bit/s at gamma 50.
        spec = one_rsd_spec(line={})
        spec["kljn_endpoint"] = endpoint
        assert generated_bits(build_topology(spec), gamma=50.0) == 20_000

    def test_duplicate_ids_rejected(self):
        spec = one_rsd_spec()
        spec["rsds"].append({"id": "rsd-1", "line": {}})
        with pytest.raises(TopologyError, match="duplicate"):
            build_topology(spec)

    @pytest.mark.parametrize("path, key", [
        ("rskps[2]", "pad_lenght_m"),  # misspelt pad_length_m
        ("rsds[1]", "high_speed_link"),  # a removed RSD field
        ("rskps[3].line", "thetta"),
    ])
    def test_unknown_field_named_by_path(self, path, key):
        spec = churn_spec("rskp")["topology"]
        entry = {
            "rskps[2]": spec["rskps"][2],
            "rsds[1]": spec["rsds"][1],
            "rskps[3].line": spec["rskps"][3]["line"],
        }[path]
        entry[key] = 1.0
        with pytest.raises(TopologyError) as info:
            build_topology(spec)
        assert str(info.value) == f"topology.{path}: unknown field(s) [{key!r}]"

    @pytest.mark.parametrize("path, key, value, message", [
        ("rskps[0]", "pad_length_m", "two", "expected a number, got 'two'"),
        ("rskps[0]", "pad_position_m", None, "expected a number, got None"),
        ("rsds[0]", "parallel_channels", "many", "expected a number, got 'many'"),
        ("rsds[0]", "parallel_channels", 2.7, "expected an integer, got 2.7"),
        ("rskps[0]", "transfer_rate_bps", True, "expected a number, got True"),
    ])
    def test_bad_number_named_by_path(self, path, key, value, message):
        spec = one_rsd_spec()
        entry = spec["rskps"][0] if path == "rskps[0]" else spec["rsds"][0]
        entry[key] = value
        with pytest.raises(TopologyError) as info:
            build_topology(spec)
        assert str(info.value) == f"topology.{path}.{key}: {message}"

    @pytest.mark.parametrize("line, message", [
        ({"theta": 2.0}, "topology.rsds[0].line: theta must lie strictly between 0 and 1"),
        ({"r_low": "10k"}, "topology.rsds[0].line.r_low: expected a number, got '10k'"),
    ], ids=["theta", "r_low"])
    def test_bad_line_value_named_by_path(self, line, message):
        spec = one_rsd_spec()
        spec["rsds"][0]["line"] = line
        with pytest.raises(TopologyError) as info:
            build_topology(spec)
        assert str(info.value) == message

    @pytest.mark.parametrize("key, value, message", [
        ("detector_latency_s", -1.0, "detector latency must be >= 0"),
        ("transfer_rate_bps", 0.0, "transfer rate must be positive"),
    ], ids=["negative-latency", "zero-rate"])
    def test_bad_rskp_value_named_by_path(self, key, value, message):
        with pytest.raises(TopologyError) as info:
            build_topology(one_rsd_spec(**{key: value}))
        assert str(info.value) == f"topology.rskps[0]: {message}"

    def test_unknown_topology_key_named(self):
        spec = one_rsd_spec()
        spec["gamma"] = 100.0
        with pytest.raises(TopologyError, match=r"^topology: unknown field\(s\) \['gamma'\]$"):
            build_topology(spec)


def small_scenario(**overrides):
    base = make_homogeneous_scenario(
        vehicle_count=10, duration_s=2000.0, seed=5,
        pool_capacity_keys=50, initial_fill=0.0,
    )
    base.update(overrides)
    return base


def _run_at(speed, latency):
    spec = small_scenario(duration_s=600.0)
    spec["traffic"]["speed_range"] = [speed, speed]
    spec["topology"]["rskps"][0]["detector_latency_s"] = latency
    return Scenario.from_dict(spec).run()


class TestDonationWindow:
    def test_worked_numbers_feasible(self):
        # 2 m pad at 30 m/s gives 66.7 ms; 100 bits at 1 Mb/s need 0.1 ms, so
        # a request may start up to 66.57 ms after pad entry and no later.
        inside = _run_at(30.0, 0.066)
        assert inside.fail_window_too_short == 0
        assert inside.donation_success > 0
        past = _run_at(30.0, 0.067)
        assert past.fail_window_too_short == past.donation_attempts > 0


class TestDetection:
    def test_zero_latency_fires_at_entry(self):
        from kljnsim.vanet import _Engine

        s = Scenario.from_dict(small_scenario(duration_s=600.0))
        events = []
        engine = _Engine(s.topology, s.traffic, s.duration_s, s.seed, s.protocol,
                         s.pool, log=_collector(events), record_donations=False)
        engine.run()
        pad = s.topology.rskps[0].pad_position
        circuit = s.traffic.circuit_length
        # Queued requests that expire fail later, away from the pad.
        requests = [e for e in events
                    if e.kind == EventKind.KEY_REQUEST and e.detail != "fail:pool-empty"]
        assert requests
        for e in requests:
            offset = (engine.vehicles[e.vehicle_id].position_at(e.time, circuit) - pad) % circuit
            assert min(offset, circuit - offset) < 1e-6


class TestRunScenario:
    def test_zero_traffic_fills_pool_to_cap(self):
        spec = small_scenario()
        spec["traffic"]["initial_vehicles_per_lane"] = 0
        metrics = Scenario.from_dict(spec).run()
        assert metrics.vehicles_created == 0
        assert metrics.donation_success == 0
        assert metrics.donation_attempts == 0
        assert metrics.bits_donated == 0
        rsd = metrics.per_rsd["rsd-1"]
        assert rsd.pool_available_end == 50 * 100

    def test_deterministic_run(self):
        s = Scenario.from_dict(small_scenario())
        m1 = s.run(record_events=True)
        m2 = s.run(record_events=True)
        assert m1.donation_success == m2.donation_success
        assert m1.mean_refresh_interval_s == m2.mean_refresh_interval_s
        assert len(m1.events) == len(m2.events)
        for e1, e2 in zip(m1.events, m2.events):
            assert e1 == e2

    def test_conservation_of_bits(self):
        metrics = Scenario.from_dict(small_scenario()).run()
        generated = sum(r.pool_generated for r in metrics.per_rsd.values())
        assert metrics.bits_donated <= generated

    def test_event_log_causal_and_ordered(self):
        metrics = Scenario.from_dict(small_scenario()).run(record_events=True)
        times = [e.time for e in metrics.events]
        assert times == sorted(times)
        seqs = [e.sequence for e in metrics.events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        started = 0
        for e in metrics.events:
            if e.kind is EventKind.DONATION_START:
                started += 1
            elif e.kind is EventKind.DONATION_COMPLETE:
                started -= 1
                assert started >= 0

    def test_one_time_pad_roundtrip(self):
        metrics = Scenario.from_dict(small_scenario()).run(record_donations=True)
        assert metrics.donations
        for d in metrics.donations:
            assert d.ciphertext ^ d.former_key == d.new_key

    def test_keys_fill_key_bits(self):
        spec = small_scenario()
        spec["protocol"]["key_bits"] = 70
        metrics = Scenario.from_dict(spec).run(record_donations=True)
        keys = [d.new_key for d in metrics.donations]
        assert all(0 <= k < 2**70 for k in keys)
        # 70 bits exceed one 64-bit word; a generator that yields too few
        # bits never sets the top one.
        assert any(k >> 69 for k in keys)

    def test_metrics_pure(self):
        from kljnsim.vanet import _Engine

        s = Scenario.from_dict(small_scenario())
        engine = _Engine(s.topology, s.traffic, s.duration_s, s.seed, s.protocol,
                         s.pool, log=None, record_donations=False)
        first = copy.deepcopy(engine.run())
        assert first.per_rsd["rsd-1"].pool_generated > 0
        # Neither a second aggregation nor an edit of a returned value may
        # change what the next call reports.
        engine._metrics().per_rsd["rsd-1"].donations += 1
        assert engine._metrics() == first

    def test_no_former_key_without_provisioning(self):
        spec = small_scenario()
        spec["traffic"]["provision_keys"] = False
        metrics = Scenario.from_dict(spec).run()
        assert metrics.donation_success == 0
        assert metrics.fail_no_former_key > 0

    @pytest.mark.parametrize("speed, latency, all_fail", [
        (30.0, 0.0, False),
        # Detection 50 ms after pad entry still leaves part of the ~67 ms dwell.
        (30.0, 0.05, False),
        # 20 us over the pad cannot carry 100 bits at 1 Mb/s (100 us).
        (1e5, 0.0, True),
    ], ids=["no-latency", "latency-inside-dwell", "pad-too-short"])
    def test_transfer_window(self, speed, latency, all_fail):
        metrics = _run_at(speed, latency)
        if all_fail:
            assert metrics.fail_window_too_short == metrics.donation_attempts > 0
        else:
            assert metrics.fail_window_too_short == 0
            assert metrics.donation_success > 0

    def test_window_too_short_when_latency_eats_dwell(self):
        spec = small_scenario()
        # Dwell is 2 m / ~30 m/s ~ 67 ms; a 100 ms detector misses it.
        spec["topology"]["rskps"][0]["detector_latency_s"] = 0.1
        metrics = Scenario.from_dict(spec).run()
        assert metrics.donation_success == 0
        assert metrics.fail_window_too_short > 0

    def test_skip_when_key_still_valid(self):
        spec = small_scenario()
        spec["traffic"]["key_ttl_s"] = 1e6
        metrics = Scenario.from_dict(spec).run()
        assert metrics.donation_success == 0
        assert metrics.skipped_valid_key > 0
        assert metrics.donation_attempts == 0

    def test_attempts_partition(self):
        metrics = Scenario.from_dict(small_scenario()).run(record_events=True)
        outcomes = [
            e for e in metrics.events
            if e.kind is EventKind.DONATION_START
            or (e.kind is EventKind.KEY_REQUEST and e.detail.startswith("fail:"))
        ]
        assert metrics.donation_attempts == len(outcomes)

    def test_saturated_pool_limits_donations(self):
        # 40 vehicles on a short circuit want far more than 1 key/s.
        spec = small_scenario()
        spec["traffic"]["initial_vehicles_per_lane"] = 40
        spec["traffic"]["circuit_length"] = 1200.0
        spec["duration_s"] = 3000.0
        metrics = Scenario.from_dict(spec).run()
        assert metrics.fail_pool_empty > 0
        # Pool refills one key per second; donations can't outrun supply.
        assert metrics.donation_success <= 3000 + 1
        assert metrics.donation_success >= 0.85 * 3000

    def test_steady_state_rate_balances_supply(self):
        # Saturated single-RSD scenario: aggregate donation rate approaches
        # the pool fill rate of one key per second.
        spec = make_homogeneous_scenario(
            vehicle_count=100, duration_s=20_000.0, seed=3,
            circuit_length=3000.0, pool_capacity_keys=100,
        )
        metrics = Scenario.from_dict(spec).run()
        keys_per_second = metrics.donation_success / metrics.duration_s
        assert keys_per_second == pytest.approx(1.0, rel=0.10)
        # Per-vehicle rate balances f_sec / n_c = 100 / 100 = 1 bit/s.
        assert metrics.mean_vehicle_rate_bps == pytest.approx(1.0, rel=0.10)

    def test_poisson_arrivals_and_departures(self):
        spec = small_scenario()
        spec["traffic"]["initial_vehicles_per_lane"] = 0
        spec["traffic"]["arrival_rate_per_lane"] = 0.05
        spec["traffic"]["mean_dwell_s"] = 500.0
        metrics = Scenario.from_dict(spec).run(record_events=True)
        assert metrics.vehicles_created > 0
        departures = [e for e in metrics.events if e.kind is EventKind.DEPARTURE]
        assert departures
        assert metrics.max_concurrent_vehicles <= metrics.vehicles_created

    def test_rskp_endpoint_mode_runs(self):
        spec = small_scenario()
        spec["topology"]["kljn_endpoint"] = "rskp"
        spec["topology"]["rskps"][0]["line"] = {}
        metrics = Scenario.from_dict(spec).run()
        assert metrics.donation_success > 0

    def test_refresh_intervals_positive_and_bounded(self):
        metrics = Scenario.from_dict(small_scenario()).run()
        assert metrics.mean_refresh_interval_s > 0
        assert metrics.max_refresh_interval_s >= metrics.mean_refresh_interval_s


class TestScenarioParsing:
    def test_unknown_top_level_field_named(self):
        spec = small_scenario()
        spec["bogus"] = 1
        with pytest.raises(ConfigError, match="bogus"):
            Scenario.from_dict(spec)

    def test_missing_topology_named(self):
        spec = small_scenario()
        del spec["topology"]
        with pytest.raises(ConfigError, match="topology"):
            Scenario.from_dict(spec)

    def test_bad_traffic_field_named(self):
        spec = small_scenario()
        spec["traffic"]["speed_range"] = [0.0, 10.0]
        with pytest.raises(ConfigError, match="traffic"):
            Scenario.from_dict(spec)

    @pytest.mark.parametrize("path, value", [
        pytest.param(path, value, id="-".join([*path[1:], str(value)]))
        for path in (("record_events",), ("traffic", "provision_keys"))
        for value in ("false", 0, 1, None)
    ])
    def test_non_boolean_record_events_rejected(self, path, value):
        spec = small_scenario()
        *section, key = path
        (spec[section[0]] if section else spec)[key] = value
        with pytest.raises(ConfigError, match=".".join(path)):
            Scenario.from_dict(spec)

    @pytest.mark.parametrize("section, key, value, message", [
        ("traffic", "initial_vehicles_per_lane", 2.5, "expected an integer, got 2.5"),
        ("protocol", "key_bits", 100.5, "expected an integer, got 100.5"),
        ("protocol", "gamma", True, "expected a number, got True"),
    ])
    def test_bad_section_value_named_by_path(self, section, key, value, message):
        spec = small_scenario()
        spec[section][key] = value
        with pytest.raises(ConfigError) as info:
            Scenario.from_dict(spec)
        assert str(info.value) == f"scenario.{section}.{key}: {message}"

    def test_boolean_record_events_kept(self):
        spec = small_scenario()
        for value in (True, False):
            spec["record_events"] = value
            assert Scenario.from_dict(spec).record_events is value

    def test_bad_duration_rejected(self):
        spec = small_scenario()
        spec["duration_s"] = -5
        with pytest.raises(ConfigError, match="duration_s"):
            Scenario.from_dict(spec)

    def test_traffic_model_validation(self):
        with pytest.raises(InvalidParameterError):
            TrafficModel(circuit_length=-1.0)
        with pytest.raises(InvalidParameterError):
            TrafficModel(speed_range=(10.0, 5.0))

    def test_pool_capacity_floor(self):
        with pytest.raises(InvalidParameterError):
            PoolParams(capacity_bits=10).capacity_for(100)

    def test_protocol_params_validation(self):
        with pytest.raises(InvalidParameterError):
            ProtocolParams(gamma=0.5)
        with pytest.raises(InvalidParameterError):
            ProtocolParams(key_bits=0)


def churn_spec(endpoint="rsd"):
    """Two RSDs, four lanes, Poisson arrivals with departures, 600 s keys
    and the event log."""
    owners = ("rsd-1", "rsd-1", "rsd-2", "rsd-2")
    rskps = [
        {"id": f"rskp-{i + 1}", "rsd": rsd, "lane": f"lane-{i + 1}",
         "pad_length_m": 2.0, "transfer_rate_bps": 1e6}
        for i, rsd in enumerate(owners)
    ]
    rskps[3]["detector_latency_s"] = 0.07
    if endpoint == "rskp":
        for i, rskp in enumerate(rskps):
            rskp["line"] = {"line_length": 50_000.0 * (i + 1)}
    return {
        "duration_s": 3000.0,
        "seed": 1,
        "record_events": True,
        "protocol": {"gamma": 100.0, "key_bits": 100},
        "topology": {
            "kljn_endpoint": endpoint,
            "rsds": [
                {"id": "rsd-1", "line": {"line_length": 20_000.0}},
                {"id": "rsd-2", "line": {"line_length": 80_000.0}},
            ],
            "rskps": rskps,
        },
        "traffic": {
            "circuit_length": 3000.0,
            "speed_range": [25.0, 35.0],
            "initial_vehicles_per_lane": 10,
            "arrival_rate_per_lane": 0.02,
            "mean_dwell_s": 800.0,
            "provision_keys": True,
            "key_ttl_s": 600.0,
        },
        "pool": {"capacity_bits": 2000, "initial_fill": 0.5},
    }


def interleaved(spec):
    """``spec`` with its RSKPs listed out of RSD order."""
    r = spec["topology"]["rskps"]
    spec["topology"]["rskps"] = [r[2], r[0], r[3], r[1]]
    return spec


# sha256 of metrics.csv, rsd_metrics.csv and events.csv (None: not written).
# Key values never steer the event loop, so a change of key representation
# or of engine internals must leave every byte of these files as it is.
def latency_spec():
    """Circulating traffic with a 50 ms detector, a pad 1234.5 m into the
    lap, 250 s keys and no event log."""
    spec = make_homogeneous_scenario(
        vehicle_count=200, duration_s=3000.0, seed=1, circuit_length=3000.0,
        speed_range=(25.0, 35.0), pool_capacity_keys=50, initial_fill=0.5,
        key_ttl_s=250.0)
    spec["topology"]["rskps"][0].update(detector_latency_s=0.05, pad_position_m=1234.5)
    return spec


def empty_short_lap_spec():
    """No vehicles on a 0.03 m circuit at 30 m/s (a 1 ms lap) for 1e4 s:
    only the pool refills run, with the event log on."""
    spec = make_homogeneous_scenario(
        vehicle_count=1, duration_s=1e4, seed=1, circuit_length=0.03,
        speed_range=(30.0, 30.0))
    spec["traffic"]["initial_vehicles_per_lane"] = 0
    spec["record_events"] = True
    return spec


PINNED_OUTPUTS = {
    "saturated": (
        make_homogeneous_scenario(
            vehicle_count=300, duration_s=2000.0, seed=1,
            circuit_length=3000.0, initial_fill=0.0),
        ("21162cd505b5da8fd4dca6384b2fa8c2d4f22966bbaf6d735cea790b5c5af592",
         "f6e5a4ed6859b7f689568770d6c408fbcbb6817b2b09ff9fdc496176b244796d",
         None),
    ),
    "churn": (
        churn_spec(),
        ("02a90634cd96661aee48d5aeb381fda46ee94e7287ec2004bc9fbdca82768fdb",
         "8dac60f8101f059a7af52a85646cfbf24e2b7f4e680997cf479d09f0ebdb542e",
         "b36c0fc3a2d92ce4bd8b52130472d648e39ae1f093a5259639e7b473451671b1"),
    ),
    "churn-rskp": (
        churn_spec("rskp"),
        ("ef93e884ca255d7a27bc21eb08a7770793a7a9833fc841dcaad9144dc4b1d209",
         "06d06de0adbd759bc0992650aa723c8908c24f1d40e03ea826b34bec05c6f862",
         "48065110ec6514cc12e0d6540ad106f8c511eeee2f4f30c2e333e32177276b90"),
    ),
    # Setup runs in RSD order, then in listed order within an RSD, so
    # listing the RSKPs interleaved changes no byte.
    "churn-interleaved": (
        interleaved(churn_spec()),
        ("02a90634cd96661aee48d5aeb381fda46ee94e7287ec2004bc9fbdca82768fdb",
         "8dac60f8101f059a7af52a85646cfbf24e2b7f4e680997cf479d09f0ebdb542e",
         "b36c0fc3a2d92ce4bd8b52130472d648e39ae1f093a5259639e7b473451671b1"),
    ),
    "churn-rskp-interleaved": (
        interleaved(churn_spec("rskp")),
        ("ef93e884ca255d7a27bc21eb08a7770793a7a9833fc841dcaad9144dc4b1d209",
         "06d06de0adbd759bc0992650aa723c8908c24f1d40e03ea826b34bec05c6f862",
         "48065110ec6514cc12e0d6540ad106f8c511eeee2f4f30c2e333e32177276b90"),
    ),
    # Every lap equals the shortest one.
    "constant-speed": (
        make_homogeneous_scenario(
            vehicle_count=300, duration_s=2000.0, seed=1, circuit_length=3000.0,
            speed_range=(30.0, 30.0), initial_fill=0.0),
        ("2354529fb101796e1ebb16530f3cb7cf0869d69b6b6309fa659e01ef6fefe0b4",
         "3253f5a7c44b1917d9020a286757db6a760f0f3bda1d47d39110eb7c783ef5e5",
         None),
    ),
    "latency-ttl": (
        latency_spec(),
        ("36c9fe87149f3d849d971be27280b24b0166f674934a5ed647656e76a9a460ba",
         "708c753ff2fb4da525a47a9034a00e5574872449f2e49552ac9081a374f23818",
         None),
    ),
    "empty-short-lap": (
        empty_short_lap_spec(),
        ("15a5d9caaee8aaa880d834444c56c1bbac3cc137fcf8e69d07ea04bd3b78cf79",
         "10f19a07dc2b5a3f22af5eaa2fc47ab14b7337973222b4c712b69f4b90a1193e",
         "a6a5032f68854f5b57f8023c32af616f47d74cd61902bb53602eb525662efe2f"),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_simulate_outputs_pinned(name, tmp_path):
    spec, digests = PINNED_OUTPUTS[name]
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", str(config), "--seed", "7",
                     "--out", str(out)]) == 0
    got = tuple(
        hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
        for path in (out / f for f in ("metrics.csv", "rsd_metrics.csv", "events.csv"))
    )
    assert got == digests


@pytest.mark.parametrize("endpoint", ["rsd", "rskp"])
def test_events_csv_matches_cell_oracle(endpoint, tmp_path):
    """The CLI writes each event row as one f-string; the oracle is the
    per-cell ``_fmt`` path it replaced, applied to the library's log."""
    spec = churn_spec(endpoint)
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", str(config), "--seed", "7",
                     "--out", str(out)]) == 0
    # A single CLI run uses the seed stream (seed, run index 0).
    events = Scenario.from_dict(spec).run(seed=np.random.SeedSequence([7, 0])).events
    assert [e.sequence for e in events] == list(range(len(events)))
    assert all(isinstance(e.kind, EventKind) for e in events)
    assert any(e.vehicle_id is None and e.lane is None for e in events
               if e.kind is EventKind.POOL_REFILL)
    assert (out / "events.csv").read_bytes() == cell_oracle(events)


def cell_oracle(events):
    """The bytes of events.csv, each cell of the library's log through ``_fmt``."""
    rows = ["time_s,sequence,kind,vehicle_id,rsd_id,lane,detail"] + [
        ",".join(_fmt(cell) for cell in (e.time, e.sequence, e.kind.value,
                                         e.vehicle_id, e.rsd_id, e.lane, e.detail))
        for e in events
    ]
    return ("\n".join(rows) + "\n").encode()


def test_events_csv_per_run_matches_cell_oracle(tmp_path):
    spec = churn_spec()
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", str(config), "--seed", "7", "--runs", "2",
                     "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("events*")) == [
        "events_run000.csv", "events_run001.csv"]
    for run in (0, 1):
        events = Scenario.from_dict(spec).run(seed=np.random.SeedSequence([7, run])).events
        assert (out / f"events_run{run:03d}.csv").read_bytes() == cell_oracle(events)


def test_events_csv_streams_in_bounded_memory(tmp_path):
    """The CLI writes each row as it happens; the library keeps the log."""
    spec = churn_spec()
    # 1 km lines refill each pool once a second: ~21k rows in 7,500 s.
    spec["duration_s"] = 7_500.0
    for rsd in spec["topology"]["rsds"]:
        rsd["line"] = {"line_length": 1000.0}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(spec))
    scenario = Scenario.from_dict(spec)

    def peak_bytes(call):
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - base

    tracemalloc.start()
    try:
        library = peak_bytes(lambda: scenario.run(record_events=True))
        cli = peak_bytes(lambda: cli_main(["simulate", "--config", str(config),
                                           "--out", str(tmp_path / "out")]))
    finally:
        tracemalloc.stop()
    with (tmp_path / "out" / "events.csv").open() as handle:
        assert sum(1 for _ in handle) > 20_000
    assert cli < library / 2


def tie_engine(duration_s=1000.0, circuit_length=3000.0, engine=_Engine, log=None):
    """One vehicle enters the pad at 1.0 s and laps in circuit/30 s: at the
    default 100 s its crossings land at 1, 101, 201, ... s, on the 1 s pool
    refills."""
    traffic = TrafficModel(circuit_length=circuit_length, speed_range=(30.0, 30.0),
                           arrival_rate_per_lane=1e-9)
    engine = engine(build_topology(one_rsd_spec()), traffic, duration_s, 1,
                    ProtocolParams(), PoolParams(initial_fill=0.0),
                    log=log, record_donations=False)
    engine._push(1.0, engine._on_arrival, ("lane-1", "poisson"))
    return engine


def crossings_by_horizon(engine):
    """Sum over vehicles of #{k : e_k + latency <= horizon}, with the engine's
    float rule: e_0 is the first pad entry and e_(k+1) = e_k + circuit/speed."""
    circuit = engine.traffic.circuit_length
    total = 0
    for v in engine.vehicles:
        pad = engine.lanes[v.lane][0]
        t = v.arrival_time
        entry = t + (pad.pad_position - v.position_at(t, circuit)) % circuit / v.speed
        while entry + pad.detector_latency <= engine.duration:
            total += 1
            entry = entry + circuit / v.speed
    return total


def window_edge_engine(name, engine=_Engine, log=None):
    if name == "tie":
        return tie_engine(duration_s=901.0, engine=engine, log=log)
    spec = small_scenario()
    traffic = spec["traffic"]
    traffic.update(initial_vehicles_per_lane=40, circuit_length=1200.0)
    if name == "lap-equals-window":
        traffic["speed_range"] = [30.0, 30.0]
    else:
        traffic.update(speed_range=[25.0, 35.0], arrival_rate_per_lane=0.02)
        spec["topology"]["rskps"][0].update(detector_latency_s=0.05, pad_position_m=1234.5)
    s = Scenario.from_dict(spec)
    return engine(s.topology, s.traffic, s.duration_s, s.seed, s.protocol, s.pool,
                  log=log, record_donations=False)


class TestEventOrder:
    def test_crossing_ties_keep_push_order(self):
        events = []
        metrics = tie_engine(log=_collector(events)).run()
        # The 101 s crossing was pushed at 1 s, the refill at 100 s.
        assert [e.kind.value for e in events if e.time == 101.0] == [
            "key-request", "donation-start", "pool-refill"]
        assert metrics.donation_success == 10
        rows = "".join(
            f"{e.time!r},{e.sequence},{e.kind.value},{e.vehicle_id},{e.detail}\n"
            for e in events
        )
        summary = repr(dataclasses.replace(metrics, events=None))
        assert hashlib.sha256((rows + summary).encode()).hexdigest() == (
            "56a7465ce2798611dcd1619e8d852ec90c983d8180ff4e1f9a1da107bd9db69f")

    def test_heap_event_ties_run_before_waiting_crossing(self):
        # On a 0.5 s lap the 3.0 s refill was pushed at 2.0 s, before the
        # 3.0 s crossing (pushed at 2.5 s), so the refill runs first even
        # though the crossing waits outside the heap.
        events = []
        tie_engine(duration_s=10.0, circuit_length=15.0, log=_collector(events)).run()
        assert [e.detail if e.kind is EventKind.KEY_REQUEST else e.kind.value
                for e in events if e.time == 3.0] == [
            "pool-refill", "fail:pool-empty", "granted", "donation-start"]

    @pytest.mark.parametrize("name", ["lap-equals-window", "latency-pad-offset", "tie"])
    def test_every_crossing_runs_once(self, name):
        # With keys that expire at once, no departures and provisioned keys,
        # each pad crossing up to the horizon ends in one donation or one
        # failure.
        engine = window_edge_engine(name)
        metrics = engine.run()
        assert metrics.skipped_valid_key == 0
        assert metrics.donation_attempts == crossings_by_horizon(engine) > 0


@st.composite
def small_scenarios(draw):
    """Scenario JSON objects of 1-3 RSDs and 1-4 lanes in either endpoint
    mode, with drawn detector latencies, pad offsets, speeds, TTLs, churn
    and key lengths, small enough that a run has at most MAX_CROSSINGS
    pad crossings."""
    rsd_count = draw(st.integers(1, 3))
    endpoint = draw(st.sampled_from(["rsd", "rskp"]))
    line = st.sampled_from([{"line_length": 10_000.0}, {"line_length": 80_000.0}])
    circuit = draw(st.sampled_from([300.0, 1200.0, 3000.0]))
    rskps = []
    for i in range(draw(st.integers(1, 4))):
        rskp = {"id": f"rskp-{i + 1}", "rsd": f"rsd-{draw(st.integers(1, rsd_count))}",
                "lane": f"lane-{i + 1}", "pad_length_m": 2.0, "transfer_rate_bps": 1e6,
                "detector_latency_s": draw(st.sampled_from([0.0, 0.05, 0.07])),
                "pad_position_m": draw(st.floats(0.0, 1.0)) * circuit}
        if endpoint == "rskp":
            rskp["line"] = draw(line)
        rskps.append(rskp)
    low = draw(st.sampled_from([25.0, 30.0]))
    churn = draw(st.booleans())
    return {
        "duration_s": draw(st.sampled_from([300.0, 600.0])),
        "seed": draw(st.integers(0, 2**16)),
        "protocol": {"key_bits": draw(st.sampled_from([8, 100]))},
        "topology": {
            "kljn_endpoint": endpoint,
            "rsds": [{"id": f"rsd-{i + 1}", "line": draw(line)} for i in range(rsd_count)],
            "rskps": rskps,
        },
        "traffic": {
            "circuit_length": circuit,
            "speed_range": [low, draw(st.sampled_from([low, 35.0]))],
            "initial_vehicles_per_lane": draw(st.integers(1, 8)),
            "arrival_rate_per_lane": 0.02 if churn else 0.0,
            "mean_dwell_s": 150.0 if churn else None,
            "provision_keys": draw(st.sampled_from([True, True, True, False])),
            "key_ttl_s": draw(st.sampled_from([0.0, 5.0, 600.0])),
        },
        "pool": {"capacity_bits": 800, "initial_fill": draw(st.sampled_from([0.0, 0.5]))},
    }


MAX_CROSSINGS = 4000


def heap_oracle_agrees(make):
    """``make(engine_class, log)`` builds an engine. The batched engine and
    the one-heap oracle must give equal metrics and equal event logs."""
    expected_log, log = [], []
    oracle = make(HeapEngine, _collector(expected_log))
    assert make(_Engine, _collector(log)).run() == oracle.run()
    assert log == expected_log
    assert oracle.crossings_pushed <= MAX_CROSSINGS
    return expected_log


class TestHeapOracle:
    @pytest.mark.parametrize("circuit", [3000.0, 15.0])
    def test_tie_engines(self, circuit):
        assert heap_oracle_agrees(
            lambda engine, log: tie_engine(circuit_length=circuit, engine=engine, log=log))

    @pytest.mark.parametrize("name", ["lap-equals-window", "latency-pad-offset", "tie"])
    def test_window_edge_shapes(self, name):
        assert heap_oracle_agrees(functools.partial(window_edge_engine, name))

    @given(spec=small_scenarios())
    def test_drawn_scenarios(self, spec):
        s = Scenario.from_dict(spec)
        heap_oracle_agrees(lambda engine, log: engine(
            s.topology, s.traffic, s.duration_s, s.seed, s.protocol, s.pool,
            log=log, record_donations=False))


INVARIANT_SPECS = {
    "small": small_scenario(), "churn": churn_spec(), "churn-rskp": churn_spec("rskp"),
}


class TestNetworkInvariants:
    @pytest.mark.parametrize("name", sorted(INVARIANT_SPECS))
    def test_metrics_do_not_depend_on_event_log(self, name):
        s = Scenario.from_dict(INVARIANT_SPECS[name])
        logged = s.run(record_events=True)
        assert logged.events
        assert dataclasses.replace(logged, events=None) == s.run(record_events=False)

    @pytest.mark.parametrize("name", sorted(INVARIANT_SPECS))
    def test_event_counts_match_metrics(self, name):
        metrics = Scenario.from_dict(INVARIANT_SPECS[name]).run(record_events=True)
        rows = Counter((e.kind, e.detail) for e in metrics.events)
        request = EventKind.KEY_REQUEST
        assert rows[EventKind.DONATION_COMPLETE, ""] == metrics.donation_success > 0
        assert rows[request, "fail:pool-empty"] == metrics.fail_pool_empty
        assert rows[request, "fail:window-too-short"] == metrics.fail_window_too_short
        assert rows[request, "fail:no-former-key"] == metrics.fail_no_former_key
        assert rows[request, "skipped-valid-key"] == metrics.skipped_valid_key

    def test_pool_bits_conserved_when_cap_never_binds(self):
        # 300 cars on a 100 s lap ask for 3 keys/s against 1 key/s of supply,
        # so the pool, a tenth full at the start, never reaches its cap.
        s = Scenario.from_dict(make_homogeneous_scenario(
            vehicle_count=300, duration_s=2000.0, seed=1, circuit_length=3000.0,
            pool_capacity_keys=1000, initial_fill=0.1))
        metrics = s.run()
        pool = metrics.per_rsd["rsd-1"]
        assert pool.pool_generated == metrics.bits_donated + pool.pool_available_end
        (rsd,) = s.topology.rsds
        key_bits = s.protocol.key_bits
        step = key_bits / secure_bit_rate(
            rsd.line.noise_bandwidth, s.protocol.gamma, rsd.parallel_channels)
        refills, t = 0, step
        while t <= s.duration_s:
            refills += 1
            t = t + step
        assert pool.pool_generated == 1000 * key_bits // 10 + key_bits * refills


nan, inf = math.nan, math.inf
PAD = functools.partial(Rskp, id="p", rsd_id="r", lane="l")
NON_FINITE = [
    (ProtocolParams, "gamma", nan), (ProtocolParams, "gamma", inf),
    (PAD, "pad_length", nan), (PAD, "pad_length", inf), (PAD, "transfer_rate", nan),
    (PAD, "detector_latency", nan), (PAD, "pad_position", nan), (PAD, "pad_position", -inf),
    (TrafficModel, "speed_range", (30.0, inf)), (TrafficModel, "speed_range", (nan, 30.0)),
    (TrafficModel, "speed_range", (30.0, nan)), (TrafficModel, "circuit_length", nan),
    (TrafficModel, "circuit_length", inf), (TrafficModel, "key_ttl_s", nan),
    (TrafficModel, "arrival_rate_per_lane", inf), (TrafficModel, "mean_dwell_s", nan),
]


class TestNonFiniteRejected:
    @pytest.mark.parametrize("make, field, value", [
        pytest.param(*case, id=f"{case[1]}={case[2]}") for case in NON_FINITE
    ])
    def test_config_field_named(self, make, field, value):
        with pytest.raises(InvalidParameterError, match=f"^{field} must be finite"):
            make(**{field: value})

    @pytest.mark.parametrize("duration", [nan, inf])
    def test_engine_duration(self, duration):
        s = Scenario.from_dict(small_scenario())
        with pytest.raises(InvalidParameterError, match="^duration_s must be finite"):
            _Engine(s.topology, s.traffic, duration, 1, s.protocol, s.pool,
                    log=None, record_donations=False)


NON_INTEGER = [
    (ProtocolParams, "key_bits", 2.5), (ProtocolParams, "key_bits", "100"),
    (PoolParams, "capacity_bits", 250.5), (TrafficModel, "initial_vehicles_per_lane", 1.5),
    (functools.partial(Rsd, id="r", line=KljnLineConfig()), "parallel_channels", 1.5),
    (functools.partial(Scenario, topology=build_topology(one_rsd_spec()), duration_s=1.0),
     "seed", 1.5),
]


@pytest.mark.parametrize("make, field, value", [
    pytest.param(*case, id=f"{case[1]}={case[2]!r}") for case in NON_INTEGER
])
def test_non_integer_count_rejected(make, field, value):
    # Hand-built configs used to accept these, which from_dict rejects.
    with pytest.raises(InvalidParameterError, match=f"^{field} must be an integer >= "):
        make(**{field: value})


def test_window_never_empty_when_lap_underflows():
    # circuit/speed rounds to 0 s, so each window must still hold its first
    # event; the pool refills once a second, as with any lap.
    traffic = TrafficModel(circuit_length=1e-300, speed_range=(1e30, 1e30))
    assert traffic.circuit_length / traffic.speed_range[1] == 0.0
    assert generated_bits(build_topology(one_rsd_spec()), traffic=traffic) == 10_000
