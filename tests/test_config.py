"""Typed config parsing: from_dict, the accepted key sets, shipped configs."""

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import pytest

from kljnsim import ConfigError, InvalidParameterError, KljnLineConfig, Scenario
from kljnsim import cli, vanet
from kljnsim.config import _schema, from_dict
from kljnsim.lifetime import LifetimeParams

CONFIGS = sorted((Path(__file__).parents[1] / "demos" / "configs").glob("*.json"))
README = Path(__file__).parents[1] / "README.md"


class Colour(Enum):
    RED = "red"
    BLUE = "blue"


@dataclass(frozen=True)
class Inner:
    x: float = 1.0

    def __post_init__(self):
        if self.x < 0:
            raise InvalidParameterError("x must be >= 0")


@dataclass(frozen=True)
class Outer:
    count: int
    ratio: float = 0.5
    flag: bool = False
    name: str = "n"
    colour: Colour = Colour.RED
    pair: tuple[float, float] = (0.0, 1.0)
    many: tuple[int, ...] = ()
    maybe: float | None = None
    inner: Inner = field(default_factory=Inner)
    renamed: float = field(default=0.0, metadata={"key": "renamed_s"})
    hidden: int = field(default=7, metadata={"key": None})


class TestFromDict:
    def test_values_converted(self):
        got = from_dict(Outer, {
            "count": 3, "ratio": 2, "flag": True, "name": "a", "colour": "blue",
            "pair": [1, 2.5], "many": [1, 2, 3], "maybe": None, "inner": {"x": 4},
            "renamed_s": 9,
        }, "cfg")
        assert got == Outer(3, 2.0, True, "a", Colour.BLUE, (1.0, 2.5), (1, 2, 3),
                            None, Inner(4.0), 9.0)
        assert type(got.ratio) is float and type(got.pair[0]) is float
        assert type(got.inner.x) is float and got.hidden == 7

    def test_defaults_fill_missing_keys(self):
        assert from_dict(Outer, {"count": 1}, "cfg") == Outer(count=1)

    @pytest.mark.parametrize("data, message", [
        ([], "cfg: expected an object, got []"),
        ({}, "cfg: missing count"),
        ({"count": 1, "zz": 0, "hidden": 1, "renamed": 0},
         "cfg: unknown field(s) ['hidden', 'renamed', 'zz']"),
        ({"count": 1.0}, "cfg.count: expected an integer, got 1.0"),
        ({"count": True}, "cfg.count: expected a number, got True"),
        ({"count": 1, "ratio": "0.5"}, "cfg.ratio: expected a number, got '0.5'"),
        ({"count": 1, "ratio": False}, "cfg.ratio: expected a number, got False"),
        ({"count": 1, "ratio": float("nan")}, "cfg.ratio: expected a finite number, got nan"),
        ({"count": 1, "ratio": float("-inf")}, "cfg.ratio: expected a finite number, got -inf"),
        ({"count": 1, "ratio": 10**400}, f"cfg.ratio: expected a finite number, got {10**400}"),
        ({"count": 1, "flag": "false"}, "cfg.flag: expected true or false, got 'false'"),
        ({"count": 1, "flag": 0}, "cfg.flag: expected true or false, got 0"),
        ({"count": 1, "name": 5}, "cfg.name: expected a string, got 5"),
        ({"count": 1, "colour": "green"},
         "cfg.colour: expected one of ['red', 'blue'], got 'green'"),
        ({"count": 1, "pair": [1]}, "cfg.pair: expected a list of 2 items, got [1]"),
        ({"count": 1, "pair": (1, 2)}, "cfg.pair: expected a list, got (1, 2)"),
        ({"count": 1, "many": [1, 2.5]}, "cfg.many[1]: expected an integer, got 2.5"),
        ({"count": 1, "maybe": "x"}, "cfg.maybe: expected a number, got 'x'"),
        ({"count": 1, "inner": {"y": 1}}, "cfg.inner: unknown field(s) ['y']"),
        ({"count": 1, "inner": {"x": -1}}, "cfg.inner: x must be >= 0"),
        ({"count": 1, "inner": None}, "cfg.inner: expected an object, got None"),
    ])
    def test_errors_name_their_path(self, data, message):
        with pytest.raises(ConfigError) as info:
            from_dict(Outer, data, "cfg")
        assert str(info.value) == message


@dataclass(frozen=True)
class Bounded:
    count: int = field(default=5, metadata={"min": 2})
    ratios: tuple[float, ...] = field(default=(), metadata={"min": 0.5})
    maybe: float | None = field(default=None, metadata={"min": 0})


class TestMinimum:
    def test_minimum_itself_accepted(self):
        got = from_dict(Bounded, {"count": 2, "ratios": [0.5, 3], "maybe": 0}, "cfg")
        assert got == Bounded(2, (0.5, 3.0), 0.0)
        assert from_dict(Bounded, {"maybe": None}, "cfg") == Bounded()

    @pytest.mark.parametrize("data, message", [
        ({"count": 1}, "cfg.count: must be at least 2, got 1"),
        ({"ratios": [1, 0.25]}, "cfg.ratios[1]: must be at least 0.5, got 0.25"),
        ({"maybe": -1}, "cfg.maybe: must be at least 0, got -1"),
    ])
    def test_below_minimum_names_path(self, data, message):
        with pytest.raises(ConfigError) as info:
            from_dict(Bounded, data, "cfg")
        assert str(info.value) == message


# The keys each command and scenario section accepts. Deriving them from the
# dataclasses must neither widen nor narrow any schema.
EXCHANGE_KEYS = {
    "line", "gamma", "oversample", "alarm_tolerance", "inverting_party",
    "classify_on", "timeout_factor",
}
ACCEPTED_KEYS = [
    (cli._ExchangeCommand, EXCHANGE_KEYS | {"target_bits"}),
    (cli._AttackCommand, EXCHANGE_KEYS | {"periods", "injection"}),
    (cli._Injection, {"relative_amplitudes", "periods_per_amplitude", "waveform"}),
    (cli._BerCommand, EXCHANGE_KEYS | {"gamma_list", "runs_per_gamma"}),
    (LifetimeParams, {
        "theta", "wave_speed", "line_length", "gamma", "key_length",
        "car_count", "kljn_unit_count", "car_density", "parallel_channels",
    }),
    (KljnLineConfig, {"r_low", "r_high", "t_eff", "line_length", "wave_speed", "theta"}),
    (vanet.Scenario, {
        "topology", "traffic", "protocol", "pool", "duration_s", "seed", "record_events",
    }),
    (vanet.Topology, {"kljn_endpoint", "rsds", "rskps"}),
    (vanet.Rsd, {"id", "line", "parallel_channels"}),
    (vanet.Rskp, {
        "id", "rsd", "lane", "pad_length_m", "transfer_rate_bps",
        "detector_latency_s", "pad_position_m", "line",
    }),
    (vanet.TrafficModel, {
        "circuit_length", "arrival_rate_per_lane", "speed_range",
        "initial_vehicles_per_lane", "mean_dwell_s", "provision_keys", "key_ttl_s",
    }),
    (vanet.ProtocolParams, {"gamma", "key_bits"}),
    (vanet.PoolParams, {"capacity_bits", "initial_fill"}),
]


@pytest.mark.parametrize("cls, keys", ACCEPTED_KEYS, ids=lambda v: getattr(v, "__name__", ""))
def test_accepted_keys_pinned(cls, keys):
    assert set(_schema(cls)) == keys


@pytest.mark.parametrize("command, cls", [
    ("exchange", cli._ExchangeCommand),
    ("attack", cli._AttackCommand),
    ("ber", cli._BerCommand),
    ("lifetime", LifetimeParams),
])
def test_command_rejects_only_unknown_keys(tmp_path, capsys, command, cls):
    """Every pinned key gets past the unknown-key check of its command."""
    (keys,) = [keys for c, keys in ACCEPTED_KEYS if c is cls]
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**dict.fromkeys(keys, "x"), "zz_unknown": 0}))
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: config: unknown field(s) ['zz_unknown']\n"


def test_shipped_configs_found():
    assert len(CONFIGS) >= 2


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_parses(path):
    scenario = Scenario.from_dict(json.loads(path.read_text()))
    assert scenario.topology.rskps


def test_readme_config_examples_parse():
    """The README's protocol and scenario examples are valid configs."""
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    protocol, scenario = (json.loads(block) for block in blocks)
    for cls in (cli._ExchangeCommand, cli._AttackCommand, cli._BerCommand):
        from_dict(cls, protocol, "config")
    assert Scenario.from_dict(scenario).topology.rskps
