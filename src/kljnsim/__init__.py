"""Seeded simulator of resistor-noise secure key exchange and its deployment
as a roadside key-donation service for vehicular networks.

The package splits into five layers:

* :mod:`kljnsim.physics`: band-limited Johnson-noise synthesis and the
  two-resistor wireline loop.
* :mod:`kljnsim.protocol`: the bit-sharing protocol on one array engine:
  resistor draws, level classification, discard and inversion rules, key
  assembly, endpoint comparison of attacked views (the unattacked exchange
  has no alarm path).
* :mod:`kljnsim.adversary`: passive wiretap strategies and active current
  injection, scored on the period engine.
* :mod:`kljnsim.lifetime`: the rate chain from line physics to the key
  lifetime upper limit, and the advisory limits on theta and gamma.
* :mod:`kljnsim.vanet`: discrete-event simulation of pools, pads, and
  vehicles receiving one-time-pad encrypted keys; each pool fills at its
  owner's line rate under the scenario's protocol gamma.

All randomness flows through explicit seeds; identical inputs reproduce
identical outputs bit for bit.
"""

from .errors import (
    AliasingError,
    ConfigError,
    ExchangeTimeoutError,
    GridMismatchError,
    InvalidParameterError,
    TopologyError,
)
from .physics import (
    BOLTZMANN,
    KljnLineConfig,
    LoopSignals,
    NoiseTrace,
    PairClass,
    johnson_rms,
    loop_msv_for_resistors,
    pair_resistances,
    sample_bandlimited_gaussian,
    solve_loop,
    theoretical_msv,
)
from .protocol import (
    BerEstimate,
    BitFlag,
    BitPeriodRecord,
    ExchangeConfig,
    ExchangeStats,
    KeyMaterial,
    Level,
    Party,
    Resistor,
    estimate_ber,
    monitor_endpoints,
    run_key_exchange,
    run_periods,
)
from .adversary import (
    GuessStrategy,
    InjectionAttack,
    Waveform,
    apply_injection,
)
from .lifetime import (
    LifetimeParams,
    LifetimeReport,
    car_density,
    key_lifetime,
    key_lifetime_closed_form,
    noise_bandwidth,
    per_car_rate,
    secure_bit_rate,
)
from .vanet import (
    NetworkMetrics,
    PoolParams,
    ProtocolParams,
    Scenario,
    ScenarioEvent,
    Topology,
    TrafficModel,
    build_topology,
    make_homogeneous_scenario,
    run_scenario,
)

__version__ = "0.1.0"
