"""Scalar, one-period-at-a-time forms of the package's period rules.

The package runs every bit period on arrays: one (k, 2) draw of resistor
bits, ``protocol._Periods`` for the levels, ``protocol._classify`` for the
bands and ``adversary._guesses_lh`` for Eve's guesses. The forms here work
one period (or one observation) at a time, with the waveform path for the
levels, and the tests hold the array forms to them. The per-period loops
built from them sit in ``test_period_engine.py``. ``HeapEngine`` is the
network engine with every event, pad crossings included, on one heap.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from kljnsim import (
    ExchangeConfig,
    InvalidParameterError,
    KljnLineConfig,
    Level,
    LoopSignals,
    PairClass,
    Party,
    Resistor,
    monitor_endpoints,
    theoretical_msv,
)
from kljnsim.adversary import (
    GuessStrategy,
    InjectionAttack,
    InjectionSweepPoint,
    Waveform,
    apply_injection,
)
from kljnsim.physics import as_seed_sequence
from kljnsim.protocol import BitPeriodRecord, period_resistances, synthesize_period
from kljnsim.vanet import _Engine


def choose_resistors(rng: np.random.Generator) -> tuple[Resistor, Resistor]:
    """Both parties draw a resistor uniformly and independently."""
    draws = rng.integers(0, 2, size=2)
    return Resistor(int(draws[0])), Resistor(int(draws[1]))


def expected_level(pair: PairClass) -> Level:
    """Ground-truth level band implied by a resistor permutation."""
    if pair is PairClass.LL:
        return Level.LOW
    if pair is PairClass.HH:
        return Level.HIGH
    return Level.MID


def classify_level(msv_u: float, thresholds: tuple[float, float]) -> Level:
    """Classify a mean-square voltage into LOW/MID/HIGH bands.

    A value exactly at a threshold belongs to the band below it.
    """
    if msv_u < 0:
        raise InvalidParameterError("mean-square value must be non-negative")
    lower, upper = thresholds
    if msv_u <= lower:
        return Level.LOW
    if msv_u <= upper:
        return Level.MID
    return Level.HIGH


def _classify_from_current(msv_i: float, thresholds: tuple[float, float]) -> Level:
    # Same closed-below convention, applied on the current axis where the
    # band order is reversed (HH has the lowest mean-square current).
    return _FLIPPED[classify_level(msv_i, thresholds)]


_FLIPPED = {Level.LOW: Level.HIGH, Level.MID: Level.MID, Level.HIGH: Level.LOW}


def classify_period(config: ExchangeConfig, msv_u: float, msv_i: float) -> Level:
    """Classify one period according to the configured channel(s).

    In "both" mode the period is MID only if voltage and current agree on
    MID; a lone non-MID vote wins, and on the (practically unreachable)
    LOW-vs-HIGH conflict the voltage vote is taken.
    """
    if config.classify_on == "voltage":
        return classify_level(msv_u, config.voltage_thresholds)
    if config.classify_on == "current":
        return _classify_from_current(msv_i, config.current_thresholds)
    by_u = classify_level(msv_u, config.voltage_thresholds)
    by_i = _classify_from_current(msv_i, config.current_thresholds)
    return by_i if by_u is Level.MID else by_u


def measure_period(
    config: ExchangeConfig,
    choices: tuple[Resistor, Resistor],
    signals: LoopSignals,
) -> BitPeriodRecord:
    """Time-average the loop signals, classify, and derive the bits.

    The shared bit is the non-inverting party's resistor state; the
    inverting party reads its own state flipped.
    """
    alice, bob = choices
    msv_u = signals.channel_voltage.mean_square()
    msv_i = signals.channel_current.mean_square()
    classified = classify_period(config, msv_u, msv_i)
    kept = classified is Level.MID
    alice_bit = bob_bit = None
    if kept and config.inverting_party is Party.BOB:
        alice_bit, bob_bit = alice.bit, 1 - bob.bit
    elif kept:
        alice_bit, bob_bit = 1 - alice.bit, bob.bit
    return BitPeriodRecord(alice, bob, msv_u, msv_i, classified, kept, alice_bit, bob_bit)


def run_bit_period(
    config: ExchangeConfig, choices: tuple[Resistor, Resistor], seed
) -> BitPeriodRecord:
    """Run one full bit-sharing period on waveforms: synthesize, classify."""
    return measure_period(config, choices, synthesize_period(config, choices, seed))


@dataclass(frozen=True)
class EveObservation:
    """What a passive wiretapper extracts from one secure-looking period,
    as sample means of the waveforms; ``passive_sweep`` reads the same three
    numbers off the in-band Fourier bins."""

    msv_u: float
    msv_i: float
    cross_correlation: float

    @classmethod
    def from_signals(cls, signals: LoopSignals) -> "EveObservation":
        u = signals.channel_voltage.samples
        i = signals.channel_current.samples
        return cls(
            msv_u=float(np.mean(u * u)),
            msv_i=float(np.mean(i * i)),
            cross_correlation=float(np.mean(u * i)),
        )


def passive_guess(
    observation: EveObservation,
    strategy,
    *,
    line: KljnLineConfig | None = None,
    rng: np.random.Generator | None = None,
) -> PairClass:
    """Guess the orientation (LH or HL) of one secure period.

    ``msv-threshold`` needs ``line`` and ``random`` needs ``rng``, which
    it advances by one draw.
    """
    strategy = GuessStrategy(strategy)
    if strategy is GuessStrategy.MSV_THRESHOLD:
        if line is None:
            raise InvalidParameterError("msv-threshold strategy needs the line config")
        level, _ = theoretical_msv(line, PairClass.LH)
        lh = observation.msv_u > level
    elif strategy is GuessStrategy.CORRELATION_SIGN:
        lh = observation.cross_correlation > 0
    else:
        if rng is None:
            raise InvalidParameterError("random strategy needs an rng")
        lh = int(rng.integers(0, 2)) == 1
    return PairClass.LH if lh else PairClass.HL


def injection_sweep(
    config: ExchangeConfig,
    relative_amplitudes,
    periods_per_amplitude: int,
    seed,
    waveform: Waveform = Waveform.CONSTANT,
) -> list[InjectionSweepPoint]:
    """The per-period loop of ``adversary.injection_sweep``: one
    ``choose_resistors`` draw and one theoretical level lookup per period."""
    root = as_seed_sequence(seed)
    out = []
    for rel in relative_amplitudes:
        rng, noise, attack_rng = map(np.random.default_rng, root.spawn(1)[0].spawn(3))
        alarms = 0
        for _ in range(periods_per_amplitude):
            choices = choose_resistors(rng)
            signals = synthesize_period(config, choices, noise)
            r_a, r_b = period_resistances(config.line, choices)
            pair = PairClass(choices[0].name + choices[1].name)
            _, msv_i = theoretical_msv(config.line, pair)
            attack = InjectionAttack(rel * math.sqrt(msv_i), waveform)
            alice_view, bob_view = apply_injection(signals, r_a, r_b, attack, attack_rng)
            alarms += monitor_endpoints(alice_view, bob_view, config.alarm_tolerance)
        out.append(
            InjectionSweepPoint(
                float(rel), periods_per_amplitude, alarms, alarms / periods_per_amplitude
            )
        )
    return out


class HeapEngine(_Engine):
    """``vanet._Engine`` on one heap: each pad crossing is pushed as it is
    scheduled, and ``run`` pops events in plain (time, sequence) order."""

    crossings_pushed = 0

    def _cross(self, time, vehicle, entry):
        if time <= self.duration:
            self.crossings_pushed += 1
        self._push(time, self._on_key_request, (vehicle, entry))

    def run(self):
        heap = self.heap
        while heap:
            time, _, handler, payload = heapq.heappop(heap)
            handler(time, *payload)
        for pool in self.pools.values():
            while pool.pending:
                self._pool_empty(self.duration, pool, pool.pending.popleft()[0])
        return self._metrics()
