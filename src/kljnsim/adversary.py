"""Eavesdropper models: passive wiretap guessing and active current injection.

The passive adversary gets noiseless, full-bandwidth access to the channel
voltage and current. On the ideal line that is provably worthless for
telling the two secure permutations apart: the mixed permutations produce
identical channel statistics and the voltage-current cross-correlation has
zero mean either way. The active adversary injects current at a lumped
mid-line node, which unavoidably makes the two endpoints' current readings
disagree by exactly the injected amount.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParameterError
from .physics import (
    KljnLineConfig,
    LoopSignals,
    NoiseTrace,
    PairClass,
    as_seed_sequence,
    require_count,
    theoretical_msv,
)
from .protocol import (
    ExchangeConfig,
    Resistor,
    _MID,
    _Periods,
    _classify,
    monitor_endpoints,
    pair_of,
    period_resistances,
    synthesize_period,
)


class GuessStrategy(str, Enum):
    MSV_THRESHOLD = "msv-threshold"
    CORRELATION_SIGN = "correlation-sign"
    RANDOM = "random"


class Waveform(str, Enum):
    CONSTANT = "constant"
    GAUSSIAN = "gaussian"


def _guesses_lh(
    strategy: GuessStrategy,
    msv_u: np.ndarray,
    cross: np.ndarray,
    line: KljnLineConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Whether ``strategy`` guesses LH (rather than HL) on each secure period.

    * ``msv-threshold``: LH when the measured mean-square voltage exceeds the
      theoretical mixed level. Both orientations share the same level, so
      this cannot beat coin flipping.
    * ``correlation-sign``: LH when the voltage-current cross-correlation is
      positive. The cross-correlation has zero mean for both orientations.
    * ``random``: one coin flip from ``rng`` per period.
    """
    if strategy is GuessStrategy.MSV_THRESHOLD:
        level, _ = theoretical_msv(line, PairClass.LH)
        return msv_u > level
    if strategy is GuessStrategy.CORRELATION_SIGN:
        return cross > 0
    return rng.integers(0, 2, size=cross.shape) == 1


@dataclass(frozen=True)
class InjectionAttack:
    """Current injection at the mid-line node over [start, stop) samples."""

    amplitude: float
    waveform: Waveform = Waveform.CONSTANT
    start: int = 0
    stop: int | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.amplitude < math.inf:
            raise InvalidParameterError("injection amplitude must be finite and non-negative")
        if self.start < 0:
            raise InvalidParameterError("attack window start must be non-negative")
        if self.stop is not None and self.stop < self.start:
            raise InvalidParameterError("attack window must not end before it starts")
        object.__setattr__(self, "waveform", Waveform(self.waveform))


def apply_injection(
    loop: LoopSignals,
    r_a: float,
    r_b: float,
    attack: InjectionAttack,
    seed=None,
) -> tuple[LoopSignals, LoopSignals]:
    """Endpoint views of the loop with Eve's current injected mid-line.

    Lumped-node model: the injected current divides between the branches as
    ``alpha = r_b / (r_a + r_b)`` toward one end and ``1 - alpha`` toward the
    other, while the node voltage shifts by the injected current times the
    parallel resistance. Both ends see the same voltage, but their current
    readings now differ by exactly the injected waveform inside the window.
    A Gaussian waveform is drawn from ``np.random.default_rng(seed)``, so a
    Generator passed in advances.
    """
    if r_a <= 0 or r_b <= 0:
        raise InvalidParameterError("resistances must be positive")
    n = len(loop)
    stop = n if attack.stop is None else attack.stop
    if attack.start > n or stop > n:
        raise InvalidParameterError(
            f"attack window [{attack.start}, {stop}) exceeds trace length {n}"
        )
    if attack.amplitude == 0.0 or attack.start == stop:
        untouched = LoopSignals(loop.channel_voltage, loop.channel_current)
        return untouched, untouched

    injected = np.zeros(n)
    width = stop - attack.start
    if attack.waveform is Waveform.CONSTANT:
        injected[attack.start:stop] = attack.amplitude
    else:
        rng = np.random.default_rng(seed)
        injected[attack.start:stop] = attack.amplitude * rng.standard_normal(width)

    alpha = r_b / (r_a + r_b)
    r_parallel = r_a * r_b / (r_a + r_b)
    grid = (loop.sample_rate, loop.duration)
    voltage = NoiseTrace(loop.channel_voltage.samples + injected * r_parallel, *grid)
    i_c = loop.channel_current.samples
    alice = LoopSignals(voltage, NoiseTrace(i_c + alpha * injected, *grid))
    bob = LoopSignals(voltage, NoiseTrace(i_c - (1.0 - alpha) * injected, *grid))
    return alice, bob


@dataclass(frozen=True)
class PassiveSweepResult:
    """Accuracy of each guessing strategy over orientation-balanced periods."""

    periods: int
    correct: dict[GuessStrategy, int]
    accuracy: dict[GuessStrategy, float]
    cross_corr_mean: float
    cross_corr_se: float


def passive_sweep(
    config: ExchangeConfig,
    n_periods: int,
    seed,
    strategies=None,
) -> PassiveSweepResult:
    """Measure every passive strategy on balanced secure periods.

    Attempts alternate LH and HL ground truth, skipping a full orientation,
    until each has ``n_periods // 2`` periods classified as secure. Eve's
    features come off the spectral engine; the r-th period run gets the
    engine's r-th noise block.
    Each strategy is scored on the kept periods, and their voltage-current
    cross-correlation, statistically zero on the ideal line, is averaged.
    """
    require_count("n_periods", n_periods, 2)
    if strategies is None:
        strategies = list(GuessStrategy)
    strategies = [GuessStrategy(s) for s in strategies]
    if not strategies:
        raise InvalidParameterError("no strategy to score; None scores them all")
    for i, strategy in enumerate(strategies):
        if strategy in strategies[:i]:
            raise InvalidParameterError(f"strategy {strategy.value!r} listed twice")
    per_orientation = n_periods // 2
    guess_seed, noise_root = as_seed_sequence(seed).spawn(2)
    engine = _Periods(config, noise_root)
    need = [per_orientation] * 2  # kept periods missing per orientation (0 = LH, 1 = HL)
    kept = []  # (orientation, msv_u, cross) of the kept periods, by chunk
    attempts, max_attempts = 0, 1000 + 4 * n_periods
    while max(need) > 0:
        if attempts >= max_attempts:
            raise RuntimeError(
                "could not collect enough secure-classified periods; "
                "check thresholds against the line config"
            )
        # Attempt a tries orientation a % 2 unless that one is full. Run a
        # window of attempts and cut it at the period that fills one.
        window = np.arange(attempts, min(attempts + 2 * max(need) + 16, max_attempts))
        slots = window[np.take(need, window % 2) > 0]
        attempts, ran = int(window[-1]) + 1, 0
        for choices, msv_u, msv_i, cross in engine.chunks(
            np.column_stack([slots % 2, 1 - slots % 2])
        ):
            side, ok = choices[:, 0], _classify(config, msv_u, msv_i) == _MID
            hits = [np.flatnonzero(ok & (side == s)) for s in (0, 1)]
            fills = [h[n - 1] for h, n in zip(hits, need) if 0 < n <= len(h)]
            end = min(fills, default=len(side) - 1) + 1
            ok[end:] = False
            kept.append((side[ok], msv_u[ok], cross[ok]))
            need = [n - int(np.count_nonzero(kept[-1][0] == s)) for s, n in enumerate(need)]
            ran += end
            if fills:  # the periods after the cut hand their noise to the next attempts
                engine.hand_back(len(side) - end)
                attempts = int(slots[ran - 1]) + 1
                break

    side, msv_u, cross = (np.concatenate(col) for col in zip(*kept))
    rng = np.random.default_rng(guess_seed)
    correct = {
        s: int(np.count_nonzero(_guesses_lh(s, msv_u, cross, config.line, rng) == (side == 0)))
        for s in strategies
    }
    total = 2 * per_orientation
    return PassiveSweepResult(
        periods=total,
        correct=correct,
        accuracy={s: c / total for s, c in correct.items()},
        cross_corr_mean=float(cross.mean()),
        cross_corr_se=float(cross.std(ddof=1) / math.sqrt(len(cross))),
    )


@dataclass(frozen=True)
class InjectionSweepPoint:
    relative_amplitude: float
    periods: int
    alarms: int
    alarm_rate: float


def injection_sweep(
    config: ExchangeConfig,
    relative_amplitudes,
    periods_per_amplitude: int,
    seed,
    waveform: Waveform = Waveform.CONSTANT,
) -> list[InjectionSweepPoint]:
    """Alarm rate versus injected current amplitude.

    Each period gets a persistent (full-window) injection whose amplitude c
    is the given multiple of the period's theoretical RMS channel current.
    Both ends then see the same voltage and currents that differ by c. With
    a constant c, ``monitor_endpoints`` alarms iff c > tol * hypot(sqrt(msv_i),
    alpha * c), alpha = max(r_a, r_b) / (r_a + r_b), as the in-band current
    has zero mean: that runs on the engine's ``msv_i`` row. Only a Gaussian
    injection builds each period's waveforms. Amplitude 0 draws no noise.
    """
    require_count("periods_per_amplitude", periods_per_amplitude, 1)
    waveform, relative_amplitudes = Waveform(waveform), list(relative_amplitudes)
    if any(not 0 <= rel < math.inf for rel in relative_amplitudes):
        raise InvalidParameterError("relative amplitudes must be finite and >= 0")
    # Per choice pair, row 2a + b: the choices, both resistances and the
    # theoretical RMS channel current the amplitudes are relative to.
    table = []
    for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):
        choices = (Resistor(a), Resistor(b))
        _, msv_i = theoretical_msv(config.line, pair_of(*choices))
        table.append((choices, *period_resistances(config.line, choices), math.sqrt(msv_i)))
    r_a, r_b, rms_i = np.array([row[1:] for row in table]).T
    alpha = np.maximum(r_a, r_b) / (r_a + r_b)
    root = as_seed_sequence(seed)
    out = []
    for rel in relative_amplitudes:
        choice_seed, noise, attack_seed = root.spawn(1)[0].spawn(3)
        drawn = np.random.default_rng(choice_seed).integers(0, 2, size=(periods_per_amplitude, 2))
        alarms = 0
        if rel > 0 and waveform is Waveform.CONSTANT:
            for choices, _, msv_i, _ in _Periods(config, noise).chunks(drawn):
                row = 2 * choices[:, 0] + choices[:, 1]
                c = rel * rms_i[row]
                bound = config.alarm_tolerance * np.hypot(np.sqrt(msv_i), alpha[row] * c)
                alarms += int(np.count_nonzero(c > bound))
        elif rel > 0:
            noise, attack_rng = np.random.default_rng(noise), np.random.default_rng(attack_seed)
            for a, b in drawn.tolist():
                choices, r_alice, r_bob, rms = table[2 * a + b]
                signals = synthesize_period(config, choices, noise)
                attack = InjectionAttack(rel * rms, waveform)
                alice_view, bob_view = apply_injection(signals, r_alice, r_bob, attack, attack_rng)
                alarms += monitor_endpoints(alice_view, bob_view, config.alarm_tolerance)
        out.append(
            InjectionSweepPoint(
                float(rel), periods_per_amplitude, alarms, alarms / periods_per_amplitude
            )
        )
    return out
