"""Bit-sharing protocol: the period engine, level classification, discard
rules, the bit-inversion convention, and the endpoint-comparison monitor.

One bit-sharing period works like this: both parties draw a resistor
uniformly, the loop runs for ``gamma`` correlation times, and both ends
measure the mean-square channel voltage and current. The mixed (secure)
permutations sit at the intermediate level; same-valued permutations are
publicly recognizable and discarded. On a kept period each party reads the
shared bit off its own resistor state, with one pre-agreed party inverting
so the two key strings match.

Every period path draws a run's resistor choices as one (k, 2) array of
bits, reads both levels off ``_Periods`` and classifies them with
``_classify``. ``synthesize_period`` builds one period's waveforms for the
paths that need samples: Gaussian current injection and the waveform checks.

Both ends of an unattacked line see the same signals, so the exchange has no
alarm path; ``monitor_endpoints`` compares views an injection made differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum, IntEnum

import numpy as np

from .errors import ExchangeTimeoutError, InvalidParameterError
from .physics import (
    KljnLineConfig,
    LoopSignals,
    PairClass,
    DEFAULT_OVERSAMPLE,
    LOW_GAMMA_LIMIT,
    as_seed_sequence,
    assert_same_grid,
    in_band_bins,
    johnson_rms,
    pair_resistances,
    sample_bandlimited_gaussian,
    solve_loop,
    theoretical_msv,
)


class Resistor(Enum):
    """One party's resistor state for a period; L carries bit 0, H bit 1."""

    L = 0
    H = 1

    @property
    def bit(self) -> int:
        return self.value


class Party(Enum):
    ALICE = "alice"
    BOB = "bob"


class Level(Enum):
    """Classified mean-square level band of one period."""

    LOW = "low"
    MID = "mid"
    HIGH = "high"


class BitFlag(IntEnum):
    """Per-period provenance of exchanged bit material."""

    SECURE = 0
    DISCARDED_PUBLIC = 1
    COMPROMISED = 2


#: Channels a period may be classified on.
CLASSIFY_MODES = ("voltage", "current", "both")


def pair_of(alice: Resistor, bob: Resistor) -> PairClass:
    return PairClass(alice.name + bob.name)


def _geometric_mean(a: float, b: float) -> float:
    return math.sqrt(a * b)


@dataclass(frozen=True)
class ExchangeConfig:
    """Protocol parameters for one exchange session.

    ``gamma`` is the ratio of noise bandwidth to bit rate: each bit-sharing
    period spans ``gamma`` correlation times, so larger values average the
    level estimate harder and misclassify less. Thresholds default to the
    geometric means of the adjacent theoretical levels and may be overridden;
    they must stay strictly ordered and bracketed by the extreme levels.

    ``classify_on`` selects the measurement channel: "voltage", "current",
    or "both" (default). With "both", a period counts as secure only when the
    voltage and current estimates both vote for the intermediate band, which
    suppresses the single-channel tail misclassifications that would
    otherwise corrupt keys.
    """

    line: KljnLineConfig = field(default_factory=KljnLineConfig)
    gamma: float = 100.0
    oversample: float = DEFAULT_OVERSAMPLE
    voltage_thresholds: tuple[float, float] | None = field(default=None, metadata={"key": None})
    current_thresholds: tuple[float, float] | None = field(default=None, metadata={"key": None})
    alarm_tolerance: float = 1e-9
    inverting_party: Party = Party.BOB
    classify_on: str = "both"
    timeout_factor: float = 100.0

    def __post_init__(self) -> None:
        if self.gamma < 1:
            raise InvalidParameterError("gamma must be at least 1")
        if self.oversample < 2:
            raise InvalidParameterError("oversample must be at least 2 (anti-aliasing)")
        if self.alarm_tolerance < 0:
            raise InvalidParameterError("alarm_tolerance must be non-negative")
        if self.timeout_factor < 1:
            raise InvalidParameterError("timeout_factor must be at least 1")
        if self.classify_on not in CLASSIFY_MODES:
            raise InvalidParameterError(
                f"classify_on must be one of {CLASSIFY_MODES}, got {self.classify_on!r}"
            )
        if not isinstance(self.inverting_party, Party):
            raise InvalidParameterError("inverting_party must be a Party")

        u_low, i_low = theoretical_msv(self.line, PairClass.LL)
        u_mid, i_mid = theoretical_msv(self.line, PairClass.LH)
        u_high, i_high = theoretical_msv(self.line, PairClass.HH)

        if self.voltage_thresholds is None:
            object.__setattr__(
                self,
                "voltage_thresholds",
                (_geometric_mean(u_low, u_mid), _geometric_mean(u_mid, u_high)),
            )
        if self.current_thresholds is None:
            # On the current channel the level ordering flips: HH is lowest.
            object.__setattr__(
                self,
                "current_thresholds",
                (_geometric_mean(i_high, i_mid), _geometric_mean(i_mid, i_low)),
            )

        v1, v2 = self.voltage_thresholds
        if not (u_low < v1 < v2 < u_high):
            raise InvalidParameterError(
                "voltage thresholds must be strictly ordered and bracketed by the "
                "theoretical LL and HH voltage levels"
            )
        c1, c2 = self.current_thresholds
        if not (i_high < c1 < c2 < i_low):
            raise InvalidParameterError(
                "current thresholds must be strictly ordered and bracketed by the "
                "theoretical HH and LL current levels"
            )

    @property
    def bit_period(self) -> float:
        """Duration of one bit-sharing period in seconds (gamma / bandwidth)."""
        return self.gamma / self.line.noise_bandwidth

    @property
    def sample_rate(self) -> float:
        return self.oversample * self.line.noise_bandwidth

    @property
    def flags(self) -> tuple[str, ...]:
        """Advisory flags; 'low-gamma' below the comfortable averaging regime."""
        out = list(self.line.flags)
        if self.gamma < LOW_GAMMA_LIMIT:
            out.append("low-gamma")
        return tuple(out)


@dataclass(frozen=True)
class BitPeriodRecord:
    """Everything produced by one bit-sharing period."""

    alice_choice: Resistor
    bob_choice: Resistor
    msv_u: float
    msv_i: float
    classified: Level
    kept: bool
    alice_bit: int | None
    bob_bit: int | None

    @property
    def pair(self) -> PairClass:
        return pair_of(self.alice_choice, self.bob_choice)


@dataclass(frozen=True, eq=False)
class KeyMaterial:
    """An ordered secure bit string plus per-period provenance.

    ``bits`` holds only the bits flagged SECURE; ``flags`` records one entry
    per bit-sharing period of the generating run and ``secure_periods`` maps
    each key bit back to its period.
    """

    bits: np.ndarray
    flags: np.ndarray
    secure_periods: np.ndarray

    def __post_init__(self) -> None:
        secure = int(np.count_nonzero(self.flags == BitFlag.SECURE))
        if len(self.bits) != secure or len(self.secure_periods) != secure:
            raise InvalidParameterError(
                "key bits must correspond one-to-one with SECURE-flagged periods"
            )

    @property
    def length(self) -> int:
        return len(self.bits)

    def hex(self) -> str:
        """Key bits packed most-significant-bit first, zero-padded at the end."""
        if self.length == 0:
            return ""
        return np.packbits(self.bits).tobytes().hex()

    def __eq__(self, other) -> bool:
        if not isinstance(other, KeyMaterial):
            return NotImplemented
        return np.array_equal(self.bits, other.bits)


@dataclass
class ExchangeStats:
    """Aggregate outcome counters for a run of bit-sharing periods."""

    pair_counts: dict
    misclassified: int
    periods: int
    kept_bits: int
    elapsed_s: float

    @property
    def secure_fraction(self) -> float:
        """Ground-truth fraction of mixed (secure) permutations."""
        if self.periods == 0:
            return 0.0
        mixed = self.pair_counts[PairClass.LH] + self.pair_counts[PairClass.HL]
        return mixed / self.periods


def period_resistances(
    line: KljnLineConfig, choices: tuple[Resistor, Resistor]
) -> tuple[float, float]:
    return pair_resistances(line, pair_of(*choices))


def synthesize_period(
    config: ExchangeConfig, choices: tuple[Resistor, Resistor], seed
) -> LoopSignals:
    """Generate both source traces for one period and solve the loop.

    Alice's trace and then Bob's are drawn from ``np.random.default_rng(seed)``,
    so a Generator passed in advances by 4m normals, one period's block.
    """
    r_a, r_b = period_resistances(config.line, choices)
    bw = config.line.noise_bandwidth
    rng = np.random.default_rng(seed)
    u_a, u_b = (
        sample_bandlimited_gaussian(
            johnson_rms(r, config.line.t_eff, bw), bw, config.sample_rate,
            config.bit_period, rng,
        )
        for r in (r_a, r_b)
    )
    return solve_loop(u_a, r_a, u_b, r_b)


def monitor_endpoints(
    alice_view: LoopSignals, bob_view: LoopSignals, alarm_tolerance: float
) -> bool:
    """Compare both ends' instantaneous measurements of the line.

    Both parties publish their sampled channel voltage and current; any
    sample pair deviating by more than ``alarm_tolerance`` relative to the
    typical (RMS) amplitude of that channel raises the alarm. On an
    unmodified ideal line the two views are identical and no alarm fires.
    """
    assert_same_grid(alice_view.channel_voltage, bob_view.channel_voltage)
    assert_same_grid(alice_view.channel_current, bob_view.channel_current)
    for mine, theirs in (
        (alice_view.channel_voltage, bob_view.channel_voltage),
        (alice_view.channel_current, bob_view.channel_current),
    ):
        worst = float(np.max(np.abs(mine.samples - theirs.samples)))
        if worst == 0.0:
            continue
        scale = max(mine.rms(), theirs.rms())
        # Fails closed: a NaN deviation (non-finite views) alarms.
        if scale == 0.0 or not worst / scale <= alarm_tolerance:
            return True
    return False


# -- Batched engine ------------------------------------------------------------

#: Periods whose normals are held at once (the working set stays near 200 KB).
_CHUNK = 64

_LEVELS = (Level.LOW, Level.MID, Level.HIGH)
_MID = 1


def _classify(config: ExchangeConfig, msv_u: np.ndarray, msv_i: np.ndarray) -> np.ndarray:
    """Each period's LOW/MID/HIGH band, as indices into ``_LEVELS``.

    A value exactly at a threshold belongs to the band below it; on the
    current channel the band order is reversed (HH has the lowest
    mean-square current). In "both" mode a period is MID only if voltage and
    current agree on MID; a lone non-MID vote wins, and on the (practically
    unreachable) LOW-vs-HIGH conflict the voltage vote is taken.
    """
    v1, v2 = config.voltage_thresholds
    c1, c2 = config.current_thresholds
    by_u = (msv_u > v1).astype(np.int8) + (msv_u > v2)
    by_i = 2 - (msv_i > c1).astype(np.int8) - (msv_i > c2)
    if config.classify_on == "voltage":
        return by_u
    if config.classify_on == "current":
        return by_i
    return np.where(by_u == _MID, by_i, by_u)


def _party_bits(config: ExchangeConfig, alice, bob):
    """Both parties' key bits from arrays of their resistor bits."""
    if config.inverting_party is Party.BOB:
        return alice, 1 - bob
    return 1 - alice, bob


class _Periods:
    """The bit periods of one run, in order.

    Period j gets the j-th block of 4m standard normals from
    ``np.random.default_rng(noise_root)``: Alice's m real in-band bins, her
    m imaginary ones, then the same for Bob. That is what
    ``synthesize_period`` draws from the same generator, period after
    period. The levels and Eve's cross-correlation follow from the bins
    (Parseval), so no sample array is built; they agree with the waveform
    path to rounding.
    """

    def __init__(self, config: ExchangeConfig, noise_root):
        self.normal = np.random.default_rng(noise_root).standard_normal
        # Gram sums (A.A, A.B, B.B) of the chunk last yielded, and of the
        # periods handed back, which are next in line.
        self.sums = self.spare = np.empty((0, 3))
        self.done = 0
        line = config.line
        bw = line.noise_bandwidth
        n, self.m = in_band_bins(bw, config.sample_rate, config.bit_period)
        r = (line.r_low, line.r_high)
        # Per-component std of a source's bins, as in sample_bandlimited_gaussian.
        s = [johnson_rms(x, line.t_eff, bw) * n / (2.0 * math.sqrt(self.m)) for x in r]
        # By bin, solve_loop gives V = (A r_b + B r_a) / (r_a + r_b) and
        # I = (A - B) / (r_a + r_b). Row 2a + b turns the Gram sums (A.A,
        # A.B, B.B) of the two sources' bins into msv_u = 2/n^2 sum |V|^2,
        # msv_i = 2/n^2 sum |I|^2 and mean(u i) = 2/n^2 sum Re(V I*) when the
        # resistor bits are a and b.
        self.weights = np.empty((4, 3, 3))
        for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):
            v_a, v_b = s[a] * r[b], s[b] * r[a]
            self.weights[2 * a + b] = np.array([
                [v_a * v_a, 2 * v_a * v_b, v_b * v_b],
                [s[a] ** 2, -2 * s[a] * s[b], s[b] ** 2],
                [v_a * s[a], v_b * s[a] - v_a * s[b], -v_b * s[b]],
            ]) * (2.0 / (n * (r[a] + r[b])) ** 2)

    def chunks(self, choices: np.ndarray):
        """Yield each ``_CHUNK`` of the next periods' resistor bits (k x 2)
        with its ``msv_u``, ``msv_i`` and cross-correlation. ``done`` counts
        the periods yielded and not handed back."""
        z = np.empty((_CHUNK, 2, 2 * self.m))
        for start in range(0, len(choices), _CHUNK):
            part = choices[start:start + _CHUNK]
            block = z[:max(len(part) - len(self.spare), 0)]
            self.normal(out=block)
            gram = block @ block.transpose(0, 2, 1)
            fresh = np.stack([gram[:, 0, 0], gram[:, 0, 1], gram[:, 1, 1]], axis=-1)
            self.sums = np.concatenate([self.spare[:len(part)], fresh])
            self.spare = self.spare[len(part):]
            weights = self.weights[2 * part[:, 0] + part[:, 1]]
            self.done += len(part)
            yield part, *np.einsum("kcj,kj->ck", weights, self.sums)

    def hand_back(self, count: int) -> None:
        """Give back the noise of the last ``count`` periods yielded: the
        next periods run on it, in order, before any fresh draw."""
        self.spare = np.concatenate([self.sums[len(self.sums) - count:], self.spare])
        self.done -= count


def _stats(config: ExchangeConfig, choices: np.ndarray, level: np.ndarray) -> ExchangeStats:
    pairs = np.bincount(2 * choices[:, 0] + choices[:, 1], minlength=4)
    periods = len(level)
    return ExchangeStats(
        pair_counts={p: int(c) for p, c in zip(PairClass, pairs)},
        # The true band of a period is LOW/MID/HIGH for 0/1/2 H resistors.
        misclassified=int(np.count_nonzero(level != choices.sum(axis=1))),
        periods=periods,
        kept_bits=int(np.count_nonzero(level == _MID)),
        elapsed_s=periods * config.bit_period,
    )


def run_periods(
    config: ExchangeConfig, n_periods: int, seed
) -> tuple[list[BitPeriodRecord], ExchangeStats]:
    """Run a fixed number of bit-sharing periods (no key assembly)."""
    if n_periods < 0:
        raise InvalidParameterError("n_periods must be non-negative")
    choice_seed, noise_root = as_seed_sequence(seed).spawn(2)
    drawn = np.random.default_rng(choice_seed).integers(0, 2, size=(n_periods, 2))
    records = []
    parts = [(np.empty((0, 2), np.int64), np.empty(0, np.int8))]
    for choices, msv_u, msv_i, _ in _Periods(config, noise_root).chunks(drawn):
        level = _classify(config, msv_u, msv_i)
        parts.append((choices, level))
        bits = np.column_stack(_party_bits(config, choices[:, 0], choices[:, 1]))
        for (a, b), pair_bits, u, i, lev in zip(
            choices.tolist(), bits.tolist(), msv_u.tolist(), msv_i.tolist(), level.tolist()
        ):
            kept = lev == _MID
            records.append(BitPeriodRecord(
                Resistor(a), Resistor(b), u, i, _LEVELS[lev], kept,
                *(pair_bits if kept else (None, None)),
            ))
    choices, level = (np.concatenate(col) for col in zip(*parts))
    return records, _stats(config, choices, level)


def run_key_exchange(
    config: ExchangeConfig, target_bits: int, seed
) -> tuple[KeyMaterial, KeyMaterial, ExchangeStats]:
    """Loop bit-sharing periods until both parties hold ``target_bits`` bits.

    Raises ExchangeTimeoutError once ``timeout_factor * 2 * target_bits``
    periods have passed without reaching the target.
    """
    if target_bits < 0:
        raise InvalidParameterError("target_bits must be non-negative")
    choice_seed, noise_root = as_seed_sequence(seed).spawn(2)
    rng = np.random.default_rng(choice_seed)
    engine = _Periods(config, noise_root)
    cap = int(math.ceil(config.timeout_factor * 2 * target_bits))
    parts = [(np.empty((0, 2), np.int64), np.empty(0, np.int8))]
    missing = target_bits
    while missing > 0:
        if engine.done >= cap:
            raise ExchangeTimeoutError(
                f"no {target_bits}-bit key after {engine.done} bit periods"
            )
        # A period is kept half the time: ask for a little over twice the
        # missing bits, and stop at the period that completes the key.
        count = min(2 * missing + 16, cap - engine.done)
        for choices, msv_u, msv_i, _ in engine.chunks(rng.integers(0, 2, size=(count, 2))):
            level = _classify(config, msv_u, msv_i)
            kept = np.flatnonzero(level == _MID)
            if len(kept) >= missing:
                end = kept[missing - 1] + 1
                parts.append((choices[:end], level[:end]))
                missing = 0
                break
            missing -= len(kept)
            parts.append((choices, level))

    choices, level = (np.concatenate(col) for col in zip(*parts))
    kept = level == _MID
    flags = np.where(kept, BitFlag.SECURE, BitFlag.DISCARDED_PUBLIC).astype(np.int8)
    periods = np.flatnonzero(kept).astype(np.int64)
    alice_bits, bob_bits = _party_bits(config, choices[kept, 0], choices[kept, 1])
    alice = KeyMaterial(alice_bits.astype(np.uint8), flags, periods)
    bob = KeyMaterial(bob_bits.astype(np.uint8), flags.copy(), periods.copy())
    return alice, bob, _stats(config, choices, level)


@dataclass(frozen=True)
class BerEstimate:
    gamma: float
    runs: int
    errors: int
    ber: float


def estimate_ber(
    config: ExchangeConfig, gamma_list, runs_per_gamma: int, seed
) -> list[BerEstimate]:
    """Monte Carlo misclassification probability per averaging ratio.

    For each gamma, runs ``runs_per_gamma`` independent periods with uniform
    ground truth and counts periods whose classified band differs from the
    band implied by the true permutation. Deterministic under a fixed seed.
    """
    if runs_per_gamma < 100:
        raise InvalidParameterError("runs_per_gamma must be at least 100")
    root = as_seed_sequence(seed)
    out = []
    for gamma in gamma_list:
        cfg = replace(config, gamma=float(gamma))
        errors = 0
        choice_seed, noise_root = root.spawn(1)[0].spawn(2)
        drawn = np.random.default_rng(choice_seed).integers(0, 2, size=(runs_per_gamma, 2))
        for choices, msv_u, msv_i, _ in _Periods(cfg, noise_root).chunks(drawn):
            level = _classify(cfg, msv_u, msv_i)
            errors += int(np.count_nonzero(level != choices.sum(axis=1)))
        out.append(BerEstimate(float(gamma), runs_per_gamma, errors, errors / runs_per_gamma))
    return out
