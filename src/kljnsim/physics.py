"""Johnson-noise synthesis and the two-resistor wireline loop.

Physical layer of the key exchange: each communicator drives a shared wire
through one of two resistor values whose thermal noise is emulated by a
band-limited Gaussian voltage source at a common effective temperature.
The quasi-static loop (zero wire resistance, zero propagation delay)
determines the channel voltage and current that everyone on the line,
including an eavesdropper, can observe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import AliasingError, GridMismatchError, InvalidParameterError

#: Boltzmann constant in J/K (exact SI value).
BOLTZMANN = 1.380649e-23

#: Above this bandwidth fraction the quasi-static treatment of the line
#: becomes questionable; configs are accepted but flagged.
NO_WAVE_THETA_LIMIT = 0.2

#: Below this averaging ratio periods misclassify often; configs are accepted
#: but flagged. Both limits are policy: physics only asks theta << 1 << gamma.
LOW_GAMMA_LIMIT = 10.0

#: Default sampling density relative to the noise bandwidth.
DEFAULT_OVERSAMPLE = 10.0


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """Normalize an int, a sequence of ints, or a SeedSequence to a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


class PairClass(Enum):
    """Resistor permutation connected to the line during one bit period.

    The mixed permutations are the secure ones: seen from the wire they
    produce identical noise statistics, so an eavesdropper cannot tell
    which side holds which resistor.
    """

    LL = "LL"
    LH = "LH"
    HL = "HL"
    HH = "HH"

    @property
    def secure(self) -> bool:
        return self in (PairClass.LH, PairClass.HL)


@dataclass(frozen=True)
class KljnLineConfig:
    """Physical parameters of one wireline between two communicators.

    The usable noise bandwidth is tied to the line length: band-limiting the
    generators to ``theta * wave_speed / line_length`` with ``theta`` well
    below 1 keeps the loop in the quasi-static (no-wave) regime.

    Parameters
    ----------
    r_low, r_high : float
        The two resistor values in ohms, ``r_low < r_high``.
    t_eff : float
        Effective noise temperature in kelvin of the emulated generators.
    line_length : float
        Wire length in meters between the two parties.
    wave_speed : float
        Propagation speed of electromagnetic waves in the wire, m/s.
    theta : float
        Dimensionless bandwidth fraction in (0, 1). Values of 0.2 and above
        are accepted but flagged as straining the no-wave limit.
    """

    r_low: float = 10e3
    r_high: float = 100e3
    t_eff: float = 1e15
    line_length: float = 1000.0
    wave_speed: float = 2.0e8
    theta: float = 0.1

    def __post_init__(self) -> None:
        if self.r_low <= 0 or self.r_high <= 0:
            raise InvalidParameterError("resistor values must be positive")
        if self.r_low >= self.r_high:
            raise InvalidParameterError(
                "r_low must be strictly smaller than r_high (two distinct values required)"
            )
        if self.t_eff <= 0:
            raise InvalidParameterError("t_eff must be positive")
        if self.line_length <= 0:
            raise InvalidParameterError("line_length must be positive")
        if self.wave_speed <= 0:
            raise InvalidParameterError("wave_speed must be positive")
        if not 0 < self.theta < 1:
            raise InvalidParameterError("theta must lie strictly between 0 and 1")

    @property
    def noise_bandwidth(self) -> float:
        """Generator bandwidth in Hz: theta * wave_speed / line_length."""
        return self.theta * self.wave_speed / self.line_length

    @property
    def correlation_time(self) -> float:
        """Approximate correlation time of the band-limited noise, seconds."""
        return 1.0 / self.noise_bandwidth

    @property
    def flags(self) -> tuple[str, ...]:
        """Advisory flags ('no-wave-limit' when theta is uncomfortably large)."""
        if self.theta >= NO_WAVE_THETA_LIMIT:
            return ("no-wave-limit",)
        return ()


@dataclass(frozen=True, eq=False)
class NoiseTrace:
    """A uniformly sampled waveform (volts for sources, amperes for currents)."""

    samples: np.ndarray
    sample_rate: float
    duration: float

    def __post_init__(self) -> None:
        n = len(self.samples)
        if n < 2:
            raise InvalidParameterError("a trace needs at least 2 samples")
        if abs(n - self.sample_rate * self.duration) > 0.500001:
            raise InvalidParameterError(
                "sample count must equal round(sample_rate * duration)"
            )

    def __len__(self) -> int:
        return len(self.samples)

    def mean_square(self) -> float:
        return float(np.mean(self.samples * self.samples))

    def rms(self) -> float:
        """Taken over the samples divided by their largest magnitude, so that
        squaring cannot overflow; a non-finite trace gives inf or NaN."""
        top = float(np.max(np.abs(self.samples)))
        if not 0.0 < top < math.inf:
            return top
        return top * math.sqrt(float(np.mean(np.square(self.samples / top))))

    def same_grid(self, other: "NoiseTrace") -> bool:
        return (
            len(self.samples) == len(other.samples)
            and self.sample_rate == other.sample_rate
            and self.duration == other.duration
        )


def assert_same_grid(a: NoiseTrace, b: NoiseTrace) -> None:
    if not a.same_grid(b):
        raise GridMismatchError(
            f"traces do not share a sample grid: "
            f"({len(a)} @ {a.sample_rate} Hz) vs ({len(b)} @ {b.sample_rate} Hz)"
        )


@dataclass(frozen=True, eq=False)
class LoopSignals:
    """Channel voltage and current observable on the wire, one sample grid."""

    channel_voltage: NoiseTrace
    channel_current: NoiseTrace

    def __post_init__(self) -> None:
        assert_same_grid(self.channel_voltage, self.channel_current)

    @property
    def sample_rate(self) -> float:
        return self.channel_voltage.sample_rate

    @property
    def duration(self) -> float:
        return self.channel_voltage.duration

    def __len__(self) -> int:
        return len(self.channel_voltage)


def johnson_rms(resistance: float, t_eff: float, bandwidth: float) -> float:
    """RMS thermal-noise voltage of a resistor over a given bandwidth.

    Standard Johnson-Nyquist value: ``sqrt(4 k T R B)`` with the exact-SI
    Boltzmann constant.
    """
    if resistance < 0 or t_eff < 0 or bandwidth < 0:
        raise InvalidParameterError("resistance, t_eff and bandwidth must be >= 0")
    return math.sqrt(4.0 * BOLTZMANN * t_eff * resistance * bandwidth)


def in_band_bins(bandwidth: float, sample_rate: float, duration: float) -> tuple[int, int]:
    """Sample count ``n`` of a trace and the count ``m`` of its in-band
    Fourier bins 1..m. DC is excluded (exactly zero mean), and so is the
    Nyquist bin (keeps the two-degrees-of-freedom bookkeeping uniform)."""
    n = int(round(sample_rate * duration))
    k = np.arange(1, (n - 1) // 2 + 1)
    m = int(np.count_nonzero(k * (sample_rate / n) <= bandwidth * (1.0 + 1e-12)))
    if m == 0:
        raise InvalidParameterError(
            "sample grid too coarse: no Fourier bin falls inside the band"
        )
    return n, m


def sample_bandlimited_gaussian(
    rms: float,
    bandwidth: float,
    sample_rate: float,
    duration: float,
    seed,
) -> NoiseTrace:
    """Synthesize a zero-mean Gaussian trace band-limited to [0, bandwidth].

    Frequency-domain synthesis: every discrete-Fourier bin strictly inside
    (0, bandwidth] below the Nyquist frequency receives an independent complex
    Gaussian coefficient and everything else is exactly zero, so the spectrum
    is flat in band and identically zero out of band. The coefficients are
    scaled analytically so the expected mean square of the trace equals
    ``rms**2`` (no per-trace renormalization).

    ``seed`` goes through ``np.random.default_rng``, so it may be an int, a
    sequence of ints, a SeedSequence, or a Generator. A Generator is drawn
    from in place: m real then m imaginary standard normals. Identical
    (seed, parameters) produce bit-identical traces.
    """
    if rms < 0:
        raise InvalidParameterError("rms must be non-negative")
    if duration <= 0:
        raise InvalidParameterError("duration must be positive")
    if bandwidth <= 0:
        raise InvalidParameterError("bandwidth must be positive")
    if sample_rate < 2.0 * bandwidth:
        raise AliasingError(
            f"sample_rate {sample_rate} Hz is below twice the bandwidth {bandwidth} Hz"
        )
    if duration * bandwidth < 1.0:
        raise InvalidParameterError(
            "duration * bandwidth must be at least 1 (need one full correlation time)"
        )

    n, m = in_band_bins(bandwidth, sample_rate, duration)
    if rms == 0.0:
        return NoiseTrace(np.zeros(n), sample_rate, duration)

    rng = np.random.default_rng(seed)
    # E<x^2> = 4 m s^2 / n^2 for irfft of m bins with per-component std s.
    s = rms * n / (2.0 * math.sqrt(m))
    spectrum = np.zeros(n // 2 + 1, dtype=complex)
    spectrum[1:m + 1] = s * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    samples = np.fft.irfft(spectrum, n)
    return NoiseTrace(samples, sample_rate, duration)


def solve_loop(u_a: NoiseTrace, r_a: float, u_b: NoiseTrace, r_b: float) -> LoopSignals:
    """Solve the quasi-static loop of two noise sources behind their resistors.

    Pointwise on the shared grid::

        u_c = (u_a * r_b + u_b * r_a) / (r_a + r_b)
        i_c = (u_a - u_b) / (r_a + r_b)

    with no propagation delay.
    """
    assert_same_grid(u_a, u_b)
    if r_a < 0 or r_b < 0 or r_a + r_b <= 0:
        raise InvalidParameterError("resistances must be non-negative with positive sum")
    total = r_a + r_b
    voltage = (u_a.samples * r_b + u_b.samples * r_a) / total
    current = (u_a.samples - u_b.samples) / total
    grid = (u_a.sample_rate, u_a.duration)
    return LoopSignals(
        NoiseTrace(voltage, *grid),
        NoiseTrace(current, *grid),
    )


def loop_msv_for_resistors(
    r_a: float, r_b: float, t_eff: float, bandwidth: float
) -> tuple[float, float]:
    """Theoretical mean-square channel voltage and current for two resistors.

    ``<u_c^2> = 4 k T B * (r_a || r_b)`` and ``<i_c^2> = 4 k T B / (r_a + r_b)``.
    Exposed separately from :func:`theoretical_msv` so degenerate equal-value
    limits can be checked without constructing a config.
    """
    if r_a <= 0 or r_b <= 0:
        raise InvalidParameterError("resistances must be positive")
    r_parallel = r_a * r_b / (r_a + r_b)
    scale = 4.0 * BOLTZMANN * t_eff * bandwidth
    return scale * r_parallel, scale / (r_a + r_b)


def pair_resistances(config: KljnLineConfig, pair: PairClass) -> tuple[float, float]:
    """Resistances engaged by the two parties for a given permutation."""
    lookup = {"L": config.r_low, "H": config.r_high}
    code = pair.value
    return lookup[code[0]], lookup[code[1]]


def theoretical_msv(config: KljnLineConfig, pair: PairClass) -> tuple[float, float]:
    """Theoretical (volts^2, amperes^2) channel levels for a resistor class.

    The two mixed permutations yield identical values by construction.
    """
    r_a, r_b = pair_resistances(config, pair)
    return loop_msv_for_resistors(r_a, r_b, config.t_eff, config.noise_bandwidth)
