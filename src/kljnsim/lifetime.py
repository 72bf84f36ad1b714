"""Key-lifetime planning: from line physics to how long a donated key lasts.

The chain of rates: a line of length L supports noise bandwidth
``B = theta * c / L``; averaging over ``gamma`` correlation times and
keeping only the (on average) half of periods that are secure gives the
secure bit rate ``f_sec = m * B / (2 * gamma)`` with ``m`` parallel
channels; a unit serving ``n_c`` cars donates ``f_c = f_sec / n_c`` bits
per second to each; so a key of ``N_k`` bits lasts ``N_k / f_c`` seconds.
With ``n_c`` taken as the largest load any unit handles, that lifetime is
a pessimistic (upper-limit) planning value for inhomogeneous traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParameterError
from .physics import KljnLineConfig, require_count, require_finite

_REL_TOL = 1e-9

#: Above this bandwidth fraction the quasi-static treatment of the line
#: becomes questionable; the report sets ``no_wave_warning``.
NO_WAVE_THETA_LIMIT = 0.2

#: Below this averaging ratio periods misclassify often; the report sets
#: ``gamma_warning``. Both limits are policy: physics only asks
#: theta << 1 << gamma.
LOW_GAMMA_LIMIT = 10.0


def noise_bandwidth(theta: float, wave_speed: float, line_length: float) -> float:
    """Noise bandwidth in Hz of a line: theta * wave_speed / line_length."""
    line = KljnLineConfig(theta=theta, wave_speed=wave_speed, line_length=line_length)
    return line.noise_bandwidth


def secure_bit_rate(bandwidth: float, gamma: float, parallel_channels: int = 1) -> float:
    """Secure bits per second: m * B / (2 * gamma).

    The factor 1/2 reflects that only the mixed resistor permutations are
    secure, which happens half the time on average; ``parallel_channels``
    multiplies the rate for multi-wire or on-chip parallel lines.
    """
    if bandwidth <= 0:
        raise InvalidParameterError("bandwidth must be positive")
    if gamma < 1:
        raise InvalidParameterError("gamma must be at least 1")
    require_count("parallel_channels", parallel_channels, 1)
    return parallel_channels * bandwidth / (2.0 * gamma)


def car_density(car_count: float, kljn_unit_count: int) -> float:
    """Cars served per key-exchange unit (real-valued ratio)."""
    require_count("kljn_unit_count", kljn_unit_count, 1)
    if car_count < 0:
        raise InvalidParameterError("car_count must be non-negative")
    return car_count / kljn_unit_count


def per_car_rate(secure_rate: float, density: float) -> float:
    """Secure bit donation rate to a single car: f_sec / n_c."""
    if density <= 0:
        raise InvalidParameterError("car density must be positive")
    if secure_rate < 0:
        raise InvalidParameterError("secure bit rate must be non-negative")
    return secure_rate / density


@dataclass(frozen=True)
class LifetimeParams:
    """Inputs of the key-lifetime planner; the defaults are the worked example
    (a 1 km line at theta 0.1, gamma 100, 100-bit keys).

    Either ``car_density`` or the pair ``car_count`` / ``kljn_unit_count``
    must be given; when all three are present they must be consistent.
    """

    theta: float = 0.1
    wave_speed: float = 2e8
    line_length: float = 1000.0
    gamma: float = 100.0
    key_length: float = 100.0
    car_count: float | None = None
    kljn_unit_count: int | None = None
    car_density: float | None = None
    parallel_channels: int = 1

    def __post_init__(self) -> None:
        require_finite(theta=self.theta, wave_speed=self.wave_speed,
                       line_length=self.line_length, gamma=self.gamma,
                       key_length=self.key_length, car_count=self.car_count,
                       kljn_unit_count=self.kljn_unit_count, car_density=self.car_density,
                       parallel_channels=self.parallel_channels)
        if self.key_length < 0:
            raise InvalidParameterError("key_length must be non-negative")
        if self.gamma < 1:
            raise InvalidParameterError("gamma must be at least 1")
        require_count("parallel_channels", self.parallel_channels, 1)
        if (self.car_count is None) != (self.kljn_unit_count is None):
            raise InvalidParameterError(
                "car_count and kljn_unit_count must be given together"
            )
        if self.car_count is None and self.car_density is None:
            raise InvalidParameterError(
                "give either car_density or both car_count and kljn_unit_count"
            )
        if self.car_count is not None:
            require_count("kljn_unit_count", self.kljn_unit_count, 1)
            ratio = car_density(self.car_count, self.kljn_unit_count)
            if self.car_density is None:
                object.__setattr__(self, "car_density", ratio)
            elif abs(self.car_density - ratio) > _REL_TOL * max(abs(ratio), 1.0):
                raise InvalidParameterError(
                    f"car_density {self.car_density} inconsistent with "
                    f"car_count/kljn_unit_count = {ratio}"
                )
        if self.car_density <= 0:
            raise InvalidParameterError("car density must be positive")


@dataclass(frozen=True)
class LifetimeReport:
    """All intermediates of the lifetime computation plus advisory flags."""

    noise_bandwidth: float
    secure_bit_rate: float
    car_density: float
    per_car_rate: float
    key_lifetime: float
    no_wave_warning: bool
    gamma_warning: bool


def key_lifetime(params: LifetimeParams) -> LifetimeReport:
    """Compose the rate chain into the key lifetime upper limit.

    Equivalent closed form: ``2 * N_k * n_c * gamma * L / (theta * c * m)``.
    The report satisfies ``per_car_rate * key_lifetime == key_length`` up to
    floating-point rounding.
    """
    bandwidth = noise_bandwidth(params.theta, params.wave_speed, params.line_length)
    f_sec = secure_bit_rate(bandwidth, params.gamma, params.parallel_channels)
    f_car = per_car_rate(f_sec, params.car_density)
    return LifetimeReport(
        noise_bandwidth=bandwidth,
        secure_bit_rate=f_sec,
        car_density=params.car_density,
        per_car_rate=f_car,
        key_lifetime=params.key_length / f_car,
        no_wave_warning=params.theta >= NO_WAVE_THETA_LIMIT,
        gamma_warning=params.gamma < LOW_GAMMA_LIMIT,
    )


def key_lifetime_closed_form(params: LifetimeParams) -> float:
    """Direct evaluation of 2 N_k n_c gamma L / (theta c m)."""
    return (
        2.0
        * params.key_length
        * params.car_density
        * params.gamma
        * params.line_length
        / (params.theta * params.wave_speed * params.parallel_channels)
    )
