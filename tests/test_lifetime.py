"""The rate chain from line physics to the key-lifetime upper limit."""

import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from kljnsim import (
    InvalidParameterError,
    LifetimeParams,
    car_density,
    key_lifetime,
    key_lifetime_closed_form,
    noise_bandwidth,
    per_car_rate,
    secure_bit_rate,
)


WORKED = dict(
    theta=0.1, wave_speed=2e8, line_length=1000.0, gamma=100.0,
    key_length=100.0, car_density=1000.0,
)


class TestNoiseBandwidth:
    def test_worked_numbers(self):
        assert noise_bandwidth(0.1, 2e8, 1000.0) == pytest.approx(2e4, rel=1e-12)

    def test_doubling_length_halves_bandwidth(self):
        assert noise_bandwidth(0.1, 2e8, 2000.0) == pytest.approx(
            noise_bandwidth(0.1, 2e8, 1000.0) / 2, rel=1e-12
        )

    def test_theta_bounds(self):
        with pytest.raises(InvalidParameterError):
            noise_bandwidth(0.0, 2e8, 1000.0)
        with pytest.raises(InvalidParameterError):
            noise_bandwidth(1.0, 2e8, 1000.0)
        with pytest.raises(InvalidParameterError):
            noise_bandwidth(1.5, 2e8, 1000.0)


class TestSecureBitRate:
    def test_worked_numbers(self):
        assert secure_bit_rate(2e4, 100.0) == pytest.approx(100.0, rel=1e-12)

    def test_parallel_channels_multiply(self):
        assert secure_bit_rate(2e4, 100.0, 4) == pytest.approx(400.0, rel=1e-12)

    def test_doubling_gamma_halves_rate(self):
        assert secure_bit_rate(2e4, 200.0) == pytest.approx(50.0, rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(InvalidParameterError):
            secure_bit_rate(2e4, 0.5)
        with pytest.raises(InvalidParameterError):
            secure_bit_rate(2e4, 100.0, 0)


class TestCarDensity:
    def test_single_unit_serves_everyone(self):
        assert car_density(1000, 1) == 1000.0

    def test_zero_cars(self):
        assert car_density(0, 3) == 0.0

    def test_ratio_is_real_valued(self):
        assert car_density(3, 2) == 1.5

    def test_zero_units_rejected(self):
        with pytest.raises(InvalidParameterError):
            car_density(10, 0)


class TestPerCarRate:
    def test_worked_numbers(self):
        assert per_car_rate(100.0, 1000.0) == pytest.approx(0.1, rel=1e-12)

    def test_single_car_gets_everything(self):
        assert per_car_rate(100.0, 1.0) == 100.0

    def test_doubling_density_halves_rate(self):
        assert per_car_rate(100.0, 2000.0) == pytest.approx(0.05, rel=1e-12)

    def test_zero_density_rejected(self):
        with pytest.raises(InvalidParameterError):
            per_car_rate(100.0, 0.0)


class TestKeyLifetime:
    def test_worked_example(self):
        report = key_lifetime(LifetimeParams(**WORKED))
        assert report.noise_bandwidth == pytest.approx(2e4, rel=1e-12)
        assert report.secure_bit_rate == pytest.approx(100.0, rel=1e-12)
        assert report.per_car_rate == pytest.approx(0.1, rel=1e-12)
        assert report.key_lifetime == pytest.approx(1000.0, rel=1e-12)
        assert not report.no_wave_warning and not report.gamma_warning

    def test_zero_key_length(self):
        report = key_lifetime(LifetimeParams(**{**WORKED, "key_length": 0.0}))
        assert report.key_lifetime == 0.0

    def test_parallel_channels_shorten_lifetime(self):
        report = key_lifetime(
            LifetimeParams(**WORKED, parallel_channels=10)
        )
        assert report.key_lifetime == pytest.approx(100.0, rel=1e-12)

    def test_report_internal_consistency(self):
        # rate * lifetime reproduces the key length to within a couple of ulp
        # (one division followed by one multiplication).
        report = key_lifetime(LifetimeParams(**WORKED))
        assert report.per_car_rate * report.key_lifetime == pytest.approx(
            100.0, rel=1e-15
        )

    def test_warnings(self):
        # theta >= 0.2 and gamma < 10 warn, each checked on both sides of its limit.
        for theta, warns in [(0.5, True), (0.2, True), (math.nextafter(0.2, 0), False)]:
            report = key_lifetime(LifetimeParams(**{**WORKED, "theta": theta}))
            assert report.no_wave_warning == warns, theta
            assert not report.gamma_warning
        for gamma, warns in [(5.0, True), (math.nextafter(10.0, 0), True), (10.0, False)]:
            report = key_lifetime(LifetimeParams(**{**WORKED, "gamma": gamma}))
            assert report.gamma_warning == warns, gamma
            assert not report.no_wave_warning

    @given(
        theta=st.floats(min_value=1e-3, max_value=0.999),
        wave_speed=st.floats(min_value=1e6, max_value=3e8),
        line_length=st.floats(min_value=1.0, max_value=1e5),
        gamma=st.floats(min_value=1.0, max_value=1e4),
        key_length=st.floats(min_value=1.0, max_value=1e5),
        density=st.floats(min_value=0.1, max_value=1e6),
        channels=st.integers(min_value=1, max_value=64),
    )
    def test_composition_matches_closed_form(
        self, theta, wave_speed, line_length, gamma, key_length, density, channels
    ):
        params = LifetimeParams(
            theta=theta, wave_speed=wave_speed, line_length=line_length,
            gamma=gamma, key_length=key_length, car_density=density,
            parallel_channels=channels,
        )
        composed = key_lifetime(params).key_lifetime
        direct = key_lifetime_closed_form(params)
        assert composed == pytest.approx(direct, rel=1e-12)

    def test_composition_matches_closed_form_bulk(self):
        import numpy as np

        rng = np.random.default_rng(1000)
        for _ in range(1000):
            params = LifetimeParams(
                theta=float(rng.uniform(1e-3, 0.999)),
                wave_speed=float(rng.uniform(1e6, 3e8)),
                line_length=float(rng.uniform(1.0, 1e5)),
                gamma=float(rng.uniform(1.0, 1e4)),
                key_length=float(rng.uniform(1.0, 1e5)),
                car_density=float(rng.uniform(0.1, 1e6)),
                parallel_channels=int(rng.integers(1, 65)),
            )
            composed = key_lifetime(params).key_lifetime
            direct = key_lifetime_closed_form(params)
            assert abs(composed - direct) <= 1e-12 * abs(direct)

    @given(factor=st.floats(min_value=1.0001, max_value=100.0))
    def test_monotonicity(self, factor):
        base = LifetimeParams(**WORKED)
        tau = key_lifetime(base).key_lifetime

        def tweaked(**kw):
            return key_lifetime(dataclasses.replace(base, **kw)).key_lifetime

        assert tweaked(key_length=WORKED["key_length"] * factor) > tau
        assert tweaked(car_density=WORKED["car_density"] * factor) > tau
        assert tweaked(gamma=WORKED["gamma"] * factor) > tau
        assert tweaked(line_length=WORKED["line_length"] * factor) > tau
        assert tweaked(theta=min(WORKED["theta"] * factor, 0.999)) < tau
        assert tweaked(wave_speed=WORKED["wave_speed"] * factor) < tau
        assert tweaked(parallel_channels=2) < tau


class TestLifetimeParams:
    def test_consistent_triple_accepted(self):
        params = LifetimeParams(
            **{**WORKED, "car_density": 500.0},
            car_count=1000, kljn_unit_count=2,
        )
        assert params.car_density == 500.0

    def test_inconsistent_triple_rejected(self):
        with pytest.raises(InvalidParameterError):
            LifetimeParams(
                **WORKED, car_count=1000, kljn_unit_count=2,
            )

    def test_pair_fills_density(self):
        params = LifetimeParams(
            **{k: v for k, v in WORKED.items() if k != "car_density"},
            car_count=1000, kljn_unit_count=1,
        )
        assert params.car_density == 1000.0

    def test_missing_density_information_rejected(self):
        with pytest.raises(InvalidParameterError):
            LifetimeParams(
                **{k: v for k, v in WORKED.items() if k != "car_density"}
            )

    def test_lone_car_count_rejected(self):
        with pytest.raises(InvalidParameterError):
            LifetimeParams(
                **{k: v for k, v in WORKED.items() if k != "car_density"},
                car_count=100,
            )


class TestNonFiniteRejected:
    @pytest.mark.parametrize("field", [
        "theta", "wave_speed", "line_length", "gamma", "key_length", "car_count",
        "kljn_unit_count", "car_density", "parallel_channels",
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, pytest.param(10**400, id="1e400")])
    def test_field_named(self, field, value):
        # NaN used to pass every range check: gamma=nan gave a NaN lifetime.
        # An int beyond float range used to raise numpy's bare TypeError.
        with pytest.raises(InvalidParameterError, match=f"^{field} must be finite"):
            LifetimeParams(**{**WORKED, field: value})


@pytest.mark.parametrize("field, call", [
    ("parallel_channels", lambda: LifetimeParams(car_density=10, parallel_channels=1.5)),
    ("kljn_unit_count", lambda: LifetimeParams(car_count=5, kljn_unit_count=2.5)),
    ("parallel_channels", lambda: secure_bit_rate(2e4, 100.0, 1.5)),
    ("kljn_unit_count", lambda: car_density(5, 2.5)),
], ids=["parallel_channels", "kljn_unit_count", "secure_bit_rate", "car_density"])
def test_non_integer_count_rejected(field, call):
    # A hand-built 1.5 channels used to report 150 bit/s, and 2.5 units a
    # density of 2.0; the planner functions took them too.
    with pytest.raises(InvalidParameterError, match=f"^{field} must be an integer >= 1, "):
        call()


def test_int_beyond_digit_limit_named():
    # Python refuses to print an int of over 4,300 digits, so a message that
    # shows the value raised ValueError in place of naming the field.
    with pytest.raises(InvalidParameterError,
                       match="^car_count must be finite, got an int beyond float range$"):
        LifetimeParams(car_count=10**5000, kljn_unit_count=1)
