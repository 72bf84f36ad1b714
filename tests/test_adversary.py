"""Wiretap strategies and current injection."""

import math

import numpy as np
import pytest

from kljnsim import (
    ExchangeConfig,
    GuessStrategy,
    InjectionAttack,
    InvalidParameterError,
    PairClass,
    Resistor,
    Waveform,
    apply_injection,
    monitor_endpoints,
    theoretical_msv,
)
from kljnsim.adversary import injection_sweep, passive_sweep
from kljnsim.physics import in_band_bins, pair_resistances
from kljnsim.protocol import period_resistances, synthesize_period
import oracles
from oracles import EveObservation, choose_resistors, passive_guess
from test_error_law import gamma_cdf


@pytest.fixture(scope="module")
def config():
    return ExchangeConfig()


@pytest.fixture(scope="module")
def secure_signals(config):
    return synthesize_period(config, (Resistor.L, Resistor.H), 2718)


class TestPassiveGuess:
    def test_all_strategies_hover_at_half(self, config):
        # 3-sigma binomial gate at 2000 periods; the acceptance suite runs
        # the full 10^4-period version with the 0.515 ceiling.
        result = passive_sweep(config, 2000, 31337)
        bound = 0.5 + 3 * math.sqrt(0.25 / result.periods)
        for strategy, accuracy in result.accuracy.items():
            assert accuracy <= bound, strategy
            assert accuracy >= 1 - bound, strategy

    def test_cross_correlation_statistically_zero(self, config):
        result = passive_sweep(config, 2000, 424242)
        assert abs(result.cross_corr_mean) <= 3 * result.cross_corr_se

    def test_duplicate_strategy_rejected(self, config):
        # Each copy used to draw and count into one tally: random read 1.05.
        with pytest.raises(InvalidParameterError, match="'random'"):
            passive_sweep(config, 200, 5, strategies=["random", "random", "correlation-sign"])
        with pytest.raises(InvalidParameterError, match="'msv-threshold'"):
            passive_sweep(config, 200, 5, strategies=["msv-threshold", GuessStrategy.MSV_THRESHOLD])

    def test_empty_strategy_list_rejected(self, config):
        # An empty list used to score all three strategies, like None.
        with pytest.raises(InvalidParameterError, match="no strategy"):
            passive_sweep(config, 200, 5, strategies=[])

    @pytest.mark.parametrize("n_periods", [4.5, 200.0, "200", 1, -3])
    def test_bad_period_count_rejected(self, config, n_periods):
        # 4.5 used to die in a numpy cast with a TypeError.
        with pytest.raises(InvalidParameterError, match="n_periods must be an integer >= 2"):
            passive_sweep(config, n_periods, 5)

    def test_random_strategy_needs_rng(self, secure_signals):
        obs = EveObservation.from_signals(secure_signals)
        with pytest.raises(InvalidParameterError):
            passive_guess(obs, GuessStrategy.RANDOM)
        rng = np.random.default_rng(1)
        assert passive_guess(obs, "random", rng=rng) in (PairClass.LH, PairClass.HL)

    def test_msv_threshold_needs_line(self, secure_signals):
        obs = EveObservation.from_signals(secure_signals)
        with pytest.raises(InvalidParameterError):
            passive_guess(obs, "msv-threshold")

    def test_deterministic_given_observation(self, config, secure_signals):
        obs = EveObservation.from_signals(secure_signals)
        g1 = passive_guess(obs, "correlation-sign")
        g2 = passive_guess(obs, "correlation-sign")
        assert g1 is g2


class TestApplyInjection:
    def test_null_attack_leaves_views_identical(self, config, secure_signals):
        attack = InjectionAttack(0.0)
        alice, bob = apply_injection(secure_signals, 1e4, 1e5, attack)
        assert np.array_equal(
            alice.channel_current.samples, secure_signals.channel_current.samples
        )
        assert np.array_equal(
            bob.channel_voltage.samples, secure_signals.channel_voltage.samples
        )
        assert not monitor_endpoints(alice, bob, config.alarm_tolerance)

    def test_current_discrepancy_equals_injection(self, config, secure_signals):
        rms_i = secure_signals.channel_current.rms()
        attack = InjectionAttack(0.5 * rms_i, start=100, stop=400)
        alice, bob = apply_injection(secure_signals, 1e4, 1e5, attack)
        delta = alice.channel_current.samples - bob.channel_current.samples
        assert np.allclose(delta[100:400], 0.5 * rms_i, rtol=1e-9)
        assert not np.any(delta[:100]) and not np.any(delta[400:])

    def test_equal_resistors_split_in_half(self, config):
        signals = synthesize_period(config, (Resistor.L, Resistor.H), 3)
        amplitude = 1e-9
        attack = InjectionAttack(amplitude)
        alice, bob = apply_injection(signals, 2e4, 2e4, attack)
        gain_a = alice.channel_current.samples - signals.channel_current.samples
        gain_b = bob.channel_current.samples - signals.channel_current.samples
        assert np.allclose(gain_a, amplitude / 2, rtol=1e-9)
        assert np.allclose(gain_b, -amplitude / 2, rtol=1e-9)

    def test_both_ends_see_same_shifted_voltage(self, config, secure_signals):
        rms_i = secure_signals.channel_current.rms()
        attack = InjectionAttack(2 * rms_i)
        alice, bob = apply_injection(secure_signals, 1e4, 1e5, attack)
        assert np.array_equal(
            alice.channel_voltage.samples, bob.channel_voltage.samples
        )
        r_parallel = 1e4 * 1e5 / 1.1e5
        shift = alice.channel_voltage.samples - secure_signals.channel_voltage.samples
        assert np.allclose(shift, 2 * rms_i * r_parallel, rtol=1e-9)

    def test_window_out_of_bounds_rejected(self, secure_signals):
        n = len(secure_signals)
        with pytest.raises(InvalidParameterError):
            apply_injection(secure_signals, 1e4, 1e5, InjectionAttack(1.0, stop=n + 1))

    def test_gaussian_waveform_deterministic_under_seed(self, secure_signals):
        attack = InjectionAttack(1e-8, waveform=Waveform.GAUSSIAN)
        a1, b1 = apply_injection(secure_signals, 1e4, 1e5, attack, seed=5)
        a2, b2 = apply_injection(secure_signals, 1e4, 1e5, attack, seed=5)
        assert np.array_equal(a1.channel_current.samples, a2.channel_current.samples)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(InvalidParameterError):
            InjectionAttack(-1.0)

    @pytest.mark.parametrize("amplitude", [math.inf, math.nan])
    def test_non_finite_amplitude_rejected(self, amplitude):
        with pytest.raises(InvalidParameterError, match="finite"):
            InjectionAttack(amplitude)


class TestDetectionBoundary:
    def test_negative_amplitude_rejected_before_any_period(self, config, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return synthesize_period(*args)

        monkeypatch.setattr("kljnsim.adversary.synthesize_period", counting)
        # An infinite or NaN amplitude used to run every period and report
        # 0 alarms.
        for bad in (-1.0, math.inf, math.nan):
            with pytest.raises(InvalidParameterError, match="relative amplitudes"):
                injection_sweep(config, [0.0, 1.0, bad], 5, 1)
        assert calls == []

    @pytest.mark.parametrize("waveform, factors", [
        (Waveform.CONSTANT, (0.9, 1.0, 1.1)),
        # A Gaussian waveform's largest sample is ~3.3 sigma, so its alarms
        # turn on near 0.3x the tolerance.
        (Waveform.GAUSSIAN, (0.27, 0.3, 0.33)),
    ])
    def test_injection_sweep_matches_period_loop(self, config, waveform, factors):
        # Near the alarm edge some periods alarm and some do not, so the
        # counts can tell the choice draws apart.
        amplitudes = [f * config.alarm_tolerance for f in factors]
        mixed = 0
        for seed in (1, [3, 7], 2024):
            points = injection_sweep(config, amplitudes, 20, seed, waveform)
            assert points == oracles.injection_sweep(config, amplitudes, 20, seed, waveform)
            mixed += sum(0 < p.alarms < p.periods for p in points)
        assert mixed >= 3

    def test_alarm_rate_steps_up_at_tolerance(self, config):
        # Relative amplitudes straddling the alarm tolerance (1e-9): below
        # stays silent, above always trips within the period.
        points = injection_sweep(
            config, [0.0, 5e-10, 1e-8, 1e-4, 1.0], 40, 11
        )
        by_amp = {p.relative_amplitude: p.alarm_rate for p in points}
        assert by_amp[0.0] == 0.0
        assert by_amp[5e-10] == 0.0
        assert by_amp[1e-8] == 1.0
        assert by_amp[1e-4] == 1.0
        assert by_amp[1.0] == 1.0

    def test_persistent_injection_alarms_within_one_period(self, config):
        rng = np.random.default_rng(12)
        root = np.random.SeedSequence(13)
        for _ in range(20):
            choices = choose_resistors(rng)
            signals = synthesize_period(config, choices, root.spawn(1)[0])
            r_a, r_b = period_resistances(config.line, choices)
            _, msv_i = theoretical_msv(config.line, PairClass(choices[0].name + choices[1].name))
            attack = InjectionAttack(10 * config.alarm_tolerance * math.sqrt(msv_i))
            alice, bob = apply_injection(signals, r_a, r_b, attack)
            assert monitor_endpoints(alice, bob, config.alarm_tolerance)

    def test_engine_matches_period_loop_at_coarse_tolerance(self):
        # At the default 1e-9 the alpha^2 term is 1e-18 of the alarm
        # threshold; at 0.5 it moves which periods alarm.
        config = ExchangeConfig(alarm_tolerance=0.5)
        amplitudes = [f * config.alarm_tolerance for f in (0.9, 1.0, 1.1)]
        mixed = 0
        for seed in (1, [3, 7], 2024):
            points = injection_sweep(config, amplitudes, 20, seed)
            assert points == oracles.injection_sweep(config, amplitudes, 20, seed)
            mixed += sum(0 < p.alarms < p.periods for p in points)
        assert mixed >= 3

    @pytest.mark.parametrize("waveform", list(Waveform))
    def test_huge_injection_alarms(self, config, waveform):
        # Squared, a 1e160 x RMS view used to overflow the monitor's scale to
        # inf, which read any deviation as 0 and raised no alarm.
        points = injection_sweep(config, [1e150, 1e160, 1e300], 5, 1, waveform)
        assert [p.alarms for p in points] == [5, 5, 5]

    def test_amplitudes_may_come_from_a_generator(self, config):
        amplitudes = [0.0, 0.9e-9, 1.1e-9, 1e-6]
        points = injection_sweep(config, iter(amplitudes), 20, 5)
        assert points == injection_sweep(config, amplitudes, 20, 5)
        assert [p.relative_amplitude for p in points] == amplitudes

    @pytest.mark.parametrize("periods", [0, 2.5, "3"])
    def test_bad_period_count_rejected(self, config, periods):
        with pytest.raises(InvalidParameterError, match="periods_per_amplitude"):
            injection_sweep(config, [1.0], periods, 1)

    def test_bad_waveform_rejected_without_amplitudes(self, config):
        with pytest.raises(ValueError, match="bogus"):
            injection_sweep(config, [], 5, 1, "bogus")


#: Periods per amplitude of the alarm-law check, and its two-sided critical
#: value of the normal approximation to the binomial (about 6e-5 per check).
LAW_PERIODS = 5_000
Z_CRIT = 4.0


def constant_alarm_probability(config: ExchangeConfig, rel: float, alpha) -> float:
    """Exact alarm rate of a constant injection of ``rel`` x RMS current.

    ``msv_i`` is its theoretical level times G/m with G ~ Gamma(m, 1), and
    the monitor alarms iff c > tol * hypot(sqrt(msv_i), alpha * c). So
    P(alarm) = P(G/m < rel^2 (1/tol^2 - alpha^2)), averaged over the four
    equally likely resistor pairs; ``alpha(r_a, r_b)`` gives alpha.
    """
    _, m = in_band_bins(config.line.noise_bandwidth, config.sample_rate, config.bit_period)
    tol = config.alarm_tolerance
    return sum(
        gamma_cdf(m, m * rel**2 * (1 / tol**2 - alpha(*pair_resistances(config.line, p)) ** 2))
        for p in PairClass
    ) / len(PairClass)


class TestAlarmLaw:
    @pytest.mark.parametrize("factor, seed", [(0.9, 1), (1.0, 2), (1.1, 3)])
    def test_alarm_count_inside_binomial_bound_of_exact_law(self, factor, seed):
        config = ExchangeConfig(alarm_tolerance=0.5)
        rel = factor * config.alarm_tolerance
        [point] = injection_sweep(config, [rel], LAW_PERIODS, [2006, seed])

        def z(alpha):
            p = constant_alarm_probability(config, rel, alpha)
            return (point.alarms - LAW_PERIODS * p) / math.sqrt(LAW_PERIODS * p * (1 - p))

        assert abs(z(lambda r_a, r_b: max(r_a, r_b) / (r_a + r_b))) <= Z_CRIT
        # The check has the power to see a wrong alpha or a dropped c^2 alpha^2.
        assert abs(z(lambda r_a, r_b: min(r_a, r_b) / (r_a + r_b))) > Z_CRIT
        assert abs(z(lambda r_a, r_b: 0.0)) > Z_CRIT
