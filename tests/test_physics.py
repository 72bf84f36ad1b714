"""Noise synthesis and loop electronics."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kljnsim import (
    AliasingError,
    BOLTZMANN,
    GridMismatchError,
    InvalidParameterError,
    KljnLineConfig,
    PairClass,
    johnson_rms,
    loop_msv_for_resistors,
    pair_resistances,
    sample_bandlimited_gaussian,
    solve_loop,
    theoretical_msv,
)


def make_trace(samples, fs=2e5):
    from kljnsim import NoiseTrace

    arr = np.asarray(samples, dtype=float)
    return NoiseTrace(arr, fs, len(arr) / fs)


class TestJohnsonRms:
    def test_zero_bandwidth_gives_zero(self):
        assert johnson_rms(1e4, 1e15, 0.0) == 0.0

    def test_zero_resistance_gives_zero(self):
        assert johnson_rms(0.0, 1e15, 2e4) == 0.0

    def test_hand_computed_value(self):
        # Direct arithmetic: 4 * 1.380649e-23 * 1e15 * 1e4 * 2e4 = 11.045192 V^2.
        expected = math.sqrt(4 * 1.380649e-23 * 1e15 * 1e4 * 2e4)
        assert expected == pytest.approx(3.3234307575154927, rel=1e-12)
        assert johnson_rms(1e4, 1e15, 2e4) == pytest.approx(expected, rel=1e-12)

    def test_negative_argument_rejected(self):
        with pytest.raises(InvalidParameterError):
            johnson_rms(-1.0, 300.0, 1e3)
        with pytest.raises(InvalidParameterError):
            johnson_rms(1.0, -300.0, 1e3)
        with pytest.raises(InvalidParameterError):
            johnson_rms(1.0, 300.0, -1e3)


class TestBandlimitedGaussian:
    def test_zero_rms_gives_all_zero_trace(self):
        tr = sample_bandlimited_gaussian(0.0, 1e3, 1e4, 1.0, 3)
        assert not np.any(tr.samples)
        assert len(tr) == 10000

    def test_fixed_seed_reproduces_bitwise(self):
        a = sample_bandlimited_gaussian(2.0, 1e3, 1e4, 0.5, 42)
        b = sample_bandlimited_gaussian(2.0, 1e3, 1e4, 0.5, 42)
        assert np.array_equal(a.samples, b.samples)

    def test_different_seeds_differ(self):
        a = sample_bandlimited_gaussian(2.0, 1e3, 1e4, 0.5, 42)
        b = sample_bandlimited_gaussian(2.0, 1e3, 1e4, 0.5, 43)
        assert not np.array_equal(a.samples, b.samples)

    def test_sample_count_and_duration(self):
        tr = sample_bandlimited_gaussian(1.0, 1e3, 1e4, 0.25, 0)
        assert len(tr) == 2500
        assert tr.sample_rate == 1e4
        assert tr.duration == 0.25

    def test_mean_square_concentrates(self):
        # duration * bandwidth = 1e4 independent correlation times; the
        # relative sd of the mean square is ~1%, so 5% is a wide gate
        # (worst observed over 100 seeds during development: 2.7%).
        tr = sample_bandlimited_gaussian(1.0, 2e4, 2e5, 0.5, 2021)
        assert tr.mean_square() == pytest.approx(1.0, rel=0.05)

    def test_mean_is_essentially_zero(self):
        tr = sample_bandlimited_gaussian(1.0, 2e4, 2e5, 0.5, 9)
        assert abs(float(np.mean(tr.samples))) < 1e-12

    def test_power_confined_to_band(self):
        tr = sample_bandlimited_gaussian(1.0, 1e3, 1e4, 1.0, 5)
        spectrum = np.abs(np.fft.rfft(tr.samples))
        freqs = np.fft.rfftfreq(len(tr), d=1.0 / tr.sample_rate)
        out_of_band = spectrum[freqs > 1e3 * 1.0001]
        assert np.all(out_of_band < 1e-9 * spectrum.max())

    def test_spectrum_flat_in_band(self):
        # Average the periodogram over seeds; per-bin relative sd of the
        # mean over 200 draws is ~7%, so a 30% gate catches any rolloff.
        bandwidth, fs, dur = 1e3, 1e4, 0.256
        acc = None
        for seed in range(200):
            tr = sample_bandlimited_gaussian(1.0, bandwidth, fs, dur, seed)
            p = np.abs(np.fft.rfft(tr.samples)) ** 2
            acc = p if acc is None else acc + p
        freqs = np.fft.rfftfreq(int(fs * dur), d=1.0 / fs)
        in_band = (freqs > 0) & (freqs <= bandwidth)
        band = acc[in_band]
        assert band.max() / band.mean() < 1.3
        assert band.min() / band.mean() > 0.7

    def test_aliasing_rejected(self):
        with pytest.raises(AliasingError):
            sample_bandlimited_gaussian(1.0, 1e3, 1.9e3, 1.0, 0)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(InvalidParameterError):
            sample_bandlimited_gaussian(1.0, 1e3, 1e4, 0.0, 0)

    def test_too_short_for_one_correlation_time_rejected(self):
        with pytest.raises(InvalidParameterError):
            sample_bandlimited_gaussian(1.0, 1e3, 1e4, 0.5e-3, 0)

    def test_negative_rms_rejected(self):
        with pytest.raises(InvalidParameterError):
            sample_bandlimited_gaussian(-1.0, 1e3, 1e4, 1.0, 0)


class TestSolveLoop:
    def test_symmetric_divider(self):
        u_a = sample_bandlimited_gaussian(1.0, 1e3, 1e4, 0.1, 1)
        u_b = make_trace(np.zeros(len(u_a)), fs=1e4)
        out = solve_loop(u_a, 2e3, u_b, 2e3)
        assert np.allclose(out.channel_voltage.samples, u_a.samples / 2, rtol=1e-12)
        assert np.allclose(out.channel_current.samples, u_a.samples / 4e3, rtol=1e-12)

    def test_equal_potentials_no_current(self):
        u = sample_bandlimited_gaussian(1.0, 1e3, 1e4, 0.1, 2)
        out = solve_loop(u, 5e3, u, 5e3)
        assert not np.any(out.channel_current.samples)
        assert np.allclose(out.channel_voltage.samples, u.samples, rtol=1e-12)

    def test_voltage_current_uncorrelated_at_equal_resistance(self):
        # Independent unit-rms sources behind equal resistors: the cross terms
        # of <u_c * i_c> cancel because <u_a^2> r_b == <u_b^2> r_a.
        u_a = sample_bandlimited_gaussian(1.0, 2e4, 2e5, 0.5, 11)
        u_b = sample_bandlimited_gaussian(1.0, 2e4, 2e5, 0.5, 12)
        out = solve_loop(u_a, 1e4, u_b, 1e4)
        prod = out.channel_voltage.samples * out.channel_current.samples
        # ~1e4 effective independent samples; allow 3 standard errors.
        se = prod.std(ddof=1) / math.sqrt(2e4 * 0.5)
        assert abs(float(prod.mean())) < 3 * se

    def test_grid_mismatch_rejected(self):
        u_a = sample_bandlimited_gaussian(1.0, 1e3, 1e4, 0.1, 1)
        u_b = sample_bandlimited_gaussian(1.0, 1e3, 1e4, 0.2, 1)
        with pytest.raises(GridMismatchError):
            solve_loop(u_a, 1e3, u_b, 1e3)

    @given(scale=st.floats(min_value=1e-3, max_value=1e3))
    def test_linearity_under_scaling(self, scale):
        u_a = sample_bandlimited_gaussian(1.0, 1e3, 1e4, 0.05, 21)
        u_b = sample_bandlimited_gaussian(1.0, 1e3, 1e4, 0.05, 22)
        base = solve_loop(u_a, 1e4, u_b, 1e5)
        scaled = solve_loop(
            make_trace(u_a.samples * scale, 1e4), 1e4,
            make_trace(u_b.samples * scale, 1e4), 1e5,
        )
        assert np.allclose(
            scaled.channel_voltage.samples, base.channel_voltage.samples * scale,
            rtol=1e-12,
        )
        assert np.allclose(
            scaled.channel_current.samples, base.channel_current.samples * scale,
            rtol=1e-12,
        )


class TestTheoreticalMsv:
    def test_hand_computed_parallel_resistances(self):
        line = KljnLineConfig(r_low=10e3, r_high=100e3, t_eff=1e15)
        bw = line.noise_bandwidth
        scale = 4 * BOLTZMANN * 1e15 * bw
        u_ll, i_ll = theoretical_msv(line, PairClass.LL)
        u_lh, i_lh = theoretical_msv(line, PairClass.LH)
        u_hh, i_hh = theoretical_msv(line, PairClass.HH)
        # Parallel combinations by hand: 5 kOhm, 100/11 kOhm, 50 kOhm.
        assert u_ll == pytest.approx(scale * 5e3, rel=1e-12)
        assert u_lh == pytest.approx(scale * 1e9 / 110e3, rel=1e-12)
        assert u_hh == pytest.approx(scale * 50e3, rel=1e-12)
        assert i_ll == pytest.approx(scale / 20e3, rel=1e-12)
        assert i_lh == pytest.approx(scale / 110e3, rel=1e-12)
        assert i_hh == pytest.approx(scale / 200e3, rel=1e-12)

    def test_mixed_orientations_identical(self):
        line = KljnLineConfig()
        assert theoretical_msv(line, PairClass.LH) == theoretical_msv(line, PairClass.HL)

    def test_degenerate_equal_resistors_collapse(self):
        # Rejected by the config invariant; checked on the bare formula.
        u, i = loop_msv_for_resistors(7e3, 7e3, 1e15, 2e4)
        u2, i2 = loop_msv_for_resistors(7e3, 7e3, 1e15, 2e4)
        assert (u, i) == (u2, i2)
        assert u == pytest.approx(4 * BOLTZMANN * 1e15 * 2e4 * 3.5e3, rel=1e-12)

    @given(
        r_low=st.floats(min_value=10.0, max_value=1e6),
        ratio=st.floats(min_value=1.01, max_value=1e3),
        theta=st.floats(min_value=1e-3, max_value=0.19),
    )
    def test_levels_strictly_ordered(self, r_low, ratio, theta):
        line = KljnLineConfig(r_low=r_low, r_high=r_low * ratio, theta=theta)
        u_ll, i_ll = theoretical_msv(line, PairClass.LL)
        u_lh, i_lh = theoretical_msv(line, PairClass.LH)
        u_hh, i_hh = theoretical_msv(line, PairClass.HH)
        assert u_ll < u_lh < u_hh
        assert i_hh < i_lh < i_ll

    def test_empirical_levels_match_theory(self):
        # 200 periods per class at gamma-equivalent averaging 100; the
        # acceptance suite runs the full 10^3-period version.
        from kljnsim.protocol import ExchangeConfig, Resistor, synthesize_period

        cfg = ExchangeConfig()
        choices = {
            PairClass.LL: (Resistor.L, Resistor.L),
            PairClass.LH: (Resistor.L, Resistor.H),
            PairClass.HL: (Resistor.H, Resistor.L),
            PairClass.HH: (Resistor.H, Resistor.H),
        }
        root = np.random.SeedSequence(1234)
        for pair, ch in choices.items():
            u_th, i_th = theoretical_msv(cfg.line, pair)
            us, cs = [], []
            for _ in range(200):
                signals = synthesize_period(cfg, ch, root.spawn(1)[0])
                us.append(signals.channel_voltage.mean_square())
                cs.append(signals.channel_current.mean_square())
            assert float(np.mean(us)) == pytest.approx(u_th, rel=0.05)
            assert float(np.mean(cs)) == pytest.approx(i_th, rel=0.05)


class TestLineConfig:
    def test_bandwidth_is_exact_ratio(self):
        line = KljnLineConfig(theta=0.1, wave_speed=2e8, line_length=1000.0)
        assert line.noise_bandwidth == 0.1 * 2e8 / 1000.0
        assert line.correlation_time == 1.0 / line.noise_bandwidth

    def test_equal_resistors_rejected(self):
        with pytest.raises(InvalidParameterError):
            KljnLineConfig(r_low=1e4, r_high=1e4)

    def test_swapped_resistors_rejected(self):
        with pytest.raises(InvalidParameterError):
            KljnLineConfig(r_low=1e5, r_high=1e4)

    def test_theta_bounds(self):
        with pytest.raises(InvalidParameterError):
            KljnLineConfig(theta=0.0)
        with pytest.raises(InvalidParameterError):
            KljnLineConfig(theta=1.0)

    @pytest.mark.parametrize("field", [
        "r_low", "r_high", "t_eff", "line_length", "wave_speed", "theta",
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        # line_length=nan used to give a NaN bandwidth, and a network pool
        # on that line silently made 0 bits.
        with pytest.raises(InvalidParameterError, match=f"^{field} must be finite"):
            KljnLineConfig(**{field: value})

    def test_pair_resistances(self):
        line = KljnLineConfig(r_low=1e4, r_high=1e5)
        assert pair_resistances(line, PairClass.LH) == (1e4, 1e5)
        assert pair_resistances(line, PairClass.HL) == (1e5, 1e4)
