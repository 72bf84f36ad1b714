"""``estimate_ber`` against the exact misclassification law.

On an equal-temperature line the channel voltage and current of a period
are independent: per in-band bin E[V I*] is proportional to
r_b s_a^2 - r_a s_b^2 = 0 because s^2 is proportional to r. Each of
``msv_u`` and ``msv_i`` is then its ``theoretical_msv`` times
Gamma(m, 1)/m over the m in-band bins (Saez & Kish, "Errors and their
mitigation at the Kirchhoff-law-Johnson-noise secure key exchange", PLoS
ONE 2013). For integer m the Gamma CDF is a finite Poisson sum, and "both"
mode is a product of the two channels, so the rate is exact in every mode.
"""

import math

import pytest

from kljnsim import ExchangeConfig, PairClass, estimate_ber, theoretical_msv
from kljnsim.physics import in_band_bins

RUNS = 40_000
#: Two-sided critical value of the normal approximation to the binomial
#: error count (about 6e-5 per check).
Z_CRIT = 4.0
#: True band of each resistor class, as an index into (LOW, MID, HIGH).
TRUE_BAND = {PairClass.LL: 0, PairClass.LH: 1, PairClass.HL: 1, PairClass.HH: 2}


def gamma_cdf(m: int, x: float) -> float:
    """P(G <= x) for G ~ Gamma(m, 1) and integer m: one minus the Poisson(x)
    probability of fewer than m events. The terms are summed in log space,
    since e^-x alone underflows past x ~ 745."""
    if x <= 0:
        return 0.0
    logs = [k * math.log(x) - x - math.lgamma(k + 1) for k in range(m)]
    top = max(logs)
    return max(0.0, 1.0 - math.exp(top) * math.fsum(math.exp(v - top) for v in logs))


def band_probabilities(level: float, m: int, lower: float, upper: float):
    """P(below ``lower``), P(between), P(above ``upper``) of level * Gamma(m, 1)/m."""
    below, inside = gamma_cdf(m, m * lower / level), gamma_cdf(m, m * upper / level)
    return below, inside - below, 1.0 - inside


def misclassification_rate(config: ExchangeConfig) -> float:
    """Exact probability that a period with uniform resistor choices is
    classified outside its true band."""
    _, m = in_band_bins(config.line.noise_bandwidth, config.sample_rate, config.bit_period)
    wrong = 0.0
    for pair, truth in TRUE_BAND.items():
        u, i = theoretical_msv(config.line, pair)
        by_u = band_probabilities(u, m, *config.voltage_thresholds)
        # On the current axis the bands flip: below the lower threshold is HIGH.
        by_i = band_probabilities(i, m, *config.current_thresholds)[::-1]
        if config.classify_on == "voltage":
            right = by_u[truth]
        elif config.classify_on == "current":
            right = by_i[truth]
        else:  # a MID voltage vote defers to the current vote
            right = (by_u[truth] if truth != 1 else 0.0) + by_u[1] * by_i[truth]
        wrong += (1.0 - right) / len(TRUE_BAND)
    return wrong


def test_gamma_cdf_matches_known_values():
    # m = 1 is the exponential law, m = 3 a three-term sum, and at m = 1000
    # the sum stays finite where e^-x alone underflows. The last two values
    # are the regularized lower incomplete gamma function P(1000, x).
    assert gamma_cdf(1, 0.7) == pytest.approx(1 - math.exp(-0.7), rel=1e-14)
    assert gamma_cdf(3, 2.0) == pytest.approx(1 - math.exp(-2.0) * 5.0, rel=1e-14)
    assert gamma_cdf(1000, 1000 - 1 / 3) == pytest.approx(0.4999997507, rel=1e-8)
    assert gamma_cdf(1000, 900.0) == pytest.approx(5.499022658e-4, rel=1e-8)


@pytest.mark.parametrize("mode, seed", [("voltage", 1), ("current", 2), ("both", 3)])
def test_estimate_ber_inside_binomial_bound_of_exact_law(mode, seed):
    config = ExchangeConfig(classify_on=mode)
    table = estimate_ber(config, [10, 30, 100], RUNS, [2013, seed])
    for row in table:
        p = misclassification_rate(ExchangeConfig(classify_on=mode, gamma=row.gamma))
        z = (row.errors - RUNS * p) / math.sqrt(RUNS * p * (1.0 - p))
        assert abs(z) <= Z_CRIT, (mode, row.gamma, p, row.ber, z)
