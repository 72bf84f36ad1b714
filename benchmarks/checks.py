"""Correctness checks on the outputs of benchmark requests, and their self-test.

Every check returns ``None`` when the output is correct and a one-line
reason when it is not. The statistical bounds are set so that a correct
program fails a request about once in 10^4 requests or less; the numbers
behind each bound are in README.md.

Run ``python3 benchmarks/checks.py`` to show that every check fails on a
corrupted output (the benchmark also runs this self-test before measuring).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: Two-sided normal quantile with tail probability ~1.1e-5. A passive sweep
#: applies four such tests (three accuracies and the cross-correlation z),
#: so a correct program fails one with probability below 5e-5.
Z_CRIT = 4.4

#: C8: the saturated per-vehicle rate must be within 10% of
#: secure_bit_rate / max_load.
RATE_TOLERANCE = 0.10

#: Injection amplitudes at or above this multiple of the alarm tolerance
#: must always alarm.
ALARM_MARGIN = 10.0


@dataclass
class Outcome:
    """What one request completed: its work units, why it failed (if it
    did) and counts the run record sums over requests."""

    units: int
    failure: str | None = None
    info: dict = field(default_factory=dict)


def check_key(alice, bob, bits: int) -> str | None:
    """Both parties hold the same key of the requested length."""
    if alice.length != bits or bob.length != bits:
        return f"key lengths {alice.length}/{bob.length}, want {bits}"
    if not alice == bob:
        return "alice and bob keys differ"
    return None


def check_ber(table) -> str | None:
    """BER falls strictly as gamma grows; ``table`` is (gamma, ber) pairs."""
    ordered = sorted(table)
    for (g_lo, ber_lo), (g_hi, ber_hi) in zip(ordered, ordered[1:]):
        if not ber_hi < ber_lo:
            return f"BER {ber_hi} at gamma={g_hi:g} is not below {ber_lo} at gamma={g_lo:g}"
    return None


def check_passive(accuracy: dict, periods: int, cross_z: float) -> str | None:
    """Every passive strategy and the cross-correlation stay at chance."""
    half_width = Z_CRIT * math.sqrt(0.25 / periods)
    for strategy, acc in accuracy.items():
        if abs(acc - 0.5) > half_width:
            return f"{strategy} accuracy {acc:.4f} outside 0.5 +/- {half_width:.4f}"
    if not abs(cross_z) <= Z_CRIT:
        return f"cross-correlation z={cross_z:.2f} beyond {Z_CRIT}"
    return None


def check_alarms(points, tolerance: float) -> str | None:
    """No alarm without injection; certain alarm at >= 10x the tolerance.

    ``points`` is (relative amplitude, alarm rate) pairs.
    """
    for rel, rate in points:
        if rel == 0 and rate != 0:
            return f"alarm rate {rate} without injection"
        if rel >= ALARM_MARGIN * tolerance and rate != 1:
            return f"alarm rate {rate} at relative amplitude {rel:g}"
    return None


def check_network(
    exit_code: int, metrics: dict, max_load: int, key_bits: int, expected_rate
) -> str | None:
    """CLI success, bit conservation and, when ``expected_rate`` is given,
    the C8 per-vehicle rate bound.

    ``metrics`` is the row of metrics.csv with numeric values.
    """
    if exit_code != 0:
        return f"kljnsim simulate exited with {exit_code}"
    if metrics["bits_donated"] != metrics["donation_success"] * key_bits:
        return (
            f"bits_donated {metrics['bits_donated']} != "
            f"{metrics['donation_success']} donations x {key_bits} bits"
        )
    if expected_rate is not None:
        want = expected_rate / max_load
        got = metrics["mean_vehicle_rate_bps"]
        if abs(got - want) > RATE_TOLERANCE * want:
            return f"per-vehicle rate {got:.5g} bit/s misses {want:.5g} by more than 10%"
    return None


class _Key:
    """Stand-in for a KeyMaterial: a bit tuple with ``length`` and ``==``."""

    def __init__(self, bits):
        self.bits = tuple(bits)
        self.length = len(self.bits)

    def __eq__(self, other):
        return self.bits == other.bits


def self_test() -> list[str]:
    """Feed each check a correct and a corrupted output.

    Returns the names of the cases that behaved wrongly: a correct output
    that failed, or a corrupted one that passed.
    """
    key = [0, 1] * 64
    flipped = [1 - key[0]] + key[1:]
    good_net = {"bits_donated": 10_200_000, "donation_success": 102_000,
                "mean_vehicle_rate_bps": 0.102}
    cases = [
        ("key", check_key(_Key(key), _Key(key), 128), False),
        ("mismatched key", check_key(_Key(key), _Key(flipped), 128), True),
        ("short key", check_key(_Key(key[:100]), _Key(key[:100]), 128), True),
        ("ber", check_ber([(10, 0.19), (30, 0.06), (100, 0.002)]), False),
        ("flat ber", check_ber([(10, 0.06), (30, 0.06), (100, 0.002)]), True),
        ("passive", check_passive({"random": 0.51}, 400, 1.0), False),
        ("biased passive", check_passive({"random": 0.7}, 400, 1.0), True),
        ("correlated passive", check_passive({"random": 0.5}, 400, 6.0), True),
        ("alarms", check_alarms([(0, 0.0), (1e-8, 1.0), (1, 1.0)], 1e-9), False),
        ("alarm rate 0.5", check_alarms([(0, 0.0), (1e-8, 0.5), (1, 1.0)], 1e-9), True),
        ("false alarm", check_alarms([(0, 0.05), (1e-8, 1.0)], 1e-9), True),
        ("network", check_network(0, good_net, 1000, 100, 100.0), False),
        ("rate 20% off", check_network(
            0, {**good_net, "mean_vehicle_rate_bps": 0.12}, 1000, 100, 100.0), True),
        ("lost bits", check_network(
            0, {**good_net, "bits_donated": 10_199_900}, 1000, 100, None), True),
        ("exit code", check_network(2, good_net, 1000, 100, None), True),
    ]
    return [name for name, reason, corrupted in cases if (reason is not None) != corrupted]


if __name__ == "__main__":
    wrong = self_test()
    if wrong:
        raise SystemExit(f"self-test failed: {wrong}")
    print("self-test passed: every check accepts its correct case and rejects its corrupted one")
