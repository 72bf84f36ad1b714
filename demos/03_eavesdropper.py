#!/usr/bin/env python3
"""Give Eve everything the wire carries and watch her fail; then let her
touch the wire and watch the alarm catch it.

Run: python3 demos/03_eavesdropper.py
"""

import numpy as np

from kljnsim import (
    ExchangeConfig,
    InjectionAttack,
    Resistor,
    apply_injection,
    monitor_endpoints,
)
from kljnsim.adversary import injection_sweep, passive_sweep
from kljnsim.protocol import period_resistances, synthesize_period

config = ExchangeConfig()

# --- Passive attack: full-bandwidth noiseless wiretap -----------------------
print("=== Passive wiretap: guessing who holds the high resistor ===")
sweep = passive_sweep(config, 4000, seed=17)
for strategy, accuracy in sweep.accuracy.items():
    print(f"  {strategy.value:16s}: {accuracy:.4f}")
print(f"  (3-sigma band around chance: "
      f"0.5 +/- {3 * 0.5 / np.sqrt(sweep.periods):.4f})")
print(f"  voltage-current cross-correlation: mean {sweep.cross_corr_mean:.2e}, "
      f"{abs(sweep.cross_corr_mean)/sweep.cross_corr_se:.2f} standard errors from zero")
print("  Every statistic Eve can form has the same distribution for both")
print("  secure orientations, so no strategy beats the coin.")

# --- Active attack: inject current at a mid-line node -----------------------
print("\n=== Active attack: current injection ===")
choices = (Resistor.L, Resistor.H)
signals = synthesize_period(config, choices, seed=99)
r_a, r_b = period_resistances(config.line, choices)
i_rms = signals.channel_current.rms()

for rel in (0.0, 1e-10, 1e-8, 1e-3, 0.5):
    attack = InjectionAttack(rel * i_rms)
    alice_view, bob_view = apply_injection(signals, r_a, r_b, attack, seed=5)
    alarmed = monitor_endpoints(alice_view, bob_view, config.alarm_tolerance)
    print(f"  injected {rel:8.1e} x rms current -> alarm: {alarmed}")
print(f"  (alarm tolerance is {config.alarm_tolerance:.0e} relative; the two ends'")
print("   current readings differ by exactly the injected amount, so any")
print("   injection above the tolerance is caught within the period)")

# --- The detection boundary over many random periods ------------------------
print("\n=== Alarm rate vs injection amplitude (100 periods each) ===")
points = injection_sweep(
    config, [0.0, 5e-10, 1e-8, 1e-5, 1e-2, 1.0], 100, seed=23
)
for p in points:
    print(f"  {p.relative_amplitude:8.1e} -> alarm rate {p.alarm_rate:4.2f}")

# What Eve actually sees on a mixed period: the same numbers as everyone.
u, i = signals.channel_voltage.samples, signals.channel_current.samples
print("\n=== Eve's view of one secure period ===")
print(f"  msv_u = {np.mean(u * u):.3f} V^2, msv_i = {np.mean(i * i):.3e} A^2, "
      f"<u*i> = {np.mean(u * i):.3e}")
print("  ...which is identical in distribution whether the period was LH or HL.")
