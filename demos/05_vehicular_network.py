#!/usr/bin/env python3
"""Simulate the roadside deployment: pools, pads, and circulating vehicles,
then check the measured refresh interval against the planner's upper limit.

Run: python3 demos/05_vehicular_network.py   (takes a few seconds)
"""

from kljnsim import (
    LifetimeParams,
    Scenario,
    key_lifetime,
    make_homogeneous_scenario,
)

# --- A small, unsaturated deployment ----------------------------------------
print("=== 50 vehicles, one roadside device, 5000 simulated seconds ===")
spec = make_homogeneous_scenario(
    vehicle_count=50, duration_s=5000.0, seed=5,
    pool_capacity_keys=100, initial_fill=0.0,
)
metrics = Scenario.from_dict(spec).run(record_events=True)
print(f"donations          : {metrics.donation_success}")
print(f"failures           : pool-empty={metrics.fail_pool_empty}, "
      f"window={metrics.fail_window_too_short}, "
      f"no-former-key={metrics.fail_no_former_key}")
print(f"per-vehicle rate   : {metrics.mean_vehicle_rate_bps:.3f} bit/s")
print(f"mean refresh       : {metrics.mean_refresh_interval_s:.0f} s "
      "(lap-limited: supply exceeds demand)")

kinds = {}
for event in metrics.events:
    kinds[event.kind.value] = kinds.get(event.kind.value, 0) + 1
print(f"event log          : {sum(kinds.values())} events {kinds}")

# One-time-pad integrity: every donated key decrypts under the former key.
with_donations = Scenario.from_dict(spec).run(record_donations=True)
ok = all(
    d.ciphertext ^ d.former_key == d.new_key for d in with_donations.donations
)
print(f"one-time-pad check : all {len(with_donations.donations)} ciphertexts "
      f"decrypt correctly: {ok}")

# --- Saturated demand: the planner's regime ---------------------------------
print("\n=== 1000 vehicles, saturated demand, 100,000 simulated seconds ===")
spec = make_homogeneous_scenario(vehicle_count=1000, duration_s=1e5, seed=1)
metrics = Scenario.from_dict(spec).run()

max_load = max(m.max_load for m in metrics.per_rsd.values())
planner = key_lifetime(LifetimeParams(
    theta=0.1, wave_speed=2e8, line_length=1000.0, gamma=100.0,
    key_length=100.0, car_density=float(max_load),
))
print(f"donations          : {metrics.donation_success} "
      f"({metrics.donation_success / metrics.duration_s:.2f} keys/s, "
      "supply-limited at 1.00)")
print(f"per-vehicle rate   : {metrics.mean_vehicle_rate_bps:.4f} bit/s "
      f"(planner: {planner.per_car_rate:.4f})")
print(f"mean refresh       : {metrics.mean_refresh_interval_s:.1f} s")
print(f"planner upper limit: {planner.key_lifetime:.1f} s at the observed "
      f"peak load of {max_load} cars")
print(f"upper limit holds  : "
      f"{metrics.mean_refresh_interval_s <= planner.key_lifetime}")
