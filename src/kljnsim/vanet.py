"""Discrete-event simulation of roadside key donation to moving vehicles.

One certification authority (CA) serves a set of roadside devices (RSDs),
each connected to the CA by its own noise key-exchange line that fills a
key pool at the line's secure bit rate. Lane-embedded roadside key
providers (RSKPs) donate whole keys to vehicles passing over their pads via
a near-field link, one-time-pad encrypted with the vehicle's previous key.
A donation succeeds only if the pool holds a full key and the vehicle's
remaining time over the pad covers the transfer.

The event loop is strictly sequential and deterministic: events are
processed in (time, sequence) order, ties included, and every random draw
flows from the scenario seed. Pad crossings run in batches, one per shortest
lap, merged with the heap of the other events in that same order.
"""

from __future__ import annotations

import heapq
import math
import random
import itertools
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .config import from_dict
from .errors import ConfigError, InvalidParameterError, TopologyError
from .lifetime import secure_bit_rate
from .physics import KljnLineConfig, as_seed_sequence, require_count, require_finite


class EventKind(str, Enum):
    VEHICLE_ARRIVAL = "vehicle-arrival"
    KEY_REQUEST = "key-request"
    POOL_REFILL = "pool-refill"
    DONATION_START = "donation-start"
    DONATION_COMPLETE = "donation-complete"
    KEY_EXPIRY = "key-expiry"
    DEPARTURE = "departure"


class ScenarioEvent(NamedTuple):
    """One row of the simulation event log."""

    time: float
    sequence: int
    kind: EventKind
    vehicle_id: int | None = None
    rsd_id: str | None = None
    lane: str | None = None
    detail: str = ""


@dataclass(frozen=True)
class Rskp:
    """Lane-embedded key provider pad, attached to exactly one RSD."""

    id: str
    rsd_id: str = field(metadata={"key": "rsd"})
    lane: str
    pad_length: float = field(default=2.0, metadata={"key": "pad_length_m"})
    transfer_rate: float = field(default=1e6, metadata={"key": "transfer_rate_bps"})
    detector_latency: float = field(default=0.0, metadata={"key": "detector_latency_s"})
    pad_position: float = field(default=0.0, metadata={"key": "pad_position_m"})
    line: KljnLineConfig | None = None

    def __post_init__(self) -> None:
        require_finite(pad_length=self.pad_length, transfer_rate=self.transfer_rate,
                       detector_latency=self.detector_latency, pad_position=self.pad_position)
        if not self.id or not self.lane:
            raise InvalidParameterError("an RSKP needs a non-empty id and lane")
        if self.pad_length <= 0:
            raise InvalidParameterError("pad length must be positive")
        if self.transfer_rate <= 0:
            raise InvalidParameterError("transfer rate must be positive")
        if self.detector_latency < 0:
            raise InvalidParameterError("detector latency must be >= 0")


@dataclass(frozen=True)
class Rsd:
    """Roadside device with its own key-exchange line to the CA."""

    id: str
    line: KljnLineConfig
    parallel_channels: int = 1

    def __post_init__(self) -> None:
        if not self.id:
            raise InvalidParameterError("an RSD needs a non-empty id")
        require_count("parallel_channels", self.parallel_channels, 1)


@dataclass(frozen=True)
class Topology:
    """The topology JSON object, checked on construction::

        {"kljn_endpoint": "rsd" | "rskp",
         "rsds":  [{"id", "line": {...}, "parallel_channels"}],
         "rskps": [{"id", "rsd", "lane", "pad_length_m", "transfer_rate_bps",
                    "detector_latency_s", "pad_position_m", "line": {...}}]}

    Each RSKP names its RSD. The pools are the RSDs', or in ``rskp`` mode
    the RSKPs', and each then needs its own line. Every error names its
    path below ``topology``.
    """

    rsds: tuple[Rsd, ...]
    rskps: tuple[Rskp, ...] = ()
    kljn_endpoint: str = "rsd"

    def __post_init__(self) -> None:
        if not self.rsds:
            raise TopologyError("topology: needs at least one RSD")
        rsd_ids = set()
        for i, rsd in enumerate(self.rsds):
            if rsd.id in rsd_ids:
                raise TopologyError(f"topology.rsds[{i}]: duplicate RSD id {rsd.id!r}")
            rsd_ids.add(rsd.id)
        seen_ids, seen_lanes = set(), set()
        for i, rskp in enumerate(self.rskps):
            where = f"topology.rskps[{i}]"
            if rskp.id in seen_ids:
                raise TopologyError(f"{where}: duplicate RSKP id {rskp.id!r}")
            if rskp.rsd_id not in rsd_ids:
                raise TopologyError(f"{where}: references unknown RSD {rskp.rsd_id!r}")
            if rskp.lane in seen_lanes:
                raise TopologyError(f"{where}: lane {rskp.lane!r} already has an RSKP pad")
            if self.kljn_endpoint == "rskp" and rskp.line is None:
                raise TopologyError(
                    f"{where}: missing line config (required in rskp endpoint mode)")
            seen_ids.add(rskp.id)
            seen_lanes.add(rskp.lane)
        if self.kljn_endpoint not in ("rsd", "rskp"):
            raise TopologyError(
                f"topology.kljn_endpoint: expected 'rsd' or 'rskp', got {self.kljn_endpoint!r}"
            )


def build_topology(spec: dict) -> Topology:
    """Parse the topology JSON object; errors name their path below ``topology``."""
    try:
        return from_dict(Topology, spec, "topology")
    except ConfigError as exc:
        raise TopologyError(str(exc)) from None


@dataclass(frozen=True)
class TrafficModel:
    """Vehicle traffic on the lanes of the topology.

    Lanes are closed circuits of ``circuit_length`` meters: a vehicle keeps
    circulating (re-passing its lane's pad once per lap) until it departs.
    ``initial_vehicles_per_lane`` vehicles start at uniformly random
    positions at time zero; additional vehicles arrive per-lane as a Poisson
    stream at ``arrival_rate_per_lane`` and depart after an exponential
    dwell when ``mean_dwell_s`` is set. Each vehicle keeps one constant
    speed drawn uniformly from ``speed_range``.

    ``key_ttl_s`` is how long a donated key stays valid; 0 means keys expire
    immediately, i.e. saturated demand (a fresh key is requested on every
    pad crossing). ``provision_keys`` hands every registering vehicle a
    bootstrap key so donations can be encrypted from the start.
    """

    circuit_length: float = 9000.0
    arrival_rate_per_lane: float = 0.0
    speed_range: tuple[float, float] = (29.0, 31.0)
    initial_vehicles_per_lane: int = 0
    mean_dwell_s: float | None = None
    provision_keys: bool = True
    key_ttl_s: float = 0.0

    def __post_init__(self) -> None:
        require_finite(circuit_length=self.circuit_length, speed_range=self.speed_range,
                       arrival_rate_per_lane=self.arrival_rate_per_lane,
                       mean_dwell_s=self.mean_dwell_s, key_ttl_s=self.key_ttl_s)
        if self.circuit_length <= 0:
            raise InvalidParameterError("circuit_length must be positive")
        if self.arrival_rate_per_lane < 0:
            raise InvalidParameterError("arrival_rate_per_lane must be >= 0")
        lo, hi = self.speed_range
        if lo <= 0 or hi < lo:
            raise InvalidParameterError("speed_range must satisfy 0 < lo <= hi")
        require_count("initial_vehicles_per_lane", self.initial_vehicles_per_lane, 0)
        if self.mean_dwell_s is not None and self.mean_dwell_s <= 0:
            raise InvalidParameterError("mean_dwell_s must be positive when given")
        if self.key_ttl_s < 0:
            raise InvalidParameterError("key_ttl_s must be >= 0")


@dataclass(frozen=True)
class ProtocolParams:
    """Key-exchange parameters shared by all lines of a scenario: ``gamma``
    sets every pool's fill rate."""

    gamma: float = 100.0
    key_bits: int = 100

    def __post_init__(self) -> None:
        require_finite(gamma=self.gamma)
        if self.gamma < 1:
            raise InvalidParameterError("gamma must be at least 1")
        require_count("key_bits", self.key_bits, 1)


@dataclass(frozen=True)
class PoolParams:
    """Key pool sizing; capacity defaults to 100 keys' worth of bits."""

    capacity_bits: int | None = None
    initial_fill: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity_bits is not None:
            require_count("capacity_bits", self.capacity_bits, 1)
        if not 0.0 <= self.initial_fill <= 1.0:
            raise InvalidParameterError("initial_fill must lie in [0, 1]")

    def capacity_for(self, key_bits: int) -> int:
        cap = 100 * key_bits if self.capacity_bits is None else self.capacity_bits
        if cap < key_bits:
            raise InvalidParameterError("pool capacity must hold at least one key")
        return cap


def _key_source(seed: np.random.SeedSequence) -> random.Random:
    """Key stream of one seed: ``getrandbits(key_bits)`` draws a uniform key
    in ``[0, 2**key_bits)`` in one call."""
    return random.Random(int(seed.generate_state(1, np.uint64)[0]))


@dataclass(slots=True)
class Vehicle:
    """Mutable per-vehicle state tracked by the simulation; keys are
    ``key_bits``-bit ints."""

    id: int
    lane: str
    speed: float
    pos0: float
    arrival_time: float
    current_key: int | None = None
    key_issued_at: float | None = None
    departed_at: float | None = None
    donated_bits: int = 0
    refresh_sum: float = 0.0
    refresh_count: int = 0
    refresh_max: float = 0.0

    def position_at(self, now: float, circuit: float) -> float:
        return (self.pos0 + self.speed * (now - self.arrival_time)) % circuit


@dataclass
class KeyPool:
    """Bit stock of one pool-owning unit, consumed in whole-key quanta."""

    rsd_id: str
    fill_rate: float
    capacity: int
    available: int
    generated: int
    keys: random.Random
    pending: deque = field(default_factory=deque)
    depletion_episodes: int = 0


@dataclass
class RsdMetrics:
    donations: int = 0
    bits_donated: int = 0
    fail_pool_empty: int = 0
    fail_window_too_short: int = 0
    fail_no_former_key: int = 0
    depletion_episodes: int = 0
    max_load: int = 0
    pool_available_end: int = 0
    pool_generated: int = 0


@dataclass(frozen=True)
class DonationRecord:
    time: float
    vehicle_id: int
    rsd_id: str
    rskp_id: str
    lane: str
    ciphertext: int
    new_key: int
    former_key: int


@dataclass
class NetworkMetrics:
    """Aggregated outcome of one scenario run."""

    duration_s: float
    vehicles_created: int
    max_concurrent_vehicles: int
    donation_success: int
    fail_pool_empty: int
    fail_window_too_short: int
    fail_no_former_key: int
    skipped_valid_key: int
    bits_donated: int
    mean_vehicle_rate_bps: float
    mean_refresh_interval_s: float
    max_refresh_interval_s: float
    per_rsd: dict[str, RsdMetrics]
    events: list[ScenarioEvent] | None = None
    donations: list[DonationRecord] | None = None

    @property
    def donation_attempts(self) -> int:
        return (
            self.donation_success
            + self.fail_pool_empty
            + self.fail_window_too_short
            + self.fail_no_former_key
        )


class _Engine:
    """Heap entries are ``(time, sequence, handler, payload)``; the loop
    calls ``handler(time, *payload)``. Pad crossings skip the heap unless due
    before ``window_end``: no vehicle laps faster than ``lap``, so ``run``
    takes the waiting ``(time, sequence, vehicle, entry)`` crossings (one per
    vehicle) a lap-long window at a time and merges them, sorted, with the
    heap. Each keeps the sequence number a push would have given it, so the
    order is a single heap's, ties included. ``log``, unless None, gets each
    event row in order as ``log(time, kind, vehicle_id, rsd_id, lane, detail)``."""

    def __init__(
        self,
        topology: Topology,
        traffic: TrafficModel,
        duration_s: float,
        seed,
        protocol: ProtocolParams,
        pool_params: PoolParams,
        log,
        record_donations: bool,
    ):
        require_finite(duration_s=duration_s)
        if duration_s <= 0:
            raise InvalidParameterError("duration_s must be positive")
        self.circuit = traffic.circuit_length
        self.ttl = traffic.key_ttl_s
        self.lap = self.circuit / traffic.speed_range[1]
        self.traffic = traffic
        self.duration = float(duration_s)
        self.key_bits = key_bits = protocol.key_bits
        self.log = log
        self.record_donations = record_donations

        root = as_seed_sequence(seed)
        traffic_seed, provision_seed, keys_root = root.spawn(3)
        self.traffic_rng = np.random.default_rng(traffic_seed)
        self.provision_source = _key_source(provision_seed)

        self.heap: list = []
        self.crossings: list = []
        self.window_end = -math.inf
        self.seq = itertools.count()
        self.vehicles: list[Vehicle] = []
        self.donations: list[DonationRecord] = []
        self.skipped_valid_key = 0
        self.concurrent = {rsd.id: 0 for rsd in topology.rsds}
        self.rsd_metrics = {rsd.id: RsdMetrics() for rsd in topology.rsds}
        self.max_concurrent_total = 0
        self.concurrent_total = 0

        # Lanes and pools (so the draws) go in RSD order, then listed order
        # within an RSD: interleaving the RSKPs of two RSDs changes nothing.
        rank = {rsd.id: i for i, rsd in enumerate(topology.rsds)}
        rskps = sorted(topology.rskps, key=lambda rskp: rank[rskp.rsd_id])

        # One pool per owning unit (each RSD, or each RSKP in rskp mode),
        # filled at its line's secure bit rate; refills add whole keys.
        by_rskp = topology.kljn_endpoint == "rskp"
        owners = ([(rskp, topology.rsds[rank[rskp.rsd_id]]) for rskp in rskps]
                  if by_rskp else [(rsd, rsd) for rsd in topology.rsds])
        capacity = pool_params.capacity_for(key_bits)
        initial = int(round(pool_params.initial_fill * capacity))
        self.pools: dict[str, KeyPool] = {}
        for (unit, rsd), unit_seed in zip(owners, keys_root.spawn(len(owners))):
            rate = secure_bit_rate(unit.line.noise_bandwidth, protocol.gamma, rsd.parallel_channels)
            pool = self.pools[unit.id] = KeyPool(
                rsd_id=rsd.id, fill_rate=rate, capacity=capacity, available=initial,
                generated=initial, keys=_key_source(unit_seed),
            )
            self._push(key_bits / rate, self._on_pool_refill, (pool,))

        # Each lane's pad, the pool it draws from and its RSD's counters.
        self.lanes: dict[str, tuple[Rskp, KeyPool, RsdMetrics]] = {
            rskp.lane: (
                rskp,
                self.pools[rskp.id if by_rskp else rskp.rsd_id],
                self.rsd_metrics[rskp.rsd_id],
            )
            for rskp in rskps
        }

        # Initial population, then the Poisson streams.
        for lane in self.lanes:
            for _ in range(traffic.initial_vehicles_per_lane):
                self._push(0.0, self._on_arrival, (lane, "initial"))
        for lane in self.lanes:
            if traffic.arrival_rate_per_lane > 0:
                gap = self.traffic_rng.exponential(1.0 / traffic.arrival_rate_per_lane)
                self._push(gap, self._on_arrival, (lane, "poisson"))

    # -- plumbing ---------------------------------------------------------

    def _push(self, time: float, handler, payload: tuple, force: bool = False) -> None:
        if time <= self.duration or force:
            heapq.heappush(self.heap, (time, next(self.seq), handler, payload))

    def _cross(self, time: float, vehicle: Vehicle, entry: float) -> None:
        """Schedule a pad crossing, numbered where ``_push`` would number it."""
        if time <= self.duration:
            seq = next(self.seq)
            if time < self.window_end:
                heapq.heappush(self.heap, (time, seq, self._on_key_request, (vehicle, entry)))
            else:
                self.crossings.append((time, seq, vehicle, entry))

    # -- event handlers ---------------------------------------------------

    def _on_arrival(self, t: float, lane: str, source: str) -> None:
        traffic = self.traffic
        if source == "poisson":
            gap = self.traffic_rng.exponential(1.0 / traffic.arrival_rate_per_lane)
            self._push(t + gap, self._on_arrival, (lane, "poisson"))

        lo, hi = traffic.speed_range
        speed = lo if lo == hi else float(self.traffic_rng.uniform(lo, hi))
        pos = (
            float(self.traffic_rng.uniform(0.0, traffic.circuit_length))
            if source == "initial"
            else 0.0
        )
        vid = len(self.vehicles)
        vehicle = Vehicle(id=vid, lane=lane, speed=speed, pos0=pos, arrival_time=t)
        if traffic.provision_keys:
            vehicle.current_key = self.provision_source.getrandbits(self.key_bits)
            vehicle.key_issued_at = t
        self.vehicles.append(vehicle)

        rskp, _, rm = self.lanes[lane]
        self.concurrent[rskp.rsd_id] += 1
        self.concurrent_total += 1
        self.max_concurrent_total = max(self.max_concurrent_total, self.concurrent_total)
        rm.max_load = max(rm.max_load, self.concurrent[rskp.rsd_id])

        if traffic.mean_dwell_s is not None:
            dwell = self.traffic_rng.exponential(traffic.mean_dwell_s)
            self._push(t + dwell, self._on_departure, (vehicle,))

        if self.log:
            self.log(t, EventKind.VEHICLE_ARRIVAL, vid, rskp.rsd_id, lane, source)
        circuit = self.circuit
        entry = t + (rskp.pad_position - vehicle.position_at(t, circuit)) % circuit / speed
        self._cross(entry + rskp.detector_latency, vehicle, entry)

    def _on_key_request(self, t: float, vehicle: Vehicle, entry: float) -> None:
        if vehicle.departed_at is not None:
            return
        rskp, pool, rm = self.lanes[vehicle.lane]
        speed = vehicle.speed
        # The next lap's pad entry and its detector report.
        next_entry = entry + self.circuit / speed
        self._cross(next_entry + rskp.detector_latency, vehicle, next_entry)

        log, key, key_bits = self.log, vehicle.current_key, self.key_bits
        latest_start = entry + rskp.pad_length / speed - key_bits / rskp.transfer_rate
        if key is not None and t - vehicle.key_issued_at < self.ttl:
            self.skipped_valid_key += 1
            detail = "skipped-valid-key"
        elif t > latest_start:
            rm.fail_window_too_short += 1
            detail = "fail:window-too-short"
        elif key is None:
            rm.fail_no_former_key += 1
            detail = "fail:no-former-key"
        elif pool.available >= key_bits:
            if log:
                log(t, EventKind.KEY_REQUEST, vehicle.id, rskp.rsd_id, rskp.lane, "granted")
            self._start_donation(t, vehicle, rskp, pool)
            return
        else:
            if not pool.pending:
                pool.depletion_episodes += 1
            pool.pending.append((vehicle, latest_start))
            detail = "queued"
        if log:
            log(t, EventKind.KEY_REQUEST, vehicle.id, rskp.rsd_id, rskp.lane, detail)

    def _start_donation(self, t: float, vehicle: Vehicle, rskp: Rskp, pool: KeyPool) -> None:
        key_bits = self.key_bits
        pool.available -= key_bits
        new_key = pool.keys.getrandbits(key_bits)
        if self.log:
            self.log(t, EventKind.DONATION_START, vehicle.id, rskp.rsd_id, rskp.lane, "")
        self._push(
            t + key_bits / rskp.transfer_rate,
            self._on_donation_complete,
            (vehicle, new_key ^ vehicle.current_key, new_key),
            force=True,
        )

    def _on_donation_complete(
        self, t: float, vehicle: Vehicle, ciphertext: int, new_key: int
    ) -> None:
        rskp, _, rm = self.lanes[vehicle.lane]
        former = vehicle.current_key
        vehicle.current_key = ciphertext ^ former
        interval = t - vehicle.key_issued_at
        vehicle.refresh_sum += interval
        vehicle.refresh_count += 1
        vehicle.refresh_max = max(vehicle.refresh_max, interval)
        vehicle.key_issued_at = t
        vehicle.donated_bits += self.key_bits

        rm.donations += 1
        rm.bits_donated += self.key_bits
        if self.record_donations:
            self.donations.append(
                DonationRecord(t, vehicle.id, rskp.rsd_id, rskp.id, rskp.lane,
                               ciphertext, new_key, former)
            )
        if self.log:
            if self.ttl > 0:
                self._push(t + self.ttl, self._on_key_expiry, (vehicle, t))
            self.log(t, EventKind.DONATION_COMPLETE, vehicle.id, rskp.rsd_id, rskp.lane, "")

    def _on_pool_refill(self, t: float, pool: KeyPool) -> None:
        key_bits = self.key_bits
        pool.generated += key_bits
        pool.available = min(pool.capacity, pool.available + key_bits)
        log = self.log
        if log:
            log(t, EventKind.POOL_REFILL, None, pool.rsd_id, None,
                f"available={pool.available}")
        pending = pool.pending
        while pending:
            vehicle, latest_start = pending[0]
            if vehicle.departed_at is not None or t > latest_start:
                pending.popleft()
                self._pool_empty(t, pool, vehicle)
            elif pool.available >= key_bits:
                pending.popleft()
                self._start_donation(t, vehicle, self.lanes[vehicle.lane][0], pool)
            else:
                break
        self._push(t + key_bits / pool.fill_rate, self._on_pool_refill, (pool,))

    def _pool_empty(self, t: float, pool: KeyPool, vehicle: Vehicle) -> None:
        """A queued request left the queue without a key."""
        self.rsd_metrics[pool.rsd_id].fail_pool_empty += 1
        if self.log:
            self.log(t, EventKind.KEY_REQUEST, vehicle.id, pool.rsd_id, vehicle.lane,
                     "fail:pool-empty")

    def _on_key_expiry(self, t: float, vehicle: Vehicle, issued_at: float) -> None:
        # Scheduled only while the event log is on.
        if vehicle.key_issued_at == issued_at:
            rskp = self.lanes[vehicle.lane][0]
            self.log(t, EventKind.KEY_EXPIRY, vehicle.id, rskp.rsd_id, vehicle.lane, "")

    def _on_departure(self, t: float, vehicle: Vehicle) -> None:
        if vehicle.departed_at is not None:
            return
        vehicle.departed_at = t
        rsd_id = self.lanes[vehicle.lane][0].rsd_id
        self.concurrent[rsd_id] -= 1
        self.concurrent_total -= 1
        if self.log:
            self.log(t, EventKind.DEPARTURE, vehicle.id, rsd_id, vehicle.lane, "")

    # -- main loop --------------------------------------------------------

    def run(self) -> NetworkMetrics:
        # Every event past the horizon is dropped at push time except
        # transfers already in flight: those were causally committed, so
        # they land after the horizon and the pool bookkeeping stays
        # conserved.
        heap, crossings, pop = self.heap, self.crossings, heapq.heappop
        key_request = self._on_key_request
        while heap or crossings:
            # A window opens at the next pending event, so idle time is free,
            # and spans at least one ulp, so it always holds that event.
            crossings.sort()
            start = min(pending[0][0] for pending in (heap, crossings) if pending)
            end = self.window_end = max(start + self.lap, math.nextafter(start, math.inf))
            # (end,) sorts after every entry due before end and before the rest.
            batch = crossings[:bisect_left(crossings, (end,))]
            del crossings[:len(batch)]
            for item in batch:
                while heap and heap[0] < item:
                    time, _, handler, payload = pop(heap)
                    handler(time, *payload)
                time, _, vehicle, entry = item
                key_request(time, vehicle, entry)
            while heap and heap[0][0] < end:
                time, _, handler, payload = pop(heap)
                handler(time, *payload)
        for pool in self.pools.values():
            while pool.pending:
                self._pool_empty(self.duration, pool, pool.pending.popleft()[0])
        return self._metrics()

    def _metrics(self) -> NetworkMetrics:
        """Aggregate the run; a pure function of the engine state."""
        rates = []
        refresh_sum = refresh_count = 0
        refresh_max = 0.0
        for v in self.vehicles:
            leave = v.departed_at if v.departed_at is not None else self.duration
            presence = leave - v.arrival_time
            if presence > 0:
                rates.append(v.donated_bits / presence)
            refresh_sum += v.refresh_sum
            refresh_count += v.refresh_count
            refresh_max = max(refresh_max, v.refresh_max)
        per_rsd = {rsd_id: replace(m) for rsd_id, m in self.rsd_metrics.items()}
        for pool in self.pools.values():
            rm = per_rsd[pool.rsd_id]
            rm.depletion_episodes += pool.depletion_episodes
            rm.pool_available_end += pool.available
            rm.pool_generated += pool.generated
        total = lambda attr: sum(getattr(m, attr) for m in per_rsd.values())
        return NetworkMetrics(
            duration_s=self.duration,
            vehicles_created=len(self.vehicles),
            max_concurrent_vehicles=self.max_concurrent_total,
            donation_success=total("donations"),
            fail_pool_empty=total("fail_pool_empty"),
            fail_window_too_short=total("fail_window_too_short"),
            fail_no_former_key=total("fail_no_former_key"),
            skipped_valid_key=self.skipped_valid_key,
            bits_donated=total("bits_donated"),
            mean_vehicle_rate_bps=float(np.mean(rates)) if rates else 0.0,
            mean_refresh_interval_s=refresh_sum / refresh_count if refresh_count else 0.0,
            max_refresh_interval_s=refresh_max,
            per_rsd=per_rsd,
            donations=self.donations if self.record_donations else None,
        )


def run_scenario(
    topology: Topology,
    traffic: TrafficModel,
    duration_s: float,
    seed,
    protocol: ProtocolParams = ProtocolParams(),
    pool: PoolParams = PoolParams(),
    record_events: bool = False,
    record_donations: bool = False,
) -> NetworkMetrics:
    """Run one deterministic scenario and aggregate its metrics.

    Each pool fills at ``secure_bit_rate`` of its owner's line under
    ``protocol.gamma``. Donation failures are metrics, not errors.
    """
    events = [] if record_events else None
    log = _collector(events) if record_events else None
    metrics = _Engine(topology, traffic, duration_s, seed, protocol, pool, log,
                      record_donations).run()
    metrics.events = events
    return metrics


def _collector(events: list):
    """An engine ``log`` that appends each row to ``events``, numbered by its index."""
    def log(time, kind, vehicle_id, rsd_id, lane, detail):
        events.append(ScenarioEvent(time, len(events), kind, vehicle_id, rsd_id, lane, detail))
    return log


@dataclass(frozen=True)
class Scenario:
    """The scenario JSON object: topology, horizon, traffic, protocol, pool, seed."""

    topology: Topology
    duration_s: float
    traffic: TrafficModel = TrafficModel()
    protocol: ProtocolParams = ProtocolParams()
    pool: PoolParams = PoolParams()
    seed: int = 0
    record_events: bool = False

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise InvalidParameterError("duration_s must be positive")
        require_count("seed", self.seed, 0)

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        """Parse the scenario JSON object, naming the offending path on error."""
        try:
            return from_dict(cls, d, "scenario")
        except TopologyError as exc:
            raise ConfigError(f"scenario.{exc}") from None

    def run(self, seed=None, record_events=None, record_donations=False) -> NetworkMetrics:
        return run_scenario(
            self.topology,
            self.traffic,
            self.duration_s,
            self.seed if seed is None else seed,
            protocol=self.protocol,
            pool=self.pool,
            record_events=self.record_events if record_events is None else record_events,
            record_donations=record_donations,
        )


def make_homogeneous_scenario(
    vehicle_count: int = 1000,
    duration_s: float = 1e5,
    seed: int = 1,
    *,
    lanes: int = 1,
    circuit_length: float = 9000.0,
    speed_range: tuple[float, float] = (29.0, 31.0),
    key_bits: int = 100,
    gamma: float = 100.0,
    pool_capacity_keys: int = 2000,
    initial_fill: float = 1.0,
    key_ttl_s: float = 0.0,
    line: dict | None = None,
) -> dict:
    """JSON-shaped single-RSD scenario with a fixed circulating population.

    The default line (1 km at one tenth of the no-wave bandwidth budget)
    yields a secure bit rate of 100 bit/s, i.e. one 100-bit key per second,
    shared by ``vehicle_count`` vehicles under saturated demand.
    """
    if lanes < 1 or vehicle_count < lanes or vehicle_count % lanes:
        raise InvalidParameterError("vehicle_count must be a positive multiple of lanes")
    line = line or {}
    return {
        "duration_s": duration_s,
        "seed": seed,
        "protocol": {"gamma": gamma, "key_bits": key_bits},
        "topology": {
            "kljn_endpoint": "rsd",
            "rsds": [{"id": "rsd-1", "line": line}],
            "rskps": [
                {
                    "id": f"rskp-{i + 1}",
                    "rsd": "rsd-1",
                    "lane": f"lane-{i + 1}",
                    "pad_length_m": 2.0,
                    "transfer_rate_bps": 1e6,
                }
                for i in range(lanes)
            ],
        },
        "traffic": {
            "circuit_length": circuit_length,
            "speed_range": list(speed_range),
            "initial_vehicles_per_lane": vehicle_count // lanes,
            "provision_keys": True,
            "key_ttl_s": key_ttl_s,
        },
        "pool": {"capacity_bits": pool_capacity_keys * key_bits, "initial_fill": initial_fill},
    }
