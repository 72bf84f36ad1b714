"""The batched bit-period engine against the waveform path it replaces.

``run_periods``, ``run_key_exchange``, ``estimate_ber`` and
``passive_sweep`` read each period's levels (and Eve's cross-correlation)
off its in-band Fourier bins. Period j of a run takes the j-th block of
normals from one ``default_rng(noise_root)``, which is what the waveform
path draws when every period's ``synthesize_period`` gets that generator.
The per-period loops the engine replaced are kept here as oracles on that
one generator, built from the scalar period rules in ``oracles.py``: keys,
flags, stats, error counts and guess counts must match them exactly.
"""

import dataclasses
import math

import numpy as np
import pytest

from kljnsim import (
    ExchangeConfig,
    ExchangeTimeoutError,
    GuessStrategy,
    KljnLineConfig,
    PairClass,
    Party,
    Resistor,
    estimate_ber,
    run_key_exchange,
    run_periods,
    theoretical_msv,
)
from kljnsim import protocol
from kljnsim.adversary import _guesses_lh, passive_sweep
from kljnsim.physics import as_seed_sequence
from kljnsim.protocol import (
    BitFlag,
    KeyMaterial,
    _LEVELS,
    _Periods,
    _classify,
    synthesize_period,
)
from oracles import (
    EveObservation,
    choose_resistors,
    classify_period,
    expected_level,
    measure_period,
    passive_guess,
    run_bit_period,
)

# -- The per-period loops the engine replaced ---------------------------------


def oracle_periods(config, n_periods, seed):
    root = as_seed_sequence(seed)
    rng, noise = map(np.random.default_rng, root.spawn(2))
    return [run_bit_period(config, choose_resistors(rng), noise) for _ in range(n_periods)]


def oracle_stats(config, records):
    pairs = {p: 0 for p in PairClass}
    for record in records:
        pairs[record.pair] += 1
    return (
        pairs,
        sum(r.classified is not expected_level(r.pair) for r in records),
        len(records),
        sum(r.kept for r in records),
        len(records) * config.bit_period,
    )


def stats_tuple(stats):
    return (stats.pair_counts, stats.misclassified, stats.periods,
            stats.kept_bits, stats.elapsed_s)


def oracle_key_exchange(config, target_bits, seed):
    root = as_seed_sequence(seed)
    rng, noise = map(np.random.default_rng, root.spawn(2))
    records, alice_bits, bob_bits = [], [], []
    cap = int(math.ceil(config.timeout_factor * 2 * target_bits))
    while len(alice_bits) < target_bits:
        if len(records) >= cap:
            raise ExchangeTimeoutError(
                f"no {target_bits}-bit key after {len(records)} bit periods"
            )
        record = run_bit_period(config, choose_resistors(rng), noise)
        records.append(record)
        if record.kept:
            alice_bits.append(record.alice_bit)
            bob_bits.append(record.bob_bit)
    flags = np.array(
        [BitFlag.SECURE if r.kept else BitFlag.DISCARDED_PUBLIC for r in records],
        dtype=np.int8,
    )
    periods = np.array([j for j, r in enumerate(records) if r.kept], dtype=np.int64)
    alice = KeyMaterial(np.array(alice_bits, dtype=np.uint8), flags, periods)
    bob = KeyMaterial(np.array(bob_bits, dtype=np.uint8), flags.copy(), periods.copy())
    return alice, bob, oracle_stats(config, records)


def oracle_ber(config, gamma_list, runs, seed):
    root = as_seed_sequence(seed)
    out = []
    for gamma in gamma_list:
        cfg = dataclasses.replace(config, gamma=float(gamma))
        records = oracle_periods(cfg, runs, root.spawn(1)[0])
        out.append(sum(r.classified is not expected_level(r.pair) for r in records))
    return out


def oracle_passive_sweep(config, n_periods, seed, strategies=None):
    """The per-period waveform loop ``passive_sweep`` replaced, with the
    guess rules written out: (periods, correct, cross mean, cross SE)."""
    strategies = [GuessStrategy(s) for s in (strategies or list(GuessStrategy))]
    per_orientation = n_periods // 2
    rng, noise = map(np.random.default_rng, as_seed_sequence(seed).spawn(2))
    level, _ = theoretical_msv(config.line, PairClass.LH)
    correct = {s: 0 for s in strategies}
    cross = []
    counts = {PairClass.LH: 0, PairClass.HL: 0}
    choices_for = {
        PairClass.LH: (Resistor.L, Resistor.H),
        PairClass.HL: (Resistor.H, Resistor.L),
    }
    attempts = 0
    max_attempts = 1000 + 4 * n_periods
    while min(counts.values()) < per_orientation:
        if attempts >= max_attempts:
            raise RuntimeError(
                "could not collect enough secure-classified periods; "
                "check thresholds against the line config"
            )
        truth = (PairClass.LH, PairClass.HL)[attempts % 2]
        attempts += 1
        if counts[truth] >= per_orientation:
            continue
        signals = synthesize_period(config, choices_for[truth], noise)
        if not measure_period(config, choices_for[truth], signals).kept:
            continue
        counts[truth] += 1
        observation = EveObservation.from_signals(signals)
        cross.append(observation.cross_correlation)
        for strategy in strategies:
            if strategy is GuessStrategy.MSV_THRESHOLD:
                says_lh = observation.msv_u > level
            elif strategy is GuessStrategy.CORRELATION_SIGN:
                says_lh = observation.cross_correlation > 0
            else:
                says_lh = int(rng.integers(0, 2)) == 1
            correct[strategy] += says_lh == (truth is PairClass.LH)
    cross = np.asarray(cross)
    return (2 * per_orientation, correct, float(cross.mean()),
            float(cross.std(ddof=1) / math.sqrt(len(cross))))


def streams(seed):
    """A run's choice generator and noise root, split as the engine's
    callers split them."""
    choice_seed, noise_root = as_seed_sequence(seed).spawn(2)
    return np.random.default_rng(choice_seed), noise_root


def same_key(mine, theirs):
    for field in ("bits", "flags", "secure_periods"):
        a, b = getattr(mine, field), getattr(theirs, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field


CONFIGS = {
    "default": ExchangeConfig(),
    "voltage-alice": ExchangeConfig(classify_on="voltage", inverting_party=Party.ALICE),
    "current-g10": ExchangeConfig(classify_on="current", gamma=10.0),
    "other-line": ExchangeConfig(
        line=KljnLineConfig(r_low=2e3, r_high=7e3, line_length=500.0),
        gamma=30.0,
        oversample=4.0,
    ),
}


# -- Levels and classification -------------------------------------------------


@pytest.mark.parametrize("gamma", [1.0, 10.0, 100.0])
def test_levels_match_waveform_path(gamma):
    config = ExchangeConfig(gamma=gamma)
    rng, noise_root = streams(2026)
    choices = rng.integers(0, 2, size=(24, 2))
    ((part, msv_u, msv_i, cross),) = _Periods(config, noise_root).chunks(choices)
    assert np.array_equal(part, choices)
    noise = np.random.default_rng(noise_root)
    seen = set()
    for j, (a, b) in enumerate(choices.tolist()):
        pair = (Resistor(a), Resistor(b))
        signals = synthesize_period(config, pair, noise)
        record = measure_period(config, pair, signals)
        eve = EveObservation.from_signals(signals)
        seen.add(record.pair)
        assert msv_u[j] == pytest.approx(record.msv_u, rel=1e-12, abs=0)
        assert msv_i[j] == pytest.approx(record.msv_i, rel=1e-12, abs=0)
        # The cross-correlation has zero mean, so its error is measured
        # against the scale of u*i rather than against itself.
        scale = math.sqrt(eve.msv_u * eve.msv_i)
        assert abs(cross[j] - eve.cross_correlation) <= 1e-12 * scale
    assert seen == set(PairClass)


@pytest.mark.parametrize("mode", ["voltage", "current", "both"])
def test_vectorised_classifier_matches_classify_period(mode):
    config = ExchangeConfig(classify_on=mode)
    us, is_ = [], []
    for pair in PairClass:
        u, i = theoretical_msv(config.line, pair)
        us.append(u)
        is_.append(i)
    for threshold in config.voltage_thresholds:
        us += [threshold, np.nextafter(threshold, 0), np.nextafter(threshold, np.inf)]
    for threshold in config.current_thresholds:
        is_ += [threshold, np.nextafter(threshold, 0), np.nextafter(threshold, np.inf)]
    u_grid, i_grid = (a.ravel() for a in np.meshgrid(us, is_))
    codes = _classify(config, u_grid, i_grid)
    for u, i, code in zip(u_grid, i_grid, codes.tolist()):
        assert _LEVELS[code] is classify_period(config, float(u), float(i)), (u, i)


# -- The public entry points against the old loops ---------------------------


@pytest.mark.parametrize("name", list(CONFIGS))
@pytest.mark.parametrize("target", [0, 1, 128])
def test_key_exchange_matches_period_loop(name, target):
    config = CONFIGS[name]
    for seed in (4, [11, 2]):
        alice, bob, stats = run_key_exchange(config, target, seed)
        o_alice, o_bob, o_stats = oracle_key_exchange(config, target, seed)
        same_key(alice, o_alice)
        same_key(bob, o_bob)
        assert stats_tuple(stats) == o_stats
        assert all(type(v) is int for v in stats.pair_counts.values())


def _outcome(run, config, target, seed):
    try:
        return run(config, target, seed)
    except ExchangeTimeoutError as exc:
        return f"timeout: {exc}"


def test_timeout_matches_period_loop():
    loose = ExchangeConfig(timeout_factor=1.0)
    u_lh, _ = theoretical_msv(loose.line, PairClass.LH)
    sliver = dataclasses.replace(
        loose, classify_on="voltage", voltage_thresholds=(u_lh * 0.999, u_lh * 1.001)
    )
    kinds = set()
    for config, target, seed in [(sliver, 20, 3), *((loose, 64, s) for s in range(8))]:
        mine = _outcome(run_key_exchange, config, target, seed)
        theirs = _outcome(oracle_key_exchange, config, target, seed)
        if isinstance(theirs, str):
            assert mine == theirs
            kinds.add("timeout")
        else:
            same_key(mine[0], theirs[0])
            same_key(mine[1], theirs[1])
            assert stats_tuple(mine[2]) == theirs[2]
            kinds.add("key")
    # A cap of twice the target lets some exchanges finish and not others.
    assert kinds == {"key", "timeout"}


@pytest.mark.parametrize("name", list(CONFIGS))
@pytest.mark.parametrize("n_periods", [0, 150])
def test_run_periods_matches_period_loop(name, n_periods):
    config = CONFIGS[name]
    records, stats = run_periods(config, n_periods, [8, 1])
    expected = oracle_periods(config, n_periods, [8, 1])
    assert stats_tuple(stats) == oracle_stats(config, expected)
    for mine, theirs in zip(records, expected, strict=True):
        assert dataclasses.replace(mine, msv_u=0.0, msv_i=0.0) == dataclasses.replace(
            theirs, msv_u=0.0, msv_i=0.0
        )
        assert mine.msv_u == pytest.approx(theirs.msv_u, rel=1e-12, abs=0)
        assert mine.msv_i == pytest.approx(theirs.msv_i, rel=1e-12, abs=0)


def test_estimate_ber_matches_period_loop():
    config = ExchangeConfig()
    for seed in (1, [2, 9]):
        table = estimate_ber(config, [10, 30, 100], 150, seed)
        assert [row.errors for row in table] == oracle_ber(config, [10, 30, 100], 150, seed)
    assert sum(row.errors for row in table) > 0


def test_chunks_cover_batches_and_partial_chunks():
    # Periods split over several calls and odd-sized chunks draw the same
    # stream as one long run.
    config = ExchangeConfig(gamma=10.0)
    rng, noise_root = streams(5)
    choices = rng.integers(0, 2, size=(2100, 2))
    whole = [np.concatenate(col) for col in zip(*_Periods(config, noise_root).chunks(choices))]
    engine = _Periods(config, noise_root)
    bounds = np.cumsum([0, 1, 63, 1100, 936])
    parts = [c for lo, hi in zip(bounds, bounds[1:]) for c in engine.chunks(choices[lo:hi])]
    for mine, theirs in zip((np.concatenate(col) for col in zip(*parts)), whole):
        assert np.array_equal(mine, theirs)
    assert engine.done == 2100


def test_handed_back_noise_runs_the_next_periods():
    # passive_sweep stops mid-chunk and hands the unused tail back: the
    # next periods, on other resistors, run on that tail's noise in order,
    # exactly as if the cut periods had never been drawn.
    config = ExchangeConfig(gamma=10.0)
    rng, noise_root = streams(6)
    first, second = rng.integers(0, 2, size=(100, 2)), rng.integers(0, 2, size=(90, 2))
    engine = _Periods(config, noise_root)
    next(engine.chunks(first))
    assert engine.done == 64
    engine.hand_back(24)
    assert engine.done == 40
    early = next(engine.chunks(second[:10]))  # runs on handed-back noise only
    engine.hand_back(3)
    late = [np.concatenate(col) for col in zip(*engine.chunks(second[7:]))]
    mine = [np.concatenate([e[:7], l]) for e, l in zip(early, late)]
    joined = np.concatenate([first[:40], second])
    whole = [np.concatenate(col) for col in zip(*_Periods(config, noise_root).chunks(joined))]
    for a, b in zip(mine, whole, strict=True):
        assert np.array_equal(a, b[40:])
    assert engine.done == 130 and len(engine.spare) == 0


def test_results_do_not_depend_on_chunk_size(monkeypatch):
    # Chunks of 1, 7 and 64 periods cut the same runs in different places:
    # the key exchange stops mid-chunk, and the passive sweep hands back a
    # different tail each time. The r-th period run still reads the r-th
    # noise block, so every result is the same.
    handed = []
    hand_back = _Periods.hand_back

    def counting(self, count):
        handed.append(count)
        hand_back(self, count)

    monkeypatch.setattr(_Periods, "hand_back", counting)
    results = []
    for chunk in (1, 7, 64):
        monkeypatch.setattr(protocol, "_CHUNK", chunk)
        handed.clear()
        runs = []
        for config, seed in ((ExchangeConfig(gamma=10.0), 3), (CONFIGS["voltage-alice"], [4, 4])):
            alice, bob, stats = run_key_exchange(config, 128, seed)
            runs.append([key.tolist() for key in (alice.bits, alice.flags, bob.bits)])
            runs.append(stats_tuple(stats))
            runs.append(estimate_ber(config, [10, 30, 100], 150, seed))
            runs.append(passive_sweep(config, 41, seed))
        results.append(runs)
        # With one period per chunk nothing is ever cut; otherwise tails are.
        assert any(handed) == (chunk > 1)
    assert results[0] == results[1] == results[2]


# -- Eve on the engine -----------------------------------------------------------

PASSIVE_CONFIGS = {
    "default": ExchangeConfig(),
    "g10": ExchangeConfig(gamma=10.0),
    "voltage-g30": ExchangeConfig(classify_on="voltage", gamma=30.0),
    "current-g20-os4": ExchangeConfig(classify_on="current", gamma=20.0, oversample=4.0),
}
PASSIVE_SEEDS = (1, [7, 9], 31337, [2, 5, 8], 50_005)
SUBSETS = (
    None,
    ["random"],
    ["correlation-sign", "msv-threshold"],
    ["random", "msv-threshold", "correlation-sign"],
    ["msv-threshold"],
)


def _sweep_outcome(run, config, n_periods, seed, strategies):
    try:
        result = run(config, n_periods, seed, strategies)
    except RuntimeError as exc:
        return f"{type(exc).__name__}: {exc}"
    if not isinstance(result, tuple):
        result = (result.periods, result.correct, result.cross_corr_mean, result.cross_corr_se)
    return result


def same_sweep(mine, theirs):
    if isinstance(theirs, str):
        assert mine == theirs
        return
    assert mine[:2] == theirs[:2]
    assert all(type(c) is int for c in mine[1].values())
    assert mine[2] == pytest.approx(theirs[2], rel=1e-12, abs=0)
    assert mine[3] == pytest.approx(theirs[3], rel=1e-12, abs=0)


@pytest.mark.parametrize("name", list(PASSIVE_CONFIGS))
@pytest.mark.parametrize("n_periods", [2, 3, 41, 400])
def test_passive_sweep_matches_period_loop(name, n_periods):
    config = PASSIVE_CONFIGS[name]
    for seed, strategies in zip(PASSIVE_SEEDS, SUBSETS):
        mine = _sweep_outcome(passive_sweep, config, n_periods, seed, strategies)
        theirs = _sweep_outcome(oracle_passive_sweep, config, n_periods, seed, strategies)
        assert not isinstance(theirs, str)
        same_sweep(mine, theirs)




def test_passive_timeout_matches_period_loop():
    # A sliver of a MID band keeps few periods. Under seed 5822 the second
    # orientation fills on attempt 1012 exactly, so the cap of 3 periods
    # (1000 + 4 * 3 attempts) just lets it finish and that of 2 periods
    # (1008 attempts) stops it; the two runs share every stream. Seed 149
    # fills on attempt 1009. Each is the smallest seed that fills there.
    base = ExchangeConfig(classify_on="voltage", gamma=10.0)
    u_lh, _ = theoretical_msv(base.line, PairClass.LH)
    sliver = dataclasses.replace(base, voltage_thresholds=(u_lh * 0.998, u_lh * 1.002))
    for seed, strategies in ((5822, None), (149, ["random", "correlation-sign"])):
        finished = _sweep_outcome(passive_sweep, sliver, 3, seed, strategies)
        capped = _sweep_outcome(passive_sweep, sliver, 2, seed, strategies)
        same_sweep(finished, _sweep_outcome(oracle_passive_sweep, sliver, 3, seed, strategies))
        same_sweep(capped, _sweep_outcome(oracle_passive_sweep, sliver, 2, seed, strategies))
        assert isinstance(finished, tuple)
        assert capped.startswith("RuntimeError: could not collect")


def test_eve_observation_recomputed_deterministically():
    signals = synthesize_period(ExchangeConfig(), (Resistor.L, Resistor.H), 2718)
    a = EveObservation.from_signals(signals)
    b = EveObservation.from_signals(signals)
    assert (a.msv_u, a.msv_i, a.cross_correlation) == (
        b.msv_u, b.msv_i, b.cross_correlation,
    )
    assert a.msv_u == signals.channel_voltage.mean_square()


def test_random_guess_is_one_draw_per_period():
    # The sweep draws its coin flips as one array; passive_guess draws them
    # one call at a time from the same generator.
    observation = EveObservation(msv_u=1.0, msv_i=1.0, cross_correlation=0.0)
    one_by_one = np.random.default_rng(3)
    scalar = [passive_guess(observation, "random", rng=one_by_one) for _ in range(200)]
    batched = np.random.default_rng(3)
    array = _guesses_lh(GuessStrategy.RANDOM, np.ones(200), np.zeros(200), None, batched)
    assert [g is PairClass.LH for g in scalar] == array.tolist()
    assert one_by_one.bit_generator.state == batched.bit_generator.state


@pytest.mark.parametrize("strategy", ["msv-threshold", "correlation-sign"])
def test_feature_guesses_match_passive_guess(strategy):
    # Observations on both sides of each rule's cut, and exactly at it.
    config = ExchangeConfig()
    level, _ = theoretical_msv(config.line, PairClass.LH)
    msv_u = np.array([level, np.nextafter(level, 0), np.nextafter(level, np.inf), 0.5 * level,
                      2 * level, level, level])
    cross = np.array([0.0, 1e-20, -1e-20, 0.3, -0.3, np.nextafter(0, 1), np.nextafter(0, -1)])
    array = _guesses_lh(GuessStrategy(strategy), msv_u, cross, config.line, None)
    scalar = [
        passive_guess(EveObservation(u, 1.0, c), strategy, line=config.line) is PairClass.LH
        for u, c in zip(msv_u, cross)
    ]
    assert array.tolist() == scalar
    assert len(set(scalar)) == 2
