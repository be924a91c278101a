import dataclasses

import numpy as np
import pytest

from dce import (
    AttackScenario,
    PowerAllocation,
    PowerAllocationProblem,
    RngStream,
    SystemConfig,
    build_attack_signal,
    build_reverse_signal,
    contaminate_reverse,
    lmmse_uplink,
    run_trial,
    sample_channels,
    snr_to_sigma0_sq,
    solve,
)
from dce.errors import DimensionError

CFG = SystemConfig()


def test_scenario_validation():
    with pytest.raises(ValueError):
        AttackScenario("loud", 1.0)
    with pytest.raises(ValueError):
        AttackScenario("guess", -1.0)


def test_contaminate_none_is_identity():
    ch = sample_channels(CFG, RngStream(0).substream())
    rs = build_reverse_signal(CFG, 1.0, mode="fixed")
    x0 = ch.h.T @ rs.s0
    out = contaminate_reverse(x0, ch.g, AttackScenario(), CFG, RngStream(1).substream())
    assert out is x0
    # a silent attacker sends nothing and adds no noise of its own
    silent = contaminate_reverse(x0, ch.g, AttackScenario("guess", 0.0), CFG, RngStream(1).substream())
    assert silent is x0


def test_contaminate_known_pilot_steers_towards_sum_channel():
    # noise-free: replayed pilots make the correlation see H^T + G^T
    cfg = dataclasses.replace(CFG, sigma0_sq=0.0)
    ch = sample_channels(cfg, RngStream(2).substream())
    rs = build_reverse_signal(cfg, 1.0, mode="fixed")
    x0 = ch.h.T @ rs.s0
    out = contaminate_reverse(
        x0, ch.g, AttackScenario("known_pilot", 1.0), cfg, RngStream(3).substream(), legit_c0=rs.c0
    )
    est = lmmse_uplink(out, rs, cfg.sigma_h_sq, cfg.sigma0_sq)
    assert np.linalg.norm(est - (ch.h.T + ch.g.T)) <= 1e-9


def test_contaminate_needs_matching_antennas():
    cfg = dataclasses.replace(CFG, n_u=3)
    ch = sample_channels(cfg, RngStream(4).substream())
    rs = build_reverse_signal(cfg, 1.0, mode="fixed")
    x0 = ch.h.T @ rs.s0
    with pytest.raises(DimensionError):
        contaminate_reverse(x0, ch.g, AttackScenario("guess", 1.0), cfg, RngStream(5).substream())


def test_guess_cross_correlation_decays_with_t0():
    # independent pilot draws: ||S0_bar S0^H|| / (p0 t0) falls like 1/sqrt(t0)
    means = []
    for t0 in (35, 70, 140):
        cfg = dataclasses.replace(CFG, t0=t0)
        rng = RngStream(6, t0).substream()
        acc = 0.0
        trials = 200
        for _ in range(trials):
            rs = build_reverse_signal(cfg, 1.0, mode="random", rng=rng)
            s0_bar = build_attack_signal(cfg, 1.0, strategy="guess", rng=rng)
            acc += np.linalg.norm(s0_bar @ rs.s0.conj().T) / (1.0 * t0)
        means.append(acc / trials)
    assert means[0] > means[1] > means[2]
    assert means[2] < 0.2


def test_known_pilot_attack_degrades_baseline_scheme():
    # mini Monte Carlo of the acceptance property: >= 5x degradation at 25 dB
    cfg = dataclasses.replace(CFG, sigma0_sq=snr_to_sigma0_sq(25.0))
    alloc = PowerAllocation(
        x=17.127, y=0.5107, z=1.0, p1=0.48935, sigma_a_sq=0.25533, p0=1.0, objective=0.0
    )
    trials = 600
    clean = attacked = 0.0
    for i in range(trials):
        clean += run_trial(cfg, alloc, "lmmse", AttackScenario(), RngStream(7, i))[0]
        attacked += run_trial(
            cfg, alloc, "lmmse", AttackScenario("known_pilot", 1.0), RngStream(7, i)
        )[0]
    assert attacked >= 5 * clean


def test_known_pilot_attack_rejected_for_random_pilot_scheme():
    cfg = dataclasses.replace(CFG, sigma0_sq=0.01)
    alloc = PowerAllocation(
        x=17.2439, y=0.50732, z=1.0, p1=0.49268, sigma_a_sq=0.25366, p0=1.0, objective=0.0
    )
    with pytest.raises(ValueError, match="known_pilot"):
        run_trial(cfg, alloc, "wr", AttackScenario("known_pilot", 1.0), RngStream(8, 0))


def test_silent_attacker_trial_equals_clean_trial():
    cfg = dataclasses.replace(CFG, sigma0_sq=snr_to_sigma0_sq(5.0))
    alloc = solve(PowerAllocationProblem(cfg))
    for i in range(5):
        clean = run_trial(cfg, alloc, "wr", AttackScenario(), RngStream(9, i))
        silent = run_trial(cfg, alloc, "wr", AttackScenario("guess", 0.0), RngStream(9, i))
        assert silent == clean
