import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dce import (
    AttackScenario,
    ExperimentSpec,
    PowerAllocation,
    PowerAllocationProblem,
    RngStream,
    SystemConfig,
    blind_whitening_tx,
    build_an_basis,
    build_reverse_signal,
    complex_gaussian,
    contaminate_reverse,
    emit_csv,
    nmse_lr_closed,
    orthonormal_rows,
    read_csv,
    run_experiment,
    run_trial,
    sample_channels,
    snr_to_sigma0_sq,
    solve,
)
from dce import simulate
from dce.errors import DimensionError, NumericalError
from dce.estimators import pilot_correlation, shrinkage
from dce.simulate import CSV_HEADER, ResultRow

from conftest import make_cfg

CFG = SystemConfig()


def noise_free_alloc(sigma_a_sq):
    return PowerAllocation(
        x=0.5 * CFG.t1 / CFG.n_t,
        y=(CFG.n_t - CFG.n_l) * sigma_a_sq,
        z=1.0,
        p1=0.5,
        sigma_a_sq=sigma_a_sq,
        p0=1.0,
        objective=0.0,
    )


def test_run_trial_noise_free_exact():
    cfg = make_cfg(sigma0_sq=0.0)
    lr, ur = run_trial(cfg, noise_free_alloc(0.0), "wr", AttackScenario(), RngStream(0, 0))
    assert lr <= 1e-16
    assert ur <= 1e-16


def test_run_trial_noise_free_lr_immune_to_an():
    # with an exact reverse estimate the jamming never reaches the LR,
    # while the UR still takes the full hit
    cfg = make_cfg(sigma0_sq=0.0)
    lr, ur = run_trial(cfg, noise_free_alloc(0.25), "wr", AttackScenario(), RngStream(1, 0))
    assert lr <= 1e-16
    assert ur > 1e-3


def test_run_trial_reproducible():
    alloc = noise_free_alloc(0.25)
    a = run_trial(CFG, alloc, "wr", AttackScenario(), RngStream(2, 5))
    b = run_trial(CFG, alloc, "wr", AttackScenario(), RngStream(2, 5))
    assert a == b


def test_run_trial_rejects_unknown_scheme():
    with pytest.raises(ValueError):
        run_trial(CFG, noise_free_alloc(0.0), "zf", AttackScenario(), RngStream(3, 0))


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(cfg=CFG, snr_db_grid=())
    with pytest.raises(ValueError):
        ExperimentSpec(cfg=CFG, trials=0)
    with pytest.raises(ValueError):
        ExperimentSpec(cfg=CFG, t1_grid=(20, 40), p0_bar_grid=(0.5,))
    with pytest.raises(ValueError):
        ExperimentSpec(cfg=CFG, snr_db_grid=(10.0, 20.0), t1_grid=(20, 40))
    # attack checks run once, when the spec is built, not in every job
    with pytest.raises(ValueError, match="known_pilot"):
        ExperimentSpec(cfg=CFG, scheme="wr", attack=AttackScenario("known_pilot", 1.0))
    with pytest.raises(DimensionError, match="n_u == n_l"):
        ExperimentSpec(cfg=make_cfg(n_u=3), scheme="lmmse", attack=AttackScenario("guess", 1.0))
    ExperimentSpec(cfg=make_cfg(n_u=3), scheme="wr_perfect_csi", attack=AttackScenario("guess", 1.0))


def test_experiment_reproducible_and_worker_invariant(tmp_path, monkeypatch):
    pools = []

    class CountingPool(simulate.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", CountingPool)
    spec = ExperimentSpec(cfg=CFG, scheme="wr", snr_db_grid=(15.0, 20.0), trials=300, master_seed=9)
    rows1 = run_experiment(spec, workers=1)
    rows2 = run_experiment(spec, workers=2)
    assert rows1 == rows2
    assert len(pools) == 1  # one pool serves every sweep point
    p1, p2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    emit_csv(rows1, p1)
    emit_csv(rows2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_experiment_infeasible_point_marked_and_run_continues():
    # at -10 dB the noise floor pushes the feasible threshold range above
    # gamma; the 20 dB point still runs
    spec = ExperimentSpec(
        cfg=make_cfg(gamma=0.03), scheme="wr", snr_db_grid=(-10.0, 20.0), trials=50, master_seed=1
    )
    rows = run_experiment(spec)
    assert rows[0].trials == 0 and rows[0].nmse_lr_emp is None
    assert rows[1].trials == 50 and rows[1].nmse_lr_emp > 0


def test_experiment_t1_sweep():
    spec = ExperimentSpec(
        cfg=CFG, scheme="wr", snr_db_grid=(25.0,), trials=40, master_seed=2, t1_grid=(20, 140)
    )
    rows = run_experiment(spec)
    assert [r.sweep_value for r in rows] == [20.0, 140.0]
    # longer forward training: lower error at the legitimate receiver
    assert rows[1].nmse_lr_emp < rows[0].nmse_lr_emp


def test_experiment_p0_bar_sweep_attack_power_applied():
    spec = ExperimentSpec(
        cfg=CFG,
        scheme="wr",
        attack=AttackScenario("guess", 1.0),
        snr_db_grid=(25.0,),
        trials=40,
        master_seed=3,
        p0_bar_grid=(0.1, 1.0),
    )
    rows = run_experiment(spec)
    assert [r.sweep_value for r in rows] == [0.1, 1.0]
    assert rows[1].nmse_lr_emp > rows[0].nmse_lr_emp


def one_point_rows(spec, field):
    """run_experiment at each sweep value on its own, with the spec's seed."""
    return [run_experiment(dataclasses.replace(spec, **{field: (v,)}))[0] for v in getattr(spec, field)]


@pytest.mark.parametrize(
    "spec,field",
    [
        (ExperimentSpec(cfg=CFG, scheme="lmmse", snr_db_grid=(-10.0, 5.0, 20.0), trials=300, master_seed=16),
         "snr_db_grid"),
        (ExperimentSpec(cfg=CFG, scheme="wr", snr_db_grid=(25.0,), t1_grid=(20, 60, 140), trials=300, master_seed=17),
         "t1_grid"),
        (ExperimentSpec(cfg=CFG, scheme="wr", attack=AttackScenario("guess", 1.0), snr_db_grid=(25.0,),
                        p0_bar_grid=(0.0, 0.3, 1.0), trials=300, master_seed=18), "p0_bar_grid"),
        # the shared TX basis: one per job for the genie TX and for a t1 sweep
        (ExperimentSpec(cfg=CFG, scheme="wr_perfect_csi", snr_db_grid=(-10.0, 5.0, 30.0), trials=300, master_seed=19),
         "snr_db_grid"),
        (ExperimentSpec(cfg=CFG, scheme="lmmse", snr_db_grid=(25.0,), t1_grid=(20, 60, 140), trials=300,
                        master_seed=20), "t1_grid"),
    ],
    ids=["snr-with-infeasible", "t1", "p0_bar-with-silent", "perfect-csi-snr", "lmmse-t1"],
)
def test_sweep_rows_equal_their_one_point_runs(spec, field):
    # common random numbers: trial i draws the same stream at every sweep point
    rows = run_experiment(spec)
    assert rows == one_point_rows(spec, field)
    if field == "snr_db_grid":
        assert rows[0].trials == 0
    if field == "p0_bar_grid":
        # the silent point ignores the attacker's draws: it is the clean trial
        clean = run_experiment(dataclasses.replace(spec, attack=AttackScenario(), p0_bar_grid=None))[0]
        assert dataclasses.replace(rows[0], sweep_value=clean.sweep_value, attack_mode="none") == clean


def test_perfect_csi_lower_bounds_wr():
    spec = ExperimentSpec(cfg=CFG, scheme="wr", snr_db_grid=(20.0,), trials=2000, master_seed=4)
    wr = run_experiment(spec)[0]
    perfect = run_experiment(dataclasses.replace(spec, scheme="wr_perfect_csi"))[0]
    assert perfect.nmse_lr_emp <= wr.nmse_lr_emp
    assert perfect.nmse_lr_cf == pytest.approx(CFG.n_t * 0.01 / (wr.p1 * CFG.t1))


def test_lmmse_rows_have_no_closed_form():
    spec = ExperimentSpec(cfg=CFG, scheme="lmmse", snr_db_grid=(20.0,), trials=20, master_seed=5)
    row = run_experiment(spec)[0]
    assert row.nmse_lr_cf is None and row.nmse_ur_cf is None


def test_lmmse_ur_sits_at_design_floor():
    # the floor constraint is designed against the correlation statistic;
    # the baseline's shrinkage shaves the UR below it, by 0.1% at this 20 dB
    # point but by 2-5% at 5 dB, so proximity is the meaningful assertion,
    # not a one-sided bound
    spec = ExperimentSpec(cfg=make_cfg(gamma=0.03), scheme="lmmse", snr_db_grid=(20.0,), trials=2000, master_seed=11)
    row = run_experiment(spec)[0]
    assert abs(row.nmse_ur_emp - 0.03) / 0.03 <= 0.10


def test_attacked_rows_carry_attack_closed_form():
    from dce import nmse_lr_attack_closed

    spec = ExperimentSpec(
        cfg=CFG,
        scheme="wr",
        attack=AttackScenario("guess", 0.7),
        snr_db_grid=(20.0,),
        trials=5,
        master_seed=6,
    )
    row = run_experiment(spec)[0]
    expected = nmse_lr_attack_closed(CFG, row.p0, 0.7, row.p1, row.sigma_a_sq)
    assert row.nmse_lr_cf == pytest.approx(expected, rel=1e-12)
    # contamination moves the jamming basis toward G: no wiretap closed form
    assert row.nmse_ur_cf is None


def test_csv_header_and_empty(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert path.read_text() == CSV_HEADER + "\n"


def test_csv_roundtrip(tmp_path):
    rows = [
        ResultRow(20.0, "wr", "none", 0.49268, 0.25366, 1.0, 5.8e-4, 5.84e-4, 0.0301, 0.03, 100, 7),
        ResultRow(25.0, "lmmse", "known_pilot", None, None, None, None, None, None, None, 0, 7),
        ResultRow(30.0, "wr", "guess", 0.1, 0.3, 1.0, 1.23456789e-5, None, 2.0 / 3.0, None, 10, 7),
    ]
    path = tmp_path / "rows.csv"
    emit_csv(rows, path)
    assert read_csv(path) == rows
    # at least 6 significant digits, decimal notation
    text = path.read_text()
    assert "e" not in text.splitlines()[1].split(",")[3]
    assert "0.492680" in text


def test_csv_write_failure_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        emit_csv([], tmp_path / "no_such_dir" / "x.csv")


def test_csv_rewrite_with_shorter_rows_leaves_only_new_bytes(tmp_path):
    long_rows = [ResultRow(float(v), "wr", "none", 0.5, 0.25, 1.0, 1e-3, 1e-3, 0.03, 0.03, 100, 7) for v in range(20)]
    short_rows = long_rows[:1]
    path, fresh = tmp_path / "rows.csv", tmp_path / "fresh.csv"
    emit_csv(long_rows, path)
    emit_csv(short_rows, path)
    emit_csv(short_rows, fresh)
    assert path.read_bytes() == fresh.read_bytes()
    assert read_csv(path) == short_rows


def test_csv_to_devnull():
    emit_csv([ResultRow(20.0, "wr", "none", 0.5, 0.25, 1.0, 1e-3, 1e-3, 0.03, 0.03, 100, 7)], os.devnull)


# The engine behind run_experiment (simulate._job) draws only the
# sufficient statistics of a trial; run_trial synthesises every signal.
ENGINE_CASES = [
    ("wr", AttackScenario()),
    ("lmmse", AttackScenario()),
    ("wr_perfect_csi", AttackScenario()),
    ("lmmse", AttackScenario("known_pilot", 1.0)),
    ("wr", AttackScenario("guess", 0.1)),
    ("wr", AttackScenario("guess", 1.0)),
    ("lmmse", AttackScenario("guess", 0.5)),
]
ENGINE_IDS = [f"{scheme}-{attack.mode}-{attack.p0_bar:g}" for scheme, attack in ENGINE_CASES]


def engine(cfg, alloc, scheme, attack, seed, ids):
    """(lr, ur) arrays of the given trials at one sweep point, as one job."""
    return simulate._job((scheme, [(0, cfg, attack, alloc)], seed, ids))[0].T


@pytest.mark.parametrize("t0", [3, 5, 140])  # n_l + 1, 2 n_l + 1, the default
@pytest.mark.parametrize("scheme,attack", ENGINE_CASES, ids=ENGINE_IDS)
def test_engine_matches_run_trial_in_distribution(scheme, attack, t0):
    trials = 2000
    for snr_db in (5.0, 25.0):
        cfg = make_cfg(t0=t0, sigma0_sq=snr_to_sigma0_sq(snr_db))
        alloc = solve(PowerAllocationProblem(cfg))
        fast = np.stack(engine(cfg, alloc, scheme, attack, 31, range(trials)), axis=1)
        ref = np.array([run_trial(cfg, alloc, scheme, attack, RngStream(32, i)) for i in range(trials)])
        se = np.sqrt((fast.var(axis=0) + ref.var(axis=0)) / trials)
        gap = np.abs(fast.mean(axis=0) - ref.mean(axis=0)) / se
        assert np.all(gap <= 4.0), f"{snr_db} dB: (lr, ur) mean gaps {gap} standard errors"


@pytest.mark.parametrize("attack", [AttackScenario(), AttackScenario("known_pilot", 1.0)], ids=["none", "replay"])
def test_engine_lmmse_shrinkage_in_distribution(attack):
    # a tenth of the allocated forward power makes the LMMSE shrinkage
    # bias a tenth of the LR error, well beyond the Monte Carlo noise
    trials = 2000
    cfg = make_cfg(sigma0_sq=snr_to_sigma0_sq(5.0))
    alloc = solve(PowerAllocationProblem(cfg))
    alloc = dataclasses.replace(alloc, p1=alloc.p1 / 10)
    fast = np.stack(engine(cfg, alloc, "lmmse", attack, 33, range(trials)), axis=1)
    ref = np.array([run_trial(cfg, alloc, "lmmse", attack, RngStream(34, i)) for i in range(trials)])
    se = np.sqrt((fast.var(axis=0) + ref.var(axis=0)) / trials)
    gap = np.abs(fast.mean(axis=0) - ref.mean(axis=0)) / se
    assert np.all(gap <= 4.0), f"(lr, ur) mean gaps {gap} standard errors"


@pytest.mark.parametrize(
    "n_t,n_l,snr_db",
    [(4, 2, 5.0), (4, 2, 15.0), (3, 1, 5.0), (8, 2, 5.0)],
    ids=["4x2x2-5", "4x2x2-15", "3x1x1-5", "8x2x2-5"],
)
def test_clean_wr_lr_closed_form_exact_at_t0_equal_n_l(n_t, n_l, snr_db):
    # no added or noise-only reverse rows: the blind TX's basis is the LMMSE TX's
    trials = 40000
    cfg = make_cfg(n_t=n_t, n_l=n_l, n_u=n_l, t0=n_l, sigma0_sq=snr_to_sigma0_sq(snr_db))
    alloc = solve(PowerAllocationProblem(cfg))
    lr = np.concatenate(
        [engine(cfg, alloc, "wr", AttackScenario(), 37, range(i, i + 4000))[0] for i in range(0, trials, 4000)]
    )
    cf = nmse_lr_closed(cfg, alloc.p0, alloc.p1, alloc.sigma_a_sq)
    z = (lr.mean() - cf) / (lr.std() / np.sqrt(trials))
    assert abs(z) <= 4.0, f"closed form {cf} against {lr.mean()}: {z:+.2f} standard errors"


@pytest.mark.parametrize("scheme", ["wr", "wr_perfect_csi"])
def test_engine_noise_free_lr_exact_with_an(scheme):
    cfg = make_cfg(sigma0_sq=0.0)
    lr, ur = engine(cfg, noise_free_alloc(0.25), scheme, AttackScenario(), 12, range(300))
    assert lr.max() <= 1e-16
    assert ur.min() > 0  # the jamming still reaches the eavesdropper


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n_t=st.integers(2, 8),
    data=st.data(),
    scheme=st.sampled_from(["wr", "wr_perfect_csi"]),
)
def test_engine_noise_free_lr_exact_any_shape(n_t, data, scheme):
    n_l = data.draw(st.integers(1, n_t - 1), label="n_l")
    cfg = make_cfg(n_t=n_t, n_l=n_l, n_u=n_l, t0=n_l, t1=n_t, sigma0_sq=0.0)
    alloc = PowerAllocation(x=0.5 * cfg.t1 / n_t, y=0.5, z=1.0, p1=0.5,
                            sigma_a_sq=0.5 / (n_t - n_l), p0=1.0, objective=0.0)
    lr, _ = engine(cfg, alloc, scheme, AttackScenario(), 13, range(50))
    assert lr.max() <= 1e-16


@pytest.mark.parametrize("scheme,attack", ENGINE_CASES, ids=ENGINE_IDS)
def test_engine_values_independent_of_the_split(scheme, attack):
    alloc = solve(PowerAllocationProblem(CFG))
    whole = engine(CFG, alloc, scheme, attack, 14, range(600))
    cuts = (0, 1, 257, 258, 600)
    parts = [engine(CFG, alloc, scheme, attack, 14, range(a, b)) for a, b in zip(cuts, cuts[1:])]
    for i in range(2):
        assert np.array_equal(whole[i], np.concatenate([p[i] for p in parts]))


def test_engine_draws_pair_schemes_and_attacks():
    # every scheme and attack under one master seed sees the same channels and noises
    stats = [
        simulate._draw_statistics(CFG, scheme, attack, 21, range(100, 400))
        for scheme, attack in [("wr", AttackScenario("guess", 1.0)), ("lmmse", AttackScenario("known_pilot", 1.0)),
                               ("wr_perfect_csi", AttackScenario())]
    ]
    for name in ("h", "g", "an", "e1", "f1", "z0"):
        assert all(np.array_equal(getattr(stats[0], name), getattr(other, name)) for other in stats[1:]), name
    assert np.array_equal(stats[0].f0, stats[1].f0)  # replay and guess share the attacker's front-end noise


def test_experiment_rejects_fewer_than_one_worker():
    spec = ExperimentSpec(cfg=CFG, trials=2)
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers"):
            run_experiment(spec, workers=workers)


def test_engine_silent_attacker_is_the_clean_trial():
    alloc = solve(PowerAllocationProblem(CFG))
    clean = engine(CFG, alloc, "wr", AttackScenario(), 15, range(50))
    silent = engine(CFG, alloc, "wr", AttackScenario("guess", 0.0), 15, range(50))
    assert all(np.array_equal(a, b) for a, b in zip(clean, silent))


def test_experiment_keeps_typed_attack_errors():
    with pytest.raises(ValueError, match="known_pilot"):
        run_experiment(ExperimentSpec(cfg=CFG, scheme="wr", attack=AttackScenario("known_pilot", 1.0), trials=2))
    with pytest.raises(DimensionError):
        run_experiment(
            ExperimentSpec(cfg=make_cfg(n_u=3), scheme="lmmse", attack=AttackScenario("guess", 1.0), trials=2)
        )


def test_experiment_names_the_trial_of_a_non_finite_value():
    # -10 dB is infeasible and skipped, so sweep point 1 is the first to run
    spec = ExperimentSpec(
        cfg=make_cfg(sigma_h_sq=float("inf")), scheme="lmmse", snr_db_grid=(-10.0, 20.0), trials=5, master_seed=7
    )
    with pytest.raises(NumericalError, match=r"trial 0 of sweep point 1 \(master seed 7\)"):
        run_experiment(spec)


def replayed_statistics(cfg, alloc, scheme, attack, stream):
    """run_trial's own draws, replayed, projected onto the pilot rows as the engine's statistics."""
    n_t, n_l = cfg.n_t, cfg.n_l
    k = min(n_l, cfg.t0 - n_l)
    attacked = scheme != "wr_perfect_csi" and attack.mode != "none" and attack.p0_bar > 0
    main = stream.substream(simulate._MAIN)
    ch = sample_channels(cfg, main)
    e0 = complex_gaussian(main, n_t, cfg.t0, cfg.sigma0_sq)
    f0 = np.zeros_like(e0)
    # any rows serve as the guess's when there is none: only c0_bar's span matters
    c0_bar = orthonormal_rows(n_l, cfg.t0, mode="random", rng=np.random.default_rng(0))
    if scheme == "wr_perfect_csi":
        c0 = orthonormal_rows(n_l, cfg.t0)
        uplink = ch.h.T
    else:
        pilot_mode = "fixed" if scheme == "lmmse" else "random"
        rev_rng = stream.substream(simulate._REV_PILOT) if pilot_mode == "random" else None
        reverse = build_reverse_signal(cfg, alloc.p0, mode=pilot_mode, rng=rev_rng)
        c0, x0 = reverse.c0, ch.h.T @ reverse.s0 + e0
        if attacked:
            attack_rng = stream.substream(simulate._ATTACK)
            c0_bar = c0 if attack.mode == "known_pilot" else orthonormal_rows(n_l, cfg.t0, "random", attack_rng)
            f0 = complex_gaussian(attack_rng, n_t, cfg.t0, cfg.sigma0_sq)
            observed = contaminate_reverse(x0, ch.g, attack, cfg, stream.substream(simulate._ATTACK), legit_c0=c0)
            x0 = x0 + ch.g.T @ (np.sqrt(attack.p0_bar * cfg.t0 / n_l) * c0_bar) + f0
            assert np.array_equal(x0, observed)
        if scheme == "wr":
            uplink = blind_whitening_tx(x0, alloc.p0, cfg.t0, n_l)
        else:
            a = alloc.p0 * cfg.t0 / n_l
            uplink = shrinkage(cfg.sigma_h_sq, a, cfg.sigma0_sq) * pilot_correlation(x0, reverse.s0, a)
    n_rt = build_an_basis(uplink)
    a = complex_gaussian(main, n_t - n_l, cfg.t1, alloc.sigma_a_sq)
    e1 = complex_gaussian(main, n_l, cfg.t1, cfg.sigma0_sq)
    f1 = complex_gaussian(main, cfg.n_u, cfg.t1, cfg.sigma0_sq)
    c1 = orthonormal_rows(n_t, cfg.t1)

    # reverse rows: c0, then D spanning the rest of c0_bar's rows, then
    # R spanning what is left, each set orthonormal and orthogonal to the others
    q = np.linalg.qr(np.concatenate([c0, c0_bar]).conj().T, mode="complete")[0]
    d, r = q[:, n_l : n_l + k].conj().T, q[:, n_l + k :].conj().T
    s0 = np.sqrt(cfg.sigma0_sq)
    stats = simulate._Statistics(
        master_seed=stream.master_seed,
        stream_ids=range(stream.stream_id, stream.stream_id + 1),
        h=ch.h / np.sqrt(cfg.sigma_h_sq),
        g=ch.g / np.sqrt(cfg.sigma_g_sq),
        an=None,
        e1=e1 @ c1.conj().T / s0,
        f1=f1 @ c1.conj().T / s0,
        z0=e0 @ c0.conj().T / s0,
    )
    if scheme == "wr":
        # a direct factor of the noise-only rows' Gram, not a Bartlett one
        remainder = (e0 + f0) @ r.conj().T / (s0 * np.sqrt(2.0)) if attacked else e0 @ r.conj().T / s0
        stats = dataclasses.replace(stats, added=e0 @ d.conj().T / s0, remainder=remainder)
    if attacked:
        rows = np.concatenate([c0, d])
        stats = dataclasses.replace(stats, f0=f0 @ rows.conj().T / s0, coords=c0_bar @ rows.conj().T)
    stats = dataclasses.replace(stats, **{f: v[None] for f, v in vars(stats).items() if isinstance(v, np.ndarray)})
    # the engine's basis N_eng spans run_trial's N_rt: feed run_trial's
    # jamming in engine coordinates, U A c1^H with U = N_eng^H N_rt
    n_eng = simulate._tx_basis(cfg, alloc, scheme, attack, stats, 0)[0]
    an = n_eng.conj().T @ n_rt @ a @ c1.conj().T / np.sqrt(alloc.sigma_a_sq)
    return dataclasses.replace(stats, an=an[None])


def assert_engine_replays_run_trial(cfg, alloc, scheme, attack, stream):
    stats = replayed_statistics(cfg, alloc, scheme, attack, stream)
    basis = simulate._tx_basis(cfg, alloc, scheme, attack, stats, 0)
    got = simulate._evaluate(cfg, alloc, scheme, stats, basis, 0)[0]
    want = np.array(run_trial(cfg, alloc, scheme, attack, stream))
    assert np.all(np.abs(got - want) <= 1e-12 * want), f"engine {got} against run_trial {want}"


@pytest.mark.parametrize("t0", [3, 5, 140])
@pytest.mark.parametrize("scheme,attack", ENGINE_CASES, ids=ENGINE_IDS)
def test_engine_evaluates_run_trial_draw_for_draw(scheme, attack, t0):
    for snr_db in (5.0, 25.0):
        cfg = make_cfg(t0=t0, sigma0_sq=snr_to_sigma0_sq(snr_db))
        alloc = solve(PowerAllocationProblem(cfg))
        for trial in range(20):
            assert_engine_replays_run_trial(cfg, alloc, scheme, attack, RngStream(35, trial))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n_t=st.integers(2, 8),
    data=st.data(),
    case=st.sampled_from(ENGINE_CASES),
    snr_db=st.sampled_from([5.0, 25.0]),
    trial=st.integers(0, 2**32 - 1),
)
def test_engine_evaluates_run_trial_draw_for_draw_any_shape(n_t, data, case, snr_db, trial):
    scheme, attack = case
    n_l = data.draw(st.integers(1, n_t - 1), label="n_l")
    n_u = n_l if attack.mode != "none" else data.draw(st.integers(1, 8), label="n_u")
    t0 = data.draw(st.integers(n_l, 2 * n_l + 3), label="t0")
    t1 = data.draw(st.integers(n_t, 2 * n_t + 3), label="t1")
    cfg = make_cfg(n_t=n_t, n_l=n_l, n_u=n_u, t0=t0, t1=t1, sigma0_sq=snr_to_sigma0_sq(snr_db))
    alloc = PowerAllocation(x=0.5 * t1 / n_t, y=0.5, z=1.0, p1=0.5,
                            sigma_a_sq=0.5 / (n_t - n_l), p0=1.0, objective=0.0)
    assert_engine_replays_run_trial(cfg, alloc, scheme, attack, RngStream(36, trial))
