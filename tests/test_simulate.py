import dataclasses

import numpy as np
import pytest

from dce import (
    AttackScenario,
    ExperimentSpec,
    PowerAllocation,
    RngStream,
    SystemConfig,
    emit_csv,
    read_csv,
    run_experiment,
    run_trial,
)
from dce import simulate
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
        cfg=CFG, scheme="wr", snr_db_grid=(-10.0, 20.0), gamma=0.03, trials=50, master_seed=1
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
    # the baseline's shrinkage can shave a fraction of a percent below it,
    # so proximity is the meaningful assertion, not a one-sided bound
    spec = ExperimentSpec(cfg=CFG, scheme="lmmse", snr_db_grid=(20.0,), gamma=0.03, trials=2000, master_seed=11)
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
