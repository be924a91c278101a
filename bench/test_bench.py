"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from dce import analysis, linalg, simulate  # noqa: E402
from dce.attack import AttackScenario  # noqa: E402
from dce.channel import SystemConfig  # noqa: E402
from dce.linalg import RngStream  # noqa: E402
from dce.power_allocation import PowerAllocationProblem, solve  # noqa: E402


def test_self_times_subtract_children_at_every_depth():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]; d [12, 13] is a second root
    parent = np.array([-1, 0, 0, 2, -1])
    start = np.array([0.0, 1.0, 5.0, 6.0, 12.0])
    end = np.array([10.0, 4.0, 9.0, 7.0, 13.0])
    np.testing.assert_allclose(spans.self_times(parent, start, end), [3.0, 3.0, 3.0, 1.0, 1.0])


def test_self_times_partition_the_root_spans():
    rng = np.random.default_rng(3)
    parent, start, end = [-1], [0.0], [100.0]

    def fill(index, lo, hi, depth):
        cuts = np.sort(rng.uniform(lo, hi, 6))
        for a, b in zip(cuts[::2], cuts[1::2]):
            parent.append(index)
            start.append(a)
            end.append(b)
            if depth:
                fill(len(start) - 1, a, b, depth - 1)

    fill(0, 0.0, 100.0, 3)
    own = spans.self_times(np.array(parent), np.array(start), np.array(end))
    assert np.all(own >= 0)
    assert own.sum() == pytest.approx(100.0)


def _one_trial(scheme, attack=AttackScenario()):
    cfg = replace(SystemConfig(), sigma0_sq=0.01)
    alloc = solve(PowerAllocationProblem(cfg))
    return simulate.run_trial(cfg, alloc, scheme, attack, RngStream(5, 0))


@pytest.mark.parametrize("scheme, svds, substreams", [("wr", 6, 3), ("lmmse", 1, 3), ("wr_perfect_csi", 5, 1)])
def test_trace_counts_calls_and_restores_the_program(scheme, svds, substreams):
    original_svd, original_substream = linalg.svd, RngStream.substream
    untraced = _one_trial(scheme)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = _one_trial(scheme)
    assert traced == untraced
    assert linalg.svd is original_svd and RngStream.substream is original_substream
    summary = tracer.summary()
    assert summary["linalg.svd"][0] == svds
    assert summary["linalg.substream"][0] == substreams
    assert summary["simulate.run_trial"][0] == 1
    # forward noise at both receivers plus the jamming draw, at least
    assert tracer.gaussian_entries >= (2 + 2 + 2) * 140
    a = tracer.arrays()
    roots = a["parent"] == -1
    root_seconds = (a["end"] - a["start"])[roots].sum()
    assert sum(tracer.layer_self_seconds().values()) == pytest.approx(root_seconds, rel=1e-9)


def test_operating_point_follows_the_sweep_kind():
    cfg = SystemConfig()
    snr_sweep = simulate.ExperimentSpec(cfg=cfg, snr_db_grid=(5.0, 20.0))
    t1_sweep = simulate.ExperimentSpec(cfg=cfg, snr_db_grid=(25.0,), t1_grid=(20, 40))
    assert checks.operating_point(snr_sweep, 20.0) == (pytest.approx(0.01), 140, 20.0)
    assert checks.operating_point(t1_sweep, 40.0) == (pytest.approx(10 ** -2.5), 40, 25.0)
    for snr in (5.0, 17.5, 30.0):
        assert checks.sigma0_sq_of(snr) == pytest.approx(analysis.snr_to_sigma0_sq(snr), rel=1e-15)


def test_expectation_formulas_at_their_limits():
    # without noise the LMMSE shrinkage is 1 and the wiretap error is gamma
    assert checks.ur_lmmse(4, 0.0, 1.0, 0.03, 0.5, 140) == pytest.approx(0.03)
    # with no pilot energy nothing is learned and the error is the channel variance
    assert checks.ur_lmmse(4, 1.0, 2.0, 0.03, 1e-12, 140) == pytest.approx(2.0)
    assert checks.lr_perfect_csi(4, 0.01, 0.5, 140) == pytest.approx(4 * 0.01 / 70)
    # the wr wiretap expectation is the allocator's active constraint
    cfg = replace(SystemConfig(), sigma0_sq=0.01)
    alloc = solve(PowerAllocationProblem(cfg))
    assert analysis.nmse_ur_closed(cfg, alloc.p1, alloc.sigma_a_sq) == pytest.approx(cfg.gamma, rel=1e-9)
    assert checks.within_budget(4, 2, 1.0, alloc.p1, alloc.sigma_a_sq, alloc.p0)
    assert not checks.within_budget(4, 2, 1.0, 0.9, 0.1, 1.0)
    assert checks.standard_error(2.0, 8, 50, 1.0) == pytest.approx(2.0 / 20.0)


def _row(spec, **kw):
    base = dict(sweep_value=20.0, scheme=spec.scheme, attack_mode=spec.attack.mode, p1=0.5,
                sigma_a_sq=0.2, p0=1.0, nmse_lr_emp=1e-3, nmse_lr_cf=None, nmse_ur_emp=0.03,
                nmse_ur_cf=0.03, trials=spec.trials, seed=0)
    base.update(kw)
    return simulate.ResultRow(**base)


def test_check_point_flags_each_broken_property():
    cfg = SystemConfig()
    csi = simulate.ExperimentSpec(cfg=cfg, scheme="wr_perfect_csi", trials=400)
    exact_lr = checks.lr_perfect_csi(4, 0.01, 0.5, 140)
    good = checks.point_of(csi, _row(csi, nmse_lr_emp=exact_lr, nmse_lr_cf=exact_lr))
    assert checks.check_point(good, None, None) == []
    bad_ur = checks.point_of(csi, _row(csi, nmse_lr_emp=exact_lr, nmse_ur_emp=0.06))
    assert checks.check_point(bad_ur, None, None) == ["ur_expectation"]
    over = checks.point_of(csi, _row(csi, nmse_lr_emp=exact_lr, p1=0.9, sigma_a_sq=0.1))
    assert "power_budget" in checks.check_point(over, None, None)
    short = checks.point_of(csi, _row(csi, trials=3))
    assert checks.check_point(short, None, None) == ["complete_row"]

    clean = simulate.ExperimentSpec(cfg=cfg, scheme="lmmse", trials=400)
    replay = replace(clean, attack=AttackScenario("known_pilot", 1.0))
    clean_pt = checks.point_of(clean, _row(clean))
    weak = checks.point_of(replay, _row(replay, nmse_lr_emp=2e-3))
    assert checks.check_point(weak, clean_pt, None) == ["replay_rise"]
    below = checks.point_of(replay, _row(replay, nmse_lr_emp=5e-4))
    assert checks.check_point(below, clean_pt, None) == ["attack_below_clean", "replay_rise"]

    guess_spec = simulate.ExperimentSpec(cfg=cfg, scheme="wr", attack=AttackScenario("guess", 1.0), trials=1000)
    guess = checks.point_of(guess_spec, _row(guess_spec, nmse_lr_emp=2e-3, nmse_lr_cf=1e-3))
    failed = checks.check_point(guess, None, None)
    assert failed == [checks.KNOWN_FAULT] and checks.is_known_fault(guess, failed)
    assert not checks.is_known_fault(good, [checks.KNOWN_FAULT])


def test_a_fig3a_round_passes_every_check(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "OUT_DIR", tmp_path)
    rnd = workloads.run_round("fig3a-clean", workloads.master_seed(1, 0))
    results = checks.check_sweep(rnd.specs, rnd.rows)
    assert len(results) == 18
    assert [bad for _, bad in results if bad] == []
    assert (tmp_path / "fig3a-clean.csv").read_text().count("\n") == 19
