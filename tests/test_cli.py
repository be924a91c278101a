import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dce.cli import main
from dce.presets import FIGURES
from dce.simulate import CSV_HEADER, read_csv


def test_power_alloc_reference(capsys):
    assert main(["power-alloc", "--gamma", "0.03", "--snr-db", "20"]) == 0
    out = capsys.readouterr().out
    assert "x*      = 17.243902" in out
    assert "p1      = 0.492683" in out
    assert "sigma_a_sq = 0.253659" in out


def test_power_alloc_verify_runs_oracle(capsys):
    assert main(["power-alloc", "--gamma", "0.1", "--snr-db", "20", "--verify", "--grid-points", "500"]) == 0
    out = capsys.readouterr().out
    assert "grid oracle" in out


def test_power_alloc_infeasible_gamma_exit_2(capsys):
    assert main(["power-alloc", "--gamma", "3.0", "--snr-db", "20"]) == 2
    assert "infeasible" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["power-alloc", "closed-form"])
def test_zero_wiretap_variance_exit_2(command, tmp_path, capsys):
    cfg_path = tmp_path / "g0.json"
    cfg_path.write_text(json.dumps({"sigma_g_sq": 0.0}))
    assert main([command, "--snr-db", "20", "--config", str(cfg_path)]) == 2
    assert "infeasible configuration" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,config",
    [
        ("power-alloc", {"sigma_g_sq": 1e308}),
        ("simulate", {"sigma_g_sq": 1e308}),
        ("simulate", {"sigma_h_sq": float("inf")}),
    ],
)
def test_non_finite_values_exit_4(command, config, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))  # writes Infinity, which json reads back
    extra = ["--trials", "5", "--out", str(tmp_path / "x.csv")] if command == "simulate" else []
    assert main([command, "--snr-db", "20", "--config", str(cfg_path), *extra]) == 4
    assert "numerical failure: non-finite" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_closed_form_with_attack(capsys):
    assert main(["closed-form", "--gamma", "0.03", "--snr-db", "20", "--p0-bar", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "nmse_lr (clean)" in out
    assert "nmse_ur" in out
    assert "nmse_lr (attack)" in out


def test_simulate_writes_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    rc = main(
        [
            "simulate",
            "--scheme", "wr",
            "--attack", "none",
            "--gamma", "0.03",
            "--snr-db", "20",
            "--trials", "50",
            "--seed", "3",
            "--out", str(out),
        ]
    )
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) == 1
    assert rows[0].scheme == "wr" and rows[0].trials == 50


def test_simulate_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"t0": 70, "t1": 70, "gamma": 0.1, "trials": 10}))
    out = tmp_path / "run.csv"
    rc = main(
        ["simulate", "--config", str(cfg_path), "--snr-db", "20", "--trials", "20", "--out", str(out)]
    )
    assert rc == 0
    rows = read_csv(out)
    assert rows[0].trials == 20  # flag wins over file
    # allocation used t1 = 70 and gamma = 0.1 from the file:
    # x = (1 + 0.01) * 70 / (0.1 * 70 + 4), p1 = 4 x / 70
    assert rows[0].p1 == pytest.approx(1.01 * 70 / 11 * 4 / 70, rel=1e-6)


def test_simulate_io_error_exit_3(tmp_path, capsys):
    rc = main(
        ["simulate", "--snr-db", "20", "--trials", "2", "--out", str(tmp_path / "missing" / "x.csv")]
    )
    assert rc == 3


def test_experiment_fig2(tmp_path):
    rc = main(["experiment", "fig2", "--out", str(tmp_path)])
    assert rc == 0
    csv_path = tmp_path / "fig2.csv"
    rows = read_csv(csv_path)
    assert len(rows) == 6  # one row per SNR point
    assert all(r.trials == 0 and r.p1 is not None for r in rows)
    assert (tmp_path / "fig2.provenance.txt").exists()


def test_experiment_small_fig4c(tmp_path):
    rc = main(["experiment", "fig4c", "--out", str(tmp_path), "--trials", "10"])
    assert rc == 0
    rows = read_csv(tmp_path / "fig4c.csv")
    assert [r.sweep_value for r in rows] == [pytest.approx(0.1 * k) for k in range(1, 11)]
    assert all(r.attack_mode == "guess" for r in rows)


def test_usage_error_exit_1(tmp_path):
    assert main(["simulate", "--scheme", "bogus"]) == 1
    assert main(["simulate", "--attack", "known-pilot", "--trials", "2", "--workers", "2"]) == 1  # wr pilots are private
    assert main(["no-such-command"]) == 1
    assert main(["simulate", "--snr-db", "20", "--trials", "-5"]) == 1
    for workers in ("0", "-3"):
        assert main(["simulate", "--snr-db", "20", "--trials", "10", "--workers", workers]) == 1
    # fig2 runs no Monte Carlo spec, so only the command itself checks its flags
    assert main(["experiment", "fig2", "--out", str(tmp_path), "--trials", "-5"]) == 1
    assert main(["experiment", "fig2", "--out", str(tmp_path), "--workers", "0"]) == 1
    assert main(["experiment", "fig2", "--out", str(tmp_path), "--workers", "0", "--trials", "-5"]) == 1


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from(["simulate", *(f"experiment {fig}" for fig in FIGURES)]),
    trials=st.integers(-3, 2),
    workers=st.integers(-3, 2),
)
def test_fewer_than_one_trial_or_worker_exits_1_without_csv(command, trials, workers):
    assume(trials < 1 or workers < 1)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        if command == "simulate":
            argv, csv_path = ["simulate", "--snr-db", "20", "--out", str(out)], out
        else:
            figure = command.split()[1]
            argv, csv_path = ["experiment", figure, "--out", str(out)], out / f"{figure}.csv"
        assert main([*argv, "--trials", str(trials), "--workers", str(workers)]) == 1
        assert not csv_path.exists()


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dce.cli", "power-alloc", "--gamma", "0.03", "--snr-db", "20"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "x*" in proc.stdout
