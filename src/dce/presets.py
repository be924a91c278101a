"""Canned experiment definitions reproducing the reference figures.

Each preset returns the experiment specs to run plus a one-line
description; figure 2 is allocation-only and needs no trials.  Grid
choices not fixed by the scenario (the forward-length sweep and the
attack-power sweep operating point) are documented here:

 * fig3c sweeps t1 over 20..280 in steps of 20 at 25 dB.
 * fig4c sweeps the attack power over 0.1..1.0 at 25 dB.
"""

from __future__ import annotations

from dataclasses import replace

from .analysis import snr_to_sigma0_sq
from .attack import AttackScenario
from .channel import SystemConfig
from .power_allocation import PowerAllocationProblem, solve
from .simulate import ExperimentSpec, ResultRow

__all__ = ["FIGURES", "figure_specs", "allocation_rows"]

SNR_GRID = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
T1_GRID = tuple(range(20, 281, 20))
P0_BAR_GRID = tuple(round(0.1 * k, 1) for k in range(1, 11))

FIGURES = ("fig2", "fig3a", "fig3b", "fig3c", "fig4a", "fig4b", "fig4c")


def allocation_rows(cfg: SystemConfig, snr_db_grid=SNR_GRID, seed: int = 0) -> list[ResultRow]:
    """Power split per SNR point at gamma = 0.03, no simulation (figure 2)."""
    rows = []
    for snr_db in snr_db_grid:
        point = replace(cfg, gamma=0.03, sigma0_sq=snr_to_sigma0_sq(snr_db))
        alloc = solve(PowerAllocationProblem(point))
        rows.append(
            ResultRow(
                sweep_value=snr_db,
                scheme="wr",
                attack_mode="none",
                p1=alloc.p1,
                sigma_a_sq=alloc.sigma_a_sq,
                p0=alloc.p0,
                nmse_lr_emp=None,
                nmse_lr_cf=None,
                nmse_ur_emp=None,
                nmse_ur_cf=None,
                trials=0,
                seed=seed,
            )
        )
    return rows


def figure_specs(
    name: str,
    cfg: SystemConfig,
    trials: int = 20000,
    master_seed: int = 0,
) -> tuple[list[ExperimentSpec], str]:
    """Experiment specs for one preset figure.

    All schemes in a preset share the master seed, so their trials are
    paired draw-for-draw.
    """
    if name not in FIGURES:
        raise ValueError(f"unknown figure {name!r}, expected one of {FIGURES}")

    def spec(scheme, gamma, attack=None, **kw):
        return ExperimentSpec(
            cfg=replace(cfg, gamma=gamma),
            scheme=scheme,
            attack=attack or AttackScenario(),
            trials=trials,
            master_seed=master_seed,
            **kw,
        )

    if name == "fig2":
        return [], "power allocation between forward pilots and jamming vs SNR"
    if name in ("fig3a", "fig3b"):
        gamma = 0.03 if name == "fig3a" else 0.1
        specs = [
            spec(s, gamma, snr_db_grid=SNR_GRID)
            for s in ("wr", "lmmse", "wr_perfect_csi")
        ]
        return specs, f"NMSE vs SNR, all schemes, gamma={gamma}"
    if name == "fig3c":
        specs = [
            spec(s, 0.03, snr_db_grid=(25.0,), t1_grid=T1_GRID)
            for s in ("wr", "lmmse", "wr_perfect_csi")
        ]
        return specs, "NMSE vs forward training length at 25 dB, gamma=0.03"
    if name in ("fig4a", "fig4b"):
        gamma = 0.03 if name == "fig4a" else 0.1
        specs = [
            spec("lmmse", gamma, snr_db_grid=SNR_GRID),
            spec("lmmse", gamma, AttackScenario("known_pilot", 1.0), snr_db_grid=SNR_GRID),
            spec("wr", gamma, snr_db_grid=SNR_GRID),
            spec("wr", gamma, AttackScenario("guess", 1.0), snr_db_grid=SNR_GRID),
        ]
        return specs, f"NMSE vs SNR under pilot contamination, gamma={gamma}"
    # fig4c
    specs = [
        spec("wr", 0.03, AttackScenario("guess", 1.0), snr_db_grid=(25.0,), p0_bar_grid=P0_BAR_GRID)
    ]
    return specs, "NMSE vs attack power at 25 dB, gamma=0.03"
