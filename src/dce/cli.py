"""Command-line interface.

Subcommands:
  simulate     Monte Carlo run for one scheme/attack over an SNR grid.
  power-alloc  Solve the pilot/jamming power split at one operating point.
  closed-form  Print the closed-form NMSE predictions.
  experiment   Reproduce a preset figure as CSV plus a provenance file.

Exit codes: 0 success, 1 usage error, 2 infeasible configuration,
3 I/O error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis
from .attack import AttackScenario
from .channel import SystemConfig
from .errors import InfeasibleConfigError, NumericalError
from .power_allocation import PowerAllocationProblem, solve, solve_grid_oracle
from .presets import FIGURES, allocation_rows, figure_specs
from .simulate import ExperimentSpec, emit_csv, run_experiment

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

_CFG_KEYS = {f.name for f in dataclasses.fields(SystemConfig)}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; keep 2 reserved for infeasibility
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    return raw


def _build_cfg(file_cfg: dict, **overrides) -> SystemConfig:
    merged = {k: v for k, v in file_cfg.items() if k in _CFG_KEYS}
    merged.update({k: v for k, v in overrides.items() if v is not None})
    return SystemConfig(**merged)


def _snr_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _cmd_simulate(args) -> int:
    file_cfg = _load_config(args.config)
    gamma = args.gamma if args.gamma is not None else file_cfg.get("gamma", 0.03)
    cfg = _build_cfg(file_cfg, gamma=gamma)
    spec = ExperimentSpec(
        cfg=cfg,
        scheme=args.scheme.replace("-", "_"),
        attack=AttackScenario(args.attack.replace("-", "_"), args.p0_bar),
        snr_db_grid=args.snr_db or tuple(file_cfg.get("snr_db_grid", (20.0,))),
        gamma=gamma,
        trials=args.trials if args.trials is not None else int(file_cfg.get("trials", 20000)),
        master_seed=args.seed if args.seed is not None else int(file_cfg.get("master_seed", 0)),
    )
    rows = run_experiment(spec, workers=args.workers)
    if args.out:
        emit_csv(rows, args.out)
        print(f"wrote {len(rows)} rows to {args.out}")
    for r in rows:
        if r.trials == 0:
            print(f"sweep={r.sweep_value:g}: infeasible configuration, skipped")
            continue
        cf = f" cf={r.nmse_lr_cf:.4e}" if r.nmse_lr_cf is not None else ""
        print(
            f"sweep={r.sweep_value:g} scheme={r.scheme} attack={r.attack_mode} "
            f"nmse_lr={r.nmse_lr_emp:.4e}{cf} nmse_ur={r.nmse_ur_emp:.4e}"
        )
    return EXIT_OK


def _cmd_power_alloc(args) -> int:
    file_cfg = _load_config(args.config)
    cfg = _build_cfg(
        file_cfg,
        gamma=args.gamma,
        sigma0_sq=analysis.snr_to_sigma0_sq(args.snr_db) if args.snr_db is not None else None,
    )
    problem = PowerAllocationProblem(cfg)
    alloc = solve(problem)
    print(f"x*      = {alloc.x:.6f}")
    print(f"y*      = {alloc.y:.6f}")
    print(f"z*      = {alloc.z:.6f}")
    print(f"p1      = {alloc.p1:.6f}")
    print(f"sigma_a_sq = {alloc.sigma_a_sq:.6f}")
    print(f"predicted nmse_lr = {analysis.nmse_lr_closed(cfg, alloc.p0, alloc.p1, alloc.sigma_a_sq):.6e}")
    print(f"predicted nmse_ur = {analysis.nmse_ur_closed(cfg, alloc.p1, alloc.sigma_a_sq):.6e}")
    if args.verify:
        oracle = solve_grid_oracle(problem, grid_points=args.grid_points)
        gap = (alloc.objective - oracle.objective) / oracle.objective if oracle.objective else 0.0
        print(
            f"grid oracle: x={oracle.x:.6f} y={oracle.y:.6f} "
            f"objective={oracle.objective:.6e} (solve objective {alloc.objective:.6e}, "
            f"relative gap {gap:+.2e})"
        )
    return EXIT_OK


def _cmd_closed_form(args) -> int:
    file_cfg = _load_config(args.config)
    cfg = _build_cfg(
        file_cfg,
        gamma=args.gamma,
        sigma0_sq=analysis.snr_to_sigma0_sq(args.snr_db) if args.snr_db is not None else None,
    )
    alloc = solve(PowerAllocationProblem(cfg))
    lr = analysis.nmse_lr_closed(cfg, alloc.p0, alloc.p1, alloc.sigma_a_sq)
    ur = analysis.nmse_ur_closed(cfg, alloc.p1, alloc.sigma_a_sq)
    print(f"allocation: p1={alloc.p1:.6f} sigma_a_sq={alloc.sigma_a_sq:.6f} p0={alloc.p0:.6f}")
    print(f"nmse_lr (clean)  = {lr:.6e}")
    print(f"nmse_ur          = {ur:.6e}")
    if args.p0_bar is not None:
        att = analysis.nmse_lr_attack_closed(cfg, alloc.p0, args.p0_bar, alloc.p1, alloc.sigma_a_sq)
        print(f"nmse_lr (attack) = {att:.6e}  (p0_bar={args.p0_bar:g})")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    # checked here too, since fig2 runs no Monte Carlo spec that would check them
    if args.trials < 1 or args.workers < 1:
        raise ValueError(f"--trials and --workers must be >= 1, got {args.trials} and {args.workers}")
    file_cfg = _load_config(args.config)
    cfg = _build_cfg(file_cfg)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out_dir}: {exc}") from exc

    specs, description = figure_specs(args.figure, cfg, trials=args.trials, master_seed=args.seed)
    rows = []
    if args.figure == "fig2":
        rows += allocation_rows(cfg, gamma=0.03, seed=args.seed)
    for spec in specs:
        rows += run_experiment(spec, workers=args.workers)
    csv_path = out_dir / f"{args.figure}.csv"
    emit_csv(rows, csv_path)

    prov_path = out_dir / f"{args.figure}.provenance.txt"
    with open(prov_path, "w", encoding="utf-8") as fh:
        fh.write(f"figure: {args.figure}\n")
        fh.write(f"description: {description}\n")
        fh.write(f"master_seed: {args.seed}\n")
        fh.write(f"trials: {args.trials}\n")
        fh.write(f"config: {dataclasses.asdict(cfg)}\n")
        for spec in specs:
            fh.write(
                f"spec: scheme={spec.scheme} attack={spec.attack.mode}"
                f" p0_bar={spec.attack.p0_bar} gamma={spec.gamma}"
                f" snr_db_grid={list(spec.snr_db_grid)}"
                f" t1_grid={list(spec.t1_grid) if spec.t1_grid else None}"
                f" p0_bar_grid={list(spec.p0_bar_grid) if spec.p0_bar_grid else None}\n"
            )
    print(f"wrote {csv_path} and {prov_path} ({len(rows)} rows)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dce", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="Monte Carlo NMSE run")
    sim.add_argument("--scheme", choices=["wr", "lmmse", "wr-perfect-csi"], default="wr")
    sim.add_argument("--attack", choices=["none", "known-pilot", "guess"], default="none")
    sim.add_argument("--p0-bar", type=float, default=1.0, help="attack power (active attacks)")
    sim.add_argument("--gamma", type=float, default=None)
    sim.add_argument("--snr-db", type=_snr_list, default=None, metavar="F[,F...]")
    sim.add_argument("--trials", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--config", default=None, help="JSON config file (flags override)")
    sim.add_argument("--out", default=None, help="CSV output path")
    sim.add_argument("--workers", type=int, default=1)
    sim.set_defaults(func=_cmd_simulate)

    pa = sub.add_parser("power-alloc", help="solve the pilot/jamming power split")
    pa.add_argument("--gamma", type=float, default=None)
    pa.add_argument("--snr-db", type=float, default=None)
    pa.add_argument("--config", default=None)
    pa.add_argument("--verify", action="store_true", help="cross-check against the grid oracle")
    pa.add_argument("--grid-points", type=int, default=2000)
    pa.set_defaults(func=_cmd_power_alloc)

    cf = sub.add_parser("closed-form", help="print closed-form NMSE predictions")
    cf.add_argument("--gamma", type=float, default=None)
    cf.add_argument("--snr-db", type=float, default=None)
    cf.add_argument("--p0-bar", type=float, default=None)
    cf.add_argument("--config", default=None)
    cf.set_defaults(func=_cmd_closed_form)

    ex = sub.add_parser("experiment", help="reproduce a preset figure")
    ex.add_argument("figure", choices=list(FIGURES))
    ex.add_argument("--out", required=True, help="output directory")
    ex.add_argument("--trials", type=int, default=20000)
    ex.add_argument("--seed", type=int, default=0)
    ex.add_argument("--config", default=None)
    ex.add_argument("--workers", type=int, default=1)
    ex.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors and --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InfeasibleConfigError as exc:
        print(f"infeasible configuration: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
