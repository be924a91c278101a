"""The benchmark's workloads and one timed sweep of each.

A workload is a preset figure from ``dce.presets.figure_specs`` at a fixed
trial count, block length and worker count.  Round r of a run with seed s
runs every spec of the figure with master seed ``s * 1000 + r``, through
``dce.simulate.run_experiment``, then writes the rows with ``emit_csv``.
The dce entry points are looked up on their modules at call time, so a
trace installed by ``spans.installed`` sees the outermost calls too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import dce.presets as presets
import dce.simulate as simulate
from dce.channel import SystemConfig
from dce.power_allocation import PowerAllocationProblem, solve

from checks import operating_point

OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass(frozen=True)
class Workload:
    figure: str
    trials: int  # per sweep point
    workers: int = 1
    block: int | None = None  # t0 = t1 = block; None keeps the default 140

    def specs(self, master_seed: int):
        cfg = SystemConfig() if self.block is None else SystemConfig(t0=self.block, t1=self.block)
        return presets.figure_specs(self.figure, cfg, trials=self.trials, master_seed=master_seed)[0]


# Trial counts: fig4a-attack needs 1000 per point so that the wr + guess
# closed-form miss at 5 dB (1.26x) stays beyond 5 standard errors on
# every seed.  fig3c-pool runs 600, where rounds of about 2.5 s keep the
# run-to-run spread of the two-process timings near 4%; at 300 it was 8%
# for the per-scheme rates.  The others run rounds of one to two seconds.
WORKLOADS = {
    "fig3a-clean": Workload("fig3a", trials=400),
    "fig4a-attack": Workload("fig4a", trials=1000),
    "long-block": Workload("fig3a", trials=200, block=1120),
    "fig3c-pool": Workload("fig3c", trials=600, workers=2),
}


def master_seed(seed: int, round_index: int) -> int:
    return seed * 1000 + round_index


def first_allocation(specs):
    """Power split of the first sweep point, as run_experiment solves it."""
    spec = specs[0]
    sigma0_sq, t1, _ = operating_point(spec, spec.sweep()[0][1])
    return solve(PowerAllocationProblem(replace(spec.cfg, gamma=spec.gamma, t1=t1, sigma0_sq=sigma0_sq)))


@dataclass
class Round:
    specs: list
    rows: list  # one list of ResultRow per spec
    spec_seconds: list[float]
    seconds: float

    @property
    def trials(self) -> int:
        return sum(r.trials for rows in self.rows for r in rows)

    def trials_per_s(self, scheme: str | None = None) -> float:
        if scheme is None:
            return self.trials / self.seconds
        picked = [i for i, s in enumerate(self.specs) if s.scheme == scheme]
        trials = sum(r.trials for i in picked for r in self.rows[i])
        return trials / sum(self.spec_seconds[i] for i in picked)


def run_round(name: str, seed: int, workers: int | None = None) -> Round:
    """One full sweep of the workload: every spec, then the CSV write."""
    workload = WORKLOADS[name]
    specs = workload.specs(seed)
    rows, spec_seconds = [], []
    start = perf_counter()
    for spec in specs:
        t = perf_counter()
        rows.append(simulate.run_experiment(spec, workers=workload.workers if workers is None else workers))
        spec_seconds.append(perf_counter() - t)
    simulate.emit_csv([r for part in rows for r in part], OUT_DIR / f"{name}.csv")
    return Round(specs, rows, spec_seconds, perf_counter() - start)


def warm_up(name: str) -> None:
    """Two trials per point of every spec, so lazy imports and caches fill untimed."""
    for spec in WORKLOADS[name].specs(0):
        simulate.run_experiment(replace(spec, trials=2))
