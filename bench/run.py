"""Benchmark of dce-sim's Monte Carlo sweeps.

    python3 bench/run.py --workload fig3a-clean --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root.  A run repeats whole sweeps of the
workload (rounds) until --seconds have passed, checks every row of every
round (see checks.py), and prints as its last line one JSON object with
``correct``, ``attempted`` and ``failed`` sweep points, and ``metrics``.
--trace 0 reports the end-to-end metrics from untraced rounds; --trace 1
spends half the time untraced and half under the layer trace of
spans.py, and reports the per-layer metrics.  --workload all runs each
workload in a fresh interpreter and prints each one's result line.
"""

import os

# One BLAS / OpenMP thread per process, set before numpy loads, so that
# the parent plus the pool workers stay within the machine's cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
SETUP_PROBES = 9

SETUP_PROBE = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.first_allocation(workloads.WORKLOADS[{name!r}].specs({seed}))
print("ready", flush=True)
"""


def setup_seconds(name: str, seed: int) -> float:
    """Median time from starting a fresh interpreter until the first trial could run."""
    code = SETUP_PROBE.format(src=str(SRC_DIR), bench=str(BENCH_DIR), name=name, seed=seed)
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - start)
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe for {name} failed with exit code {proc.returncode}")
    return statistics.median(times)


def peak_rss_mib(workers: int) -> float:
    """This process's peak resident set plus `workers` times the largest child's.

    Read before any child other than pool workers has ended, so the child
    peak is a pool worker's.  Pages a forked worker shares with this
    process count in both, as they do in each process's resident set.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0  # ru_maxrss is in KiB on Linux


def timed_rounds(name: str, seed: int, seconds: float, first: int = 0) -> list:
    rounds, start = [], perf_counter()
    while not rounds or perf_counter() - start < seconds:
        rounds.append(workloads.run_round(name, workloads.master_seed(seed, first + len(rounds))))
    return rounds


def pool_reference(name: str, rounds: list):
    """The first round rerun with one worker, for the bit-identity check and pool efficiency."""
    first = rounds[0]
    return workloads.run_round(name, first.specs[0].master_seed, workers=1)


def verdict(name: str, rounds: list, reference=None) -> tuple[bool, int, int]:
    """(correct, attempted, failed) over every row of every round."""
    attempted = failed = 0
    correct = True
    for index, rnd in enumerate(rounds):
        results = checks.check_sweep(rnd.specs, rnd.rows)
        if index == 0 and reference is not None:
            same = [r for part in reference.rows for r in part] == [r for part in rnd.rows for r in part]
            if not same:
                results = [(pt, bad + ["pool_bit_identity"]) for pt, bad in results]
        for pt, bad in results:
            attempted += 1
            if not bad:
                continue
            failed += 1
            if not checks.is_known_fault(pt, bad):
                correct = False
                row = pt.row
                print(
                    f"{name}: seed {row.seed} {row.scheme}/{row.attack_mode} at {row.sweep_value:g} "
                    f"fails {', '.join(bad)}",
                    file=sys.stderr,
                )
    return correct, attempted, failed


def median_rate(rounds: list, scheme=None) -> float:
    return statistics.median(r.trials_per_s(scheme) for r in rounds)


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    workloads.warm_up(name)
    workers = workloads.WORKLOADS[name].workers
    rounds = timed_rounds(name, seed, seconds)
    peak = peak_rss_mib(workers)
    reference = pool_reference(name, rounds) if workers > 1 else None
    setup = setup_seconds(name, seed)
    correct, attempted, failed = verdict(name, rounds, reference)
    metrics = {
        "trials_per_s": (median_rate(rounds), "trials/s"),
        "trials_per_s.wr": (median_rate(rounds, "wr"), "trials/s"),
        "trials_per_s.lmmse": (median_rate(rounds, "lmmse"), "trials/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mib": (peak, "MiB"),
    }
    return result(correct, attempted, failed, metrics)


def per_layer(name: str, seed: int, seconds: float) -> dict:
    workloads.warm_up(name)
    workers = workloads.WORKLOADS[name].workers
    plain = timed_rounds(name, seed, seconds / 2)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = timed_rounds(name, seed, seconds / 2, first=len(plain))
    tracer.save(workloads.OUT_DIR / f"{name}.spans.npz")
    reference = pool_reference(name, plain) if workers > 1 else None
    correct, attempted, failed = verdict(name, plain + traced, reference)

    trials = sum(r.trials for r in traced)
    summary = tracer.summary()
    calls = {span: summary.get(span, (0, 0.0, 0.0))[0] for span in
             ("linalg.svd", "linalg.substream", "power_allocation.solve")}
    solve_seconds = summary.get("power_allocation.solve", (0, 0.0, 0.0))[1]
    metrics = {
        f"{layer}.self_us_per_trial": (seconds_ * 1e6 / trials, "us")
        for layer, seconds_ in tracer.layer_self_seconds().items()
        if layer in spans.TRIAL_LAYERS
    }
    metrics.update({
        "linalg.svd.calls_per_trial": (calls["linalg.svd"] / trials, "count"),
        "linalg.substream.calls_per_trial": (calls["linalg.substream"] / trials, "count"),
        "linalg.complex_gaussian.bytes_per_trial": (16 * tracer.gaussian_entries / trials, "B"),
        "power_allocation.solve.calls": (calls["power_allocation.solve"] / len(traced), "count"),
        "power_allocation.solve_us": (solve_seconds * 1e6 / max(calls["power_allocation.solve"], 1), "us"),
        "simulate.pools_started": (tracer.pools_started / len(traced), "count"),
        # one-worker sweep seconds / (workers x pool sweep seconds), same seed
        "simulate.pool_efficiency": (
            reference.seconds / (workers * plain[0].seconds) if reference else 1.0, "ratio"),
        "trace.overhead_ratio": (median_rate(traced) / median_rate(plain), "ratio"),
    })
    return result(correct, attempted, failed, metrics)


def result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own interpreter, so set-up and memory are its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        one = json.loads(done.stdout.splitlines()[-1])
        print(name, json.dumps(one), flush=True)
        merged["correct"] = merged["correct"] and one["correct"]
        merged["attempted"] += one["attempted"]
        merged["failed"] += one["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in one["metrics"].items()})
    return merged


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        out = run_all(args)
    else:
        workloads.OUT_DIR.mkdir(exist_ok=True)
        run = per_layer if args.trace else end_to_end
        out = run(args.workload, args.seed, args.seconds)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    if not (SRC_DIR / "dce" / "__init__.py").is_file():
        sys.exit(f"dce sources not found at {SRC_DIR}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC_DIR))
    import checks
    import spans
    import workloads

    sys.exit(main())
