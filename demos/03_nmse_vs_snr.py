"""Estimation quality vs SNR for the two schemes, Monte Carlo averaged.

Reproduces the headline comparison at demo scale (2000 trials per point;
pass a number on the command line for more): the semiblind scheme and the
linear MMSE baseline under the same power split, plus the perfect-CSI
lower bound where the transmitter nulls the jamming exactly.

Reading the table: the legitimate receiver's NMSE tracks the closed-form
prediction closely and sits near the lower bound for both schemes, while
the eavesdropper stays pinned at the design floor gamma = 0.03 no matter
the SNR.  The baseline's estimates at the legitimate receiver are a hair
better than the semiblind scheme's (Bayes shrinkage); what the semiblind
scheme buys is not this column, it is attack resistance (see demo 04).
"""

import sys

from dce import AttackScenario, ExperimentSpec, SystemConfig, run_experiment

trials = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
cfg = SystemConfig(gamma=0.03)
snrs = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0)

results = {}
for scheme in ("wr", "lmmse", "wr_perfect_csi"):
    spec = ExperimentSpec(
        cfg=cfg,
        scheme=scheme,
        attack=AttackScenario(),
        snr_db_grid=snrs,
        trials=trials,
        master_seed=1,
    )
    results[scheme] = run_experiment(spec)
    print(f"ran {scheme} ({trials} trials per point)")

print(f"\n{'SNR':>4} | {'semiblind lr':>12} {'predicted':>11} | {'lmmse lr':>11} | "
      f"{'bound lr':>11} | {'semiblind ur':>12} {'floor':>6}")
for i, snr in enumerate(snrs):
    wr, lm, pf = results["wr"][i], results["lmmse"][i], results["wr_perfect_csi"][i]
    print(f"{snr:>4g} | {wr.nmse_lr_emp:>12.4e} {wr.nmse_lr_cf:>11.4e} | "
          f"{lm.nmse_lr_emp:>11.4e} | {pf.nmse_lr_emp:>11.4e} | "
          f"{wr.nmse_ur_emp:>12.4e} {wr.nmse_ur_cf:>6.3f}")
