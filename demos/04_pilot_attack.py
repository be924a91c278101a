"""What an active eavesdropper does to each scheme.

During reverse training the eavesdropper transmits its own pilots so the
transmitter's uplink estimate (and hence the jamming null space) gets
steered wrong and the jamming leaks onto the legitimate link.

Two attack modes:
  * replay ("known_pilot"): only possible against the baseline scheme,
    whose pilots are public.  It steers the transmitter's estimate toward
    the sum channel and wrecks the legitimate receiver's accuracy.
  * guessing ("guess"): all that is possible against the semiblind
    scheme, whose pilots are private.  The guessed pilots cannot steer
    the estimate, but their received energy still contaminates the
    autocorrelation the blind step relies on.

The second effect is worth watching: the first-order closed form predicts
a mild hit, but at contamination power comparable to the pilot power the
contamination's own autocorrelation deflects the blind subspace, and the
measured degradation is far larger than that prediction.  The scheme is
robust to *steering*, not to barrage contamination of the reverse phase.
"""

import sys

from dce import AttackScenario, ExperimentSpec, SystemConfig, run_experiment

trials = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
cfg = SystemConfig(gamma=0.03)
snr = (25.0,)

def run(scheme, attack):
    spec = ExperimentSpec(
        cfg=cfg, scheme=scheme, attack=attack, snr_db_grid=snr,
        trials=trials, master_seed=2,
    )
    return run_experiment(spec)[0]

print(f"25 dB, gamma = 0.03, {trials} trials per row\n")
lm_clean = run("lmmse", AttackScenario())
lm_att = run("lmmse", AttackScenario("known_pilot", 1.0))
print("baseline scheme (public pilots):")
print(f"  clean:            lr nmse = {lm_clean.nmse_lr_emp:.4e}")
print(f"  replayed pilots:  lr nmse = {lm_att.nmse_lr_emp:.4e} "
      f"({lm_att.nmse_lr_emp / lm_clean.nmse_lr_emp:.0f}x worse, "
      f"near the eavesdropper floor {lm_att.nmse_ur_emp:.3f})")

wr_clean = run("wr", AttackScenario())
wr_att = run("wr", AttackScenario("guess", 1.0))
print("\nsemiblind scheme (private pilots):")
print(f"  clean:            lr nmse = {wr_clean.nmse_lr_emp:.4e}")
print(f"  guessed pilots:   lr nmse = {wr_att.nmse_lr_emp:.4e} "
      f"({wr_att.nmse_lr_emp / wr_clean.nmse_lr_emp:.1f}x worse; "
      f"first-order prediction was {wr_att.nmse_lr_cf:.4e})")

print("\nattack power sweep against the semiblind scheme:")
sweep_spec = ExperimentSpec(
    cfg=cfg, scheme="wr", attack=AttackScenario("guess", 1.0), snr_db_grid=snr,
    trials=trials, master_seed=2,
    p0_bar_grid=tuple(round(0.1 * k, 1) for k in range(1, 11)),
)
for row in run_experiment(sweep_spec):
    bar = "#" * max(1, round(row.nmse_lr_emp / wr_clean.nmse_lr_emp))
    print(f"  attack power {row.sweep_value:>4.1f}: lr nmse = {row.nmse_lr_emp:.4e}  {bar}")
print("  (bar length = degradation factor over the clean run)")
