"""How the training power budget splits between pilots and jamming.

The design question: given a total forward power budget, how much goes
into pilots (helping everyone's channel estimate, friend and foe alike)
and how much into null-space jamming (hurting only the eavesdropper)?
The constraint is a floor gamma on the eavesdropper's estimation NMSE.

This script sweeps the SNR, solves the split at each point, and
cross-checks the closed-form solution against a brute-force grid scan.
"""

import dataclasses

from dce import (
    PowerAllocationProblem,
    SystemConfig,
    gamma_bounds,
    nmse_lr_closed,
    nmse_ur_closed,
    snr_to_sigma0_sq,
    solve,
    solve_grid_oracle,
)

cfg = SystemConfig()
print(f"antennas: tx={cfg.n_t}, receiver={cfg.n_l}, eavesdropper={cfg.n_u}; "
      f"training lengths t0={cfg.t0}, t1={cfg.t1}; budget p_ave={cfg.p_ave}")

for gamma in (0.03, 0.1):
    print(f"\n=== eavesdropper NMSE floor gamma = {gamma} ===")
    print(f"{'SNR dB':>7} {'p1 (pilots)':>12} {'jamming pwr':>12} {'pred lr':>12} {'pred ur':>9}")
    for snr_db in (5, 10, 15, 20, 25, 30):
        point = dataclasses.replace(cfg, gamma=gamma, sigma0_sq=snr_to_sigma0_sq(snr_db))
        lo, hi = gamma_bounds(point)
        if not (lo <= gamma <= hi):
            print(f"{snr_db:>7} infeasible (gamma range [{lo:.2e}, {hi:.2e}])")
            continue
        alloc = solve(PowerAllocationProblem(point))
        jam = (point.n_t - point.n_l) * alloc.sigma_a_sq
        lr = nmse_lr_closed(point, alloc.p0, alloc.p1, alloc.sigma_a_sq)
        ur = nmse_ur_closed(point, alloc.p1, alloc.sigma_a_sq)
        print(f"{snr_db:>7} {alloc.p1:>12.5f} {jam:>12.5f} {lr:>12.4e} {ur:>9.4f}")

# the split is remarkably stable across SNR: pilots take roughly half the
# budget and the eavesdropper constraint stays exactly active (pred ur == gamma)

print("\n=== closed form vs brute-force grid (gamma = 0.03, 20 dB) ===")
problem = PowerAllocationProblem(cfg)
alloc = solve(problem)
oracle = solve_grid_oracle(problem, grid_points=2000)
print(f"closed form: x={alloc.x:.6f}  y={alloc.y:.6f}  objective={alloc.objective:.6e}")
print(f"grid oracle: x={oracle.x:.6f}  y={oracle.y:.6f}  objective={oracle.objective:.6e}")
print(f"relative objective gap: {(alloc.objective - oracle.objective) / oracle.objective:+.2e}")
