"""One two-way training exchange, step by step.

Walks a single channel realization through both phases of the semiblind
scheme and prints what each side knows at every stage:

  1. the legitimate receiver sends private random pilots,
  2. the transmitter blindly recovers the uplink whitening factor from
     the received autocorrelation (never learning the pilots),
  3. jamming goes into the null space of that estimate,
  4. the legitimate receiver recovers its channel from the public forward
     pilots via the whitening + rotation split, which lands exactly on the
     least-squares pilot correlation (what the Monte Carlo trial computes),
  5. the eavesdropper tries the same and eats the jamming.
"""

import numpy as np

from dce import (
    RngStream,
    SystemConfig,
    blind_whitening_tx,
    build_an_basis,
    build_forward_signal,
    build_reverse_signal,
    complex_gaussian,
    empirical_nmse,
    nmse_lr_closed,
    nmse_ur_closed,
    sample_channels,
    wr_estimate_lr,
    wr_estimate_ur,
)

cfg = SystemConfig()  # 4x2 system, t0 = t1 = 140, noise variance 0.01
p0, p1, sigma_a_sq = 1.0, 0.49268, 0.25366  # the gamma = 0.03 split

rng = RngStream(master_seed=7).substream()
ch = sample_channels(cfg, rng)
print(f"downlink channel h: {ch.h.shape}, wiretap channel g: {ch.g.shape}")

# --- reverse phase ---------------------------------------------------------
reverse = build_reverse_signal(cfg, p0, mode="random", rng=rng)
x0 = ch.h.T @ reverse.s0 + complex_gaussian(rng, cfg.n_t, cfg.t0, cfg.sigma0_sq)
w0 = blind_whitening_tx(x0, p0, cfg.t0, cfg.n_l)
print(f"blind whitening estimate: {w0.shape} from the {x0.shape} observation")

# how well did the blind step capture the uplink column space?
q_true, _ = np.linalg.qr(ch.h.T)
misalign = np.linalg.norm(w0 - q_true @ (q_true.conj().T @ w0)) / np.linalg.norm(w0)
print(f"subspace misalignment of the blind estimate: {misalign:.2e}")

# --- jamming design --------------------------------------------------------
an_basis = build_an_basis(w0)
leak = np.linalg.norm(ch.h @ an_basis) ** 2
print(f"jamming leakage into the legitimate link |h n|^2: {leak:.2e} "
      f"(zero for a perfect reverse estimate)")

# --- forward phase ---------------------------------------------------------
forward = build_forward_signal(cfg, an_basis, p1, sigma_a_sq, rng)
x1 = ch.h @ forward.s1 + complex_gaussian(rng, cfg.n_l, cfg.t1, cfg.sigma0_sq)
y1 = ch.g @ forward.s1 + complex_gaussian(rng, cfg.n_u, cfg.t1, cfg.sigma0_sq)

h_hat, _, q1 = wr_estimate_lr(x1, forward.s1_pilot, p1, cfg.t1, cfg.n_t)
g_hat, _, _ = wr_estimate_ur(y1, forward.s1_pilot, p1, cfg.t1, cfg.n_t)
print(f"rotation factor unitary to {np.linalg.norm(q1 @ q1.conj().T - np.eye(cfg.n_l)):.1e}")
x = p1 * cfg.t1 / cfg.n_t
ls = x1 @ forward.s1_pilot.conj().T / x
print(f"whitening-rotation estimate vs pilot correlation X1 S1p^H / x: "
      f"relative gap {np.linalg.norm(h_hat - ls) / np.linalg.norm(ls):.1e}")

print(f"\nlegitimate receiver NMSE: {empirical_nmse(h_hat, ch.h):.3e} "
      f"(prediction {nmse_lr_closed(cfg, p0, p1, sigma_a_sq):.3e})")
print(f"eavesdropper NMSE:        {empirical_nmse(g_hat, ch.g):.3e} "
      f"(prediction {nmse_ur_closed(cfg, p1, sigma_a_sq):.3e})")
print("\nsingle-trial numbers scatter around the predictions; "
      "run demo 03 for converged averages")
