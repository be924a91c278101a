"""Two-way training discriminatory channel estimation toolkit.

A transmitter and a legitimate receiver run a reverse-then-forward
training exchange; artificial noise hidden in the null space of the
transmitter's uplink estimate jams channel estimation at an eavesdropper.
The package provides the semiblind whitening-rotation estimators, the
linear MMSE baseline, closed-form NMSE predictions, the optimal
pilot/jamming power split, the pilot-contamination attack, and a
reproducible Monte Carlo harness with a CLI.
"""

from .analysis import (
    empirical_nmse,
    nmse_lr_attack_closed,
    nmse_lr_closed,
    nmse_ur_closed,
    snr_to_sigma0_sq,
)
from .attack import AttackScenario, contaminate_reverse
from .channel import ChannelRealization, SystemConfig, sample_channels
from .errors import DceError, DimensionError, InfeasibleConfigError, NumericalError
from .estimators import (
    blind_whitening_tx,
    lmmse_downlink,
    lmmse_uplink,
    procrustes_rotation,
    wr_estimate_lr,
    wr_estimate_ur,
)
from .linalg import RngStream, complex_gaussian, orthonormal_rows
from .power_allocation import (
    PowerAllocation,
    PowerAllocationProblem,
    feasible_x_interval,
    gamma_bounds,
    solve,
    solve_grid_oracle,
)
from .simulate import ExperimentSpec, ResultRow, emit_csv, read_csv, run_experiment, run_trial
from .training import (
    ForwardSignal,
    ReverseSignal,
    build_an_basis,
    build_attack_signal,
    build_forward_signal,
    build_reverse_signal,
)

__version__ = "0.1.0"
