"""Two-phase training for softplus networks with executable convergence checks.

The package splits into small numpy modules:

* linalg        -- the one rank rule (certified_rank) and min-norm solves
* network       -- softplus/BN forward maps and exact backpropagation
* losses        -- convex loss criteria with Lipschitz gradients
* data          -- distinguishable synthetic datasets and CSV ingestion
* expressivity  -- distinguishability, feature-rank checks, witness weights
* ntk           -- tangent-kernel assembly and its rank verdict
* trainer       -- the two-phase algorithm itself
* bounds        -- rate bounds and the distance constants they need
* cli           -- verify / train / sweep / gen-data commands
"""

from .bounds import gd_bound, lazy_bound, sgd_bound, solve_last_layer_optimum
from .data import Dataset, load_csv, save_csv, synth_gen
from .expressivity import (
    check_distinguishability,
    check_expressivity,
    construct_witness,
    expressivity_trials,
)
from .linalg import certified_rank, min_norm_solve, numerical_rank
from .losses import CROSS_ENTROPY, SQUARED, LossKind, loss_grad, loss_value
from .network import (
    NetworkSpec,
    Params,
    backprop,
    batchnorm_forward,
    forward_hidden,
    forward_output,
    init_params,
    params_from_flat,
    random_params,
    softplus,
)
from .ntk import compute_jacobian, compute_kernel, compute_ntk
from .trainer import (
    BaseAlgoConfig,
    TrainLog,
    TwoPhaseConfig,
    compute_L_H,
    perturb,
    run_two_phase,
)

__version__ = "0.1.0"
