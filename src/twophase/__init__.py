"""Two-phase training for softplus networks with executable convergence checks.

The package splits into small numpy modules:

* linalg        -- the one rank rule (certified_rank) and min-norm solves
* network       -- softplus/BN forward maps and exact backpropagation
* losses        -- convex loss criteria with Lipschitz gradients
* data          -- distinguishable synthetic datasets and CSV ingestion
* expressivity  -- distinguishability, feature-rank checks, witness weights
* ntk           -- tangent-kernel assembly and its rank verdict
* protocol      -- the run configs (BaseAlgoConfig, TwoPhaseConfig) and errors
* trainer       -- the two-phase algorithm itself
* bounds        -- rate bounds and the distance constants they need
* cli           -- verify / train / sweep / gen-data commands

`import twophase` loads none of them: each public name below is loaded on
first use (PEP 562), with the module that defines it and what that module
imports, so `from twophase import synth_gen` never loads the trainer.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "bounds": ("gd_bound", "lazy_bound", "sgd_bound", "solve_last_layer_optimum"),
    "data": ("Dataset", "load_csv", "save_csv", "synth_gen"),
    "expressivity": ("check_distinguishability", "check_expressivity",
                     "construct_witness", "expressivity_trials"),
    "linalg": ("certified_rank", "min_norm_solve", "numerical_rank"),
    "losses": ("CROSS_ENTROPY", "SQUARED", "LossKind", "loss_grad", "loss_value"),
    "network": ("NetworkSpec", "Params", "backprop", "batchnorm_forward", "forward_hidden",
                "forward_output", "init_params", "params_from_flat", "random_params",
                "softplus"),
    "ntk": ("compute_kernel", "compute_ntk"),
    "protocol": ("BaseAlgoConfig", "TwoPhaseConfig"),
    "trainer": ("TrainLog", "compute_L_H", "perturb", "run_two_phase"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__})
