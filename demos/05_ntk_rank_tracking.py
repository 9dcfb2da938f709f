# %% [markdown]
# # Tangent-kernel rank through both training phases
#
# The kernel `K = J J^T` (J the output Jacobian over the batch, rows
# ordered sample-major) has rank `n * m_y` exactly when the linearized
# model can reach every output table.  The head block of J is
# `I kron [h, 1]` per sample, so full feature row rank after the
# perturbation lifts to full kernel rank, and head-only training keeps it.
# `compute_kernel` sums K layer by layer without forming J, over the trace
# of one `forward_hidden` pass, and `compute_ntk` certifies full rank by one
# Cholesky factorization, taking the spectrum only when it is asked for or
# the factorization fails.  Its verdict is a `linalg.Rank`, the type every
# rank check in the package returns.

# %%
import numpy as np

from twophase import (
    BaseAlgoConfig,
    NetworkSpec,
    TwoPhaseConfig,
    compute_kernel,
    compute_ntk,
    forward_hidden,
    init_params,
    run_two_phase,
    synth_gen,
)
from twophase.losses import SQUARED

ds = synth_gen(n=8, m_x=4, m_y=2, c_min=0.03, kind="regression", seed=1)
spec = NetworkSpec(widths=(4, 8, 10), output_dim=2, sharpness=10.0)


def kernel_at(p):
    """K at the pass of p on the dataset."""
    return compute_kernel(p, forward_hidden(p, ds.x))


params = init_params(spec, seed=0)
snap = compute_ntk(kernel_at(params))
print(f"at init: kernel {snap.size} x {snap.size}, rank {snap.rank} "
      f"(full would be {ds.n * ds.output_dim})")
print("top of spectrum:", np.round(snap.spectrum[:4], 3))

# %% [markdown]
# Now run the two phases.  The trainer ranks the kernel at tau, and every
# later kernel's verdict is made against that reference (`reference=`), at
# its threshold, so the rank cannot flap on the tolerance boundary: the
# kernel kept its rank iff `current.rank >= reference.rank`.  Head GD is
# deterministic, so a run cut at step t ends at the parameters of step t.

# %%
base = BaseAlgoConfig(variant="gd", minibatch=8, seed=0)
cfg = TwoPhaseConfig(tau=30, total_steps=180, phase2_mode="last_layer_gd", seed=0)
_, log = run_two_phase(params, ds, base, cfg, SQUARED)

p_tau = log.params_at_tau
reference = compute_ntk(kernel_at(p_tau))
print(f"reference at tau: rank {reference.rank}")

for t in range(cfg.tau + 25, cfg.total_steps + 1, 25):
    p_t, _ = run_two_phase(params, ds, base,
                           TwoPhaseConfig(tau=cfg.tau, total_steps=t, seed=0), SQUARED)
    current = compute_ntk(kernel_at(p_t), reference=reference)
    print(f"step {t:>4}: rank {current.rank}, "
          f"preserved={current.rank >= reference.rank}")

# %% [markdown]
# Head-only updates freeze the features, so the head block of J never
# moves; the hidden columns do change (they see the head weights), but the
# rank can only grow from the reference.  The lazy mode instead updates all
# parameters at a uniform rate and tests this rank every step,
# rejecting the step and halving the rate if it would fail.

# %%
cfg_lazy = TwoPhaseConfig(tau=30, total_steps=60, phase2_mode="lazy_full",
                          lazy_eta_bar=0.4, seed=0)
_, log_lazy = run_two_phase(params, ds, base, cfg_lazy, SQUARED)
ranks = sorted({r.ntk_rank for r in log_lazy.phase2_records()})
print(f"lazy phase kernel ranks seen: {ranks}, rate halvings: {log_lazy.rank_events}")
