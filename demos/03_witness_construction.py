# %% [markdown]
# # Constructive witness for the expressivity condition
#
# Random draws certify expressivity empirically; the witness certifies it
# constructively.  The idea: build hidden weights so that the leading
# n x n block of the feature matrix is strictly diagonally dominant, hence
# nonsingular, hence `[h, 1]` has row rank n.
#
# Unit i of the decisive layer gets a scaled copy of input i plus a bias
# that cancels the cross terms, so sample i lands far above zero on its own
# unit and far below zero on every other unit.  A shared scale doubles from
# 1 until dominance is certified numerically.

# %%
import numpy as np

from twophase import NetworkSpec, check_expressivity, construct_witness, forward_hidden, synth_gen
from twophase.expressivity import dominance_margins

# narrow regime: inputs live in R^3 but there are 8 samples, so the early
# layers cannot carry rank 8; only the last hidden layer is wide
ds = synth_gen(n=8, m_x=3, m_y=1, c_min=0.05, kind="regression", seed=3)
spec = NetworkSpec(widths=(3, 3, 8), output_dim=1, sharpness=100.0)
witness = construct_witness(spec, ds.x)

h = forward_hidden(witness, ds.x).hidden
margins = dominance_margins(h, ds.n)
print("per-row dominance margins:", np.round(margins, 3))
print("rank check:", check_expressivity(witness, ds.x))

# %% [markdown]
# The first layers of the narrow witness are an identity chain with a large
# shift, which keeps the inputs recoverable because sharp softplus is
# near-linear far from the kink.  The wide regime (every hidden width at
# least n) skips the chain and plants the scaled input copies directly in
# layer one:

# %%
ds_wide = synth_gen(n=4, m_x=6, m_y=1, c_min=0.05, kind="regression", seed=4)
spec_wide = NetworkSpec(widths=(6, 6, 4), output_dim=1, sharpness=100.0)
witness_wide = construct_witness(spec_wide, ds_wide.x)
col = witness_wide.weights[0][:, 0]
print("first-layer column 0 is a scaled input:",
      np.allclose(col / np.linalg.norm(col), ds_wide.x[0]))
print("rank check:", check_expressivity(witness_wide, ds_wide.x).passed)

# %% [markdown]
# Dominance needs the scale to clear the dataset's margin.  Watching the
# margins while the scale doubles makes the mechanism visible:

# %%
from twophase.expressivity import _narrow_witness  # noqa: E402  (demo introspection)

c = 0.05
for alpha in (1.0, 4.0, 16.0, 64.0):
    params = _narrow_witness(spec, ds.x, alpha, c)
    m = dominance_margins(forward_hidden(params, ds.x).hidden, ds.n)
    print(f"scale {alpha:6.1f}: min margin {m.min():+.4f}")
