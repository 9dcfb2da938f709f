# %% [markdown]
# # Input distinguishability and the feature-rank check
#
# Two executable conditions gate the training guarantee:
#
# 1. **Input distinguishability**: every ordered pair satisfies
#    `||x_i||^2 - x_i . x_j > 0`.  After unit normalization this is just
#    pairwise distinctness, with margin half the squared distance.
# 2. **Expressivity**: some hidden parameters make the augmented feature
#    matrix `[h, 1]` full row rank, so the head can interpolate any targets.
#
# Both checks are cheap and data-dependent; this script runs them on a
# synthetic dataset and shows how each one fails.

# %%
import numpy as np

from twophase import (
    NetworkSpec,
    check_distinguishability,
    check_expressivity,
    expressivity_trials,
    random_params,
    synth_gen,
)

ds = synth_gen(n=12, m_x=4, m_y=1, c_min=0.05, kind="regression", seed=7)
rep = check_distinguishability(ds.x)
print(f"distinguishable: {rep.passed}, margin {rep.margin:.4f}")

# %% [markdown]
# Duplicating a row collapses the margin to zero and the report names the
# offending pair:

# %%
bad = ds.x.copy()
bad[5] = bad[2]
rep = check_distinguishability(bad)
print(f"passed={rep.passed}, margin={rep.margin:.2e}, pair={rep.violating_pair}")

# %% [markdown]
# The rank check evaluates the features at concrete parameters.  A single
# random draw almost surely succeeds when the architecture qualifies
# (last hidden width at least n); `expressivity_trials` repeats the draw, one
# report per draw, and the fraction that pass (what `verify` reports)
# exposes tolerance problems.

# %%
spec = NetworkSpec(widths=(4, 4, 13), output_dim=1, sharpness=1.0)
params = random_params(spec, np.random.default_rng(0), scale=1.0)
rep = check_expressivity(params, ds.x)
print(f"rank {rep.rank} of n={rep.n}, passed={rep.passed}")

reports = expressivity_trials(spec, ds.x, trials=25, init_scale=1.0, seed=3)
frac = sum(r.passed for r in reports) / len(reports)
print(f"pass fraction over 25 draws: {frac:.2f}")

# %% [markdown]
# Shrinking the last hidden layer below n - 1 makes full row rank
# impossible for any parameters; the check reports the dimension bound
# rather than a numerical accident:

# %%
tiny = NetworkSpec(widths=(4, 4, 6), output_dim=1, sharpness=1.0)
reports = expressivity_trials(tiny, ds.x, trials=10, seed=3)
frac = sum(r.passed for r in reports) / len(reports)
print(f"m_H + 1 = 7 < n = 12 -> pass fraction {frac:.2f}")
