#!/usr/bin/env bash
# Checks of the `twophase` console script and of the installed package, run
# in the current directory, which they fill with configs and run outputs.
# `twophase` and `python` must be on PATH, with the package importable.
#   CI: the installed package, from a directory outside the checkout.
#   Locally: a `twophase` that runs `python -m twophase.cli "$@"`, with
#   PYTHONPATH=src (tests/test_entry_point.py does this in a temporary
#   directory).
set -euo pipefail

twophase gen-data --out gen
test -s gen/dataset.csv
# a margin the circle cannot hold at n points is a config error
# before any point is drawn, not a spin through a million rejections
echo '{"data": {"n": 128, "m_x": 2, "c_min": 0.5}}' > packed.json
code=0
timeout 10 twophase gen-data --config packed.json --out packed 2> err.txt || code=$?
test "$code" -eq 1
grep -q '^config error:' err.txt
test ! -e packed
# `import twophase` loads no submodule: each name loads on first use
python -c "import sys, twophase; sys.exit(any(m.startswith('twophase.') for m in sys.modules))"
# backprop and the tangent kernel take the trace of the one pass
# forward_hidden runs, and read the architecture from the Params
python -c "import numpy as np; from twophase import NetworkSpec, backprop, compute_kernel, compute_ntk, forward_hidden, init_params; spec = NetworkSpec((3, 4, 5), 2); p = init_params(spec, 0); x = np.linspace(-1.0, 1.0, 18).reshape(6, 3); up = np.ones((6, 2)); trace = forward_hidden(p, x); g = backprop(p, trace, up); assert g.shape == (spec.param_count(),) and np.isfinite(g).all(); assert compute_ntk(compute_kernel(p, trace)).rank == 12"
# no config: the reference protocol, 500 steps of the library's defaults
twophase train --out protocol
test "$(wc -l < protocol/run.log.jsonl)" -eq 500
echo '{"data": {"n": 16}, "network": {"hidden_widths": [8, 18]}, "base": {"minibatch": 8}, "two_phase": {"total_steps": 40}}' > tiny.json
twophase train --config tiny.json --out train
test "$(wc -l < train/run.log.jsonl)" -eq 40
test -s train/summary.json
# training-mode batch norm with every phase-1 step monitored: each kernel
# is the layer-wise sum with the batch statistics held as constants, so
# the 24 phase-1 records carry the full rank n * m_y = 64, within seconds
python -c "import json; c = json.load(open('tiny.json')); c['network']['bn'] = True; c['monitor_every'] = 1; json.dump(c, open('tiny_bn.json', 'w'))"
timeout 30 twophase train --config tiny_bn.json --out bn
python -c "import json, sys; r = [json.loads(l) for l in open('bn/run.log.jsonl')]; p1 = [x['ntk_rank'] for x in r if x['phase'] == 1]; sys.exit(0 if p1 == [64] * 24 else 1)"
# the summary line reaches a pipe, where stdout is block-buffered: an exit
# path that dropped buffered output would fail here (pipefail)
twophase train --config tiny.json --out piped | grep -q '^final loss'
# the summary's losses come from the run, which keeps no record:
# they must match the streamed log
python -c "import json, sys; s = json.load(open('train/summary.json')); r = [json.loads(l)['loss'] for l in open('train/run.log.jsonl')]; sys.exit(0 if s['best_loss'] == min(r) and s['final_loss'] == r[-1] else 1)"
# squared-loss lazy phase with bounds on: Rbar from the bordered
# factorization of every rank test
echo '{"loss": "squared", "bounds": true, "data": {"n": 12, "m_x": 4, "m_y": 2, "kind": "regression"}, "network": {"sharpness": 10.0}, "base": {"variant": "gd", "minibatch": 12}, "two_phase": {"tau": 20, "total_steps": 40, "phase2_mode": "lazy_full", "lazy_eta_bar": 0.3}}' > lazy.json
twophase train --config lazy.json --out lazy
test "$(wc -l < lazy/run.log.jsonl)" -eq 40
python -c "import json, math, sys; r = json.load(open('lazy/summary.json'))['constants']['r_bar']; sys.exit(0 if r is not None and math.isfinite(r) else 1)"
# at seed 7 lazy candidates fail their factorizations and are counted at
# the reference kernel's threshold: the rate is halved, and every accepted
# step keeps the reference's full rank 24
twophase train --config lazy.json --seed 7 --out lazy7
python -c "import json, sys; e = json.load(open('lazy7/summary.json'))['rank_events']; r = [json.loads(l) for l in open('lazy7/run.log.jsonl')]; sys.exit(0 if e and [x['ntk_rank'] for x in r if x['phase'] == 2] == [24] * 20 else 1)"
# squared-loss head GD with bounds on and monitored steps: an exact
# certificate, no violations and a ceiling on every phase-2 record
echo '{"loss": "squared", "bounds": true, "monitor_every": 5, "data": {"n": 12, "m_x": 4, "m_y": 2, "kind": "regression"}, "network": {"sharpness": 10.0}, "base": {"variant": "gd", "minibatch": 12}, "two_phase": {"tau": 20, "total_steps": 40, "phase2_mode": "last_layer_gd"}}' > head.json
twophase train --config head.json --out head
python -c "import json, sys; s = json.load(open('head/summary.json')); r = [json.loads(l) for l in open('head/run.log.jsonl')]; p2 = [x for x in r if x['phase'] == 2]; sys.exit(0 if s['constants']['certificate'] == 'exact' and s['violations'] == 0 and len(p2) == 20 and all(x['bound'] is not None for x in p2) else 1)"
# t* and the loss there, kept as each record is emitted, are the
# earliest argmin and the min of the loss over tau and the phase-2
# records; the lazy run's loss rises after its minimum
for out in head lazy7; do
  python -c "import json, sys; s = json.load(open('$out/summary.json')); r = [json.loads(l) for l in open('$out/run.log.jsonl')]; c = [(s['loss_at_tau'], s['tau'])] + [(x['loss'], x['t']) for x in r if x['phase'] == 2]; sys.exit(0 if (s['loss_at_t_star'], s['t_star']) == min(c) else 1)"
done
# squared-loss head SGD with bounds on: its ceiling bounds the
# expected suboptimality, so the certificate is `expectation` and
# one run's exceedances are not counted
echo '{"loss": "squared", "bounds": true, "data": {"n": 12, "m_x": 4, "m_y": 2, "kind": "regression"}, "network": {"sharpness": 10.0}, "base": {"variant": "gd", "minibatch": 12}, "two_phase": {"tau": 20, "total_steps": 40, "phase2_mode": "last_layer_sgd", "sgd_minibatch": 4}}' > sgd.json
twophase train --config sgd.json --out sgd
python -c "import json, sys; s = json.load(open('sgd/summary.json')); sys.exit(0 if s['constants']['certificate'] == 'expectation' and s['violations'] is None else 1)"
# one-hot cross-entropy head GD with bounds on: no finite head
# attains the infimum, so the certificate is `vacuous`, nothing is
# counted, and the printed summary line says so
echo '{"loss": "cross_entropy", "bounds": true, "data": {"n": 16, "kind": "one_hot"}, "network": {"hidden_widths": [8, 18]}, "base": {"minibatch": 8}, "two_phase": {"total_steps": 40, "phase2_mode": "last_layer_gd"}}' > onehot.json
twophase train --config onehot.json --out onehot > onehot.txt
grep -q 'bound vacuous' onehot.txt
python -c "import json, sys; s = json.load(open('onehot/summary.json')); sys.exit(0 if s['constants']['certificate'] == 'vacuous' and s['violations'] is None else 1)"
# a lazy step whose rate halvings hit the retry cap is a numeric
# failure naming its step and phase
echo '{"seed": 5, "loss": "squared", "data": {"n": 10, "m_x": 4, "m_y": 2, "c_min": 0.03, "kind": "regression"}, "network": {"hidden_widths": [8, 12], "sharpness": 10.0, "bn": [false, true]}, "base": {"variant": "gd", "minibatch": 10}, "two_phase": {"tau": 3, "total_steps": 23, "phase2_mode": "lazy_full", "lazy_eta_bar": 0.5}}' > retry.json
code=0
twophase train --config retry.json --out retry 2> err.txt || code=$?
test "$code" -eq 3
grep -q '^numeric failure: step 6 (phase 2):' err.txt
# at learning rate 10 phase 1 collapses the features of a layer wide
# enough for them (m_H + 1 = 19 >= n = 16): a numeric failure at tau that
# points at phase 1, not at the width
python -c "import json; c = json.load(open('tiny.json')); c['base']['learning_rate'] = 10; json.dump(c, open('tiny_lr10.json', 'w'))"
code=0
twophase train --config tiny_lr10.json --out lr10 2> err.txt || code=$?
test "$code" -eq 3
grep -q '^numeric failure: step 24 (phase 2):' err.txt
# phase 1's loss rose (3.91x) with all 18 last-layer units inactive on every
# sample: the message gives both and advises a smaller learning rate
grep -q '3.91x its initial loss, and 18 of 18 last-layer units are inactive' err.txt
grep -q 'the loss rose in phase 1: try a smaller learning rate' err.txt
# and names the first step above the initial loss, step 1 of 24
grep -q 'try a smaller learning rate (the loss first exceeded its initial value at step 1)' err.txt
if grep -q 'widen' err.txt; then
  echo "a collapse at tau advised widening a wide enough layer" >&2
  exit 1
fi
twophase verify --config tiny.json --out verify
python -c "import json, sys; sys.exit(0 if json.load(open('verify/verify.json'))['passed'] is True else 1)"
# verify.json says how each rank was reached: every trial's full
# rank proved by a factorization or counted from an SVD, and the
# witness's likewise
python -c "import json, sys; v = json.load(open('verify/verify.json')); e, w = v['expressivity'], v['witness']; sys.exit(0 if e['proved'] + e['counted'] == e['trials'] == 20 and isinstance(w['proved'], bool) else 1)"
# verify and gen-data load only what they run, never the trainer
for cmd in verify gen-data; do
  python -X importtime -m twophase.cli "$cmd" --config tiny.json --out "imports_$cmd" > /dev/null 2> imports.txt
  grep -q 'twophase\.data$' imports.txt
  if grep -q 'twophase\.trainer$' imports.txt; then
    echo "$cmd imported twophase.trainer" >&2
    exit 1
  fi
done
# a 2-seed sweep of one cell: one cell with both seeds' losses
python -c "import json; c = json.load(open('tiny.json')); c['sweep'] = {'seeds': [0, 1], 'tau_fractions': [0.5], 'noise_scales': [0.001]}; json.dump(c, open('tiny_sweep.json', 'w'))"
twophase sweep --config tiny_sweep.json --out sweep
python -c "import json, sys; c = json.load(open('sweep/sweep.json'))['cells']; sys.exit(0 if len(c) == 1 and len(c[0]['losses']) == 2 else 1)"
# an --out that names an existing file is a config error
code=0
twophase train --config tiny.json --out gen/dataset.csv 2> err.txt || code=$?
test "$code" -eq 1
grep -q '^config error:' err.txt
