"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with pytest -s or in the captured output on
failure).  Tolerances are pinned here, not configurable.
"""

import math
import os
import re
import time
from pathlib import Path

import numpy as np
import pytest

from baggedcnn import (bagging, checkpoint, cli, combiners, data, forest, layers,
                       metrics, network, training)
from conftest import max_rel_err, numeric_grad

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def report(criterion, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    print(line)
    assert ok, line


# -- 1. architecture fidelity -------------------------------------------------

def test_criterion_1_architecture_fidelity():
    start = time.monotonic()
    model = network.build_paper_cnn(10)
    count = network.count_params(model)
    trace = network.shape_trace(model)
    elapsed = time.monotonic() - start
    expected_trace = [
        (222, 222, 32), (111, 111, 32), (109, 109, 64), (54, 54, 64),
        (52, 52, 128), (26, 26, 128), (24, 24, 128), (12, 12, 128),
        (18432,), (512,), (10,),
    ]
    ok = count == 9683658 and trace == expected_trace and elapsed < 1.0
    report(1, ok, f"param count {count}, trace match {trace == expected_trace}, "
                  f"{elapsed:.3f}s")


# -- 2. gradient correctness --------------------------------------------------

def test_criterion_2_gradient_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    worst = 0.0

    # conv
    x = rng.normal(size=(6, 6, 2))
    w = rng.normal(size=(3, 3, 2, 3))
    b = rng.normal(size=3)
    out, bwd = layers.conv2d_vjp(x, layers.ConvKernelSet(w, b))
    up = rng.normal(size=out.shape)
    dx, dw, db = bwd(up)
    loss = lambda: float((layers.conv2d_forward(x, layers.ConvKernelSet(w, b)) * up).sum())
    worst = max(worst, max_rel_err(dx, numeric_grad(loss, x)),
                max_rel_err(dw, numeric_grad(loss, w)),
                max_rel_err(db, numeric_grad(loss, b)))

    # pool (continuous values: no ties)
    x = rng.normal(size=(6, 4, 2))
    out, bwd = layers.maxpool2d_vjp(x)
    up = rng.normal(size=out.shape)
    dx = bwd(up)
    loss = lambda: float((layers.maxpool2d_forward(x) * up).sum())
    worst = max(worst, max_rel_err(dx, numeric_grad(loss, x)))

    # relu away from the kink
    x = rng.normal(size=(5, 5)) + np.sign(rng.normal(size=(5, 5))) * 0.2
    out, bwd = layers.relu_vjp(x)
    up = rng.normal(size=out.shape)
    dx = bwd(up)
    loss = lambda: float((layers.relu(x) * up).sum())
    worst = max(worst, max_rel_err(dx, numeric_grad(loss, x)))

    # dense
    x = rng.normal(size=6)
    w = rng.normal(size=(6, 3))
    b = rng.normal(size=3)
    out, bwd = layers.dense_vjp(x, w, b)
    up = rng.normal(size=3)
    dx, dw, db = bwd(up)
    loss = lambda: float((layers.dense_forward(x, w, b) * up).sum())
    worst = max(worst, max_rel_err(dx, numeric_grad(loss, x)),
                max_rel_err(dw, numeric_grad(loss, w)),
                max_rel_err(db, numeric_grad(loss, b)))

    # fused softmax + cross-entropy
    logits = rng.normal(size=(3, 4))
    labels = np.array([0, 2, 3])
    _, _, dlogits = training.softmax_cce(logits, labels)
    loss = lambda: training.sparse_cce(layers.softmax(logits), labels)
    worst = max(worst, max_rel_err(dlogits, numeric_grad(loss, logits), floor=1e-3))

    # tiny end-to-end model
    model = network.build_scaled_cnn((8, 8, 1), [3], 2, dense_units=4)
    params = network.init_params(model, seed=1, dtype=np.float64)
    params = {k: v + 0.05 * rng.normal(size=v.shape) for k, v in params.items()}
    batch = rng.normal(size=(2, 8, 8, 1))
    up = rng.normal(size=(2, 2))
    grads = network.backward_batch(model, params, batch, up)
    loss = lambda: float((network.forward_batch(model, params, batch) * up).sum())
    for k in grads:
        worst = max(worst, max_rel_err(grads[k], numeric_grad(loss, params[k])))

    elapsed = time.monotonic() - start
    ok = worst < 1e-4 and elapsed < 60
    report(2, ok, f"max relative error {worst:.2e}, {elapsed:.1f}s")


# -- 3. Adam fidelity ---------------------------------------------------------

def test_criterion_3_adam_fidelity():
    def scalar_adam(grads, theta=0.3, eta=0.001, b1=0.9, b2=0.999, eps=1e-8):
        m = v = 0.0
        out = []
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= eta / math.sqrt(v / (1 - b2**t) + eps) * (m / (1 - b1**t))
            out.append(theta)
        return out

    rng = np.random.default_rng(11)
    grad_seq = rng.normal(size=25).tolist()
    params = {"w": np.array([0.3])}
    state = training.AdamState.fresh(params)
    ours = []
    for g in grad_seq:
        params, state = training.adam_step(params, {"w": np.array([g])}, state)
        ours.append(params["w"][0])
    ref = scalar_adam(grad_seq)
    worst = max(abs(a - b) for a, b in zip(ours, ref))

    fixed = {"w": np.array([1.0, -2.0])}
    st = training.AdamState.fresh(fixed)
    for _ in range(7):
        fixed, st = training.adam_step(fixed, {"w": np.zeros(2)}, st)
    fixed_ok = fixed["w"].tolist() == [1.0, -2.0]
    ok = worst <= 1e-12 and fixed_ok
    report(3, ok, f"max |diff| vs scalar oracle {worst:.2e}, zero-grad fixed point {fixed_ok}")


# -- 4. bootstrap statistic ---------------------------------------------------

def test_criterion_4_bootstrap_statistic():
    start = time.monotonic()
    means = {}
    for ratio in (1.0, 0.7):
        fracs = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            _, oob = bagging.bootstrap_sample(10_000, ratio, rng)
            fracs.append(len(oob) / 10_000)
        means[ratio] = float(np.mean(fracs))
    elapsed = time.monotonic() - start
    ok = (0.358 <= means[1.0] <= 0.378 and 0.487 <= means[0.7] <= 0.507
          and elapsed < 10)
    report(4, ok, f"OOB mean ratio=1.0: {means[1.0]:.4f} (1/e={1/math.e:.4f}), "
                  f"ratio=0.7: {means[0.7]:.4f} (e^-0.7={math.exp(-0.7):.4f}), "
                  f"{elapsed:.1f}s")


# -- 5. metric identities -----------------------------------------------------

def test_criterion_5_metric_identities():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        c = int(rng.integers(2, 6))
        cm = rng.integers(0, 25, size=(c, c))
        if cm.sum() == 0:
            cm[0, 0] = 1
        p, r, f1 = metrics.micro_metrics(cm)
        acc = metrics.accuracy(cm)
        worst = max(worst, abs(p - acc), abs(r - acc), abs(f1 - acc))
        for excl in ((), (0,)):
            try:
                p, r, f1 = metrics.micro_metrics(cm, excl)
            except Exception:
                continue
            expected = 2 * p * r / (p + r) if p + r > 0 else 0.0
            worst = max(worst, abs(f1 - expected))
    ok = worst <= 1e-12
    report(5, ok, f"max deviation over 1000 random matrices {worst:.2e}")


# -- 6. combiner correctness --------------------------------------------------

def test_criterion_6_combiner_correctness():
    grid = [round(0.1 * i, 1) for i in range(11)]
    feats, labels = [], []
    failures = 0
    for p1 in grid:
        for p2 in grid:
            probs = np.array([[[p1, round(1 - p1, 1)]], [[p2, round(1 - p2, 1)]]])
            # hand evaluation: mean the two class columns, lowest index on ties
            mean0 = (probs[0, 0, 0] + probs[1, 0, 0]) / 2
            mean1 = (probs[0, 0, 1] + probs[1, 0, 1]) / 2
            avg_hand = 0 if mean0 >= mean1 else 1
            # hand voting: per-model argmax (ties to class 0), then plurality
            v1 = 0 if probs[0, 0, 0] >= probs[0, 0, 1] else 1
            v2 = 0 if probs[1, 0, 0] >= probs[1, 0, 1] else 1
            votes = [v1, v2]
            vote_hand = 0 if votes.count(0) >= votes.count(1) else 1
            if combiners.combine_average(probs)[0] != avg_hand:
                failures += 1
            if combiners.combine_vote(probs)[0] != vote_hand:
                failures += 1
            feats.append([p1, 1 - p1, p2, 1 - p2])
            labels.append(avg_hand)
    # stacking: a deterministic forest trained on the grid must reproduce the
    # hand labels it was trained on (labels are a function of the features)
    rf = forest.fit_forest(np.array(feats), np.array(labels), n_trees=1,
                           max_depth=12, seed=0, n_candidates=4, bootstrap=False)
    grid_probs = np.array(feats).reshape(-1, 2, 2).transpose(1, 0, 2)
    stack_preds = combiners.combine_stacking(rf, grid_probs)
    failures += int((stack_preds != np.array(labels)).sum())
    # deterministic tie-breaks
    tie_avg = combiners.combine_average(np.array([[[0.5, 0.5]]]))[0] == 0
    tie_vote = combiners.combine_vote(
        np.array([[[1.0, 0.0]], [[0.0, 1.0]]]))[0] == 0
    ok = failures == 0 and tie_avg and tie_vote
    report(6, ok, f"{failures} disagreements on the exhaustive grid, "
                  f"tie-breaks deterministic {tie_avg and tie_vote}")


# -- 7. end-to-end desk-scale learning ---------------------------------------

def _desk_run(seed):
    ds = data.synth_dataset(200, n_classes=5, image_size=32, seed=1000 + seed,
                            noise=0.1)
    train_v, _, stack_v, test_v = data.split(ds, (0.6, 0.1, 0.2, 0.1), seed=seed)
    model = network.build_scaled_cnn((32, 32, 1), [8, 16], 5, dense_units=64)
    ens, _, _ = bagging.train_ensemble(
        train_v.images, train_v.labels_multi, model,
        bagging.BaggingConfig(n_models=5, bagging_ratio=0.7, seed=seed),
        training.TrainConfig(epochs=4, batch_size=32))
    rf = combiners.fit_stacking(ens, stack_v.images, stack_v.labels_multi,
                                n_trees=50, max_depth=10, seed=seed)
    probs = bagging.ensemble_predict_probs(ens, test_v.images)
    y = test_v.labels_multi
    sub_accs = [(probs[m].argmax(axis=1) == y).mean() for m in range(5)]
    accs = {
        "average": (combiners.combine_average(probs) == y).mean(),
        "vote": (combiners.combine_vote(probs) == y).mean(),
        "stacking": (combiners.combine_stacking(rf, probs) == y).mean(),
    }
    return float(np.mean(sub_accs)), accs


def test_criterion_7_desk_scale_learning():
    start = time.monotonic()
    _, accs0 = _desk_run(0)
    first_elapsed = time.monotonic() - start
    headline_ok = accs0["stacking"] >= 0.90 and first_elapsed < 600

    wins = {"average": 0, "vote": 0, "stacking": 0}
    for seed in range(10):
        mean_sub, accs = _desk_run(seed)
        for method, acc in accs.items():
            if acc >= mean_sub - 0.02:
                wins[method] += 1
    robust_ok = all(w >= 9 for w in wins.values())
    ok = headline_ok and robust_ok
    report(7, ok, f"stacking accuracy {accs0['stacking']:.3f} in {first_elapsed:.0f}s, "
                  f"combiner wins over 10 seeds {wins}")


# -- 8. reproducibility -------------------------------------------------------

@pytest.fixture
def cli_workspace(tmp_path):
    ds = data.synth_dataset(12, n_classes=5, image_size=16, seed=0, noise=0.1)
    ds_path = tmp_path / "ds.bsec"
    data.save_container(ds, ds_path)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"""
[dataset]
path = {ds_path}

[model]
size = scaled
widths = 4
dense_units = 8
n_classes = 5

[bagging]
n_models = 2
bagging_ratio = 0.8

[train]
epochs = 2
batch_size = 16

[combiner]
method = stacking
n_trees = 10
max_depth = 6

[sweep]
grid = 0.6:2,0.8:1

[run]
seed = 0
""")
    return tmp_path, ds_path, cfg_path


def test_criterion_8_reproducibility(cli_workspace, tmp_path):
    ws, ds_path, cfg = cli_workspace
    outs = [tmp_path / f"t{i}" for i in range(2)]
    for out in outs:
        assert cli.main(["--config", str(cfg), "--out", str(out), "train"]) == 0
    train_same = all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
        for n in ("metrics.csv", "confusion.csv", "bags.csv", "history_model_0.csv"))
    sw = [tmp_path / f"s{i}" for i in range(2)]
    for out in sw:
        assert cli.main(["--config", str(cfg), "--out", str(out), "sweep"]) == 0
    sweep_same = (sw[0] / "sweep.csv").read_bytes() == (sw[1] / "sweep.csv").read_bytes()

    ens, _ = checkpoint.load_checkpoint(outs[0] / "checkpoint.bin")
    ds = data.load_container(ds_path)
    probs = bagging.ensemble_predict_probs(ens, ds.images)
    rt = tmp_path / "rt.bin"
    checkpoint.save_checkpoint(rt, ens)
    ens2, _ = checkpoint.load_checkpoint(rt)
    probs2 = bagging.ensemble_predict_probs(ens2, ds.images)
    roundtrip_same = np.array_equal(probs, probs2) and np.array_equal(
        combiners.combine(ens, probs), combiners.combine(ens2, probs2))
    ok = train_same and sweep_same and roundtrip_same
    report(8, ok, f"train byte-identical {train_same}, sweep byte-identical "
                  f"{sweep_same}, checkpoint round-trip exact {roundtrip_same}")


# -- 9. report formats --------------------------------------------------------

def _mask_numbers(text):
    return re.sub(r"\d+\.\d{3,}", "N", text)


def test_criterion_9_report_formats(cli_workspace, tmp_path):
    ws, _, cfg = cli_workspace
    out = tmp_path / "r"
    assert cli.main(["--config", str(cfg), "--out", str(out), "sweep"]) == 0
    assert cli.main(["--config", str(cfg), "--out", str(out), "compare-combiners"]) == 0
    sweep_masked = _mask_numbers((out / "sweep.csv").read_text())
    sweep_golden = Path(GOLDEN, "sweep_layout.csv").read_text()
    comb_masked = _mask_numbers((out / "combiners.csv").read_text())
    comb_golden = Path(GOLDEN, "combiners_layout.csv").read_text()
    ok = sweep_masked == sweep_golden and comb_masked == comb_golden
    report(9, ok, f"sweep layout match {sweep_masked == sweep_golden}, "
                  f"combiner layout match {comb_masked == comb_golden}")
