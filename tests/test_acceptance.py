"""Release acceptance gate: one test per shipping criterion.

Each test prints one ``criterion N (...): PASS/FAIL`` line with the measured
quantities (visible under ``pytest -s``); thresholds and tolerances are pinned
in the asserts. The two public-dataset protocols (a9a, madelon) skip with
supply instructions when the LIBSVM files are absent: set $TASKMIX_DATA_DIR or
drop the files into ./data/ next to this package.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from taskmix.concepts import LABEL_PREFIX, TaskSchema, Vocabulary, \
    align_vocabularies
from taskmix.data import TaskDataset, build_meta_dataset, ingest_task
from taskmix.metrics import (
    MetricsReport,
    evaluate_binary,
    evaluate_model,
    hard_log_loss,
    overall_score,
    task_attention,
)
from taskmix.model import (
    BaselineConfig,
    FeedForwardNet,
    Mixture,
    MixtureConfig,
    embed_learners,
    embedding_param_overhead,
)
from taskmix.numeric import finite_diff_check, logistic_loss
from taskmix.synth import make_latent_tasks
from taskmix.train import (
    AdaptConfig,
    MetaTrainConfig,
    meta_loss,
    meta_train,
    single_task_meta,
    train_baseline,
)

ROOT = Path(__file__).resolve().parent.parent


def _report(num: str, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ----------------------------------------- criterion 1: gradient fidelity


def test_criterion_1_gradient_fidelity():
    t0 = time.time()
    cfg = MixtureConfig(input_dim=6, num_tasks=2, num_experts=2,
                        expert_depth=2, expert_width=8, gate_hidden=4,
                        head_hidden=4, seed=7)
    model = Mixture.standard(cfg)
    rng = np.random.default_rng(11)
    X = rng.normal(size=(12, cfg.input_dim))
    tasks = rng.integers(0, cfg.num_tasks, size=12)
    y = rng.integers(0, 2, size=12).astype(np.float64)

    def loss_fn():
        logits, cache = model.forward_batch(X, tasks)
        losses, dlogits = logistic_loss(logits, y)
        model.backward_batch(cache, dlogits)
        return float(losses.sum()), model.signature(cache)

    # max_coords=None: every coordinate of every parameter tensor
    report = finite_diff_check(loss_fn, model.store, h=1e-5, max_coords=None)
    wall = time.time() - t0
    covered = report.checked + report.skipped == model.store.num_params()
    ok = report.max_rel_err <= 1e-4 and covered and wall < 10.0
    _report("1", "gradient fidelity", ok,
            f"{report}; all {model.store.num_params()} coords visited: "
            f"{covered}; wall {wall:.2f}s (cap 10s)")


# ------------------------------------------ criteria 2+3: exact embedding


@pytest.fixture(scope="module")
def embedding_setup():
    """Three overlapping tasks, three random per-task nets, one mixture
    embedding them verbatim."""
    rng = np.random.default_rng(5)
    vocabs = {
        "a": ["s0", "x0", "x1", "x2", "x3"],
        "b": ["s0", "x2", "x3", "x4", "x5"],
        "c": ["s0", "x4", "x5", "x6", "x7"],
    }
    labels = {t: LABEL_PREFIX + t for t in vocabs}
    meta = align_vocabularies([Vocabulary(v) for v in vocabs.values()],
                              list(labels.values()))
    tasks = []
    for tid, names in vocabs.items():
        schema = TaskSchema.build(tid, labels[tid], Vocabulary(names), meta,
                                  {labels[tid], "s0"})
        X = rng.normal(size=(40, len(names)))
        y = (rng.random(40) < 0.5).astype(np.float64)
        tasks.append(TaskDataset(schema,
                                 {"train": (X, y)}))
    data = build_meta_dataset(tasks)
    c = data.num_concepts
    learners = [FeedForwardNet.mlp(c, h, seed=s)
                for s, h in enumerate([(9,), (6, 5), (11, 4)])]
    mix = embed_learners(learners, [t.schema for t in tasks],
                         vocab_fingerprint=data.meta_vocab.fingerprint())
    return data, tasks, learners, mix


def test_criterion_2_embedding_reproduces_learners(embedding_setup):
    data, tasks, learners, mix = embedding_setup
    t0 = time.time()
    X = np.random.default_rng(17).normal(size=(1000, data.num_concepts))
    worst = 0.0
    for i, task in enumerate(tasks):
        Xi = X.copy()
        Xi[:, task.schema.mask_indices()] = 0.0
        dev = np.max(np.abs(mix.predict_logits(Xi, i)
                            - learners[i].predict_logits(Xi)))
        worst = max(worst, float(dev))
    extra = mix.store.num_params() - sum(l.store.num_params()
                                         for l in learners)
    want = embedding_param_overhead(data.num_concepts, len(learners))
    wall = time.time() - t0
    ok = worst <= 1e-9 and extra == want and wall < 10.0
    _report("2", "embedding fidelity", ok,
            f"max |dev| {worst:.2e} over 1000 inputs x {len(tasks)} tasks "
            f"(cap 1e-9); param overhead {extra} vs analytic {want}; "
            f"wall {wall:.2f}s (cap 10s)")


def test_criterion_3_meta_loss_equals_component_sum(embedding_setup):
    data, tasks, learners, mix = embedding_setup
    total = meta_loss(mix, data, "train")
    parts = 0.0
    for i in range(data.num_tasks):
        X = data.dense_rows(i, None, "train")
        losses, _ = logistic_loss(learners[i].predict_logits(X),
                                  data.labels(i, "train"))
        parts += float(losses.sum())
    dev = abs(total - parts)
    ok = dev <= 1e-9
    _report("3", "meta loss at the embedding", ok,
            f"|meta loss - component sum| = {dev:.2e} (cap 1e-9; "
            f"meta {total:.6f})")


# ----------------------------------------- criterion 4: table conventions

# Published adult-income (a9a) comparison column the metric conventions are
# frozen against: model -> (accuracy, auc, f1, kappa, log_loss).
_A9A = {
    "wide_deep": (0.8227, 0.8687, 0.5122, 0.4156, 6.1224),
    "ple":       (0.8405, 0.8913, 0.6165, 0.5181, 5.5094),
    "mmoe":      (0.8413, 0.8938, 0.6416, 0.5403, 5.4797),
    "essm":      (0.8148, 0.8774, 0.4289, 0.3448, 6.3961),
    "dcn_mix":   (0.7985, 0.8433, 0.3536, 0.2701, 6.9583),
    "dcn":       (0.8071, 0.8646, 0.3957, 0.3111, 6.6613),
    "mixture":   (0.8417, 0.8940, 0.6505, 0.5484, 5.4691),
}


def _table_report(name: str) -> MetricsReport:
    acc, auc, f1, kappa, ll = _A9A[name]
    return MetricsReport(accuracy=acc, auc=auc, f1=f1, kappa=kappa,
                         log_loss=ll, n=16281)


def test_criterion_4_table_metric_conventions():
    devs = {name: abs(hard_log_loss(row[0]) - row[4])
            for name, row in _A9A.items()}
    hits = sum(d <= 0.01 for d in devs.values())
    ple = overall_score(_table_report("ple"), _table_report("wide_deep"))
    ours = overall_score(_table_report("mixture"), _table_report("wide_deep"))
    ok = (hits == len(devs)
          and abs(ple - 59.80) <= 0.05 and abs(ours - 74.85) <= 0.05)
    _report("4", "table metric conventions", ok,
            f"{hits}/{len(devs)} (accuracy -> log loss) pairs within 0.01 "
            f"(worst dev {max(devs.values()):.4f}); overall {ple:+.2f}% vs "
            f"+59.80 and {ours:+.2f}% vs +74.85 (tol 0.05)")


# -------------------------------- criteria 5+6: public dataset protocols


def _dataset_dir(*names):
    roots = [Path(p) for p in (os.environ.get("TASKMIX_DATA_DIR"),) if p]
    roots.append(ROOT / "data")
    for root in roots:
        if all((root / n).is_file() for n in names):
            return root
    looked = " or ".join(str(r) for r in roots)
    pytest.skip(f"needs {' + '.join(names)} (LIBSVM format) under {looked}; "
                f"set TASKMIX_DATA_DIR or populate ./data/")


def test_criterion_5_adult_income_protocol():
    root = _dataset_dir("a9a", "a9a.t")
    t0 = time.time()
    task = ingest_task(root / "a9a", root / "a9a.t", "a9a",
                       val_fraction=0.1, seed=0)
    cfg = MetaTrainConfig(epochs=30, batch_size=256, lr=1e-4, seed=0,
                          patience=0)
    bl = train_baseline(task, BaselineConfig(hidden=(64,), seed=0), cfg)
    bl_rep = evaluate_binary(
        bl.model.predict_logits(task.dense("test", masked=True), 0),
        task.labels("test"))
    res = single_task_meta(
        task,
        MixtureConfig(input_dim=1, num_tasks=1,  # overridden by the dataset
                      num_experts=3, expert_depth=3, expert_width=128,
                      gate_hidden=32, head_hidden=32, seed=0),
        MetaTrainConfig(epochs=1, batch_size=256, lr=1e-4, seed=0, patience=0),
        AdaptConfig(epochs=30, batch_size=256, seed=0),
        aux_policy="all")
    X = res.meta.dense_rows(0, None, "test")
    rep = evaluate_binary(res.adapted_model.predict_logits(X, 0),
                          task.labels("test"))
    wall = time.time() - t0
    ok = (bl_rep.auc >= 0.86 and rep.auc >= bl_rep.auc
          and rep.accuracy >= 0.82 and wall <= 1800.0)
    _report("5", "adult-income protocol", ok,
            f"baseline auc {bl_rep.auc:.4f} (floor 0.86); meta auc "
            f"{rep.auc:.4f} (>= baseline); meta acc {rep.accuracy:.4f} "
            f"(floor 0.82); wall {wall:.0f}s (cap 1800s)")


def test_criterion_6_madelon_protocol():
    root = _dataset_dir("madelon", "madelon.t")
    t0 = time.time()
    task = ingest_task(root / "madelon", root / "madelon.t", "madelon",
                       val_fraction=0.1, seed=0, standardize=True)
    cfg = MetaTrainConfig(epochs=30, batch_size=256, lr=1e-4, seed=0,
                          patience=0)
    bl = train_baseline(task, BaselineConfig(hidden=(64,), seed=0), cfg)
    bl_rep = evaluate_binary(
        bl.model.predict_logits(task.dense("test", masked=True), 0),
        task.labels("test"))
    res = single_task_meta(
        task,
        MixtureConfig(input_dim=1, num_tasks=1,  # overridden by the dataset
                      num_experts=3, expert_depth=2, expert_width=256,
                      gate_hidden=32, head_hidden=32, seed=0),
        MetaTrainConfig(epochs=1, batch_size=256, lr=1e-4, seed=0, patience=0),
        AdaptConfig(epochs=30, batch_size=256, seed=0),
        aux_policy="all")
    X = res.meta.dense_rows(0, None, "test")
    rep = evaluate_binary(res.adapted_model.predict_logits(X, 0),
                          task.labels("test"))
    wall = time.time() - t0
    ok = rep.auc >= 0.58 and rep.auc > bl_rep.auc and wall <= 1200.0
    _report("6", "madelon protocol", ok,
            f"meta auc {rep.auc:.4f} (floor 0.58) vs baseline auc "
            f"{bl_rep.auc:.4f} (must be strictly greater); wall {wall:.0f}s "
            f"(cap 1200s)")


# -------------------------- criteria 7+9: synthetic transfer + attention

_TRANSFER_SEEDS = 5


@pytest.fixture(scope="module")
def transfer_runs():
    """Train the committed synthetic fixture over 5 seeds, both sides on the
    identical optimizer budget, and collect AUC gaps plus attention grids."""
    runs = []
    for seed in range(_TRANSFER_SEEDS):
        tasks, info = make_latent_tasks(seed)
        data = build_meta_dataset(tasks)
        cfg = MetaTrainConfig(epochs=500, batch_size=16, lr=5e-3, seed=seed,
                              patience=0)
        res = meta_train(
            data,
            MixtureConfig(input_dim=1, num_tasks=1,  # overridden by the dataset
                          num_experts=1, expert_depth=1, expert_width=96,
                          gate_hidden=8, head_hidden=8, seed=seed),
            cfg)
        meta_auc = np.mean([evaluate_model(res.model, data, t, "test").auc
                            for t in range(data.num_tasks)])
        base_aucs = []
        for task in tasks:
            bl = train_baseline(task, BaselineConfig(hidden=(32,), seed=seed),
                                cfg)
            base_aucs.append(evaluate_binary(
                bl.model.predict_logits(task.dense("test", masked=True), 0),
                task.labels("test")).auc)
        runs.append({
            "gap": float(meta_auc - np.mean(base_aucs)),
            "att": task_attention(res.model, data, "val"),
            "dep": data.task_index(info["dependent_task"]),
            "src": data.task_index(info["source_task"]),
        })
    return runs


def test_criterion_7_synthetic_transfer_margin(transfer_runs):
    gaps = [r["gap"] for r in transfer_runs]
    mean_gap = float(np.mean(gaps))
    ok = mean_gap >= 0.02
    _report("7", "synthetic transfer margin", ok,
            f"mean test-AUC gap {mean_gap:+.4f} over {len(gaps)} seeds "
            f"(floor +0.02); per-seed "
            + ", ".join(f"{g:+.4f}" for g in gaps))


def test_criterion_8_property_suites_standalone():
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q",
         str(ROOT / "tests" / "test_properties.py")],
        cwd=ROOT, capture_output=True, text=True)
    wall = time.time() - t0
    lines = (proc.stdout or proc.stderr).strip().splitlines()
    tail = lines[-1] if lines else "(no output)"
    ok = proc.returncode == 0
    _report("8", "property suites standalone", ok,
            f"pytest tests/test_properties.py -> rc {proc.returncode} "
            f"({tail}) in {wall:.1f}s")


def test_criterion_9_attention_sanity(transfer_runs):
    diag_ok = all(np.all(np.diag(r["att"]) == 0.0) for r in transfer_runs)
    wins = 0
    for r in transfer_runs:
        att, dep, src = r["att"], r["dep"], r["src"]
        others = [att[dep, j] for j in range(att.shape[0])
                  if j not in (dep, src)]
        wins += int(att[dep, src] > 0.0
                    and all(att[dep, src] > v for v in others))
    need = _TRANSFER_SEEDS // 2 + 1
    ok = diag_ok and wins >= need
    _report("9", "attention sanity", ok,
            f"diagonal exactly 0 on all seeds: {diag_ok}; planted dependency "
            f"largest in its row on {wins}/{_TRANSFER_SEEDS} seeds "
            f"(need >= {need})")
