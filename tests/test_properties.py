"""Invariant suites, runnable standalone and fully offline.

Each section holds one named property family: mask insensitivity, gradient
isolation, sampler proportions, project/select round-trip, ROC-AUC
brute-force equivalence, kappa/F1 hand-oracle equivalence, and seed
determinism. A module fixture blocks socket creation so any accidental
network dependency fails loudly.
"""

import socket

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskmix.concepts import LABEL_PREFIX, TaskSchema, Vocabulary, align_vocabularies
from taskmix.data import BatchSampler, TaskDataset, align_tasks, \
    build_meta_dataset
from taskmix.metrics import cohen_kappa, f1_score, roc_auc
from taskmix.model import Mixture, MixtureConfig
from taskmix.numeric import logistic_loss
from taskmix.synth import make_latent_tasks
from taskmix.train import MetaTrainConfig, meta_train

from oracles import instances, recover_task


@pytest.fixture(autouse=True)
def _no_network(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("network access attempted during property tests")
    monkeypatch.setattr(socket, "socket", refuse)
    monkeypatch.setattr(socket, "create_connection", refuse)


# ---------------------------------------------------------------------------
# strategies

VALUES = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0])


@st.composite
def task_bundles(draw):
    """A one-task dataset plus the subset of features forced into its mask."""
    d = draw(st.integers(1, 5))
    n = draw(st.integers(1, 7))
    names = [f"c{i}" for i in range(d)]
    dense = np.array([[draw(VALUES) for _ in range(d)] for _ in range(n)])
    labels = np.array([float(draw(st.integers(0, 1))) for _ in range(n)])
    extra_mask = draw(st.sets(st.sampled_from(names), max_size=d))
    vocab = Vocabulary(names)
    label = LABEL_PREFIX + "t"
    meta = align_vocabularies([vocab], [label])
    schema = TaskSchema.build("t", label, vocab, meta,
                              set(extra_mask) | {label})
    task = TaskDataset(schema, {"train": (dense, labels)})
    return task, dense, labels


# ---------------------------------------------------------------------------
# mask insensitivity: values at masked coordinates are invisible


@settings(deadline=None, max_examples=40)
@given(task_bundles(), st.data())
def test_masked_coordinates_never_reach_observers(bundle, data):
    task, dense, labels = bundle
    meta = build_meta_dataset([task])
    mask_idx = task.schema.mask_indices()
    rows = np.arange(len(labels))

    before = meta.dense_rows(0, rows, "train")
    assert not np.any(before[:, mask_idx])

    # rewrite every stored value at a masked coordinate: observers must not
    # move, because masking happens at materialization time
    meta.tasks[0].footprint("train")[:, mask_idx] = \
        data.draw(VALUES.filter(lambda v: v != 0.0))
    after = meta.dense_rows(0, rows, "train")
    np.testing.assert_array_equal(after, before)

    Xb, yb = meta.dense_batch(np.zeros(rows.size, dtype=np.int64), rows)
    np.testing.assert_array_equal(Xb, before)
    np.testing.assert_array_equal(yb, labels)

    for _, row, _ in instances(meta, "train"):
        assert not np.any(row[mask_idx])


@settings(deadline=None, max_examples=20)
@given(task_bundles(), st.integers(0, 2**31 - 1))
def test_model_outputs_ignore_masked_values(bundle, seed):
    task, _, labels = bundle
    meta = build_meta_dataset([task])
    cfg = MixtureConfig(input_dim=meta.num_concepts, num_tasks=1,
                        num_experts=1, expert_depth=1, expert_width=4,
                        gate_hidden=2, head_hidden=2, seed=seed)
    model = Mixture.standard(cfg)
    rows = np.arange(len(labels))
    before = model.predict_logits(meta.dense_rows(0, rows, "train"), 0)
    task.footprint("train")[:, task.schema.mask_indices()] = 77.0
    after = model.predict_logits(meta.dense_rows(0, rows, "train"), 0)
    np.testing.assert_array_equal(after, before)


# ---------------------------------------------------------------------------
# gradient isolation: tasks absent from a batch get no gate/head gradient


def _check_gradient_isolation(num_tasks, seed, present):
    cfg = MixtureConfig(input_dim=3, num_tasks=num_tasks, num_experts=2,
                        expert_depth=1, expert_width=4, gate_hidden=2,
                        head_hidden=2, seed=seed)
    model = Mixture.standard(cfg)
    rng = np.random.default_rng(seed)
    B = 6
    X = rng.normal(size=(B, 3))
    tasks = rng.choice(sorted(present), size=B)
    y = rng.integers(0, 2, B).astype(float)
    logits, cache = model.forward_batch(X, tasks)
    _, dlogits = logistic_loss(logits, y)
    model.backward_batch(cache, dlogits)
    absent = set(range(num_tasks)) - set(int(t) for t in tasks)
    for t in absent:
        for name, g in model.store.grads.items():
            if name.startswith((f"gate{t}.", f"head{t}.")):
                assert not np.any(g), f"{name} should be untouched"
    # the output bias of each present head collects exactly its rows'
    # dlogits (all of them can cancel to 0, so no "some gradient" guard)
    for t in set(int(t) for t in tasks):
        assert model.store.grads[f"head{t}.l1.b"][0] == dlogits[tasks == t].sum()
    return logits, dlogits


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 4), st.integers(0, 2**31 - 1), st.data())
def test_absent_tasks_receive_no_gradient(num_tasks, seed, data):
    present = data.draw(st.sets(st.integers(0, num_tasks - 1), min_size=1,
                                max_size=num_tasks - 1))
    _check_gradient_isolation(num_tasks, seed, present)


def test_gradient_isolation_holds_when_every_relu_is_dead():
    # seed 3441: every head relu is dead on the 6 rows, every logit is 0 and
    # the dlogits of +-0.5 cancel, so every gradient in the store is 0
    logits, dlogits = _check_gradient_isolation(3, 3441, {0})
    assert not np.any(logits) and dlogits.sum() == 0.0


# ---------------------------------------------------------------------------
# sampler proportions: empirical task frequencies track train-split sizes


@settings(deadline=None, max_examples=25)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=5)
       .filter(lambda s: sum(s) > 0),
       st.integers(0, 2**31 - 1))
def test_sampler_tracks_size_proportions(sizes, seed):
    sampler = BatchSampler(sizes, batch_size=250, seed=seed)
    draws = np.concatenate([sampler.draw()[0] for _ in range(16)])
    total = sum(sizes)
    n = draws.size
    for t, s in enumerate(sizes):
        p = s / total
        freq = float((draws == t).mean())
        # 5 sigma of a binomial proportion; zero-size tasks must never fire
        bound = 5.0 * np.sqrt(max(p * (1 - p), 1e-12) / n)
        if s == 0:
            assert freq == 0.0
        else:
            assert abs(freq - p) <= max(bound, 1e-9)


@settings(deadline=None, max_examples=25)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=4),
       st.integers(0, 2**31 - 1))
def test_sampler_rows_stay_in_range(sizes, seed):
    sampler = BatchSampler(sizes, batch_size=64, seed=seed)
    arr = np.asarray(sizes)
    for _ in range(8):
        tasks, rows = sampler.draw()
        assert np.all(rows >= 0) and np.all(rows < arr[tasks])


# ---------------------------------------------------------------------------
# project/select round-trip: meta-space storage loses nothing


@settings(deadline=None, max_examples=40)
@given(st.lists(task_bundles(), min_size=1, max_size=3))
def test_alignment_round_trip_recovers_raw_task_data(bundles):
    tasks = []
    for i, (task, dense, labels) in enumerate(bundles):
        # re-key each task so ids and labels stay distinct after the union
        vocab = task.schema.task_vocab
        label = LABEL_PREFIX + f"t{i}"
        meta = align_vocabularies([vocab], [label])
        schema = TaskSchema.build(f"t{i}", label, vocab, meta, {label})
        tasks.append(TaskDataset(schema, task.splits))
    aligned = align_tasks(tasks)
    meta = build_meta_dataset(aligned)
    for ti, original in enumerate(tasks):
        rows, labels = recover_task(meta, ti, "train")
        want_rows, want_labels = original.splits["train"]
        assert rows.tobytes() == want_rows.tobytes()
        assert labels.tobytes() == want_labels.tobytes()


# ---------------------------------------------------------------------------
# ROC-AUC equals the brute-force pairwise probability


def _auc_pairs(scores, labels):
    pos = scores[labels == 1.0]
    neg = scores[labels != 1.0]
    wins = sum(1.0 if p > q else 0.5 if p == q else 0.0
               for p in pos for q in neg)
    return wins / (pos.size * neg.size)


@settings(deadline=None, max_examples=80)
@given(st.lists(st.tuples(st.integers(-4, 4), st.booleans()),
                min_size=2, max_size=30)
       .filter(lambda rows: len({b for _, b in rows}) == 2))
def test_auc_equals_pairwise_win_probability(rows):
    s = np.array([float(v) for v, _ in rows])
    y = np.array([1.0 if b else 0.0 for _, b in rows])
    assert abs(roc_auc(s, y) - _auc_pairs(s, y)) <= 1e-12


@settings(deadline=None, max_examples=40)
@given(st.lists(st.tuples(st.floats(-1e6, 1e6, allow_nan=False,
                                    allow_infinity=False),
                          st.booleans()),
                min_size=2, max_size=25)
       .filter(lambda rows: len({b for _, b in rows}) == 2))
def test_auc_handles_arbitrary_float_scores(rows):
    s = np.array([v for v, _ in rows])
    y = np.array([1.0 if b else 0.0 for _, b in rows])
    assert abs(roc_auc(s, y) - _auc_pairs(s, y)) <= 1e-9


# ---------------------------------------------------------------------------
# kappa / F1 match their definitional formulas


@settings(deadline=None, max_examples=80)
@given(st.tuples(st.integers(0, 50), st.integers(0, 50),
                 st.integers(0, 50), st.integers(0, 50))
       .filter(lambda c: sum(c) > 0))
def test_f1_and_kappa_match_hand_formulas(counts):
    tp, fp, tn, fn = counts
    n = sum(counts)
    if tp + fp > 0 and tp + fn > 0:
        prec = tp / (tp + fp)
        rec = tp / (tp + fn)
        want_f1 = 0.0 if prec + rec == 0 else 2 * prec * rec / (prec + rec)
        assert f1_score(tp, fp, tn, fn) == pytest.approx(want_f1, abs=1e-12)
    else:
        assert f1_score(tp, fp, tn, fn) == (0.0 if 2 * tp + fp + fn == 0
                                            else 2 * tp / (2 * tp + fp + fn))
    po = (tp + tn) / n
    pe = ((tp + fp) * (tp + fn) + (fn + tn) * (fp + tn)) / (n * n)
    if pe == 1.0:
        assert cohen_kappa(tp, fp, tn, fn) == 0.0
    else:
        assert cohen_kappa(tp, fp, tn, fn) == pytest.approx(
            (po - pe) / (1 - pe), abs=1e-12)


# ---------------------------------------------------------------------------
# seed determinism: equal seeds give bitwise-equal artifacts


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 2**31 - 1))
def test_init_and_sampler_streams_replay(seed):
    cfg = MixtureConfig(input_dim=4, num_tasks=2, num_experts=2,
                        expert_depth=1, expert_width=4, gate_hidden=2,
                        head_hidden=2, seed=seed)
    a, b = Mixture.standard(cfg), Mixture.standard(cfg)
    for name in a.store.params:
        np.testing.assert_array_equal(a.store.params[name],
                                      b.store.params[name])
    s1 = BatchSampler([5, 9], 32, seed)
    s2 = BatchSampler([5, 9], 32, seed)
    for _ in range(5):
        t1, r1 = s1.draw()
        t2, r2 = s2.draw()
        np.testing.assert_array_equal(t1, t2)
        np.testing.assert_array_equal(r1, r2)


@settings(deadline=None, max_examples=5)
@given(st.integers(0, 10_000))
def test_training_replays_bit_for_bit(seed):
    tasks, _ = make_latent_tasks(seed, latent_dim=4, num_shared=8, window=5,
                                 stride=1, train_n=12, val_n=6, test_n=6)
    meta = build_meta_dataset(tasks)
    cfg = MixtureConfig(input_dim=1, num_tasks=1, num_experts=1,
                        expert_depth=1, expert_width=6, gate_hidden=2,
                        head_hidden=2, seed=seed)
    tcfg = MetaTrainConfig(epochs=2, batch_size=8, lr=1e-2, seed=seed)
    r1 = meta_train(meta, cfg, tcfg)
    r2 = meta_train(build_meta_dataset(tasks), cfg, tcfg)
    assert [x.train_meta_loss for x in r1.rows] \
        == [x.train_meta_loss for x in r2.rows]
    for name, p in r1.model.store.params.items():
        np.testing.assert_array_equal(r2.model.store.params[name], p)


@settings(deadline=None, max_examples=8)
@given(st.integers(0, 2**31 - 1))
def test_synthetic_fixture_replays_bit_for_bit(seed):
    a, ia = make_latent_tasks(seed, latent_dim=4, num_shared=8, window=5,
                              stride=1, train_n=10, val_n=5, test_n=5)
    b, ib = make_latent_tasks(seed, latent_dim=4, num_shared=8, window=5,
                              stride=1, train_n=10, val_n=5, test_n=5)
    assert ia == ib
    for ta, tb in zip(a, b):
        assert ta.schema.causal_mask == tb.schema.causal_mask
        for split in ("train", "val", "test"):
            np.testing.assert_array_equal(ta.labels(split), tb.labels(split))
            assert ta.splits[split][0].tobytes() \
                == tb.splits[split][0].tobytes()
