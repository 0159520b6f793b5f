"""Training engine: objective, determinism, early stopping, adaptation."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskmix.concepts import LABEL_PREFIX, SchemaError, TaskSchema, Vocabulary, \
    align_vocabularies
from taskmix.data import BatchSampler, TaskDataset, align_tasks, \
    build_auxiliary_tasks, build_meta_dataset
from taskmix.metrics import evaluate_model, task_attention
from taskmix import train as train_module
from taskmix.model import BaselineConfig, FeedForwardNet, Mixture, MixtureConfig, \
    Relu, build_baseline, embed_learners, embedding_param_overhead, \
    mixture_param_count
from taskmix.numeric import AdamState, ParamStore, adam_step, clip_grads_, \
    global_grad_norm, logistic_loss, squared_loss
from taskmix.train import (
    ADAPT_LR_GRID,
    AdaptConfig,
    MetaTrainConfig,
    RunRow,
    meta_loss,
    meta_train,
    online_adapt,
    single_task_meta,
    train_baseline,
    write_runlog,
)

from oracles import per_task_meta_loss

SMALL_MIX = dict(num_experts=2, expert_depth=1, expert_width=8,
                 gate_hidden=4, head_hidden=4)


def _toy_task(task_id, names, X, y, *, val=None, test=None, kind="binary"):
    vocab = Vocabulary(names)
    label = LABEL_PREFIX + task_id
    meta = align_vocabularies([vocab], [label])
    schema = TaskSchema.build(task_id, label, vocab, meta, {label},
                              loss_kind=kind)
    def block(rows, labels):
        return (np.asarray(rows, dtype=np.float64),
                np.asarray(labels, dtype=np.float64))
    splits = {"train": block(X, y)}
    if val is not None:
        splits["val"] = block(*val)
    if test is not None:
        splits["test"] = block(*test)
    return TaskDataset(schema, splits)


def _separable_task(task_id="t", n=24, d=4, seed=0, val_n=12):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=d)
    def draw(k):
        X = rng.normal(size=(k, d))
        y = (X @ w > 0).astype(float)
        return X, y
    X, y = draw(n)
    return _toy_task(task_id, [f"x{i}" for i in range(d)], X, y,
                     val=draw(val_n), test=draw(val_n))


def _two_task_meta(seed=0):
    a = _separable_task("a", seed=seed)
    b = _separable_task("b", seed=seed + 100)
    return build_meta_dataset(align_tasks([a, b]))


# ------------------------------------------------------------- objective


def test_meta_loss_is_sum_of_per_task_losses():
    meta = _two_task_meta()
    cfg = MixtureConfig(input_dim=meta.num_concepts, num_tasks=2, seed=0,
                        **SMALL_MIX)
    model = Mixture.standard(cfg)
    got = meta_loss(model, meta, "train")
    want = 0.0
    for t in range(meta.num_tasks):
        X = meta.dense_rows(t, None, "train")
        logits = model.predict_logits(X, t)
        losses, _ = logistic_loss(logits, meta.labels(t, "train"))
        want += losses.sum()
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_meta_loss_chunking_and_head_routing():
    meta = _two_task_meta()
    cfg = MixtureConfig(input_dim=meta.num_concepts, num_tasks=2, seed=1,
                        **SMALL_MIX)
    model = Mixture.standard(cfg)
    a = meta_loss(model, meta, "val", chunk=3)
    b = meta_loss(model, meta, "val", chunk=4096)
    assert abs(a - b) <= 1e-9 * max(1.0, abs(b))
    # dataset task t is scored at head t: a model with its gates and heads
    # swapped changes the value and matches a manual evaluation
    swapped = Mixture(model.store, model.experts, model.gates[::-1],
                      model.heads[::-1], model.input_dim, model.expert_width,
                      model.task_ids[::-1], model.loss_kinds)
    got = meta_loss(swapped, meta, "val")
    want = 0.0
    for t, head in enumerate([1, 0]):
        X = meta.dense_rows(t, None, "val")
        losses, _ = logistic_loss(model.predict_logits(X, head),
                                  meta.labels(t, "val"))
        want += losses.sum()
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
    assert got != a


def _val_task(task_id, n_val, kind, seed):
    rng = np.random.default_rng(seed)
    X, Xv = rng.normal(size=(3, 2)), rng.normal(size=(n_val, 2))
    if kind == "regression":
        y, yv = X[:, 0] - X[:, 1], Xv[:, 0] - Xv[:, 1]
    else:
        y, yv = (X[:, 0] > 0).astype(float), (Xv[:, 0] > 0).astype(float)
    return _toy_task(task_id, ["x0", "x1"], X, y, val=(Xv, yv), kind=kind)


@settings(deadline=None, max_examples=40)
@given(splits=st.lists(st.tuples(st.integers(0, 7), st.booleans()),
                       min_size=1, max_size=4),
       chunk=st.integers(1, 9) | st.just(256), seed=st.integers(0, 2**16))
def test_batched_meta_loss_matches_the_per_task_oracle(splits, chunk, seed):
    tasks = [_val_task(f"t{i}", n, "regression" if reg else "binary",
                       seed + i) for i, (n, reg) in enumerate(splits)]
    meta = build_meta_dataset(align_tasks(tasks))
    model = Mixture.standard(MixtureConfig(
        input_dim=meta.num_concepts, num_tasks=meta.num_tasks, seed=seed,
        **SMALL_MIX))
    got = meta_loss(model, meta, "val", chunk)
    want = per_task_meta_loss(model, meta, "val")
    assert abs(got - want) <= 1e-9 * abs(want)


@settings(deadline=None, max_examples=40)
@given(n=st.integers(0, 23), chunk=st.integers(1, 9),
       kind=st.sampled_from(["binary", "regression"]),
       net=st.sampled_from(["mixture", "feedforward"]),
       seed=st.integers(0, 2**16))
def test_one_task_meta_loss_is_the_per_task_oracle_bit_for_bit(
        n, chunk, kind, net, seed):
    data = build_meta_dataset([_val_task("solo", n, kind, seed)])
    if net == "feedforward":
        model = FeedForwardNet.mlp(data.num_concepts, (3,), seed=seed)
    else:
        model = Mixture.standard(MixtureConfig(
            input_dim=data.num_concepts, num_tasks=1, seed=seed, **SMALL_MIX))
    assert meta_loss(model, data, "val", chunk) \
        == per_task_meta_loss(model, data, "val", chunk)


def test_mixed_kind_batches_use_matching_losses():
    Xr = np.linspace(-1, 1, 12).reshape(-1, 1)
    reg = _toy_task("r", ["x0"], Xr, 0.5 * Xr[:, 0], kind="regression")
    bin_ = _toy_task("c", ["x0"], Xr, (Xr[:, 0] > 0).astype(float))
    meta = build_meta_dataset(align_tasks([reg, bin_]))
    kinds = meta.loss_kinds()
    assert sorted(kinds) == ["binary", "regression"]
    cfg = MixtureConfig(input_dim=meta.num_concepts, num_tasks=2, seed=0,
                        **SMALL_MIX)
    model = Mixture.standard(cfg)
    got = meta_loss(model, meta, "train")
    want = 0.0
    for t in range(2):
        X = meta.dense_rows(t, None, "train")
        logits = model.predict_logits(X, t)
        fn = squared_loss if kinds[t] == "regression" else logistic_loss
        want += fn(logits, meta.labels(t, "train"))[0].sum()
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


# ----------------------------------------------------------- determinism


def test_meta_train_is_seed_deterministic():
    meta = _two_task_meta()
    cfg = MixtureConfig(input_dim=1, num_tasks=1, seed=3, **SMALL_MIX)
    tcfg = MetaTrainConfig(epochs=4, batch_size=8, lr=1e-2, seed=5)
    r1 = meta_train(meta, cfg, tcfg)
    r2 = meta_train(meta, cfg, tcfg)
    assert [row.train_meta_loss for row in r1.rows] \
        == [row.train_meta_loss for row in r2.rows]
    assert [row.val_meta_loss for row in r1.rows] \
        == [row.val_meta_loss for row in r2.rows]
    for n, p in r1.model.store.params.items():
        np.testing.assert_array_equal(r2.model.store.params[n], p)
    r3 = meta_train(meta, cfg, MetaTrainConfig(epochs=4, batch_size=8,
                                               lr=1e-2, seed=6))
    assert [row.train_meta_loss for row in r3.rows] \
        != [row.train_meta_loss for row in r1.rows]


def test_trained_stores_give_their_gradient_buffer_back(monkeypatch):
    fitted = []
    fit = train_module._fit

    def spy(model, *args, **kwargs):
        result = fit(model, *args, **kwargs)
        fitted.append((result.model, result.model.store._flat_grads is None))
        return result

    monkeypatch.setattr(train_module, "_fit", spy)
    task = _separable_task()
    tcfg = MetaTrainConfig(epochs=2, batch_size=8, lr=5e-3, seed=1,
                           patience=1)
    meta = meta_train(_two_task_meta(), MixtureConfig(
        input_dim=1, num_tasks=1, seed=0, **SMALL_MIX), tcfg).model
    train_baseline(task, BaselineConfig(hidden=(4,), seed=0), tcfg)
    one = Mixture.standard(MixtureConfig(
        input_dim=len(task.schema.meta_vocab), num_tasks=1, seed=0,
        **SMALL_MIX), task_ids=[task.schema.task_id])
    online_adapt(one, task, AdaptConfig(epochs=2, batch_size=8,
                                        lrs=(1e-3, 1e-2), seed=0))
    # meta, baseline, and one adaptation candidate per rate
    assert len(fitted) == 4 and fitted[0][0] is meta
    for model, released in fitted:
        assert released
        assert not model.store.flat_grads.any()
        assert all(not g.any() for g in model.store.grads.values())


def test_trace_rows_account_for_every_step():
    meta = _two_task_meta()
    cfg = MixtureConfig(input_dim=1, num_tasks=1, seed=0, **SMALL_MIX)
    tcfg = MetaTrainConfig(epochs=3, batch_size=10, lr=1e-3, seed=0)
    res = meta_train(meta, cfg, tcfg)
    total = int(meta.sizes("train").sum())
    per_epoch = math.ceil(total / tcfg.batch_size)
    assert [r.epoch for r in res.rows] == [1, 2, 3]
    assert [r.step for r in res.rows] == [per_epoch, 2 * per_epoch, 3 * per_epoch]
    assert all(r.wall_time >= 0 for r in res.rows)
    assert not res.stopped_early
    # losses should at least not diverge on separable data
    assert res.rows[-1].train_meta_loss <= res.rows[0].train_meta_loss * 1.5


# ----------------------------------------------------- batching semantics


def test_gradients_add_over_sub_batches():
    meta = _two_task_meta()
    cfg = MixtureConfig(input_dim=meta.num_concepts, num_tasks=2, seed=4,
                        **SMALL_MIX)
    model = Mixture.standard(cfg)
    rng = np.random.default_rng(0)
    tasks = rng.integers(0, 2, size=12)
    rows = rng.integers(0, 24, size=12)
    X, y = meta.dense_batch(tasks, rows, "train")

    def grads_for(sel):
        model.store.zero_grads()
        logits, cache = model.forward_batch(X[sel], tasks[sel])
        _, dlogits = logistic_loss(logits, y[sel])
        model.backward_batch(cache, dlogits)
        return {n: g.copy() for n, g in model.store.grads.items()}

    whole = grads_for(np.arange(12))
    first = grads_for(np.arange(6))
    second = grads_for(np.arange(6, 12))
    for n in whole:
        np.testing.assert_allclose(first[n] + second[n], whole[n],
                                   rtol=1e-9, atol=1e-12)


def _embedded_mixture(k, seed):
    vocab = Vocabulary(["x0", "x1", "x2"])
    labels = [LABEL_PREFIX + f"t{i}" for i in range(k)]
    meta = align_vocabularies([vocab], labels)
    schemas = [TaskSchema.build(f"t{i}", lab, vocab, meta, {lab})
               for i, lab in enumerate(labels)]
    learners = [FeedForwardNet.mlp(len(meta), (3 + i % 2,), seed=seed + i)
                for i in range(k)]
    return embed_learners(learners, schemas)


@settings(deadline=None, max_examples=40)
@given(kind=st.sampled_from(["standard", "embedded"]), k=st.integers(3, 5),
       seed=st.integers(0, 2**16), data=st.data())
def test_norm_and_clip_over_the_written_tensors_are_the_full_ones(
        kind, k, seed, data):
    if kind == "embedded":
        model = _embedded_mixture(k, seed)
    else:
        model = Mixture.standard(MixtureConfig(
            input_dim=5, num_tasks=k, seed=seed, **SMALL_MIX))
    present = data.draw(st.lists(st.integers(0, k - 1), min_size=1,
                                 max_size=k, unique=True))
    rng = np.random.default_rng(seed)
    tasks = rng.choice(present, size=10)
    X = rng.normal(size=(10, model.input_dim))
    dlogits = rng.normal(size=10) * 10.0 ** rng.integers(-2, 3)
    bound = model.copy()
    owner = bound.tensor_tasks()
    positions = np.flatnonzero((owner < 0) | np.isin(owner, tasks)).tolist()
    sizes = [p.size for p in bound.store.params.values()]
    bound.store.bind(positions, sum(sizes[i] for i in positions))
    for m in (model, bound):
        logits, cache = m.forward_batch(X, tasks)
        m.backward_batch(cache, dlogits)
    store = model.store

    mine = {n for t in set(tasks.tolist())
            for op in model.gates[t] + model.heads[t]
            if not isinstance(op, Relu) for n in (op.w, op.b)}
    shared = {n for ops in model.experts for op in ops
              if not isinstance(op, Relu) for n in (op.w, op.b)}
    assert list(bound.store.grads) == [
        n for n in store.names() if n in mine | shared]
    for n, g in store.grads.items():
        if n not in mine | shared:
            assert not np.any(g) and not np.any(np.signbit(g)), n

    full = global_grad_norm(store)
    assert global_grad_norm(bound.store) == full
    cap = data.draw(st.sampled_from([0.5, 2.0])) * full
    assert clip_grads_(bound.store, cap) == full
    assert clip_grads_(store, cap) == full
    for n, g in bound.store.grads.items():
        assert g.tobytes() == store.grads[n].tobytes(), n


def _slot_sizes(model):
    # floats of the shared tensors and of one task's gate and head
    names = model.store.names()
    owner = model.tensor_tasks()
    size = [model.store.params[n].size for n in names]
    return (sum(s for s, o in zip(size, owner) if o < 0),
            sum(s for s, o in zip(size, owner) if o == 0))


def _full_buffer(monkeypatch):
    # train with every gradient stored, as when a batch holds every task
    monkeypatch.setattr(train_module, "_task_slots", lambda model, n: None)


def test_meta_train_clips_over_written_tensors_as_over_the_store(
        monkeypatch):
    _, meta = _three_aligned_tasks()
    mcfg = MixtureConfig(input_dim=1, num_tasks=1, seed=2, **SMALL_MIX)
    tcfg = MetaTrainConfig(epochs=2, batch_size=2, lr=1e-2, seed=3,
                           clip_norm=0.05)
    task_slots = train_module._task_slots
    binders = []
    monkeypatch.setattr(train_module, "_task_slots", lambda model, n:
                        binders.append(task_slots(model, n)) or binders[-1])
    subset = meta_train(meta, mcfg, tcfg)
    assert binders[0] is not None  # 3 tasks, batches of 2: bound, clipped
    _full_buffer(monkeypatch)
    full = meta_train(meta, mcfg, tcfg)
    assert subset.model.store.flat_params.tobytes() \
        == full.model.store.flat_params.tobytes()
    assert [r.val_meta_loss for r in subset.rows] \
        == [r.val_meta_loss for r in full.rows]


def _uneven_three_task_mixture():
    # task 2's head is wider than the others', as a hand-made checkpoint's
    # could be
    tasks, model, _ = _standard_three_task_mixture()
    rng = np.random.default_rng(5)
    arrays = dict(model.store.params)
    arrays.update({"head2.l0.w": rng.normal(size=(8, 6)),
                   "head2.l0.b": np.zeros(6),
                   "head2.l1.w": rng.normal(size=(6, 1))})
    return tasks, Mixture(
        ParamStore.from_arrays(arrays), model.experts, model.gates,
        model.heads, model.input_dim, model.expert_width, model.task_ids,
        model.loss_kinds, model.vocab_fingerprint)


def test_tasks_of_different_shapes_train_bound_as_unbound(monkeypatch):
    tasks, model = _uneven_three_task_mixture()
    meta = build_meta_dataset(tasks)
    tcfg = MetaTrainConfig(epochs=2, batch_size=2, lr=1e-2, seed=3,
                           clip_norm=0.05)
    sizes = []

    def spy(store, state, lr):
        sizes.append(store.flat_grads.size)
        adam_step(store, state, lr)

    monkeypatch.setattr(train_module, "adam_step", spy)
    bound = meta_train(meta, model.copy(), tcfg)
    shared, per_task = _slot_sizes(model)
    wide = per_task + (6 - 4) * (8 + 1 + 1)
    assert set(sizes) == {shared + per_task + wide}  # the two largest tasks
    _full_buffer(monkeypatch)
    full = meta_train(meta, model.copy(), tcfg)
    assert bound.model.store.flat_params.tobytes() \
        == full.model.store.flat_params.tobytes()
    assert [r.val_meta_loss for r in bound.rows] \
        == [r.val_meta_loss for r in full.rows]


def test_madelon_width_step_buffer_is_shared_plus_a_batch_of_tasks():
    # hc500-meta's mixture: 501 tasks over 501 concepts, batches of 256
    model = Mixture.standard(MixtureConfig(
        input_dim=501, num_tasks=501, num_experts=3, expert_depth=2,
        expert_width=256, gate_hidden=32, head_hidden=32))
    assert _slot_sizes(model) == (780_288, 24_420)
    bind = train_module._task_slots(model, 256)
    bind(np.repeat(np.arange(245, 501), 2))  # a batch of 256 tasks
    assert model.store.flat_grads.size == 780_288 + 256 * 24_420
    assert len(model.store.grads) == 3 * 6 + 256 * 8


def test_more_tasks_than_a_batch_train_in_task_slots(monkeypatch):
    _, meta = _three_aligned_tasks()
    mcfg = MixtureConfig(input_dim=1, num_tasks=1, seed=2, **SMALL_MIX)
    steps = []

    def spy(store, state, lr):
        steps.append((store.flat_grads.size, list(store.grads)))
        adam_step(store, state, lr)

    monkeypatch.setattr(train_module, "adam_step", spy)
    result = meta_train(meta, mcfg, MetaTrainConfig(
        epochs=2, batch_size=2, lr=1e-2, seed=0))
    model, store = result.model, result.model.store
    shared, per_task = _slot_sizes(model)
    assert {size for size, _ in steps} == {shared + 2 * per_task}
    assert len(steps) == 2 * math.ceil(meta.sizes("train").sum() / 2)
    # a step holds gradients for the experts and at most two tasks
    owner = dict(zip(store.names(), model.tensor_tasks()))
    assert all(len({owner[n] for n in names} - {-1}) <= 2
               for _, names in steps)
    assert store._flat_grads is None and store._runs is None
    # back to the full layout: a plain backward fills every tensor
    tasks = np.array([0, 1, 2, 0])
    X, y = meta.dense_batch(tasks, np.array([0, 1, 2, 3]), "train")
    logits, cache = model.forward_batch(X, tasks)
    model.backward_batch(cache, logistic_loss(logits, y)[1])
    assert list(store.grads) == store.names()
    assert store.flat_grads.size == store.num_params()
    assert all(np.any(store.grads[f"head{t}.l1.b"]) for t in range(3))


# ------------------------------------------------- early stopping / abort


def test_patience_restores_best_validation_snapshot():
    meta = _two_task_meta()
    cfg = MixtureConfig(input_dim=1, num_tasks=1, seed=1, **SMALL_MIX)
    # a destructive learning rate guarantees the objective deteriorates
    tcfg = MetaTrainConfig(epochs=40, batch_size=8, lr=2.0, seed=1, patience=2)
    res = meta_train(meta, cfg, tcfg)
    assert res.stopped_early
    assert len(res.rows) < 40
    assert math.isfinite(res.best_val)
    restored = meta_loss(res.model, meta, "val")
    assert abs(restored - res.best_val) <= 1e-9 * max(1.0, res.best_val)
    vals = [r.val_meta_loss for r in res.rows]
    assert min(vals) == res.best_val


def test_patience_zero_never_stops_or_restores():
    meta = _two_task_meta()
    cfg = MixtureConfig(input_dim=1, num_tasks=1, seed=1, **SMALL_MIX)
    tcfg = MetaTrainConfig(epochs=6, batch_size=8, lr=2.0, seed=1, patience=0)
    res = meta_train(meta, cfg, tcfg)
    assert not res.stopped_early
    assert len(res.rows) == 6
    final = meta_loss(res.model, meta, "val")
    assert abs(final - res.rows[-1].val_meta_loss) <= 1e-9 * max(1.0, final)


def test_nonfinite_loss_aborts_with_location():
    meta = _two_task_meta()
    cfg = MixtureConfig(input_dim=meta.num_concepts, num_tasks=2, seed=0,
                        **SMALL_MIX)
    model = Mixture.standard(cfg, task_ids=[t.schema.task_id for t in meta.tasks],
                             loss_kinds=meta.loss_kinds(),
                             vocab_fingerprint=meta.meta_vocab.fingerprint())
    model.store.params["expert0.l0.w"][:] = np.inf
    with np.errstate(invalid="ignore"), \
            pytest.raises(RuntimeError,
                          match=r"non-finite training loss at step 1"):
        meta_train(meta, model, MetaTrainConfig(epochs=1, batch_size=4, seed=0))


def test_meta_train_validates_model_and_data():
    meta = _two_task_meta()
    wrong_heads = Mixture.standard(MixtureConfig(
        input_dim=meta.num_concepts, num_tasks=3, seed=0, **SMALL_MIX))
    with pytest.raises(SchemaError, match="heads"):
        meta_train(meta, wrong_heads, MetaTrainConfig(epochs=1))
    wrong_width = Mixture.standard(MixtureConfig(
        input_dim=meta.num_concepts + 1, num_tasks=2, seed=0, **SMALL_MIX))
    with pytest.raises(SchemaError, match="input width"):
        meta_train(meta, wrong_width, MetaTrainConfig(epochs=1))
    empty = _toy_task("e", ["x0"], np.zeros((0, 1)), np.zeros(0))
    with pytest.raises(ValueError, match="no training instances"):
        meta_train(build_meta_dataset([empty]), MixtureConfig(
            input_dim=1, num_tasks=1, **SMALL_MIX), MetaTrainConfig(epochs=1))


# --------------------------------------------------------------- baseline


def test_baseline_never_updates_masked_coordinates():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(30, 3))
    y = (X[:, 0] > 0).astype(float)
    X[:, 2] = y * 2.0  # perfect leak, active exactly on positives
    task = _toy_task("t", ["x0", "x1", "x2"], X, y, val=(X[:5], y[:5]))
    # recompute the mask from data so x2 lands in it
    task = align_tasks([task], min_support=2)[0]
    assert "x2" in task.schema.causal_mask
    bcfg = BaselineConfig(hidden=(), seed=9)
    res = train_baseline(task, bcfg, MetaTrainConfig(epochs=10, batch_size=8,
                                                     lr=1e-2, seed=0))
    fresh = build_baseline(bcfg, input_dim=3)
    leak = task.schema.task_vocab.index("x2")
    live = task.schema.task_vocab.index("x0")
    w_trained = res.model.store.params["layer0.w"]
    w_init = fresh.store.params["layer0.w"]
    assert w_trained[leak, 0] == w_init[leak, 0]  # no gradient ever arrives
    assert w_trained[live, 0] != w_init[live, 0]


def test_baseline_learns_separable_data():
    task = _separable_task(seed=3)
    res = train_baseline(task, BaselineConfig(hidden=(8,), seed=0),
                         MetaTrainConfig(epochs=40, batch_size=8, lr=1e-2,
                                         seed=0))
    X = task.dense("test")
    logits = res.model.predict_logits(X)
    acc = ((logits > 0) == (task.labels("test") > 0.5)).mean()
    assert acc >= 0.9


# -------------------------------------------------------------- adaptation


def test_online_adapt_keeps_initial_model_when_no_rate_helps():
    task = _separable_task(seed=1)
    meta = build_meta_dataset([task])
    cfg = MixtureConfig(input_dim=meta.num_concepts, num_tasks=1, seed=0,
                        **SMALL_MIX)
    model = Mixture.standard(cfg, task_ids=[task.schema.task_id],
                             loss_kinds=["binary"],
                             vocab_fingerprint=task.schema.meta_vocab.fingerprint())
    res = online_adapt(model, task, AdaptConfig(epochs=2, batch_size=8,
                                                lrs=(0.0,), seed=0))
    assert res.lr == 0.0
    assert res.rows == []
    assert list(res.lr_curves) == [0.0]
    for n, p in model.store.params.items():
        np.testing.assert_array_equal(res.model.store.params[n], p)


def test_online_adapt_picks_the_improving_rate():
    task = _separable_task(seed=2)
    meta = build_meta_dataset([task])
    cfg = MixtureConfig(input_dim=meta.num_concepts, num_tasks=1, seed=0,
                        **SMALL_MIX)
    model = Mixture.standard(cfg, task_ids=[task.schema.task_id],
                             loss_kinds=["binary"],
                             vocab_fingerprint=task.schema.meta_vocab.fingerprint())
    base = meta_loss(model, meta, "val")  # exact objective of the selector
    res = online_adapt(model, task, AdaptConfig(epochs=8, batch_size=8,
                                                lrs=(0.0, 1e-2), seed=0))
    assert res.lr == 1e-2
    assert res.best_val < base
    assert set(res.lr_curves) == {0.0, 1e-2}
    assert len(res.lr_curves[1e-2]) == 8
    assert min(res.lr_curves[1e-2]) == res.best_val
    assert res.rows[-1].val_meta_loss >= res.best_val


def _val_loss(model, meta, head):
    X = meta.dense_rows(0, None, "val")
    losses, _ = logistic_loss(model.predict_logits(X, head),
                              meta.labels(0, "val"))
    return float(losses.sum())


def _adapt_with_store_snapshots(model, task, cfg):
    # online_adapt as it was: Adam over a copy of the full mixture for every
    # rate, and a full store copy on every validation improvement, loaded
    # into a copy of the model at the end
    head = model.task_ids.index(task.schema.task_id)
    meta = build_meta_dataset([task])
    best_val = _val_loss(model, meta, head)
    best_store = model.store.copy()
    best_lr = 0.0
    curves = {}
    n = int(meta.sizes("train").sum())
    for lr in cfg.lrs:
        candidate = model.copy()
        sampler = BatchSampler(meta.sizes("train"), cfg.batch_size, cfg.seed)
        adam = AdamState.for_store(candidate.store)
        curves[lr] = []
        for _ in range(cfg.epochs):
            for _ in range(math.ceil(n / cfg.batch_size)):
                _, rws = sampler.draw()
                X = meta.dense_rows(0, rws, "train")
                y = meta.labels(0, "train")[rws]
                logits, cache = candidate.forward_batch(
                    X, np.full(rws.size, head))
                candidate.backward_batch(cache, logistic_loss(logits, y)[1])
                adam_step(candidate.store, adam, lr)
            val = _val_loss(candidate, meta, head)
            curves[lr].append(val)
            if val < best_val:
                best_val, best_store, best_lr = val, candidate.store.copy(), lr
    out = model.copy()
    np.copyto(out.store.flat_params, best_store.flat_params)
    return out, best_val, best_lr, curves


def test_online_adapt_flat_snapshot_matches_store_copies():
    task = _separable_task(seed=5, n=40)
    meta = build_meta_dataset([task])
    cfg = MixtureConfig(input_dim=meta.num_concepts, num_tasks=1, seed=3,
                        **SMALL_MIX)
    model = Mixture.standard(cfg, task_ids=[task.schema.task_id],
                             loss_kinds=["binary"],
                             vocab_fingerprint=task.schema.meta_vocab.fingerprint())
    acfg = AdaptConfig(epochs=6, batch_size=8, lrs=(3e-3, 0.3, 1e-2), seed=1)
    res = online_adapt(model, task, acfg)
    want, want_val, _, _ = _adapt_with_store_snapshots(model, task, acfg)
    assert res.lr != 0.0
    assert res.best_val == want_val
    assert res.model.store.flat_params.tobytes() == \
        want.store.flat_params.tobytes()


def _three_aligned_tasks():
    tasks = align_tasks([_separable_task(name, seed=seed, n=40)
                         for name, seed in (("a", 11), ("b", 12), ("c", 13))])
    return tasks, build_meta_dataset(tasks)


def _standard_three_task_mixture():
    tasks, meta = _three_aligned_tasks()
    cfg = MixtureConfig(input_dim=meta.num_concepts, num_tasks=3, seed=4,
                        **SMALL_MIX)
    model = Mixture.standard(
        cfg, task_ids=[t.schema.task_id for t in tasks],
        loss_kinds=meta.loss_kinds(),
        vocab_fingerprint=meta.meta_vocab.fingerprint())
    return tasks, model, mixture_param_count(replace(cfg, num_tasks=1))


def _embedded_three_task_mixture():
    tasks, meta = _three_aligned_tasks()
    c = meta.num_concepts
    learners = [FeedForwardNet.mlp(c, h, seed=s)
                for s, h in enumerate([(5,), (4, 3), (6,)])]
    model = embed_learners(learners, [t.schema for t in tasks],
                           vocab_fingerprint=meta.meta_vocab.fingerprint())
    # one task's share of the gate/head overhead on top of every learner
    size = sum(l.store.num_params() for l in learners) \
        + embedding_param_overhead(c, 3) // 3
    return tasks, model, size


@pytest.mark.parametrize("build,head", [(_standard_three_task_mixture, 2),
                                        (_embedded_three_task_mixture, 1)])
def test_online_adapt_matches_full_model_adaptation(build, head, monkeypatch):
    tasks, model, sub_size = build()
    sizes = []
    fit = train_module._fit

    def spy(candidate, *args, **kwargs):
        sizes.append(candidate.store.num_params())
        return fit(candidate, *args, **kwargs)

    monkeypatch.setattr(train_module, "_fit", spy)
    acfg = AdaptConfig(epochs=4, batch_size=8, lrs=(1e-3, 3e-2, 1e-2), seed=2)
    res = online_adapt(model, tasks[head], acfg)
    want, want_val, want_lr, want_curves = \
        _adapt_with_store_snapshots(model, tasks[head], acfg)

    assert res.lr != 0.0
    assert res.lr == want_lr
    assert res.best_val == want_val
    assert res.lr_curves == want_curves
    assert res.model.store.flat_params.tobytes() == \
        want.store.flat_params.tobytes()
    # the other tasks' gates and heads come out untouched
    others = {n for t in range(model.num_tasks) if t != head
              for op in model.gates[t] + model.heads[t]
              if not isinstance(op, Relu) for n in (op.w, op.b)}
    assert others
    for name in others:
        assert res.model.store.params[name].tobytes() == \
            model.store.params[name].tobytes()
    # adaptation allocated and trained only the one-task share
    assert sizes == [sub_size] * len(acfg.lrs)
    assert sub_size < model.store.num_params()


def _one_task_mixture(task, seed=0):
    cfg = MixtureConfig(input_dim=len(task.schema.meta_vocab), num_tasks=1,
                        seed=seed, **SMALL_MIX)
    return Mixture.standard(
        cfg, task_ids=[task.schema.task_id], loss_kinds=["binary"],
        vocab_fingerprint=task.schema.meta_vocab.fingerprint())


def test_online_adapt_nonfinite_loss_names_the_rate():
    task = _separable_task(seed=6)
    model = _one_task_mixture(task)
    # finite at the start, driven to overflow by an absurd rate
    with np.errstate(all="ignore"), \
            pytest.raises(RuntimeError,
                          match=r"non-finite training loss .*lr=1e\+300"):
        online_adapt(model, task, AdaptConfig(epochs=3, batch_size=8,
                                              lrs=(1e-3, 1e300), seed=0))


def test_online_adapt_without_val_rows_keeps_the_initial_model():
    X = np.random.default_rng(7).normal(size=(16, 3))
    task = _toy_task("t", ["x0", "x1", "x2"], X, (X[:, 0] > 0).astype(float),
                     val=(np.zeros((0, 3)), np.zeros(0)))
    model = _one_task_mixture(task, seed=2)
    res = online_adapt(model, task, AdaptConfig(epochs=2, batch_size=8,
                                                lrs=(1e-2, 1e-1), seed=0))
    assert res.lr == 0.0 and res.best_val == 0.0 and res.rows == []
    assert set(res.lr_curves) == {1e-2, 1e-1}
    assert all(len(c) == 2 and all(math.isnan(v) for v in c)
               for c in res.lr_curves.values())
    assert res.model.store.flat_params.tobytes() == \
        model.store.flat_params.tobytes()


def test_online_adapt_validates_vocabulary_and_head():
    task = _separable_task(seed=4)
    cfg = MixtureConfig(input_dim=5, num_tasks=1, seed=0, **SMALL_MIX)
    stale = Mixture.standard(cfg, task_ids=[task.schema.task_id],
                             loss_kinds=["binary"],
                             vocab_fingerprint="0" * 64)
    with pytest.raises(SchemaError, match="meta-vocabulary"):
        online_adapt(stale, task, AdaptConfig(epochs=1))
    unnamed = Mixture.standard(cfg, task_ids=["somebody_else"],
                               loss_kinds=["binary"],
                               vocab_fingerprint=task.schema.meta_vocab.fingerprint())
    with pytest.raises(SchemaError, match="no head"):
        online_adapt(unnamed, task, AdaptConfig(epochs=1))


def test_adapt_lr_grid_is_log_spaced():
    lo, mid, hi = ADAPT_LR_GRID
    assert lo < mid < hi
    assert abs(mid - math.sqrt(lo * hi)) <= 1e-18


# ------------------------------------------------------------ single task


def test_single_task_meta_wires_the_whole_pipeline():
    task = _separable_task(n=20, d=3, seed=5)
    cfg = MixtureConfig(input_dim=1, num_tasks=1, seed=0, **SMALL_MIX)
    res = single_task_meta(task, cfg,
                           MetaTrainConfig(epochs=2, batch_size=8, lr=1e-3,
                                           seed=0),
                           AdaptConfig(epochs=2, batch_size=8, seed=0),
                           aux_policy="sample", sample_k=2, aux_seed=0)
    assert res.meta.tasks[0].schema.task_id == "t"
    assert res.info["num_aux"] == 2
    assert res.info["aux_policy"] == "sample:2"
    assert res.meta.num_tasks == 3
    assert res.meta_model.num_tasks == 3
    assert res.adapted_model.task_ids == res.meta_model.task_ids
    assert res.info["adapt_lr"] in (0.0,) + ADAPT_LR_GRID
    assert len(res.train_rows) == 2
    # the supervised head still predicts after adaptation
    X = res.meta.dense_rows(0, None, "test")
    assert np.all(np.isfinite(res.adapted_model.predict_logits(X, 0)))


def test_stored_data_is_never_written():
    """Training, adaptation, evaluation and attention only read the stored
    task splits and footprints, including the split table that is a stored
    array itself: every one keeps its bytes."""
    base = _separable_task("base", n=20, d=3, seed=5, val_n=8)
    meta = build_meta_dataset([base] + build_auxiliary_tasks(base, "all"))
    stored = [t.footprint(sp) for t in meta.tasks for sp in t.splits] + [
        a for t in meta.tasks for split in t.splits.values() for a in split]
    before = [a.tobytes() for a in stored]
    cfg = MixtureConfig(input_dim=meta.num_concepts, num_tasks=meta.num_tasks,
                        seed=0, **SMALL_MIX)
    fit = MetaTrainConfig(epochs=2, batch_size=8, lr=1e-2, seed=0)
    model = meta_train(meta, cfg, fit).model
    meta_loss(model, meta, "val")
    evaluate_model(model, meta, 0, "test")
    task_attention(model, meta, "val")
    online_adapt(model, base, AdaptConfig(epochs=1, batch_size=8,
                                          lrs=(1e-3,), seed=0))
    train_baseline(base, BaselineConfig(hidden=(4,), seed=0), fit)
    for t, task in enumerate(meta.tasks):  # the readers behind them
        meta.dense_rows(t, None, "train")
        task.dense("train")
    assert meta._split_tables("train")[0] is base.footprint("train")
    assert [a.tobytes() for a in stored] == before


# ----------------------------------------------------------------- runlog


def test_write_runlog_round_trips_floats(tmp_path):
    rows = [RunRow(10, 1, 123.456789012345, 7.1, 0.5),
            RunRow(20, 2, 99.5, math.nan, 1.25)]
    p = tmp_path / "run.csv"
    text = write_runlog(p, rows)
    assert p.read_text() == text
    lines = text.strip().split("\n")
    assert lines[0] == "step,epoch,train_meta_loss,val_meta_loss,wall_time"
    first = lines[1].split(",")
    assert first[0] == "10" and first[1] == "1"
    assert float(first[2]) == 123.456789012345  # repr() keeps full precision
    assert math.isnan(float(lines[2].split(",")[3]))
    assert first[4] == "0.500"
    assert write_runlog(None, rows) == text
