"""Mixture network: shapes, gradients, embedding construction, checkpoints."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskmix.concepts import LABEL_PREFIX, TaskSchema, Vocabulary, align_vocabularies
from taskmix.model import (
    Affine,
    BaselineConfig,
    FeedForwardNet,
    Mixture,
    MixtureConfig,
    Relu,
    ResBlock,
    build_baseline,
    stack_backward,
    stack_forward,
    embed_learners,
    embedding_param_overhead,
    load_checkpoint,
    mixture_forward_flops,
    mixture_param_count,
    save_checkpoint,
)
from taskmix.numeric import DimensionError, ParamStore, finite_diff_check, logistic_loss

TINY = MixtureConfig(input_dim=6, num_tasks=2, num_experts=2, expert_depth=2,
                     expert_width=8, gate_hidden=4, head_hidden=3, seed=0)


# ------------------------------------------------------------ bookkeeping


def test_param_count_matches_hand_computation():
    # experts: 2 * ((6*8+8) + 2*(8*8+8)) = 2 * 200
    # gates:   2 * ((6*4+4) + (4*2+2))  = 2 * 38
    # heads:   2 * ((8*3+3) + (3*1+1))  = 2 * 31
    assert mixture_param_count(TINY) == 2 * 200 + 2 * 38 + 2 * 31 == 538
    model = Mixture.standard(TINY)
    assert model.store.num_params() == 538


def test_forward_flops_match_hand_computation():
    # expert: (2*6*8+8) + 2*((2*8*8+8) + 2*8) = 104 + 2*152 = 408, twice
    # gate: (2*6*4+4) + 4 + (2*4*2+2) + 4*2 = 52 + 4 + 18 + 8 = 82
    # combine: (2*2-1)*8 = 24; head: (2*8*3+3) + 3 + (2*3+1) = 51 + 3 + 7
    assert mixture_forward_flops(TINY) == 2 * 408 + 82 + 24 + 61 == 983


def test_config_rejects_nonpositive_dimensions():
    with pytest.raises(ValueError):
        MixtureConfig(input_dim=0, num_tasks=1)
    with pytest.raises(ValueError):
        MixtureConfig(input_dim=3, num_tasks=1, expert_depth=0)
    for bad in (2.5, True, np.int64(2), "2"):
        with pytest.raises(ValueError, match="is not an int"):
            MixtureConfig(input_dim=3, num_tasks=1, num_experts=bad)
    with pytest.raises(ValueError, match="seed nan is not an int"):
        MixtureConfig(input_dim=3, num_tasks=1, seed=float("nan"))


def test_standard_init_is_seed_deterministic():
    a = Mixture.standard(TINY)
    b = Mixture.standard(TINY)
    for name in a.store.params:
        np.testing.assert_array_equal(a.store.params[name],
                                      b.store.params[name])
    c = Mixture.standard(MixtureConfig(**{**TINY.__dict__, "seed": 1}))
    assert any(not np.array_equal(a.store.params[n], c.store.params[n])
               for n in a.store.params)


def test_mixture_requires_one_gate_and_head_per_task():
    m = Mixture.standard(TINY)
    with pytest.raises(DimensionError):
        Mixture(m.store, m.experts, m.gates[:1], m.heads, m.input_dim,
                m.expert_width, m.task_ids, m.loss_kinds)


# ------------------------------------------------------- batched forward


def test_forward_batch_validates_shapes():
    m = Mixture.standard(TINY)
    with pytest.raises(DimensionError):
        m.forward_batch(np.zeros((4, 5)), np.zeros(4, dtype=np.int64))
    with pytest.raises(DimensionError):
        m.forward_batch(np.zeros((4, 6)), np.zeros(3, dtype=np.int64))
    with pytest.raises(DimensionError):
        m.forward_batch(np.zeros((4, 6)), np.array([0, 1, 2, 0]))


def test_mixed_batch_equals_per_row_forward():
    rng = np.random.default_rng(3)
    m = Mixture.standard(TINY)
    X = rng.normal(size=(10, 6))
    tasks = rng.integers(0, 2, size=10)
    logits, _ = m.forward_batch(X, tasks)
    for i in range(10):
        one, _ = m.forward_batch(X[i:i + 1], tasks[i:i + 1])
        # grouping must not change the math (BLAS may vary the last ulp)
        np.testing.assert_allclose(logits[i], one[0], rtol=1e-12, atol=1e-12)


def test_forward_batch_is_expert_half_then_task_half():
    rng = np.random.default_rng(5)
    m = Mixture.standard(TINY)
    X = rng.normal(size=(9, 6))
    tasks = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1])
    logits, _ = m.forward_batch(X, tasks)
    U, _ = m.expert_forward(X)
    for t in (0, 1):
        rows = np.flatnonzero(tasks == t)
        z, _ = m.task_forward(t, X[rows], U[:, rows, :])
        np.testing.assert_array_equal(z, logits[rows])


def test_predict_logits_chunking_is_invisible():
    rng = np.random.default_rng(4)
    m = Mixture.standard(TINY)
    X = rng.normal(size=(23, 6))
    np.testing.assert_array_equal(m.predict_logits(X, 1, chunk=5),
                                  m.predict_logits(X, 1, chunk=1000))
    assert m.predict_logits(np.zeros((0, 6)), 0).shape == (0,)


def _predict_model(kind, k, seed):
    if kind == "feedforward":
        return FeedForwardNet.mlp(5, (4, 3), seed=seed), 1
    if kind == "embedded":
        meta, schemas = _schemas(["x0", "x1", "x2"],
                                 [f"t{i}" for i in range(k)])
        learners = [FeedForwardNet.mlp(len(meta), (3 + i % 2,), seed=seed + i)
                    for i in range(k)]
        return embed_learners(learners, schemas), k
    cfg = MixtureConfig(input_dim=5, num_tasks=k, num_experts=2,
                        expert_depth=2, expert_width=6, gate_hidden=3,
                        head_hidden=3, seed=seed)
    return Mixture.standard(cfg), k


@settings(deadline=None, max_examples=60)
@given(kind=st.sampled_from(["standard", "embedded", "feedforward"]),
       k=st.integers(3, 5), n=st.integers(0, 23), chunk=st.integers(1, 9),
       seed=st.integers(0, 2**16))
def test_predict_logits_is_the_cache_keeping_forward_bit_for_bit(
        kind, k, n, chunk, seed):
    model, heads = _predict_model(kind, k, seed)
    X = np.random.default_rng(seed).normal(size=(n, model.input_dim))
    for head in range(heads):
        want = [model.forward_batch(X[s:s + chunk],
                                    np.full(min(chunk, n - s), head))[0]
                for s in range(0, n, chunk)]
        want = np.concatenate(want) if want else np.zeros(0)
        assert model.predict_logits(X, head, chunk).tobytes() == want.tobytes()
        ids = np.full(n, head)
        kept, cache = model.forward_batch(X, ids)
        assert cache
        bare, none = model.forward_batch(X, ids, keep=False)
        assert not none
        assert bare.tobytes() == kept.tobytes()
    if isinstance(model, Mixture):
        assert model.expert_forward(X, keep=False)[1] is None
        U, _ = model.expert_forward(X)
        assert model.task_forward(0, X, U, keep=False)[1] is None
    ops = model.ops if kind == "feedforward" else model.experts[0]
    assert stack_forward(model.store, ops, X, keep=False)[1] == []
    assert len(stack_forward(model.store, ops, X)[1]) == len(ops)


def test_predict_logits_holds_no_backward_caches():
    # hc124 size: 3 experts of 3 residual blocks at width 128, 125 tasks
    cfg = MixtureConfig(input_dim=125, num_tasks=125, num_experts=3,
                        expert_depth=3, expert_width=128, seed=0)
    model = Mixture.standard(cfg)
    X = np.random.default_rng(0).normal(size=(1000, 125))
    ids = np.zeros(1000, dtype=np.int64)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = model.forward_batch(X, ids)
        held = tracemalloc.get_traced_memory()[0] - before
        del result
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        model.predict_logits(X, 0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert held > 20e6  # every layer's activations for 1000 rows
    assert peak < held / 2, (peak, held)


def test_one_task_forward_copies_neither_inputs_nor_expert_outputs():
    # hc124 size, as in every predict chunk and adaptation step
    cfg = MixtureConfig(input_dim=125, num_tasks=125, num_experts=3,
                        expert_depth=3, expert_width=128, seed=0)
    model = Mixture.standard(cfg)
    X = np.random.default_rng(0).normal(size=(1000, 125))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        U, _ = model.expert_forward(X, keep=False)
        want, _ = model.task_forward(0, X, U, keep=False)
        halves = tracemalloc.get_traced_memory()[1] - before
        del U
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        got = model.predict_logits(X, 0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    # copies of X[rows] (1 MB) and U[:, rows] (3 MB) would show here
    assert peak < halves + X.nbytes / 4, (peak, halves)


@settings(deadline=None, max_examples=30)
@given(kind=st.sampled_from(["standard", "embedded"]),
       n=st.integers(1, 9), seed=st.integers(0, 2**16))
def test_one_task_batches_match_the_row_indexed_path_bit_for_bit(kind, n,
                                                                  seed):
    model, _ = _predict_model(kind, 3, seed)
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, model.input_dim))
    ids = np.full(n, 1)
    logits, cache = model.forward_batch(X, ids)
    Xc, ids_c, U, expert_caches, groups = cache
    [(t, rows, G, V, gate_cache, head_cache)] = groups
    assert rows == slice(None)
    z, _ = model.task_forward(1, X[np.arange(n)], U[:, np.arange(n), :])
    assert logits.tobytes() == z.tobytes()
    dlogits = rng.normal(size=n)
    model.backward_batch(cache, dlogits)
    want = model.store.flat_grads.copy()
    model.store.zero_grads()
    indexed = [(t, np.arange(n), G, V, gate_cache, head_cache)]
    model.backward_batch((Xc, ids_c, U, expert_caches, indexed), dlogits)
    assert model.store.flat_grads.tobytes() == want.tobytes()


@settings(deadline=None, max_examples=60)
@given(first=st.sampled_from(["affine", "resblock", "relu"]),
       rest=st.lists(st.sampled_from(["affine", "resblock", "relu"]),
                     max_size=3),
       n=st.integers(1, 9), seed=st.integers(0, 2**16))
def test_stack_backward_without_input_grad_keeps_parameter_grads(
        first, rest, n, seed):
    rng = np.random.default_rng(seed)
    width, arrays, ops = 4, {}, []
    for i, kind in enumerate([first] + rest):
        if kind == "relu":
            ops.append(Relu())
            continue
        arrays[f"l{i}.w"] = rng.normal(size=(width, width))
        arrays[f"l{i}.b"] = rng.normal(size=width)
        ops.append((Affine if kind == "affine" else ResBlock)(f"l{i}.w",
                                                              f"l{i}.b"))
    store = ParamStore.from_arrays(arrays)
    out, caches = stack_forward(store, ops, rng.normal(size=(n, width)))
    dy = rng.normal(size=out.shape)
    dx = stack_backward(store, ops, caches, dy)
    assert dx.shape == (n, width)
    want = store.flat_grads.copy()
    store.zero_grads()
    assert stack_backward(store, ops, caches, dy, input_grad=False) is None
    assert store.flat_grads.tobytes() == want.tobytes()


def test_gradients_touch_only_batch_tasks():
    rng = np.random.default_rng(5)
    m = Mixture.standard(TINY)
    X = rng.normal(size=(8, 6))
    logits, cache = m.forward_batch(X, np.zeros(8, dtype=np.int64))
    _, dlogits = logistic_loss(logits, rng.integers(0, 2, 8).astype(float))
    m.backward_batch(cache, dlogits)
    for name, g in m.store.grads.items():
        if name.startswith(("gate1.", "head1.")):
            assert not np.any(g), f"{name} got gradient without data"
        elif name.endswith(".b") and name.startswith(("expert", "gate0.l0",
                                                      "head0.l0")):
            pass  # relu can zero a unit's gradient; no claim either way
        elif name.startswith(("gate0.l1", "head0.l1")):
            assert np.any(g), f"{name} should receive gradient"
    assert any(np.any(m.store.grads[n]) for n in m.store.grads
               if n.startswith("expert0."))


def test_mixture_gradients_pass_finite_differences():
    rng = np.random.default_rng(6)
    m = Mixture.standard(TINY)
    X = rng.normal(size=(12, 6))
    tasks = rng.integers(0, 2, size=12)
    y = rng.integers(0, 2, size=12).astype(float)

    def loss_fn():
        logits, cache = m.forward_batch(X, tasks)
        losses, dlogits = logistic_loss(logits, y)
        m.backward_batch(cache, dlogits)
        return losses.sum(), m.signature(cache)

    report = finite_diff_check(loss_fn, m.store, max_coords=60,
                               rng=np.random.default_rng(0))
    assert report.max_rel_err < 1e-5, report


# ------------------------------------------------------------- baselines


def test_baseline_config_and_dispatch():
    mlp = build_baseline(BaselineConfig(hidden=(5,), seed=0), input_dim=4)
    assert isinstance(mlp, FeedForwardNet)
    # () hidden means logistic regression: one affine, no relu
    lin = build_baseline(BaselineConfig(hidden=(), seed=0), input_dim=4)
    assert len(lin.ops) == 1 and isinstance(lin.ops[0], Affine)
    for bad in ((0,), (8, -1)):
        with pytest.raises(ValueError, match="hidden widths must be >= 1"):
            BaselineConfig(hidden=bad)


def test_feedforward_gradients_pass_finite_differences():
    rng = np.random.default_rng(8)
    net = FeedForwardNet.mlp(4, (5, 3), seed=1)
    X = rng.normal(size=(10, 4))
    y = rng.integers(0, 2, 10).astype(float)

    def loss_fn():
        logits, caches = net.forward_batch(X)
        losses, dlogits = logistic_loss(logits, y)
        net.backward_batch(caches, dlogits)
        return losses.sum(), net.signature(caches)

    report = finite_diff_check(loss_fn, net.store,
                               rng=np.random.default_rng(0))
    assert report.max_rel_err < 1e-5, report


# --------------------------------------------------- learner embedding


def _schemas(input_names, task_ids):
    vocab = Vocabulary(input_names)
    labels = [LABEL_PREFIX + t for t in task_ids]
    meta = align_vocabularies([vocab], labels)
    return meta, [TaskSchema.build(t, lab, vocab, meta, {lab})
                  for t, lab in zip(task_ids, labels)]


def test_embedding_reproduces_each_learner_exactly():
    meta, schemas = _schemas([f"x{i}" for i in range(6)], ["a", "b", "c"])
    c = len(meta)
    learners = [FeedForwardNet.mlp(c, h, seed=s)
                for s, h in enumerate([(7,), (5, 4), (8, 3)])]
    mix = embed_learners(learners, schemas)
    assert mix.num_tasks == mix.num_experts == 3
    rng = np.random.default_rng(9)
    X = rng.normal(size=(200, c))
    for i, schema in enumerate(schemas):
        Xi = X.copy()
        Xi[:, schema.mask_indices()] = 0.0
        want = learners[i].predict_logits(Xi)
        got = mix.predict_logits(Xi, i)
        assert np.max(np.abs(got - want)) <= 1e-9


def test_embedding_is_structurally_mask_insensitive():
    meta, schemas = _schemas(["x0", "x1", "x2"], ["a", "b"])
    c = len(meta)
    learners = [FeedForwardNet.mlp(c, (4,), seed=s) for s in range(2)]
    mix = embed_learners(learners, schemas)
    rng = np.random.default_rng(10)
    X = rng.normal(size=(50, c))
    for i, schema in enumerate(schemas):
        noisy = X.copy()
        noisy[:, schema.mask_indices()] = rng.normal(size=(50, 1)) * 100
        clean = X.copy()
        clean[:, schema.mask_indices()] = 0.0
        # expert i is exactly blind; the other experts leak only through
        # their e^-margin softmax mass, far below the reproduction tolerance
        diff = np.abs(mix.predict_logits(noisy, i) - mix.predict_logits(clean, i))
        assert diff.max() <= 1e-9


def test_embedding_single_learner_is_bitwise():
    meta, schemas = _schemas(["x0", "x1"], ["solo"])
    learner = FeedForwardNet.mlp(len(meta), (6, 6), seed=3)
    mix = embed_learners([learner], schemas)
    rng = np.random.default_rng(11)
    X = rng.normal(size=(64, len(meta)))
    X[:, schemas[0].mask_indices()] = 0.0
    np.testing.assert_array_equal(mix.predict_logits(X, 0),
                                  learner.predict_logits(X))


def test_embedding_overhead_is_exact():
    meta, schemas = _schemas([f"x{i}" for i in range(4)], ["a", "b", "c"])
    c = len(meta)
    learners = [FeedForwardNet.mlp(c, (5,), seed=s) for s in range(3)]
    mix = embed_learners(learners, schemas)
    total = sum(l.store.num_params() for l in learners)
    assert mix.store.num_params() == total + embedding_param_overhead(c, 3)
    # per task: gate (c+1) + (k+k), head 2 + 2 + 2 + 1
    assert embedding_param_overhead(c, 3) == 3 * ((c + 1) + 6 + 7)


def test_embedding_rejects_malformed_learners():
    meta, schemas = _schemas(["x0"], ["a", "b"])
    good = FeedForwardNet.mlp(len(meta), (3,), seed=0)
    with pytest.raises(DimensionError):
        embed_learners([], [])
    with pytest.raises(DimensionError):
        embed_learners([good], schemas)  # 1 learner, 2 schemas
    other = FeedForwardNet.mlp(len(meta) + 1, (3,), seed=0)
    with pytest.raises(DimensionError):
        embed_learners([good, other], schemas)
    # a net whose final affine is not scalar
    store = ParamStore.from_arrays({"layer0.w": np.zeros((len(meta), 2)),
                                    "layer0.b": np.zeros(2)})
    wide = FeedForwardNet(store, [Affine("layer0.w", "layer0.b")], len(meta))
    with pytest.raises(DimensionError):
        embed_learners([wide, good], schemas)
    # a net that ties one parameter to two layers
    store = ParamStore.from_arrays({"w": np.zeros((len(meta), len(meta))),
                                    "b": np.zeros(len(meta)),
                                    "out.w": np.zeros((len(meta), 1)),
                                    "out.b": np.zeros(1)})
    tied = FeedForwardNet(store, [Affine("w", "b"), Relu(), Affine("w", "b"),
                                  Affine("out.w", "out.b")], len(meta))
    with pytest.raises(DimensionError, match="learner 1 reuses 'w'"):
        embed_learners([good, tied], schemas)


# ------------------------------------------------------------ checkpoints


def test_mixture_checkpoint_roundtrip_is_bitwise():
    model = Mixture.standard(TINY, task_ids=["alpha", "beta"],
                             loss_kinds=["binary", "regression"],
                             vocab_fingerprint="f" * 64)
    blob = save_checkpoint(None, model, extra={"note": "tiny"})
    again, extra = load_checkpoint(blob)
    assert extra == {"note": "tiny"}
    assert again.task_ids == ["alpha", "beta"]
    assert again.loss_kinds == ["binary", "regression"]
    assert again.vocab_fingerprint == "f" * 64
    assert again.config == TINY
    for name, p in model.store.params.items():
        np.testing.assert_array_equal(again.store.params[name], p)
    rng = np.random.default_rng(12)
    X = rng.normal(size=(5, 6))
    ids = np.array([0, 1, 0, 1, 1])
    np.testing.assert_array_equal(again.forward_batch(X, ids)[0],
                                  model.forward_batch(X, ids)[0])
    # serialization is byte-deterministic
    assert save_checkpoint(None, model, extra={"note": "tiny"}) == blob


def test_checkpoint_roundtrip_through_file(tmp_path):
    model = FeedForwardNet.mlp(4, (3,), seed=0)
    p = tmp_path / "net.ckpt"
    blob = save_checkpoint(p, model)
    assert p.read_bytes() == blob
    again, extra = load_checkpoint(p)
    assert extra == {}
    assert isinstance(again, FeedForwardNet)
    rng = np.random.default_rng(13)
    X = rng.normal(size=(7, 4))
    np.testing.assert_array_equal(again.predict_logits(X),
                                  model.predict_logits(X))


def test_checkpoint_rejects_garbage():
    model = FeedForwardNet.mlp(3, (2,), seed=0)
    blob = save_checkpoint(None, model)
    with pytest.raises(ValueError, match="bad magic"):
        load_checkpoint(b"NOTMAGIC" + blob[8:])
    with pytest.raises(ValueError, match="bad magic"):
        load_checkpoint(b"")

    class Opaque:
        store = ParamStore()

    with pytest.raises(TypeError):
        save_checkpoint(None, Opaque())


def test_checkpoint_rejects_trailing_bytes():
    blob = save_checkpoint(None, Mixture.standard(TINY))
    load_checkpoint(blob)
    with pytest.raises(ValueError, match="8 trailing bytes"):
        load_checkpoint(blob + bytes(8))


def test_checkpoint_rejects_non_finite_parameters():
    model = FeedForwardNet.mlp(3, (2,), seed=0)
    for bad in (np.nan, np.inf):
        model.store.params["layer1.b"][0] = bad
        with pytest.raises(ValueError, match="layer1.b.*not finite"):
            load_checkpoint(save_checkpoint(None, model))


def test_checkpoint_rejects_op_naming_a_missing_parameter():
    model = FeedForwardNet.mlp(3, (2,), seed=0)
    model.ops[0] = Affine("layer0.w", "ghost.b")
    with pytest.raises(ValueError, match="missing parameter 'ghost.b'"):
        load_checkpoint(save_checkpoint(None, model))


def _edit_header(blob: bytes, edit) -> bytes:
    """The checkpoint with ``edit`` applied to its JSON header."""
    hlen = int.from_bytes(blob[8:16], "big")
    header = json.loads(blob[16:16 + hlen])
    edit(header)
    head = json.dumps(header).encode()
    return blob[:8] + len(head).to_bytes(8, "big") + head + blob[16 + hlen:]


def _set(key, value):
    return lambda header: header.__setitem__(key, value)


def _set_config(key, value):
    return lambda header: header["config"].__setitem__(key, value)


def _set_param(i, key, value):
    return lambda header: header["params"][i].__setitem__(key, value)


@pytest.mark.parametrize("edit, message", [
    (_set_param(1, "name", "layer0.w"), "duplicate checkpoint parameter 'layer0.w'"),
    (_set_param(0, "shape", ["3", 2]), "bad checkpoint parameter entry"),
    (_set_param(0, "shape", [3.0, 2]), "bad checkpoint parameter entry"),
    (_set_param(0, "shape", [-3, 2]), "bad checkpoint parameter entry"),
    (_set("params", {"layer0.w": [3, 2]}), "'params' is not a list"),
    (lambda header: header.pop("kind"), "unknown checkpoint kind None"),
    (_set("kind", "multihead"), "unknown checkpoint kind 'multihead'"),
    (lambda header: header.pop("ops"), "malformed checkpoint header"),
    (_set("ops", [{"w": "layer0.w"}]), "malformed checkpoint header"),
], ids=["duplicate-name", "string-shape", "float-shape", "negative-shape",
        "params-not-list", "missing-kind", "multihead-kind", "missing-ops",
        "op-without-kind"])
def test_checkpoint_rejects_malformed_header_with_value_error(edit, message):
    blob = save_checkpoint(None, FeedForwardNet.mlp(3, (2,), seed=0))
    with pytest.raises(ValueError, match=message):
        load_checkpoint(_edit_header(blob, edit))


def test_checkpoint_header_nested_too_deeply_is_a_value_error():
    deep = b"[" * 100_000
    with pytest.raises(ValueError, match="nests too deeply"):
        load_checkpoint(b"TSKMX001" + len(deep).to_bytes(8, "big") + deep)


@pytest.mark.parametrize("model, edit, message", [
    ("feedforward", _set("input_dim", "x"), "'input_dim' 'x' is not"),
    ("feedforward", _set("input_dim", 0), "'input_dim' 0 is not"),
    ("feedforward", _set("input_dim", True), "'input_dim' True is not"),
    ("feedforward", _set("input_dim", 3.0), "'input_dim' 3.0 is not"),
    ("mixture", _set("input_dim", None), "'input_dim' None is not"),
    ("mixture", _set("expert_width", -8), "'expert_width' -8 is not"),
    ("mixture", _set("task_ids", "task0"), "'task_ids' is not 2 strings"),
    ("mixture", _set("task_ids", ["task0"]), "'task_ids' is not 2 strings"),
    ("mixture", _set("task_ids", ["task0", 1]), "'task_ids' is not 2 strings"),
    ("mixture", _set("loss_kinds", None), "'loss_kinds' is not 2 strings"),
    ("mixture", _set_config("num_experts", 2.5), "num_experts 2.5 is not an int"),
    ("mixture", _set_config("seed", float("nan")), "seed nan is not an int"),
    ("mixture", _set_config("expert_width", True), "expert_width True is not"),
    ("mixture", _set_config("num_tasks", 99), "num_tasks 99 != 2 of the model"),
    ("mixture", _set_config("num_experts", 3), "num_experts 3 != 2 of the"),
    ("mixture", _set_config("input_dim", 7), "input_dim 7 != 6 of the model"),
    ("mixture", _set_config("expert_width", 9), "expert_width 9 != 8 of the"),
    ("mixture", _set("vocab_fingerprint", 7),
     "'vocab_fingerprint' 7 is not a string or null"),
], ids=["ff-str-width", "ff-zero-width", "ff-bool-width", "ff-float-width",
        "null-width", "negative-expert-width", "ids-not-list",
        "one-id-for-two-gates", "int-id", "kinds-null", "config-float-experts",
        "config-nan-seed", "config-bool-width", "config-task-count",
        "config-expert-count", "config-input-dim", "config-expert-width",
        "int-fingerprint"])
def test_checkpoint_rejects_bad_sizes_and_names_on_load(model, edit, message):
    net = FeedForwardNet.mlp(3, (2,), seed=0) if model == "feedforward" \
        else Mixture.standard(TINY)
    with pytest.raises(ValueError, match=message):
        load_checkpoint(_edit_header(save_checkpoint(None, net), edit))


def _loads_or_value_error(blob: bytes) -> None:
    try:
        model, extra = load_checkpoint(blob)
    except ValueError:
        return
    assert isinstance(model, (Mixture, FeedForwardNet))
    assert type(model.input_dim) is int and model.input_dim >= 1


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)


@settings(deadline=None, max_examples=200)
@given(tail=st.binary(max_size=64))
def test_load_checkpoint_on_any_bytes_after_the_magic(tail):
    _loads_or_value_error(b"TSKMX001" + tail)


@settings(deadline=None, max_examples=200)
@given(kind=st.sampled_from(["feedforward", "mixture", "embedded"]),
       data=st.data())
def test_load_checkpoint_on_mutated_headers_and_payloads(kind, data):
    if kind == "feedforward":
        model = FeedForwardNet.mlp(3, (2,), seed=0)
    elif kind == "mixture":
        model = Mixture.standard(TINY)
    else:
        model = _predict_model("embedded", 3, 0)[0]
    blob = save_checkpoint(None, model)

    def edit(header):
        for _ in range(data.draw(st.integers(1, 3))):
            key = data.draw(st.sampled_from(sorted(header) + ["other"]))
            value = header.get(key)
            if isinstance(value, list) and value and data.draw(st.booleans()):
                value[data.draw(st.integers(0, len(value) - 1))] = \
                    data.draw(_JSON)
            elif data.draw(st.booleans()):
                header.pop(key, None)
            else:
                header[key] = data.draw(_JSON)

    blob = _edit_header(blob, edit)
    cut = data.draw(st.sampled_from([0, 0, -8, -1, 1, 8]))
    blob = blob[:len(blob) + cut] if cut < 0 else blob + bytes(cut)
    _loads_or_value_error(blob)


def test_checkpoint_rejects_truncated_parameters():
    blob = save_checkpoint(None, FeedForwardNet.mlp(3, (2,), seed=0))
    with pytest.raises(ValueError, match="truncated by 8 bytes"):
        load_checkpoint(blob[:-8])


def test_checkpoint_loads_into_one_flat_buffer():
    model = Mixture.standard(TINY)
    blob = save_checkpoint(None, model)
    again, _ = load_checkpoint(blob)
    store = again.store
    assert store.names() == model.store.names()
    assert store.flat_params.tobytes() == model.store.flat_params.tobytes()
    for p in store.params.values():
        assert np.shares_memory(p, store.flat_params)
    assert store._flat_grads is None  # no gradient buffer until trained
    assert not np.any(store.flat_grads)
    # the parameter bytes of format 1 are the flat buffer, little-endian
    assert blob.endswith(model.store.flat_params.astype("<f8").tobytes())


def test_embedded_mixture_survives_checkpoint():
    meta, schemas = _schemas(["x0", "x1", "x2"], ["a", "b"])
    learners = [FeedForwardNet.mlp(len(meta), (4,), seed=s) for s in range(2)]
    mix = embed_learners(learners, schemas)
    again, _ = load_checkpoint(save_checkpoint(None, mix))
    rng = np.random.default_rng(15)
    X = rng.normal(size=(20, len(meta)))
    for i in range(2):
        np.testing.assert_array_equal(again.predict_logits(X, i),
                                      mix.predict_logits(X, i))
