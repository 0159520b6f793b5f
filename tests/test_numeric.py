"""Low-level numerics against hand-rolled oracles."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import adam_step_full
from taskmix import numeric
from taskmix.numeric import (
    AdamState,
    DimensionError,
    ParamStore,
    adam_step,
    affine_backward,
    affine_forward,
    clip_grads_,
    finite_diff_check,
    global_grad_norm,
    logistic_loss,
    relu_backward,
    relu_forward,
    residual_backward,
    residual_forward,
    sigmoid,
    softmax_rows,
    softmax_rows_backward,
    squared_loss,
)


def _matmul_loops(a, b):
    # independent O(n^3) oracle, no numpy matmul
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            s = 0.0
            for l in range(k):
                s += a[i, l] * b[l, j]
            out[i, j] = s
    return out


def test_affine_forward_matches_loop_oracle():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 4))
    w = rng.normal(size=(4, 3))
    b = rng.normal(size=3)
    y = affine_forward(x, w, b)
    expect = _matmul_loops(x, w) + b
    assert np.allclose(y, expect, rtol=0, atol=1e-12)


def test_affine_backward_matches_loop_oracle():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(6, 4))
    w = rng.normal(size=(4, 2))
    dy = rng.normal(size=(6, 2))
    dx, dw, db = affine_backward(x, w, dy)
    assert np.allclose(dw, _matmul_loops(x.T.copy(), dy), atol=1e-12)
    assert np.allclose(db, dy.sum(axis=0), atol=1e-12)
    assert np.allclose(dx, _matmul_loops(dy, w.T.copy()), atol=1e-12)


def test_affine_shape_errors():
    with pytest.raises(DimensionError):
        affine_forward(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros(5))
    with pytest.raises(DimensionError):
        affine_forward(np.zeros((2, 3)), np.zeros((3, 5)), np.zeros(4))


def test_relu_is_strict_at_zero():
    x = np.array([-1.0, 0.0, 2.0])
    assert np.array_equal(relu_forward(x), [0.0, 0.0, 2.0])
    # subgradient at exactly 0 is 0 (x > 0 convention)
    assert np.array_equal(relu_backward(x, np.ones(3)), [0.0, 0.0, 1.0])


def test_residual_roundtrip():
    x = np.array([[1.0, -2.0]])
    fx = np.array([[0.5, 0.5]])
    assert np.array_equal(residual_forward(x, fx), [[1.5, -1.5]])
    dy = np.array([[2.0, 3.0]])
    d_fx, d_x = residual_backward(dy)
    assert np.array_equal(d_fx, dy)
    assert np.array_equal(d_x, dy)


def test_softmax_rows_known_values():
    z = np.array([[0.0, 0.0], [math.log(3.0), 0.0]])
    y = softmax_rows(z)
    assert np.allclose(y[0], [0.5, 0.5], atol=1e-15)
    assert np.allclose(y[1], [0.75, 0.25], atol=1e-15)


def test_softmax_rows_backward_vs_jacobian():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(3, 4))
    y = softmax_rows(z)
    dy = rng.normal(size=(3, 4))
    dz = softmax_rows_backward(y, dy)
    for r in range(3):
        jac = np.diag(y[r]) - np.outer(y[r], y[r])
        assert np.allclose(dz[r], jac @ dy[r], atol=1e-12)


def test_sigmoid_extremes_stay_finite():
    z = np.array([-800.0, 0.0, 800.0])
    s = sigmoid(z)
    assert np.all(np.isfinite(s))
    assert s[0] == 0.0 or s[0] < 1e-300
    assert s[1] == 0.5
    assert s[2] == 1.0


def test_logistic_loss_matches_naive_formula():
    rng = np.random.default_rng(3)
    z = rng.normal(size=50) * 3
    y = (rng.random(50) < 0.5).astype(float)
    losses, dlogits = logistic_loss(z, y)
    p = 1.0 / (1.0 + np.exp(-z))
    naive = -(y * np.log(p) + (1 - y) * np.log(1 - p))
    assert np.allclose(losses, naive, atol=1e-12)
    assert np.allclose(dlogits, p - y, atol=1e-12)


def test_logistic_loss_huge_logits_finite():
    losses, dlogits = logistic_loss(np.array([5000.0, -5000.0]),
                                    np.array([0.0, 1.0]))
    assert np.all(np.isfinite(losses))
    assert np.allclose(losses, [5000.0, 5000.0])
    assert np.allclose(dlogits, [1.0, -1.0])


def test_squared_loss_gradient():
    losses, dp = squared_loss(np.array([2.0, -1.0]), np.array([0.5, -1.0]))
    assert np.allclose(losses, [2.25, 0.0])
    assert np.allclose(dp, [3.0, 0.0])


# ---------------------------------------------------------------------------
# parameter store / optimizer


def test_store_from_arrays_packs_copies_in_mapping_order():
    b, a = np.array([1.0, 2.0]), np.array([[3.0, 4.0], [5.0, 6.0]])
    store = ParamStore.from_arrays({"b": b, "a": a, "s": 7})
    assert store.names() == ["b", "a", "s"]
    assert store.num_params() == 7
    np.testing.assert_array_equal(store.flat_params, np.arange(1.0, 8.0))
    assert store.params["a"].shape == (2, 2) and store.params["s"].shape == ()
    assert np.shares_memory(store.params["a"], store.flat_params)
    assert not np.shares_memory(store.flat_params, a)
    assert store._flat_grads is None
    assert ParamStore.from_arrays({}).num_params() == 0


def test_store_copy_is_independent():
    store = ParamStore.from_arrays({"w": np.ones(3)})
    w = store.params["w"]
    other = store.copy()
    w += 5.0
    assert np.array_equal(other.params["w"], np.ones(3))


def _adam_oracle(p0, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    # plain-float reimplementation of bias-corrected Adam
    p, m, v = p0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        p -= lr * mhat / (math.sqrt(vhat) + eps)
    return p


def test_adam_two_steps_match_scalar_oracle():
    store = ParamStore.from_arrays({"p": np.array([1.0])})
    state = AdamState.for_store(store)
    grads = [0.3, -0.7]
    for g in grads:
        store.grads["p"][0] = g
        adam_step(store, state, lr=0.01)
    expect = _adam_oracle(1.0, grads, 0.01)
    assert abs(store.params["p"][0] - expect) < 1e-15
    assert state.t == 2


def test_adam_zeroes_grads_after_step():
    store = ParamStore({"p": (2,)})
    state = AdamState.for_store(store)
    store.grads["p"][:] = [1.0, -1.0]
    adam_step(store, state, lr=0.1)
    assert np.array_equal(store.grads["p"], np.zeros(2))


def test_adam_state_must_match_store():
    store = ParamStore({"p": (1,)})
    state = AdamState.for_store(store)
    store2 = ParamStore({"q": (1,)})
    with pytest.raises(KeyError):
        adam_step(store2, state, lr=0.1)


def test_grad_norm_and_clipping():
    store = ParamStore({"a": (2,), "b": (1,)})
    store.grads["a"][:] = [3.0, 0.0]
    store.grads["b"][:] = [4.0]
    assert global_grad_norm(store) == 5.0
    pre = clip_grads_(store, 1.0)
    assert pre == 5.0
    assert abs(global_grad_norm(store) - 1.0) < 1e-12
    # already under the cap: untouched
    pre2 = clip_grads_(store, 10.0)
    assert abs(pre2 - 1.0) < 1e-12
    assert abs(global_grad_norm(store) - 1.0) < 1e-12


def test_store_is_packed_in_store_order():
    store = ParamStore({"w": (2, 3), "s": (), "e": (0, 4), "b": (3,)})
    assert store.flat_params.shape == store.flat_grads.shape == (10,)
    assert not np.any(store.flat_params)
    store.flat_params[:] = np.arange(10.0)
    np.testing.assert_array_equal(store.params["w"], [[0, 1, 2], [3, 4, 5]])
    assert store.params["s"].shape == () and store.params["s"] == 6.0
    assert store.params["e"].shape == (0, 4)
    np.testing.assert_array_equal(store.params["b"], [7, 8, 9])
    store.grads["b"][1] = 5.0
    assert store.flat_grads[8] == 5.0
    with pytest.raises(DimensionError):
        ParamStore({"w": (2,)}, np.zeros(3))


def test_store_allocates_gradients_on_first_use():
    store = ParamStore({"w": (2,), "b": (1,)}, np.array([1.0, 2.0, 3.0]))
    other = store.copy()
    store.zero_grads()
    assert store._flat_grads is None and other._flat_grads is None
    store.grads["w"][0] = 4.0
    np.testing.assert_array_equal(store.flat_grads, [4.0, 0.0, 0.0])
    assert clip_grads_(store, 1.0) == 4.0
    np.testing.assert_array_equal(store.grads["w"], [1.0, 0.0])


def test_store_zero_grads_releases_the_buffer():
    store = ParamStore({"w": (2,), "b": (1,)}, np.array([1.0, 2.0, 3.0]))
    store.grads["w"][:] = [5.0, 6.0]
    store.zero_grads()
    assert store._flat_grads is None and store._grads == {}
    np.testing.assert_array_equal(store.grads["w"], [0.0, 0.0])
    np.testing.assert_array_equal(store.flat_grads, [0.0, 0.0, 0.0])
    assert np.shares_memory(store.grads["b"], store.flat_grads)


def test_store_copy_moves_one_buffer():
    store = ParamStore({"w": (2,), "b": (1,)}, np.array([1.0, 2.0, 3.0]))
    store.grads["w"][0] = 9.0
    other = store.copy()
    assert other.names() == ["w", "b"]
    np.testing.assert_array_equal(other.flat_params, [1.0, 2.0, 3.0])
    assert not np.shares_memory(other.flat_params, store.flat_params)
    assert not np.any(other.flat_grads)


def _adam_per_tensor(params, grads, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    # the tensor-by-tensor update adam_step replaced; dicts of arrays
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for name, p in params.items():
        g, mm, vv = grads[name], m[name], v[name]
        mm *= b1
        mm += (1.0 - b1) * g
        vv *= b2
        vv += (1.0 - b2) * (g * g)
        p -= lr * (mm / bc1) / (np.sqrt(vv / bc2) + eps)
        g.fill(0.0)


def _clip_per_tensor(grads, max_norm):
    total = 0.0
    for g in grads.values():
        total += float(np.dot(g.ravel(), g.ravel()))
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


def _bits(arrays):
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


SHAPES = st.lists(st.lists(st.integers(0, 4), max_size=3).map(tuple),
                  min_size=1, max_size=6)


@settings(deadline=None, max_examples=60)
@given(shapes=SHAPES, seed=st.integers(0, 2**31 - 1), steps=st.integers(1, 4),
       chunk=st.sampled_from([1, 2, 3, 5, 9, numeric._ADAM_CHUNK]),
       clip=st.sampled_from([None, 0.5, 2.0]))
@example(shapes=[()], seed=0, steps=3, chunk=1, clip=0.5)
@example(shapes=[(7,)], seed=1, steps=2, chunk=3, clip=None)
@example(shapes=[(2, 3), (), (0, 2), (4,)], seed=2, steps=4, chunk=2,
         clip=2.0)
def test_packed_adam_and_clip_match_per_tensor_oracle(shapes, seed, steps,
                                                      chunk, clip):
    """Bit-identical params, moments and pre-clip norms against the
    per-tensor update, with tensors straddling chunks (chunk patched to
    1-9) and clipping above and below the cap."""
    rng = np.random.default_rng(seed)
    ref = {f"p{i}": rng.normal(size=shape) for i, shape in enumerate(shapes)}
    store = ParamStore.from_arrays(ref)
    ref_g = {n: np.zeros_like(p) for n, p in ref.items()}
    ref_m = {n: np.zeros_like(p) for n, p in ref.items()}
    ref_v = {n: np.zeros_like(p) for n, p in ref.items()}
    state, t = AdamState.for_store(store), 0
    with mock.patch.object(numeric, "_ADAM_CHUNK", chunk):
        for step in range(steps):
            for name, g in ref_g.items():
                g[...] = rng.normal(scale=10.0 ** rng.integers(-3, 3),
                                    size=g.shape)
                store.grads[name][...] = g
            if clip is not None:
                cap = clip * global_grad_norm(store)
                assert clip_grads_(store, cap) == _clip_per_tensor(ref_g, cap)
            lr = float(rng.choice([1e-3, 0.1]))
            adam_step(store, state, lr)
            t += 1
            _adam_per_tensor(ref, ref_g, ref_m, ref_v, t, lr)
            assert state.t == t
            assert store.flat_params.tobytes() == _bits(ref.values())
            assert state.m.tobytes() == _bits(ref_m.values())
            assert state.v.tobytes() == _bits(ref_v.values())
            assert not np.any(store.flat_grads)


def _signed_zeros(rng, shape):
    # normals with about a third of the entries +0.0 or -0.0
    a = rng.normal(size=shape)
    a[rng.random(shape) < 0.3] = 0.0
    return np.where(rng.random(shape) < 0.5, a, -a)


def _packed_size(shapes, owner, tasks):
    # floats of the shared tensors and of the given tasks' tensors
    return sum(math.prod(s) for s, o in zip(shapes.values(), owner)
               if o < 0 or o in tasks)


@settings(deadline=None, max_examples=80)
@given(tensors=st.lists(st.tuples(
           st.integers(-1, 4), st.lists(st.integers(0, 3), max_size=2)),
           max_size=10),
       seed=st.integers(0, 2**31 - 1), chunk=st.integers(1, 9),
       data=st.data())
def test_adam_on_task_slots_matches_adam_over_the_full_buffer(
        tensors, seed, chunk, data):
    """A store bound to the shared tensors and some tasks updates params,
    m and v with the same bits as the full-buffer Adam, for tensors of any
    task in any store order, tasks of different shapes, any written set
    (none, the largest, random), signed zeros in params, moments and
    gradients, and chunks of 1-9."""
    rng = np.random.default_rng(seed)
    shapes = {f"p{i}": tuple(s) for i, (_, s) in enumerate(tensors)}
    owner = [o for o, _ in tensors]
    tasks = sorted({o for o in owner if o >= 0})
    slots = data.draw(st.integers(0, len(tasks)))
    largest = sorted(tasks, key=lambda t: _packed_size(shapes, owner, {t}))
    size = _packed_size(shapes, owner, set(largest[len(tasks) - slots:]))
    flat = _signed_zeros(rng, sum(math.prod(s) for s in shapes.values()))
    bound, full = ParamStore(shapes, flat.copy()), ParamStore(shapes, flat)
    states = AdamState.for_store(bound), AdamState.for_store(full)
    m0 = _signed_zeros(rng, flat.size) * 1e-300  # underflows to signed zeros
    for state in states:
        state.m[...] = m0
    with mock.patch.object(numeric, "_ADAM_CHUNK", chunk):
        for step in range(4):  # none, the `slots` largest tasks, random
            written = [[], largest[len(tasks) - slots:]][step] if step < 2 \
                else data.draw(st.lists(st.sampled_from(tasks), unique=True,
                                        max_size=slots) if tasks
                               else st.just([]))
            bound.bind([i for i, o in enumerate(owner)
                        if o < 0 or o in written], size)
            assert bound.flat_grads.size == size
            assert list(bound.grads) == [
                n for n, o in zip(shapes, owner) if o < 0 or o in written]
            for name, g in bound.grads.items():
                g[...] = _signed_zeros(rng, g.shape)
                full.grads[name][...] = g
            lr = float(rng.choice([1e-3, 0.1]))
            adam_step(bound, states[0], lr)
            adam_step_full(full, states[1], lr)
            assert bound.flat_params.tobytes() == full.flat_params.tobytes()
            assert states[0].m.tobytes() == states[1].m.tobytes()
            assert states[0].v.tobytes() == states[1].v.tobytes()
            assert not np.any(bound.flat_grads)


def test_tasks_owning_different_shapes_bind():
    store = ParamStore({"s": (2,), "a": (3,), "b": (1, 3), "c": (2, 2)},
                       np.arange(12.0))
    store.bind([0, 2], 5)  # the shared tensor and task 1 of tasks 0-2
    assert list(store.grads) == ["s", "b"]
    assert store.flat_grads.size == 5
    store.grads["b"][...] = 7.0
    runs = store.grad_runs()
    assert [(lo, hi) for lo, hi, _ in runs] == [(0, 2), (2, 5), (5, 8),
                                                (8, 12)]
    assert runs[1][2] is None and runs[3][2] is None
    np.testing.assert_array_equal(runs[2][2], [7.0, 7.0, 7.0])
    assert np.shares_memory(runs[2][2], store.flat_grads)
    store.grads["b"][...] = 0.0
    store.bind([0, 1, 3], 5 + 4)  # a new size: a new zeroed buffer
    assert list(store.grads) == ["s", "a", "c"]
    assert [(lo, hi, g is None) for lo, hi, g in store.grad_runs()] == [
        (0, 5, False), (5, 8, True), (8, 12, False)]


def test_an_empty_store_and_an_empty_bound_set_take_adam_steps():
    empty = ParamStore({})
    assert empty.grads == {} and empty.flat_grads.size == 0
    assert empty.grad_runs() == []
    adam_step(empty, AdamState.for_store(empty), 0.1)
    assert global_grad_norm(empty) == 0.0 and clip_grads_(empty, 1.0) == 0.0

    shapes = {"w": (2, 3), "e": (0,), "b": (3,)}
    flat = np.random.default_rng(0).normal(size=9)
    bound, full = ParamStore(shapes, flat.copy()), ParamStore(shapes, flat)
    states = AdamState.for_store(bound), AdamState.for_store(full)
    bound.bind([], 0)
    assert bound.grads == {} and bound.grad_runs() == [(0, 9, None)]
    assert global_grad_norm(bound) == 0.0
    for _ in range(2):
        adam_step(bound, states[0], 0.1)
        adam_step_full(full, states[1], 0.1)
    assert bound.flat_params.tobytes() == full.flat_params.tobytes()
    assert states[0].v.tobytes() == states[1].v.tobytes()


# ---------------------------------------------------------------------------
# finite differences


def test_finite_diff_accepts_correct_quadratic_gradient():
    store = ParamStore.from_arrays({"w": np.array([0.7, -1.2, 0.3])})
    w = store.params["w"]
    a = np.array([2.0, -1.0, 0.5])

    def loss_fn():
        store.grads["w"] += 2.0 * (w - a)
        return float(np.sum((w - a) ** 2))

    report = finite_diff_check(loss_fn, store)
    assert report.checked == 3
    assert report.skipped == 0
    assert report.max_rel_err < 1e-8


def test_finite_diff_flags_planted_wrong_gradient():
    store = ParamStore.from_arrays({"w": np.array([0.5, 0.5])})
    w = store.params["w"]

    def loss_fn():
        store.grads["w"] += np.array([2.0 * w[0], 17.0])  # wrong on coord 1
        return float(w[0] ** 2 + w[1] ** 2)

    report = finite_diff_check(loss_fn, store)
    assert report.max_rel_err > 0.5
    assert report.worst_param == "w"
    assert report.worst_index == (1,)


def test_finite_diff_counts_a_nan_error_as_the_worst():
    store = ParamStore.from_arrays({"w": np.array([0.5, 0.5, 0.5])})
    w = store.params["w"]

    def loss_fn():
        # wrong on coord 0, NaN analytic gradient on coord 1
        store.grads["w"] += np.array([17.0, math.nan, 2.0 * w[2]])
        return float(np.sum(w * w))

    report = finite_diff_check(loss_fn, store)
    assert math.isnan(report.max_rel_err)
    assert report.worst_index == (1,) and report.checked == 3


@pytest.mark.parametrize("h", [0.0, -1e-5, math.nan, math.inf])
def test_finite_diff_rejects_a_degenerate_step(h):
    store = ParamStore.from_arrays({"w": np.array([0.5])})
    with pytest.raises(ValueError, match="finite and > 0"):
        finite_diff_check(lambda: 0.0, store, h=h)


def test_finite_diff_skips_relu_kinks_via_signature():
    # w[0] sits within h of the kink; w[1] is safely positive
    store = ParamStore.from_arrays({"w": np.array([9e-6, 1.0])})
    w = store.params["w"]

    def loss_fn():
        act = w > 0.0
        store.grads["w"] += np.where(act, 1.0, 0.0)
        return float(np.sum(np.maximum(w, 0.0))), act.tobytes()

    report = finite_diff_check(loss_fn, store, h=1e-5)
    assert report.skipped == 1
    assert report.checked == 1
    assert report.max_rel_err < 1e-8


def test_finite_diff_max_coords_sampling_is_seeded():
    store = ParamStore.from_arrays({"w": np.arange(20, dtype=float)})
    w = store.params["w"]

    def loss_fn():
        store.grads["w"] += 2.0 * w
        return float(np.sum(w * w))

    r1 = finite_diff_check(loss_fn, store, max_coords=5,
                           rng=np.random.default_rng(7))
    r2 = finite_diff_check(loss_fn, store, max_coords=5,
                           rng=np.random.default_rng(7))
    assert r1.checked == r2.checked == 5
    assert r1.max_rel_err == r2.max_rel_err


# ---------------------------------------------------------------------------
# properties


@given(st.lists(st.floats(-30, 30), min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_softmax_rows_sum_to_one(row):
    y = softmax_rows(np.array([row]))
    assert abs(y.sum() - 1.0) < 1e-9
    assert np.all(y >= 0)


@given(st.lists(st.integers(-30, 30), min_size=2, max_size=8, unique=True),
       st.floats(-100, 100))
@settings(max_examples=100, deadline=None)
def test_softmax_rows_shift_invariant_and_argmax_preserving(row, shift):
    # integer-spaced entries stay distinct after the float shift
    z = np.array([row], dtype=np.float64)
    y1 = softmax_rows(z)
    y2 = softmax_rows(z + shift)
    assert np.allclose(y1, y2, atol=1e-9)
    assert int(np.argmax(y1)) == int(np.argmax(z))


@given(st.floats(-700, 700), st.integers(0, 1))
@settings(max_examples=100, deadline=None)
def test_logistic_loss_nonnegative_with_bounded_grad(z, y):
    losses, dlogits = logistic_loss(np.array([z]), np.array([float(y)]))
    assert losses[0] >= 0.0
    assert -1.0 <= dlogits[0] <= 1.0
