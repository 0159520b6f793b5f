"""Dense float64 numeric kernel: layer forward/backward rules, losses, Adam,
and a finite-difference gradient checker.

Conventions used throughout the package:

- a "matrix" is a 2-D C-contiguous float64 ndarray; batches are stacked in rows
  (row-major), so an affine layer computes ``y = x @ w + b`` with ``w`` of shape
  (fan_in, fan_out) and ``b`` of shape (fan_out,);
- backward functions take the upstream gradient with the same shape as the
  forward output and return input/parameter gradients with matching shapes;
- relu uses the subgradient-0 convention at exactly 0 (strict ``x > 0`` mask);
- losses are per-instance, vectorized; trainers sum them (no 1/B factor);
- a ParamStore is packed: its named parameters are views into one
  contiguous float64 buffer in store order. Its gradients are views into a
  second buffer that holds only the bound tensors, packed in store order
  (``bind``); every other gradient is exactly +0.0. A fresh store binds
  every tensor on first use, so its buffer is the full one, and
  ``zero_grads`` releases it. Training with more tasks than a batch has
  rows binds the shared tensors and each step's tasks, so it holds three
  parameter-sized copies (parameters, Adam's m and v) plus the gradients of
  the shared tensors and of the batch_size largest tasks, and leaves the
  store unbound when it ends. Adam, the norm and clipping walk the bound
  runs in store order; Adam's exact zero-gradient path updates the rest
  with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

__all__ = [
    "DimensionError",
    "affine_forward",
    "affine_backward",
    "relu_forward",
    "relu_backward",
    "residual_forward",
    "residual_backward",
    "softmax_rows",
    "softmax_rows_backward",
    "sigmoid",
    "logistic_loss",
    "squared_loss",
    "ParamStore",
    "AdamState",
    "adam_step",
    "global_grad_norm",
    "clip_grads_",
    "FiniteDiffReport",
    "finite_diff_check",
]


class DimensionError(ValueError):
    """Raised when operand shapes do not conform."""


def _check_dims(cond: bool, msg: str) -> None:
    if not cond:
        raise DimensionError(msg)


# ---------------------------------------------------------------------------
# layer rules


def affine_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """y = x @ w + b for a row batch x of shape (n, fan_in)."""
    _check_dims(x.ndim == 2 and w.ndim == 2, "affine expects 2-D x and w")
    _check_dims(x.shape[1] == w.shape[0],
                f"affine fan_in mismatch: x has {x.shape[1]}, w has {w.shape[0]}")
    _check_dims(b.shape == (w.shape[1],),
                f"affine bias shape {b.shape} != ({w.shape[1]},)")
    return x @ w + b


def affine_backward(x: np.ndarray, w: np.ndarray, dy: np.ndarray,
                    input_grad: bool = True):
    """Gradients of an affine layer: returns (dx, dw, db), dx None when
    ``input_grad`` is False."""
    _check_dims(dy.shape == (x.shape[0], w.shape[1]),
                f"affine upstream shape {dy.shape} != ({x.shape[0]}, {w.shape[1]})")
    dx = dy @ w.T if input_grad else None
    dw = np.dot(x.T, dy)  # matmul skips BLAS for a one-row x, and is slower
    db = dy.sum(axis=0)
    return dx, dw, db


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Subgradient convention: exactly-0 inputs get 0 gradient."""
    _check_dims(x.shape == dy.shape, "relu upstream shape mismatch")
    return dy * (x > 0.0)


def residual_forward(x: np.ndarray, fx: np.ndarray) -> np.ndarray:
    """y = fx + x; both operands must have identical shape (constant width)."""
    _check_dims(x.shape == fx.shape,
                f"residual add needs equal shapes, got {x.shape} vs {fx.shape}")
    return fx + x


def residual_backward(dy: np.ndarray):
    """The add fans the upstream gradient out to both branches unchanged."""
    return dy, dy


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction; rows sum to 1, argmax preserved."""
    z = np.atleast_2d(z)
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_rows_backward(y: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Jacobian-vector product through a row softmax whose output was y."""
    _check_dims(y.shape == dy.shape, "softmax upstream shape mismatch")
    inner = (dy * y).sum(axis=1, keepdims=True)
    return y * (dy - inner)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_loss(logits: np.ndarray, labels: np.ndarray):
    """Per-instance binary cross-entropy on logits, with gradient.

    loss = max(z, 0) - z*y + log(1 + exp(-|z|)), dloss/dz = sigmoid(z) - y.
    Stable for any finite logit. Returns (losses, dlogits), both shaped like
    the inputs.
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    _check_dims(z.shape == y.shape, "logits/labels shape mismatch")
    losses = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    dlogits = sigmoid(z) - y
    return losses, dlogits


def squared_loss(preds: np.ndarray, targets: np.ndarray):
    """Per-instance squared error (p - t)^2 with gradient 2(p - t)."""
    p = np.asarray(preds, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    _check_dims(p.shape == t.shape, "preds/targets shape mismatch")
    diff = p - t
    return diff * diff, 2.0 * diff


# ---------------------------------------------------------------------------
# parameters and optimizer


class ParamStore:
    """Ordered, named float64 parameter tensors with parallel gradient slots.

    Insertion order is the canonical order for serialization, flattening and
    the gradient checker, so two stores built by the same code path compare
    positionally.

    The store is always packed: every parameter is a view into the one
    contiguous buffer ``flat_params``, in store order. ``ParamStore(shapes,
    flat)`` lays a whole store out and allocates it once (taking ``flat`` as
    the parameter buffer when given). ``bind`` gives gradient storage to a
    set of tensors, packed in store order at the front of ``flat_grads``;
    the first read of ``grads`` or ``flat_grads`` binds every tensor to a
    zeroed full buffer, so a store that is only evaluated (a loaded
    checkpoint, an adapted copy) never holds one. ``zero_grads`` releases
    the buffer and unbinds: a trained store gives it back at the end.
    ``ParamStore.from_arrays`` packs copies of given tensors the same way.
    """

    def __init__(self, shapes=None, flat: np.ndarray | None = None) -> None:
        self._shapes = {n: tuple(s) for n, s in (shapes or {}).items()}
        # store offset of each tensor, and the end
        self._starts = np.cumsum(
            [0] + [math.prod(s) for s in self._shapes.values()])
        starts = self._starts.tolist()
        size = starts[-1]
        if flat is None:
            flat = np.zeros(size)
        elif flat.shape != (size,) or flat.dtype != np.float64 \
                or not flat.flags.c_contiguous:
            raise DimensionError(f"flat buffer must be {size} contiguous float64")
        self.flat_params = flat
        self.params = {n: flat[lo:hi].reshape(self._shapes[n]) for n, lo, hi
                       in zip(self._shapes, starts, starts[1:])}
        self.zero_grads()

    def _bound(self) -> None:
        # a fresh store, or one released by zero_grads, binds every tensor
        if self._runs is None:
            self.bind(range(len(self._shapes)), self.num_params())

    @property
    def flat_grads(self) -> np.ndarray:
        self._bound()
        return self._flat_grads

    @property
    def grads(self) -> dict[str, np.ndarray]:
        self._bound()
        return self._grads

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "ParamStore":
        """A store holding copies of ``arrays``, packed in mapping order."""
        values = [np.asarray(a, dtype=np.float64) for a in arrays.values()]
        return cls({n: v.shape for n, v in zip(arrays, values)},
                   np.concatenate([np.zeros(0)] + [v.ravel() for v in values]))

    def names(self) -> list[str]:
        return list(self._shapes)

    def zero_grads(self) -> None:
        """Release the gradient buffer and unbind; the next read of
        ``grads`` or ``flat_grads`` binds every tensor to a zeroed full
        buffer, as for a fresh store."""
        self._flat_grads = None
        self._grads = {}
        self._runs = None

    def bind(self, positions, size: int) -> None:
        """Give gradients to the tensors at ``positions`` (ascending indices
        into ``names()``), packed in store order at the front of one zeroed
        buffer of ``size`` floats; every other tensor's gradient is exactly
        zero and has no storage. A later bind of the same ``size`` reuses
        the buffer and moves no values: it must hold zeros, as
        ``adam_step`` leaves it."""
        if self._flat_grads is None or self._flat_grads.size != size:
            self._flat_grads = np.zeros(size)
        buf, names = self._flat_grads, self.names()
        ix = np.asarray(positions, dtype=np.int64)
        grads, spans, at = {}, [], 0  # spans: [lo, hi, buffer offset]
        for i, lo, hi in zip(ix.tolist(), self._starts[ix].tolist(),
                             self._starts[ix + 1].tolist()):
            name = names[i]
            grads[name] = buf[at:at + hi - lo].reshape(self._shapes[name])
            if spans and spans[-1][1] == lo:
                spans[-1][1] = hi
            else:
                spans.append([lo, hi, at])
            at += hi - lo
        runs, end = [], 0
        for lo, hi, a in spans:
            if end < lo:
                runs.append((end, lo, None))
            runs.append((lo, hi, buf[a:a + hi - lo]))
            end = hi
        if end < self.num_params():
            runs.append((end, self.num_params(), None))
        self._grads, self._runs = grads, runs

    def grad_runs(self) -> list:
        """Store-order runs ``(lo, hi, g)`` that cover ``flat_params``: ``g``
        is the gradient of ``flat_params[lo:hi]`` as a flat view, or None
        where no tensor is bound (the gradient is exactly zero)."""
        self._bound()
        return self._runs

    def num_params(self) -> int:
        return self.flat_params.size

    def copy(self) -> "ParamStore":
        return ParamStore(self._shapes, self.flat_params.copy())


# elements per pass of adam_step: two scratch arrays of this length bound its
# temporaries (a whole-buffer temporary is 104 MB at 13M parameters)
_ADAM_CHUNK = 32768


# Adam's moment decay rates and denominator floor
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators, flat and in the store's order."""

    t: int = 0
    names: tuple = ()
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @classmethod
    def for_store(cls, store: ParamStore) -> "AdamState":
        n = store.num_params()
        return cls(names=tuple(store.names()), m=np.zeros(n), v=np.zeros(n))


def adam_step(store: ParamStore, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update from the store's gradients; zeroes
    them after.

    Walks ``store.grad_runs()`` in chunks, with the operations of the
    per-tensor update in the same order, so every element gets the same
    bits as a tensor-by-tensor pass over the full gradients. A run without
    gradient storage has gradient +0.0: it skips the gradient terms and
    keeps ``m += 0.0``, which turns an underflowed -0.0 in ``m`` into +0.0
    as adding ``(1 - b1) * 0.0`` would.
    """
    if state.names != tuple(store.names()):
        raise KeyError("Adam state does not match parameter store")
    state.t += 1
    b1, b2 = _BETA1, _BETA2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    s1 = np.empty(min(store.num_params(), _ADAM_CHUNK))
    s2 = np.empty_like(s1)
    for start, end, grad in store.grad_runs():
        for lo in range(start, end, _ADAM_CHUNK):
            hi = min(lo + _ADAM_CHUNK, end)
            p, m, v = store.flat_params[lo:hi], state.m[lo:hi], state.v[lo:hi]
            t1, t2 = s1[:hi - lo], s2[:hi - lo]
            # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
            m *= b1
            if grad is None:
                m += 0.0
                v *= b2
            else:
                g = grad[lo - start:hi - start]
                m += np.multiply(1.0 - b1, g, out=t1)
                v *= b2
                np.multiply(g, g, out=t1)
                v += np.multiply(1.0 - b2, t1, out=t1)
            # p -= lr (m / bc1) / (sqrt(v / bc2) + eps)
            np.divide(v, bc2, out=t1)
            np.sqrt(t1, out=t1)
            t1 += _EPS
            np.divide(m, bc1, out=t2)
            np.multiply(lr, t2, out=t2)
            p -= np.divide(t2, t1, out=t2)
            if grad is not None:
                g.fill(0.0)


def global_grad_norm(store: ParamStore) -> float:
    """Euclidean norm of the store's gradients. A bound store sums over its
    bound tensors only; the others are exactly +0.0, so the norm is the
    full one bit for bit."""
    # per-tensor partial sums in store order: one dot over the flat buffer
    # rounds differently, and the norm sets the clip scale
    total = 0.0
    for g in store.grads.values():
        total += float(np.dot(g.ravel(), g.ravel()))
    return math.sqrt(total)


def clip_grads_(store: ParamStore, max_norm: float) -> float:
    """Scale gradients so the global norm is at most max_norm, one call per
    contiguous run of stored gradients. Returns the pre-clip norm."""
    norm = global_grad_norm(store)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for _, _, g in store.grad_runs():
            if g is not None:
                g *= scale
    return norm


# ---------------------------------------------------------------------------
# finite differences


@dataclass
class FiniteDiffReport:
    max_rel_err: float
    worst_param: str
    worst_index: tuple
    checked: int
    skipped: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"max_rel_err={self.max_rel_err:.3e} at "
                f"{self.worst_param}{list(self.worst_index)} "
                f"({self.checked} coords checked, {self.skipped} skipped at kinks)")


def finite_diff_check(loss_fn, store: ParamStore, *, h: float = 1e-5,
                      max_coords: int | None = None,
                      rng: np.random.Generator | None = None) -> FiniteDiffReport:
    """Central-difference check of analytic gradients in ``store.grads``.

    ``loss_fn()`` must be deterministic, return either ``loss`` or
    ``(loss, signature)``, and accumulate analytic gradients into
    ``store.grads`` as a side effect (the reference call below captures them;
    later evaluations' gradients are ignored). ``signature`` is any hashable
    fingerprint of the active relu patterns: coordinates whose signature
    differs between the +h and -h evaluations sit on a kink where central
    differences are meaningless, and are skipped rather than reported.

    Relative error per coordinate uses max(|analytic|, |numeric|, 1e-8) as the
    denominator; a NaN error counts as the worst. At most ``max_coords``
    coordinates per parameter tensor are sampled (all of them when None).
    ``h`` must be finite and positive (ValueError otherwise).
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"finite-difference step h must be finite and > 0, "
                         f"got {h!r}")

    def evaluate():
        out = loss_fn()
        if isinstance(out, tuple):
            loss, sig = out
        else:
            loss, sig = out, None
        return float(loss), sig

    rng = rng or np.random.default_rng(0)
    store.zero_grads()
    evaluate()
    analytic = {name: g.copy() for name, g in store.grads.items()}

    worst = 0.0
    worst_param = ""
    worst_index: tuple = ()
    checked = 0
    skipped = 0
    for name, p in store.params.items():
        flat = p.reshape(-1)
        n = flat.size
        if max_coords is not None and n > max_coords:
            idxs = rng.choice(n, size=max_coords, replace=False)
        else:
            idxs = np.arange(n)
        a_flat = analytic[name].reshape(-1)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            lp, sp = evaluate()
            flat[i] = orig - h
            lm, sm = evaluate()
            flat[i] = orig
            if sp is not None and sp != sm:
                skipped += 1
                continue
            numeric = (lp - lm) / (2.0 * h)
            a = a_flat[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            checked += 1
            if rel > worst or (math.isnan(rel) and not math.isnan(worst)):
                worst = rel
                worst_param = name
                worst_index = np.unravel_index(int(i), p.shape)
    store.zero_grads()
    return FiniteDiffReport(worst, worst_param, tuple(int(k) for k in worst_index),
                            checked, skipped)
