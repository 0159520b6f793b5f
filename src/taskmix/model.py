"""Task-gated mixture of experts over aligned concept space, plus baselines.

Architecture: E shared experts (affine projection into a constant width, then
a stack of relu residual blocks), one gate network per task (two-layer MLP
producing E softmax logits), one head per task (two-layer MLP on the gated
expert combination, one output logit):

    v(x)      = sum_j softmax(gate_i(x))_j * expert_j(x)
    logit_i   = head_i(v(x))

All parameters live in a single ParamStore; forward/backward group a mixed
batch by task so a task-i instance touches only gate_i/head_i parameters
(structural gradient isolation) while experts see the whole batch.

Stacks are explicit op lists, which lets experts take other shapes than the
standard residual tower: the constructive embedding below turns K trained
per-task networks into a K-expert mixture with constant near-one-hot gates
and exact identity heads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from . import numeric
from .numeric import DimensionError, ParamStore

__all__ = [
    "Affine",
    "Relu",
    "ResBlock",
    "stack_forward",
    "stack_backward",
    "stack_signature",
    "MixtureConfig",
    "Mixture",
    "mixture_param_count",
    "mixture_forward_flops",
    "BaselineConfig",
    "FeedForwardNet",
    "build_baseline",
    "embed_learners",
    "embedding_param_overhead",
    "save_checkpoint",
    "load_checkpoint",
]


# ---------------------------------------------------------------------------
# layer stacks


@dataclass(frozen=True)
class Affine:
    w: str
    b: str


@dataclass(frozen=True)
class Relu:
    pass


@dataclass(frozen=True)
class ResBlock:
    """y = relu(x @ w + b) + x; requires square w (constant width)."""

    w: str
    b: str


def stack_forward(store: ParamStore, ops: Sequence, x: np.ndarray, keep=True):
    """Run a stack; returns (output, caches) with one cache entry per op, or
    none when ``keep`` is False (inference: nothing to backprop)."""
    caches = []
    save = caches.append if keep else lambda entry: None
    for op in ops:
        if isinstance(op, Affine):
            save((x,))
            x = numeric.affine_forward(x, store.params[op.w], store.params[op.b])
        elif isinstance(op, Relu):
            save((x,))
            x = numeric.relu_forward(x)
        elif isinstance(op, ResBlock):
            z = numeric.affine_forward(x, store.params[op.w], store.params[op.b])
            save((x, z))
            x = numeric.residual_forward(x, numeric.relu_forward(z))
        else:
            raise TypeError(f"unknown op {op!r}")
    return x, caches


def stack_backward(store: ParamStore, ops: Sequence, caches, dy: np.ndarray,
                   input_grad: bool = True):
    """Backprop a stack, accumulating parameter grads; returns dx. With
    ``input_grad`` False the caller discards dx (the stack reads the data),
    so the first op skips it and None is returned."""
    for i in reversed(range(len(ops))):
        op, cache, need_dx = ops[i], caches[i], input_grad or i > 0
        if isinstance(op, Affine):
            (x,) = cache
            dy, dw, db = numeric.affine_backward(x, store.params[op.w], dy,
                                                 need_dx)
            store.grads[op.w] += dw
            store.grads[op.b] += db
        elif isinstance(op, Relu):
            (x,) = cache
            dy = numeric.relu_backward(x, dy) if need_dx else None
        elif isinstance(op, ResBlock):
            x, z = cache
            dres, dskip = numeric.residual_backward(dy)
            dz = numeric.relu_backward(z, dres)
            dx, dw, db = numeric.affine_backward(x, store.params[op.w], dz,
                                                 need_dx)
            store.grads[op.w] += dw
            store.grads[op.b] += db
            dy = dx + dskip if need_dx else None
        else:
            raise TypeError(f"unknown op {op!r}")
    return dy


def stack_signature(ops: Sequence, caches) -> tuple:
    """Relu activation-sign fingerprint of a forward pass (kink detection)."""
    sig = []
    for op, cache in zip(ops, caches):
        if isinstance(op, Relu):
            sig.append((cache[0] > 0.0).tobytes())
        elif isinstance(op, ResBlock):
            sig.append((cache[1] > 0.0).tobytes())
    return tuple(sig)


def _init_affines(rng: np.random.Generator, layers: Sequence) -> ParamStore:
    """One store for affine layers given as (name, fan_in, fan_out, gain):
    laid out and allocated once, weights drawn in the given order, biases 0."""
    shapes = {}
    for name, fan_in, fan_out, _ in layers:
        shapes[f"{name}.w"] = (fan_in, fan_out)
        shapes[f"{name}.b"] = (fan_out,)
    store = ParamStore(shapes)
    for name, fan_in, fan_out, gain in layers:
        # gain 2 (He) where a relu consumes the output, 1 (Xavier) where the
        # output stays linear -- keeps logit variance O(1) through the
        # residual stack instead of doubling per layer.
        store.params[f"{name}.w"][...] = rng.normal(
            0.0, np.sqrt(gain / fan_in), size=(fan_in, fan_out))
    return store


def _affine(name: str) -> Affine:
    return Affine(f"{name}.w", f"{name}.b")


def _predict_logits(model, X: np.ndarray, task: int = 0,
                    chunk: int = 4096) -> np.ndarray:
    """Logits of head ``task`` for every row of X, forwarded ``chunk`` rows
    at a time; inference keeps no backward caches."""
    outs = []
    for s in range(0, X.shape[0], chunk):
        block = X[s:s + chunk]
        ids = np.full(block.shape[0], task, dtype=np.int64)
        logits, _ = model.forward_batch(block, ids, keep=False)
        outs.append(logits)
    return np.concatenate(outs) if outs else np.zeros(0)


# ---------------------------------------------------------------------------
# the mixture


@dataclass(frozen=True)
class MixtureConfig:
    input_dim: int
    num_tasks: int
    num_experts: int = 3
    expert_depth: int = 6
    expert_width: int = 512
    gate_hidden: int = 32
    head_hidden: int = 32
    seed: int = 0

    def __post_init__(self):
        for name, value in vars(self).items():
            if type(value) is not int:
                raise ValueError(f"{name} {value!r} is not an int")
            if value < 1 and name != "seed":
                raise ValueError(f"{name} must be >= 1")


def mixture_param_count(cfg: MixtureConfig) -> int:
    """Closed-form parameter count of the standard mixture; asserted at init."""
    c, w = cfg.input_dim, cfg.expert_width
    expert = (c * w + w) + cfg.expert_depth * (w * w + w)
    gate = (c * cfg.gate_hidden + cfg.gate_hidden) \
        + (cfg.gate_hidden * cfg.num_experts + cfg.num_experts)
    head = (w * cfg.head_hidden + cfg.head_hidden) + (cfg.head_hidden + 1)
    return cfg.num_experts * expert + cfg.num_tasks * (gate + head)


def _affine_flops(n_in: int, n_out: int) -> int:
    # one multiply-add pair per weight, one add per bias
    return 2 * n_in * n_out + n_out


def mixture_forward_flops(cfg: MixtureConfig) -> int:
    """Flops for one instance through all experts plus ONE task's gate/head.

    Conventions: affine(i, o) = 2*i*o + o; relu and residual add cost 1 per
    element; softmax over E costs 4E (shift, exp, sum, divide); the gated
    combination of E width-w experts costs (2E - 1) * w.
    """
    c, w, e = cfg.input_dim, cfg.expert_width, cfg.num_experts
    expert = _affine_flops(c, w) + cfg.expert_depth * (_affine_flops(w, w) + 2 * w)
    gate = _affine_flops(c, cfg.gate_hidden) + cfg.gate_hidden \
        + _affine_flops(cfg.gate_hidden, e) + 4 * e
    combine = (2 * e - 1) * w
    head = _affine_flops(w, cfg.head_hidden) + cfg.head_hidden \
        + _affine_flops(cfg.head_hidden, 1)
    return e * expert + gate + combine + head


class Mixture:
    """E experts shared across K tasks, with per-task gates and heads."""

    def __init__(self, store: ParamStore, experts: list, gates: list,
                 heads: list, input_dim: int, expert_width: int,
                 task_ids: list[str], loss_kinds: list[str],
                 vocab_fingerprint: str | None = None,
                 config: MixtureConfig | None = None):
        if len(gates) != len(heads) or len(gates) != len(task_ids):
            raise DimensionError("one gate and one head per task required")
        self.store = store
        self.experts = experts
        self.gates = gates
        self.heads = heads
        self.input_dim = input_dim
        self.expert_width = expert_width
        self.task_ids = list(task_ids)
        self.loss_kinds = list(loss_kinds)
        self.vocab_fingerprint = vocab_fingerprint
        self.config = config

    @property
    def num_tasks(self) -> int:
        return len(self.gates)

    @property
    def num_experts(self) -> int:
        return len(self.experts)

    @classmethod
    def standard(cls, cfg: MixtureConfig, task_ids: Sequence[str] | None = None,
                 loss_kinds: Sequence[str] | None = None,
                 vocab_fingerprint: str | None = None) -> "Mixture":
        """Freshly initialized mixture; creation order (experts, gates,
        heads) and the seeded generator make identical configs bitwise
        identical."""
        c, w = cfg.input_dim, cfg.expert_width
        layers = []
        experts = []
        for j in range(cfg.num_experts):
            layers.append((f"expert{j}.l0", c, w, 1.0))
            layers += [(f"expert{j}.l{l}", w, w, 2.0)
                       for l in range(1, cfg.expert_depth + 1)]
            experts.append([_affine(f"expert{j}.l0")]
                           + [ResBlock(f"expert{j}.l{l}.w", f"expert{j}.l{l}.b")
                              for l in range(1, cfg.expert_depth + 1)])
        for i in range(cfg.num_tasks):
            layers += [(f"gate{i}.l0", c, cfg.gate_hidden, 2.0),
                       (f"gate{i}.l1", cfg.gate_hidden, cfg.num_experts, 1.0)]
        for i in range(cfg.num_tasks):
            layers += [(f"head{i}.l0", w, cfg.head_hidden, 2.0),
                       (f"head{i}.l1", cfg.head_hidden, 1, 1.0)]
        store = _init_affines(np.random.default_rng(cfg.seed), layers)
        gates = [[_affine(f"gate{i}.l0"), Relu(), _affine(f"gate{i}.l1")]
                 for i in range(cfg.num_tasks)]
        heads = [[_affine(f"head{i}.l0"), Relu(), _affine(f"head{i}.l1")]
                 for i in range(cfg.num_tasks)]
        assert store.num_params() == mixture_param_count(cfg)
        ids = list(task_ids) if task_ids is not None \
            else [f"task{i}" for i in range(cfg.num_tasks)]
        kinds = list(loss_kinds) if loss_kinds is not None \
            else ["binary"] * cfg.num_tasks
        return cls(store, experts, gates, heads, cfg.input_dim,
                   cfg.expert_width, ids, kinds, vocab_fingerprint, cfg)

    # -- forward / backward over mixed-task batches

    def forward_batch(self, X: np.ndarray, task_ids: np.ndarray, keep=True):
        """Logits for a mixed batch. X is (B, input_dim) already masked;
        task_ids picks the gate/head per row. Returns (logits, cache), the
        cache None when ``keep`` is False."""
        X = np.asarray(X, dtype=np.float64)
        task_ids = np.asarray(task_ids, dtype=np.int64)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise DimensionError(
                f"batch shape {X.shape} incompatible with input_dim {self.input_dim}")
        if task_ids.shape != (X.shape[0],):
            raise DimensionError("one task id per batch row required")
        if task_ids.size and (task_ids.min() < 0 or task_ids.max() >= self.num_tasks):
            raise DimensionError("task id out of range")
        U, expert_caches = self.expert_forward(X, keep)
        logits = np.zeros(X.shape[0])
        groups = []
        present = np.unique(task_ids)
        for t in present:
            # one task owns every row: its views need no copies
            rows = np.flatnonzero(task_ids == t) if present.size > 1 \
                else slice(None)
            z, group = self.task_forward(int(t), X[rows], U[:, rows, :], keep)
            logits[rows] = z
            if keep:
                groups.append((int(t), rows) + group)
        return logits, (X, task_ids, U, expert_caches, groups) if keep else None

    def expert_forward(self, X: np.ndarray, keep=True):
        """Expert half of the forward pass; it depends only on the input.
        Returns the stacked outputs U (E, B, expert_width) and the caches."""
        U = np.zeros((self.num_experts, X.shape[0], self.expert_width))
        expert_caches = []
        for j, ops in enumerate(self.experts):
            U[j], cache = stack_forward(self.store, ops, X, keep)
            expert_caches.append(cache)
        return U, expert_caches if keep else None

    def task_forward(self, t: int, X: np.ndarray, U: np.ndarray, keep=True):
        """Per-task half: gate t on rows X, softmax, combination of their
        expert outputs U (E, b, expert_width), head t. Returns (logits,
        (G, V, gate_cache, head_cache))."""
        a, gate_cache = stack_forward(self.store, self.gates[t], X, keep)
        G = numeric.softmax_rows(a)
        V = np.einsum("ebw,be->bw", U, G)
        h, head_cache = stack_forward(self.store, self.heads[t], V, keep)
        return h[:, 0], (G, V, gate_cache, head_cache) if keep else None

    def backward_batch(self, cache, dlogits: np.ndarray) -> None:
        """Accumulate parameter gradients for dL/dlogits."""
        X, task_ids, U, expert_caches, groups = cache
        dU = np.zeros_like(U)
        for t, rows, G, V, gate_cache, head_cache in groups:
            dh = dlogits[rows][:, None]
            dV = stack_backward(self.store, self.heads[t], head_cache, dh)
            dG = np.einsum("ebw,bw->be", U[:, rows, :], dV)
            dU[:, rows, :] += G.T[:, :, None] * dV[None, :, :]
            da = numeric.softmax_rows_backward(G, dG)
            stack_backward(self.store, self.gates[t], gate_cache, da,
                           input_grad=False)
        for j, ops in enumerate(self.experts):
            stack_backward(self.store, ops, expert_caches[j], dU[j],
                           input_grad=False)

    def signature(self, cache) -> tuple:
        """Activation-sign fingerprint across every stack in the pass."""
        _, _, _, expert_caches, groups = cache
        sig = []
        for j, ops in enumerate(self.experts):
            sig.extend(stack_signature(ops, expert_caches[j]))
        for t, rows, G, V, gate_cache, head_cache in groups:
            sig.extend(stack_signature(self.gates[t], gate_cache))
            sig.extend(stack_signature(self.heads[t], head_cache))
        return tuple(sig)

    predict_logits = _predict_logits

    def tensor_tasks(self) -> np.ndarray:
        """Owning task of each store tensor, in store order: t for the
        tensors of gate t and head t, -1 for the shared ones."""
        position = {n: i for i, n in enumerate(self.store.names())}
        owner = np.full(len(position), -1, dtype=np.int64)
        for t, ops in enumerate(zip(self.gates, self.heads)):
            for op in ops[0] + ops[1]:
                if not isinstance(op, Relu):
                    owner[[position[op.w], position[op.b]]] = t
        return owner

    def copy(self) -> "Mixture":
        return Mixture(self.store.copy(), self.experts, self.gates, self.heads,
                       self.input_dim, self.expert_width, self.task_ids,
                       self.loss_kinds, self.vocab_fingerprint, self.config)

    def task_mixture(self, t: int) -> "Mixture":
        """One-task mixture of the experts with gate and head ``t``, all that
        task t's forward pass reads. Its store holds copies of just the
        tensors those ops name, in store order and under the same names."""
        used = {n for ops in self.experts + [self.gates[t], self.heads[t]]
                for op in ops if not isinstance(op, Relu) for n in (op.w, op.b)}
        store = ParamStore.from_arrays(
            {n: p for n, p in self.store.params.items() if n in used})
        config = replace(self.config, num_tasks=1) if self.config else None
        return Mixture(store, self.experts, [self.gates[t]], [self.heads[t]],
                       self.input_dim, self.expert_width, [self.task_ids[t]],
                       [self.loss_kinds[t]], self.vocab_fingerprint, config)


# ---------------------------------------------------------------------------
# baselines


@dataclass(frozen=True)
class BaselineConfig:
    hidden: tuple = (64,)                  # () gives logistic regression
    seed: int = 0


class FeedForwardNet:
    """Plain relu MLP with a single output logit."""

    def __init__(self, store: ParamStore, ops: list, input_dim: int):
        self.store = store
        self.ops = ops
        self.input_dim = input_dim

    @classmethod
    def mlp(cls, input_dim: int, hidden: Sequence[int],
            seed: int = 0) -> "FeedForwardNet":
        widths = [input_dim, *hidden, 1]
        layers = [(f"layer{l}", widths[l], widths[l + 1], 2.0)
                  for l in range(len(hidden))]
        layers.append((f"layer{len(hidden)}", widths[-2], 1, 1.0))
        store = _init_affines(np.random.default_rng(seed), layers)
        ops: list = []
        for l in range(len(hidden)):
            ops += [_affine(f"layer{l}"), Relu()]
        ops.append(_affine(f"layer{len(hidden)}"))
        return cls(store, ops, input_dim)

    def forward_batch(self, X: np.ndarray, task_ids=None, keep=True):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise DimensionError(f"batch shape {X.shape} vs input_dim {self.input_dim}")
        out, caches = stack_forward(self.store, self.ops, X, keep)
        return out[:, 0], caches

    def backward_batch(self, caches, dlogits: np.ndarray) -> None:
        stack_backward(self.store, self.ops, caches, dlogits[:, None],
                       input_grad=False)

    def signature(self, caches) -> tuple:
        return stack_signature(self.ops, caches)

    predict_logits = _predict_logits

    def copy(self) -> "FeedForwardNet":
        return FeedForwardNet(self.store.copy(), self.ops, self.input_dim)


def build_baseline(cfg: BaselineConfig, input_dim: int) -> FeedForwardNet:
    return FeedForwardNet.mlp(input_dim, cfg.hidden, cfg.seed)


# ---------------------------------------------------------------------------
# constructive embedding of per-task learners


def embedding_param_overhead(input_dim: int, num_tasks: int) -> int:
    """Parameters added on top of the learners: per task, one constant gate
    (input_dim*1 + 1 hidden, 1*K + K output) and one exact identity head
    (1*2 + 2 then 2*1 + 1 = 7)."""
    k = num_tasks
    gate = (input_dim + 1) + (k + k)
    return k * (gate + 7)


# gate logit of each embedded learner's own expert; the others get 0
_GATE_MARGIN = 50.0


def embed_learners(learners: Sequence[FeedForwardNet],
                   schemas: Sequence,
                   vocab_fingerprint: str | None = None) -> Mixture:
    """Build a K-task mixture that reproduces K trained per-task networks.

    Expert j is learner j's stack verbatim, with first-layer weight rows on
    the task's masked coordinates zeroed (the learners never see those
    coordinates, so this is output-preserving on masked inputs and makes the
    insensitivity structural). Gate i ignores its input (zero weights) and
    emits constant logits with ``_GATE_MARGIN`` (50) on expert i, so softmax
    puts 1 - (K-1)e^-50 mass on the matching expert. Head i is an exact
    identity on the scalar expert output via a paired relu: relu(v) - relu(-v).

    With K = 1 the softmax weight is exactly 1 and outputs are bitwise equal
    to the learner's. Mismatched learner input widths or non-scalar outputs
    raise DimensionError.
    """
    if not learners:
        raise DimensionError("at least one learner required")
    if len(learners) != len(schemas):
        raise DimensionError("one schema per learner required")
    k = len(learners)
    input_dim = learners[0].input_dim
    arrays = {}
    experts = []
    for j, learner in enumerate(learners):
        if learner.input_dim != input_dim:
            raise DimensionError(
                f"learner {j} input width {learner.input_dim} != {input_dim}")
        last = learner.ops[-1]
        if not isinstance(last, Affine) or learner.store.params[last.w].shape[1] != 1:
            raise DimensionError(f"learner {j} does not end in a scalar affine")
        ops = []
        first_affine = True
        for op in learner.ops:
            if isinstance(op, Relu):
                ops.append(Relu())
                continue
            w = learner.store.params[op.w]
            if first_affine:
                # structurally blind the expert to its task's masked coords
                w = w.copy()
                w[schemas[j].mask_indices(), :] = 0.0
                first_affine = False
            new = Affine(f"expert{j}.{op.w}", f"expert{j}.{op.b}")
            if new.w in arrays or new.b in arrays:  # a tied parameter
                raise DimensionError(f"learner {j} reuses {op.w!r} or {op.b!r}")
            arrays[new.w], arrays[new.b] = w, learner.store.params[op.b]
            ops.append(ResBlock(new.w, new.b) if isinstance(op, ResBlock) else new)
        experts.append(ops)
    gates = []
    for i in range(k):
        bias = np.zeros(k)
        bias[i] = _GATE_MARGIN
        arrays.update({f"gate{i}.l0.w": np.zeros((input_dim, 1)),
                       f"gate{i}.l0.b": np.zeros(1),
                       f"gate{i}.l1.w": np.zeros((1, k)),
                       f"gate{i}.l1.b": bias})
        gates.append([Affine(f"gate{i}.l0.w", f"gate{i}.l0.b"), Relu(),
                      Affine(f"gate{i}.l1.w", f"gate{i}.l1.b")])
    heads = []
    for i in range(k):
        arrays.update({f"head{i}.l0.w": np.array([[1.0, -1.0]]),
                       f"head{i}.l0.b": np.zeros(2),
                       f"head{i}.l1.w": np.array([[1.0], [-1.0]]),
                       f"head{i}.l1.b": np.zeros(1)})
        heads.append([Affine(f"head{i}.l0.w", f"head{i}.l0.b"), Relu(),
                      Affine(f"head{i}.l1.w", f"head{i}.l1.b")])
    task_ids = [getattr(s, "task_id", f"task{i}") for i, s in enumerate(schemas)]
    kinds = [getattr(s, "loss_kind", "binary") for s in schemas]
    return Mixture(ParamStore.from_arrays(arrays), experts, gates, heads,
                   input_dim, expert_width=1,
                   task_ids=task_ids, loss_kinds=kinds,
                   vocab_fingerprint=vocab_fingerprint, config=None)


# ---------------------------------------------------------------------------
# checkpoints


_MAGIC = b"TSKMX001"


def _ops_to_json(ops: Sequence) -> list:
    out = []
    for op in ops:
        if isinstance(op, Affine):
            out.append({"op": "affine", "w": op.w, "b": op.b})
        elif isinstance(op, ResBlock):
            out.append({"op": "resblock", "w": op.w, "b": op.b})
        elif isinstance(op, Relu):
            out.append({"op": "relu"})
        else:
            raise TypeError(f"unknown op {op!r}")
    return out


def _ops_from_json(items: list, params: dict) -> list:
    out = []
    for it in items:
        if it["op"] == "relu":
            out.append(Relu())
        elif it["op"] in ("affine", "resblock"):
            missing = sorted({it["w"], it["b"]} - params.keys())
            if missing:
                raise ValueError(f"checkpoint op names missing parameter {missing[0]!r}")
            cls = Affine if it["op"] == "affine" else ResBlock
            out.append(cls(it["w"], it["b"]))
        else:
            raise ValueError(f"bad checkpoint op {it!r}")
    return out


def save_checkpoint(path, model, extra: dict | None = None) -> bytes:
    """Serialize a model to a self-describing binary checkpoint.

    Layout: 8-byte magic, 8-byte big-endian header length, JSON header
    (format version, model kind, stack topology, parameter names/shapes,
    vocabulary fingerprint, caller extras), then raw little-endian float64
    parameter buffers in store order. Byte-deterministic for fixed params.
    """
    store = model.store
    header: dict = {
        "format": 1,
        "params": [{"name": n, "shape": list(p.shape)}
                   for n, p in store.params.items()],
        "extra": extra or {},
    }
    if isinstance(model, Mixture):
        header["kind"] = "mixture"
        header["input_dim"] = model.input_dim
        header["expert_width"] = model.expert_width
        header["task_ids"] = model.task_ids
        header["loss_kinds"] = model.loss_kinds
        header["vocab_fingerprint"] = model.vocab_fingerprint
        header["experts"] = [_ops_to_json(e) for e in model.experts]
        header["gates"] = [_ops_to_json(g) for g in model.gates]
        header["heads"] = [_ops_to_json(h) for h in model.heads]
        if model.config is not None:
            header["config"] = {f: getattr(model.config, f) for f in
                                ("input_dim", "num_tasks", "num_experts",
                                 "expert_depth", "expert_width", "gate_hidden",
                                 "head_hidden", "seed")}
    elif isinstance(model, FeedForwardNet):
        header["kind"] = "feedforward"
        header["input_dim"] = model.input_dim
        header["ops"] = _ops_to_json(model.ops)
    else:
        raise TypeError(f"cannot checkpoint {type(model).__name__}")
    head_bytes = json.dumps(header, sort_keys=True,
                            separators=(",", ":")).encode()
    data = b"".join([_MAGIC, len(head_bytes).to_bytes(8, "big"), head_bytes,
                     memoryview(store.flat_params.astype("<f8", copy=False))])
    if path is not None:
        Path(path).write_bytes(data)
    return data


def _header_shapes(params) -> dict:
    """Parameter names and shapes from a checkpoint header, in store order."""
    if not isinstance(params, list):
        raise ValueError("checkpoint header 'params' is not a list")
    shapes: dict = {}
    for meta in params:
        name = meta.get("name") if isinstance(meta, dict) else None
        shape = meta.get("shape") if isinstance(meta, dict) else None
        if not isinstance(name, str) or not isinstance(shape, list) \
                or not all(type(d) is int and d >= 0 for d in shape):
            raise ValueError(f"bad checkpoint parameter entry {meta!r}")
        if name in shapes:
            raise ValueError(f"duplicate checkpoint parameter {name!r}")
        shapes[name] = tuple(shape)
    return shapes


def _positive_int(header: dict, key: str) -> int:
    value = header.get(key)
    if type(value) is not int or value < 1:
        raise ValueError(f"checkpoint {key!r} {value!r} is not a positive int")
    return value


def _names(header: dict, key: str, count: int) -> list:
    value = header.get(key)
    if not isinstance(value, list) or len(value) != count \
            or not all(isinstance(v, str) for v in value):
        raise ValueError(f"checkpoint {key!r} is not {count} strings, one "
                         f"per gate")
    return value


def _model_from_header(header: dict, store: ParamStore):
    ops = partial(_ops_from_json, params=store.params)
    kind = header.get("kind")
    if kind == "mixture":
        experts = [ops(e) for e in header["experts"]]
        gates = [ops(g) for g in header["gates"]]
        built = {"num_tasks": len(gates), "num_experts": len(experts),
                 "input_dim": _positive_int(header, "input_dim"),
                 "expert_width": _positive_int(header, "expert_width")}
        cfg = None
        if "config" in header:
            cfg = MixtureConfig(**header["config"])
            for key, value in built.items():
                if getattr(cfg, key) != value:
                    raise ValueError(f"checkpoint config {key} "
                                     f"{getattr(cfg, key)} != {value} of "
                                     f"the model")
        fingerprint = header.get("vocab_fingerprint")
        if fingerprint is not None and not isinstance(fingerprint, str):
            raise ValueError(f"checkpoint 'vocab_fingerprint' {fingerprint!r} "
                             f"is not a string or null")
        return Mixture(store, experts, gates,
                       [ops(h) for h in header["heads"]],
                       built["input_dim"], built["expert_width"],
                       _names(header, "task_ids", len(gates)),
                       _names(header, "loss_kinds", len(gates)),
                       fingerprint, cfg)
    if kind == "feedforward":
        return FeedForwardNet(store, ops(header["ops"]),
                              _positive_int(header, "input_dim"))
    raise ValueError(f"unknown checkpoint kind {kind!r}")


def load_checkpoint(path_or_bytes):
    """Inverse of save_checkpoint; returns (model, extra). Any malformed
    input raises ValueError."""
    data = path_or_bytes if isinstance(path_or_bytes, (bytes, bytearray)) \
        else Path(path_or_bytes).read_bytes()
    if data[:8] != _MAGIC:
        raise ValueError("not a checkpoint (bad magic)")
    hlen = int.from_bytes(data[8:16], "big")
    try:
        header = json.loads(data[16:16 + hlen].decode())
    except RecursionError:
        raise ValueError("checkpoint header nests too deeply") from None
    if not isinstance(header, dict):
        raise ValueError("checkpoint header is not a JSON object")
    if header.get("format") != 1:
        raise ValueError(f"unsupported checkpoint format {header.get('format')!r}")
    shapes = _header_shapes(header.get("params"))
    size = sum(math.prod(s) for s in shapes.values())
    offset = 16 + hlen
    extra = len(data) - offset - 8 * size
    if extra > 0:
        raise ValueError(f"checkpoint has {extra} trailing bytes")
    if extra < 0:
        raise ValueError(f"checkpoint is truncated by {-extra} bytes")
    # one copy out of the file's bytes; no gradient buffer until trained
    flat = np.frombuffer(data, dtype="<f8", count=size,
                         offset=offset).astype(np.float64)
    store = ParamStore(shapes, flat)
    if not np.isfinite(flat).all():
        name = next(n for n, p in store.params.items() if not np.isfinite(p).all())
        raise ValueError(f"checkpoint parameter {name!r} is not finite")
    try:
        model = _model_from_header(header, store)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed checkpoint header: {exc!r}") from exc
    return model, header.get("extra", {})
