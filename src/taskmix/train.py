"""Training loops: joint meta-training with in-batch task mixing, plain
supervised baselines, and low-learning-rate online adaptation of one task.

The meta objective is the SUM over tasks and training instances of the
per-task loss at that task's head. One mixed batch is drawn per step (task
chosen proportionally to train split size, instance uniform within the task),
per-instance losses are summed, and a single first-order backward pass feeds
one Adam step. No per-task averaging anywhere: a task's gradient mass is
proportional to its share of the batch. Adam's normalization makes the sum
convention robust to batch size. A step writes only the experts and the
batch's gates and heads; when the model has more tasks than a batch has
rows, only those get gradient storage (``ParamStore.bind``), and
Adam takes its exact zero-gradient path for the rest. Validation runs the
split as mixed-task chunks.

Baselines run through the same engine (same sampler, loss, optimizer) with a
single task, so a one-task meta run and a baseline run of the same
architecture produce identical traces under identical seeds. Adaptation is
one such run per learning rate, on a one-task mixture of the shared experts
and the adapted task's gate and head.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import numeric
from .concepts import SchemaError
from .data import BatchSampler, MetaDataset, TaskDataset, build_auxiliary_tasks, \
    build_meta_dataset
from .model import BaselineConfig, Mixture, MixtureConfig, build_baseline
from .numeric import AdamState, adam_step, clip_grads_

__all__ = [
    "MetaTrainConfig",
    "AdaptConfig",
    "RunRow",
    "TrainResult",
    "AdaptResult",
    "SingleTaskResult",
    "meta_loss",
    "meta_train",
    "train_baseline",
    "online_adapt",
    "single_task_meta",
    "write_runlog",
    "ADAPT_LR_GRID",
]

log = logging.getLogger(__name__)

# three log-spaced points spanning the adaptation learning-rate range
ADAPT_LR_GRID = (1e-6, 3.1622776601683795e-06, 1e-5)

# the range of each run-config setting, by its INI key: the training configs
# check theirs when built, the command line the other sections'; a learning
# rate of 0 is a no-op
_COUNT = (">= 1", lambda v: v >= 1)
_RATE = ("finite and >= 0", lambda v: math.isfinite(v) and v >= 0)
_NON_NEGATIVE = (">= 0", lambda v: v >= 0)
_RANGES = {"epochs": _COUNT, "batch_size": _COUNT, "lr": _RATE, "lrs": _RATE,
           "patience": _NON_NEGATIVE, "clip_norm": _NON_NEGATIVE,
           **dict.fromkeys(("experts", "depth", "width", "gate_hidden",
                            "head_hidden", "baseline_hidden"), _COUNT),
           **dict.fromkeys(("seed", "split_seed", "aux_seed", "init_seed"),
                           _NON_NEGATIVE)}


def _check_ranges(config) -> None:
    """ValueError naming the first setting of ``config`` out of its range,
    each entry of a tuple checked."""
    for name, (rule, ok) in _RANGES.items():
        value = getattr(config, name, ())
        for v in value if isinstance(value, tuple) else (value,):
            if not ok(v):
                raise ValueError(f"{name} must be {rule}, got {v!r}")


@dataclass(frozen=True)
class MetaTrainConfig:
    """The ``[meta_train]`` section of a run config, key for key."""
    epochs: int = 1
    batch_size: int = 256
    lr: float = 1e-4
    seed: int = 0
    patience: int = 0       # early-stop rounds without val improvement; 0 = off
    clip_norm: float = 0.0  # global gradient-norm ceiling; 0 = off

    def __post_init__(self):
        _check_ranges(self)


@dataclass(frozen=True)
class AdaptConfig:
    """The ``[adapt]`` section of a run config, key for key."""
    epochs: int = 30
    batch_size: int = 256
    lrs: tuple = ADAPT_LR_GRID
    seed: int = 0

    def __post_init__(self):
        if not self.lrs:
            raise ValueError("lrs is empty")
        _check_ranges(self)


@dataclass
class RunRow:
    """One evaluation line of the run log.

    ``train_meta_loss`` is the epoch's mean per-instance training loss scaled
    by the total number of training instances (an unbiased estimate of the
    full meta objective under the proportional sampler); ``val_meta_loss`` is
    the exact objective summed over validation splits. ``wall_time`` is
    seconds since training started.
    """

    step: int
    epoch: int
    train_meta_loss: float
    val_meta_loss: float
    wall_time: float


@dataclass
class TrainResult:
    model: object
    rows: list
    best_val: float
    stopped_early: bool


@dataclass
class AdaptResult:
    model: Mixture
    lr: float                 # 0.0 when the initial snapshot won
    best_val: float
    rows: list
    lr_curves: dict           # lr -> list of per-epoch val losses


@dataclass
class SingleTaskResult:
    meta_model: Mixture
    adapted_model: Mixture
    meta: MetaDataset
    train_rows: list
    adapt_rows: list
    info: dict


def _per_instance_loss(logits: np.ndarray, y: np.ndarray,
                       regression: np.ndarray):
    """Vectorized per-instance losses/gradients for a mixed-kind batch.

    ``regression`` is a boolean row mask; False rows use logistic loss on the
    logit, True rows squared error.
    """
    losses = np.empty_like(logits)
    dlogits = np.empty_like(logits)
    b = ~regression
    if b.any():
        losses[b], dlogits[b] = numeric.logistic_loss(logits[b], y[b])
    if regression.any():
        r = regression
        losses[r], dlogits[r] = numeric.squared_loss(logits[r], y[r])
    return losses, dlogits


class _TaskVocabView:
    """Single-task adapter with the MetaDataset batch protocol, feeding the
    task's own-vocabulary dense view with leakage columns zeroed."""

    def __init__(self, task: TaskDataset):
        self.task = task
        self._dense = {}

    def sizes(self, split: str) -> np.ndarray:
        return np.array([self.task.n(split)], dtype=np.int64)

    def loss_kinds(self):
        return [self.task.schema.loss_kind]

    def dense_batch(self, task_ids, row_ids, split: str = "train"):
        if split not in self._dense:
            self._dense[split] = self.task.dense(split, masked=True)
        return self._dense[split][row_ids], self.task.labels(split)[row_ids]


def meta_loss(model, data, split: str, chunk: int = 256) -> float:
    """Exact meta objective: sum of per-instance losses over every task's
    given split, dataset task t scored at model head t.

    The split is read in task order as mixed-task chunks of at most
    ``chunk`` rows, one forward pass each (a training step's worth of
    memory). Losses are summed per task, then the task sums in task order.
    """
    sizes = data.sizes(split)
    regression = np.array([k == "regression" for k in data.loss_kinds()])
    tasks = np.repeat(np.arange(sizes.size), sizes)
    rows = np.arange(tasks.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    sums = [0.0] * sizes.size
    for s in range(0, tasks.size, chunk):
        t, r = tasks[s:s + chunk], rows[s:s + chunk]
        X, y = data.dense_batch(t, r, split)
        logits, _ = model.forward_batch(X, t, keep=False)
        losses, _ = _per_instance_loss(logits, y, regression[t])
        bounds = np.flatnonzero(np.diff(t, prepend=-1, append=-1))
        for a, b in zip(bounds[:-1], bounds[1:]):  # one task's rows each
            sums[t[a]] += float(losses[a:b].sum())
    total = 0.0
    for v in sums:
        total += v
    return total


def _task_slots(model, batch_size: int):
    """A function that binds the store's gradients to the shared tensors and
    a batch's tasks, or None when a batch can hold every task (the full
    buffer is then the same layout, bound once).

    A step writes only the shared tensors and the gates and heads of the
    tasks in its batch, at most ``batch_size`` of them, so a buffer of the
    shared tensors plus the ``batch_size`` largest tasks holds every
    gradient a step can write."""
    if not isinstance(model, Mixture) or model.num_tasks <= batch_size:
        return None
    owner = model.tensor_tasks()
    floats = np.bincount(owner + 1,  # index 0: the shared tensors
                         [p.size for p in model.store.params.values()])
    size = int(floats[0] + np.sort(floats[1:])[-batch_size:].sum())
    return lambda tasks: model.store.bind(
        np.flatnonzero((owner < 0) | np.isin(owner, tasks)).tolist(), size)


def _fit(model, data, cfg: MetaTrainConfig,
         on_epoch: Callable[[list], None] | None = None) -> TrainResult:
    """Shared engine behind meta_train/train_baseline/online_adapt.

    ``on_epoch``, when given, is called after every epoch with the run rows
    so far (the last one is the epoch just finished)."""
    sizes = data.sizes("train")
    total_train = int(sizes.sum())
    if total_train == 0:
        raise ValueError("no training instances")
    sampler = BatchSampler(sizes, cfg.batch_size, cfg.seed)
    adam = AdamState.for_store(model.store)
    kinds = np.array([k == "regression" for k in data.loss_kinds()])
    has_val = int(data.sizes("val").sum()) > 0
    steps_per_epoch = math.ceil(total_train / cfg.batch_size)
    # parameters at the best validation epoch, restored on an early stop
    snapshot = np.empty_like(model.store.flat_params) \
        if cfg.patience > 0 else None

    rows: list[RunRow] = []
    best_val = math.inf
    bad_rounds = 0
    stopped = False
    step = 0
    t0 = time.perf_counter()
    bind = _task_slots(model, cfg.batch_size)
    try:
        for epoch in range(1, cfg.epochs + 1):
            loss_sum = 0.0
            seen = 0
            for _ in range(steps_per_epoch):
                tasks, rws = sampler.draw()
                if bind is not None:
                    bind(tasks)
                X, y = data.dense_batch(tasks, rws, "train")
                logits, cache = model.forward_batch(X, tasks)
                losses, dlogits = _per_instance_loss(logits, y, kinds[tasks])
                if not np.all(np.isfinite(losses)):
                    bad = int(np.flatnonzero(~np.isfinite(losses))[0])
                    raise RuntimeError(
                        f"non-finite training loss at step {step + 1} "
                        f"(epoch {epoch}, lr={cfg.lr}), task index "
                        f"{int(tasks[bad])}, row {int(rws[bad])}: "
                        f"loss={losses[bad]!r}")
                model.backward_batch(cache, dlogits)
                del X, cache  # free the step's activations before the next
                if cfg.clip_norm > 0:
                    clip_grads_(model.store, cfg.clip_norm)
                adam_step(model.store, adam, cfg.lr)
                step += 1
                loss_sum += float(losses.sum())
                seen += losses.size
            train_estimate = loss_sum / seen * total_train
            val = meta_loss(model, data, "val") if has_val else math.nan
            rows.append(RunRow(step, epoch, train_estimate, val,
                               time.perf_counter() - t0))
            if on_epoch is not None:
                on_epoch(rows)
            if has_val:
                if val < best_val:
                    best_val = val
                    bad_rounds = 0
                    if snapshot is not None:
                        np.copyto(snapshot, model.store.flat_params)
                else:
                    bad_rounds += 1
                    if cfg.patience > 0 and bad_rounds >= cfg.patience:
                        stopped = True
                        break
    finally:
        model.store.zero_grads()  # unbind, and give the buffer back
    if stopped and best_val < math.inf:
        np.copyto(model.store.flat_params, snapshot)
    return TrainResult(model, rows, best_val, stopped)


def meta_train(meta: MetaDataset, model_or_config, cfg: MetaTrainConfig) -> TrainResult:
    """Jointly train a mixture on an aligned meta-dataset.

    ``model_or_config`` is either a Mixture (tasks must line up with the
    dataset) or a MixtureConfig whose input_dim/num_tasks are overridden to
    match the data.
    """
    if isinstance(model_or_config, MixtureConfig):
        mcfg = replace(model_or_config, input_dim=meta.num_concepts,
                       num_tasks=meta.num_tasks)
        model = Mixture.standard(
            mcfg, task_ids=[t.schema.task_id for t in meta.tasks],
            loss_kinds=meta.loss_kinds(),
            vocab_fingerprint=meta.meta_vocab.fingerprint())
    else:
        model = model_or_config
        if model.num_tasks != meta.num_tasks:
            raise SchemaError(
                f"model has {model.num_tasks} heads, dataset has "
                f"{meta.num_tasks} tasks")
        if model.input_dim != meta.num_concepts:
            raise SchemaError(
                f"model input width {model.input_dim} != meta-vocabulary "
                f"size {meta.num_concepts}")
        if model.vocab_fingerprint is None:
            model.vocab_fingerprint = meta.meta_vocab.fingerprint()
        elif model.vocab_fingerprint != meta.meta_vocab.fingerprint():
            raise SchemaError("model/dataset vocabulary fingerprints differ")
    return _fit(model, meta, cfg)


def train_baseline(task: TaskDataset, arch: BaselineConfig,
                   cfg: MetaTrainConfig) -> TrainResult:
    """Supervised training of one task: the model consumes the task's
    own-vocabulary dense view, leakage (causal-mask) columns zeroed so
    baselines and mixtures compete on the same information."""
    view = _TaskVocabView(task)
    model = build_baseline(arch, input_dim=len(task.schema.task_vocab))
    return _fit(model, view, cfg)


def online_adapt(model: Mixture, task: TaskDataset,
                 cfg: AdaptConfig) -> AdaptResult:
    """Fine-tune one task's part of the mixture at small learning rates.

    Only the experts and the task's own gate and head are trained and
    allocated (``Mixture.task_mixture``): they are all that task's forward
    pass reads, and every other gate and head would get exactly zero Adam
    updates. Every learning rate in ``cfg.lrs`` trains from the given model
    for ``cfg.epochs`` epochs; the best validation snapshot across all rates
    AND the untouched initial model is returned, so adaptation can only
    help. A task without validation rows keeps the initial model (its curves
    hold NaN).
    """
    fp = task.schema.meta_vocab.fingerprint()
    if model.vocab_fingerprint is not None and model.vocab_fingerprint != fp:
        raise SchemaError(
            "checkpoint was trained against a different meta-vocabulary")
    if task.schema.task_id not in model.task_ids:
        raise SchemaError(f"model has no head for task {task.schema.task_id!r}")
    meta = build_meta_dataset([task])
    # one candidate, reset for every rate, so its buffers are allocated once
    candidate = model.task_mixture(model.task_ids.index(task.schema.task_id))
    initial = candidate.store.flat_params.copy()

    best_val = meta_loss(candidate, meta, "val")
    best_params = initial.copy()
    best_lr = 0.0
    best_rows: list[RunRow] = []
    curves: dict[float, list[float]] = {}

    def keep_best(rows: list) -> None:
        nonlocal best_val, best_lr, best_rows
        if rows[-1].val_meta_loss < best_val:
            best_val = rows[-1].val_meta_loss
            np.copyto(best_params, candidate.store.flat_params)
            best_lr = lr
            best_rows = list(rows)

    for lr in cfg.lrs:
        np.copyto(candidate.store.flat_params, initial)
        fit_cfg = MetaTrainConfig(epochs=cfg.epochs, batch_size=cfg.batch_size,
                                  lr=lr, seed=cfg.seed)
        result = _fit(candidate, meta, fit_cfg, on_epoch=keep_best)
        curves[lr] = [r.val_meta_loss for r in result.rows]
    np.copyto(candidate.store.flat_params, best_params)
    out = model.copy()
    for name, p in candidate.store.params.items():
        out.store.params[name][...] = p
    return AdaptResult(out, best_lr, best_val, best_rows, curves)


def single_task_meta(base: TaskDataset, model_cfg: MixtureConfig,
                     meta_cfg: MetaTrainConfig, adapt_cfg: AdaptConfig, *,
                     aux_policy: str = "all", sample_k: int = 0,
                     aux_seed: int = 0,
                     min_support: int = 1) -> SingleTaskResult:
    """Full single-task pipeline: auxiliary tasks from the features, joint
    meta-training with the supervised task at head 0, then online adaptation
    of the supervised task."""
    aux = build_auxiliary_tasks(base, aux_policy, sample_k=sample_k,
                                seed=aux_seed, min_support=min_support)
    meta = build_meta_dataset([base] + aux)
    trained = meta_train(meta, model_cfg, meta_cfg)
    adapted = online_adapt(trained.model, base, adapt_cfg)
    info = {
        "num_aux": len(aux),
        "aux_policy": aux_policy if aux_policy != "sample"
        else f"sample:{sample_k}",
        "meta_epochs": meta_cfg.epochs,
        "meta_lr": meta_cfg.lr,
        "adapt_epochs": adapt_cfg.epochs,
        "adapt_lr": adapted.lr,
        "seed": meta_cfg.seed,
    }
    return SingleTaskResult(trained.model, adapted.model, meta,
                            trained.rows, adapted.rows, info)


def write_runlog(path, rows: Sequence[RunRow]) -> str:
    """CSV run log: one line per evaluation."""
    lines = ["step,epoch,train_meta_loss,val_meta_loss,wall_time"]
    for r in rows:
        lines.append(f"{r.step},{r.epoch},{r.train_meta_loss!r},"
                     f"{r.val_meta_loss!r},{r.wall_time:.3f}")
    text = "\n".join(lines) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text
