"""Evaluation: threshold metrics, ranking AUC, composite scores, and the
cross-task attention matrix.

Conventions, pinned by tests:

- predictions are hard at threshold 0.5 on sigmoid probabilities (p >= 0.5
  predicts 1);
- log loss is computed on the HARD predictions clipped to [eps, 1-eps] with
  eps = 1e-15, so a correct prediction contributes 0 and a wrong one
  -ln(eps); the mean is therefore (1 - accuracy) * (-ln eps), and the
  implementation uses that closed form;
- the overall score of a candidate against a reference sums percent relative
  changes of accuracy, AUC, F1 and kappa, plus the percent relative DROP of
  log loss (improvement positive for all five terms).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import numeric
from .data import MetaDataset
from .model import Mixture

__all__ = [
    "UndefinedMetricError",
    "LOG_LOSS_EPS",
    "WRONG_PREDICTION_COST",
    "roc_auc",
    "confusion_at",
    "accuracy_score",
    "f1_score",
    "cohen_kappa",
    "hard_log_loss",
    "MetricsReport",
    "evaluate_binary",
    "evaluate_model",
    "overall_score",
    "metrics_csv",
    "task_attention",
    "attention_csv",
]

log = logging.getLogger(__name__)

LOG_LOSS_EPS = 1e-15
# -ln(1e-15): the per-instance cost of a wrong hard prediction
WRONG_PREDICTION_COST = -math.log(LOG_LOSS_EPS)


class UndefinedMetricError(ValueError):
    """Raised when a metric has no defined value (e.g. one-class AUC)."""


def roc_auc(scores: Sequence[float], labels: Sequence[float]) -> float:
    """Area under the ROC curve by the rank-sum formulation.

    Ties get midranks, so AUC is the probability a random positive outranks
    a random negative with ties counting half. Monotone transforms of the
    scores (sigmoid included) leave the value unchanged. Raises
    UndefinedMetricError when either class is absent.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores/labels must be equal-length 1-D")
    pos = y == 1.0
    n_pos = int(pos.sum())
    n_neg = s.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"AUC undefined with {n_pos} positives / {n_neg} negatives")
    order = np.argsort(s, kind="mergesort")
    ranks = np.empty(s.size)
    sorted_s = s[order]
    # midranks: average 1-based rank within each tie group
    boundaries = np.flatnonzero(np.diff(sorted_s)) + 1
    starts = np.concatenate(([0], boundaries))
    stops = np.concatenate((boundaries, [s.size]))
    for a, b in zip(starts, stops):
        ranks[order[a:b]] = (a + b + 1) / 2.0
    pos_rank_sum = float(ranks[pos].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def confusion_at(probs: np.ndarray, labels: np.ndarray):
    """(tp, fp, tn, fn) of hard predictions p >= 0.5."""
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError("probs/labels shape mismatch")
    pred = p >= 0.5
    actual = y == 1.0
    tp = int(np.sum(pred & actual))
    fp = int(np.sum(pred & ~actual))
    tn = int(np.sum(~pred & ~actual))
    fn = int(np.sum(~pred & actual))
    return tp, fp, tn, fn


def accuracy_score(tp: int, fp: int, tn: int, fn: int) -> float:
    n = tp + fp + tn + fn
    if n == 0:
        raise UndefinedMetricError("accuracy of an empty sample")
    return (tp + tn) / n


def f1_score(tp: int, fp: int, tn: int, fn: int) -> float:
    """F1 of the positive class; 0 when no positive predictions or labels."""
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def cohen_kappa(tp: int, fp: int, tn: int, fn: int) -> float:
    """Agreement beyond chance from the binary confusion matrix.

    Chance agreement uses the marginal products; perfect chance agreement
    (p_e = 1) returns 0 by convention.
    """
    n = tp + fp + tn + fn
    if n == 0:
        raise UndefinedMetricError("kappa of an empty sample")
    po = (tp + tn) / n
    pe = ((tp + fp) * (tp + fn) + (fn + tn) * (fp + tn)) / (n * n)
    if pe == 1.0:
        return 0.0
    return (po - pe) / (1.0 - pe)


def hard_log_loss(accuracy: float, eps: float = LOG_LOSS_EPS) -> float:
    """Mean -[y ln p + (1-y) ln(1-p)] over hard 0/1 predictions clipped to
    [eps, 1-eps]; equals (1 - accuracy) * (-ln eps) in closed form (correct
    predictions contribute -ln(1-eps), 0 at double resolution)."""
    return (1.0 - accuracy) * (-math.log(eps))


@dataclass
class MetricsReport:
    accuracy: float
    auc: float
    f1: float
    kappa: float
    log_loss: float
    n: int


def evaluate_binary(scores: Sequence[float],
                    labels: Sequence[float]) -> MetricsReport:
    """Full binary report from logits: hard predictions are sigmoid(score)
    >= 0.5, and AUC ranks the logits themselves."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    tp, fp, tn, fn = confusion_at(numeric.sigmoid(s), y)
    acc = accuracy_score(tp, fp, tn, fn)
    return MetricsReport(
        accuracy=acc,
        auc=roc_auc(s, y),
        f1=f1_score(tp, fp, tn, fn),
        kappa=cohen_kappa(tp, fp, tn, fn),
        log_loss=hard_log_loss(acc),
        n=int(y.size),
    )


def evaluate_model(model, data, task: int, split: str, *,
                   head: int | None = None) -> MetricsReport:
    """Evaluate one task of a MetaDataset-protocol dataset."""
    n = int(data.sizes(split)[task])
    X = data.dense_rows(task, np.arange(n), split)
    logits = model.predict_logits(X, task if head is None else head)
    return evaluate_binary(logits, data.labels(task, split))


def overall_score(candidate: MetricsReport, reference: MetricsReport) -> float:
    """Sum of percent relative improvements over a reference model across
    accuracy, AUC, F1, kappa (higher better) and log loss (lower better).
    Zero-reference terms are skipped with a warning."""
    total = 0.0
    for name in ("accuracy", "auc", "f1", "kappa"):
        ref = getattr(reference, name)
        if ref == 0.0:
            log.warning("overall score: reference %s is 0, term skipped", name)
            continue
        total += 100.0 * (getattr(candidate, name) - ref) / ref
    ref = reference.log_loss
    if ref == 0.0:
        log.warning("overall score: reference log_loss is 0, term skipped")
    else:
        total += 100.0 * (ref - candidate.log_loss) / ref
    return total


def metrics_csv(path, rows: Sequence[tuple[str, str, str, MetricsReport]]) -> str:
    """CSV with one line per (model, dataset, split, report)."""
    lines = ["model,dataset,split,accuracy,auc,f1,kappa,log_loss,n"]
    for model_name, dataset, split, r in rows:
        lines.append(
            f"{model_name},{dataset},{split},{r.accuracy!r},{r.auc!r},"
            f"{r.f1!r},{r.kappa!r},{r.log_loss!r},{r.n}")
    text = "\n".join(lines) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


# rows of distinct masked inputs pushed through the experts at once
_CHUNK_ROWS = 256


def task_attention(model, meta: MetaDataset, split: str = "val") -> np.ndarray:
    """How much each task relies on concepts that pin other tasks' labels.

    score[i, j] = mean log-likelihood of task i's instances with task i's own
    mask applied, minus the same with CMask(i) UNION CMask(j) applied: the
    likelihood DROP from hiding task j's leakage concepts. Binary heads score
    Bernoulli log-likelihood (= -logistic loss), regression heads -squared
    error. Tasks with an empty split get a zero row and a warning. ``model``
    must be a Mixture (TypeError otherwise).

    Cost: one expert pass per distinct masked input, not per pair. Pair
    (i, j) zeroes (CMask(i) | CMask(j)) & {columns non-zero in task i's rows};
    tasks that share a footprint array are scored together, so when tasks
    share rows (single-task mode) pairs (i, j) and (j, i) share one input.
    Inputs stream through the experts in chunks of at most _CHUNK_ROWS rows,
    each task running its gate/head once per chunk, so memory is bounded by
    one chunk. A pair whose zeroed set equals task i's own reuses task i's
    base value, so its score is exactly 0, as is the diagonal.
    """
    if not isinstance(model, Mixture):
        raise TypeError(f"task_attention needs a Mixture, not {type(model).__name__}")
    k = meta.num_tasks
    ll = np.zeros((k, k + 1))  # column k: task i under its own mask only
    groups: dict[int, tuple] = {}  # id(footprint) -> (footprint, tasks)
    for i, n in enumerate(meta.sizes(split)):
        if n == 0:
            log.warning("attention row %d: split %r empty, row left 0", i, split)
            continue
        block = meta.tasks[i].footprint(split)
        groups.setdefault(id(block), (block, []))[1].append(i)
    for block, tasks in groups.values():
        _block_loglik(model, meta, split, block, tasks, ll)
    return ll[:, k:] - ll[:, :k]


def _block_loglik(model, meta: MetaDataset, split: str, X: np.ndarray,
                  tasks: list[int], ll: np.ndarray) -> None:
    """Fill ll[i] for the tasks that share raw block X (see task_attention)."""
    n, c = X.shape
    masks = meta.masks
    nz = (X != 0.0).any(axis=0)
    keys = np.stack([np.packbits(np.vstack((masks | masks[i], masks[i])) & nz,
                                 axis=1) for i in tasks])
    zeroed, inv = np.unique(keys.reshape(-1, keys.shape[2]), axis=0,
                            return_inverse=True)
    ids = inv.reshape(len(tasks), -1)
    per, step = max(1, _CHUNK_ROWS // n), min(n, _CHUNK_ROWS)
    kinds = meta.loss_kinds()
    loss = [numeric.squared_loss if kinds[i] == "regression"
            else numeric.logistic_loss for i in tasks]
    # a chunk holds `per` whole inputs, or one `step`-row slice of a longer
    # input, so every input's losses are summed in the same grouping: cells
    # sharing an input (a pair reusing task i's base input) end bitwise
    # equal, and so do inputs whose per-row losses coincide
    total = np.zeros(ids.shape)
    for u0 in range(0, len(zeroed), per):
        u1 = min(u0 + per, len(zeroed))
        hide = np.unpackbits(zeroed[u0:u1], axis=1, count=c)[:, None, :] == 1
        inside = (ids >= u0) & (ids < u1)
        for r0 in range(0, n, step):
            rows = np.arange(r0, min(r0 + step, n))
            Xc = np.where(hide, 0.0, X[rows]).reshape(-1, c)
            U, _ = model.expert_forward(Xc, keep=False)
            for a in np.flatnonzero(inside.any(axis=1)):
                used, at = np.unique(ids[a, inside[a]] - u0, return_inverse=True)
                sel = (used[:, None] * rows.size + np.arange(rows.size)).ravel()
                z, _ = model.task_forward(tasks[a], Xc[sel], U[:, sel, :],
                                          keep=False)
                y = np.tile(meta.labels(tasks[a], split)[rows], used.size)
                losses, _ = loss[a](z, y)
                total[a, inside[a]] += losses.reshape(-1, rows.size).sum(axis=1)[at]
    ll[tasks] = -total / n


def attention_csv(path, matrix: np.ndarray, task_ids: Sequence[str]) -> str:
    """(K+1) x (K+1) grid: header row/column carry task identifiers."""
    k = len(task_ids)
    if matrix.shape != (k, k):
        raise ValueError(f"matrix shape {matrix.shape} != ({k}, {k})")
    lines = ["task," + ",".join(task_ids)]
    for i, tid in enumerate(task_ids):
        lines.append(tid + "," + ",".join(repr(float(v)) for v in matrix[i]))
    text = "\n".join(lines) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text
