"""Output checks, computed apart from the program.

Each check compares a program output with the benchmark's own computation
(pairwise-count AUC, logistic/squared losses written out here) or tests a
property the method must have. None compares with a stored copy of an
earlier output. Checks run after the timed rounds.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


def pairwise_auc(scores, labels) -> float:
    """P(positive outranks negative), ties counting half, by counting pairs."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    pos, neg = s[y == 1.0], s[y != 1.0]
    greater = int((pos[:, None] > neg[None, :]).sum())
    ties = int((pos[:, None] == neg[None, :]).sum())
    return (greater + 0.5 * ties) / (pos.size * neg.size)


def null_auc_margin(labels, z: float = 3.0) -> float:
    """z standard deviations of the AUC of scores independent of the labels
    (Mann-Whitney null, no ties), from the class counts."""
    y = np.asarray(labels, dtype=np.float64)
    n1 = int((y == 1.0).sum())
    n0 = y.size - n1
    return z * math.sqrt((n1 + n0 + 1) / (12.0 * n1 * n0))


def own_losses(logits, labels, regression: bool) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if regression:
        return (z - y) ** 2
    # log(1 + e^z) - y z, arranged to stay exact for saturated logits
    return np.maximum(z, 0.0) - y * z + np.log1p(np.exp(-np.abs(z)))


def split_loss(model, meta, split: str, heads=None) -> float:
    """Sum over tasks and rows of the per-instance loss, from
    ``predict_logits`` and the formulas above."""
    kinds = meta.loss_kinds()
    total = 0.0
    for t in range(meta.num_tasks):
        X = meta.dense_rows(t, None, split)
        if X.shape[0] == 0:
            continue
        head = t if heads is None else heads[t]
        z = model.predict_logits(X, head)
        total += float(own_losses(z, meta.labels(t, split),
                                  kinds[t] == "regression").sum())
    return total


def rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def mask_columns(meta, t: int) -> np.ndarray:
    """Meta coordinates of task t's causal mask, from the concept names."""
    schema = meta.tasks[t].schema
    return np.array(sorted(meta.meta_vocab.index(c) for c in schema.causal_mask),
                    dtype=np.int64)


def batches_masked(meta, sampler, steps: int, dense) -> tuple[bool, str]:
    """Replay ``steps`` draws of ``sampler`` through ``dense(tasks, rows)``
    (the program's batch path) and test every row is 0 on its task's mask."""
    masks = [mask_columns(meta, t) for t in range(meta.num_tasks)]
    rows_checked = 0
    for _ in range(steps):
        tasks, rows = sampler.draw()
        X = dense(tasks, rows)
        for t in np.unique(tasks):
            at = np.flatnonzero(tasks == t)
            if np.any(X[np.ix_(at, masks[t])] != 0.0):
                return False, f"task {int(t)} batch leaks a masked coordinate"
        rows_checked += tasks.size
    return True, f"{steps} batches, {rows_checked} rows"


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# half-decade steps from 10^-1.5 to 10^-5
STEPS = tuple(10.0 ** -(k / 2) for k in range(3, 11))
COORDS_PER_TENSOR = 6
GRAD_RTOL = 1e-4


def gradient_sweep(model, X, tasks, y, rng):
    """Analytic gradients of the summed logistic loss against central
    differences on COORDS_PER_TENSOR sampled coordinates of every tensor.

    A coordinate passes when one numeric estimate is within GRAD_RTOL of the
    analytic gradient, by the relative error with denominator
    max(|analytic|, |numeric|, 1e-8). The estimates are the central
    differences at each step in STEPS where the relu pattern is the same
    at +h and -h, and the Richardson extrapolation of each neighbouring pair
    (cancelling the h^2 error term). Sweeping the step keeps roundoff (about
    eps * loss / h) and truncation from failing coordinates whose gradient is
    far below the loss scale, as on a trained, saturated model, where any one
    step is either too coarse or too fine.
    Returns (ok, worst per-coordinate best error, coordinates, kink-only).
    """
    store = model.store

    def loss():
        z, cache = model.forward_batch(X, tasks)
        return float(own_losses(z, y, False).sum()), model.signature(cache)

    store.zero_grads()
    z, cache = model.forward_batch(X, tasks)
    model.backward_batch(cache, _sigmoid(z) - y)
    analytic = {k: g.copy() for k, g in store.grads.items()}
    store.zero_grads()
    worst, checked, kink_only = 0.0, 0, 0
    for name, p in store.params.items():
        flat = p.reshape(-1)
        picks = rng.choice(flat.size, size=min(COORDS_PER_TENSOR, flat.size),
                           replace=False)
        for i in picks:
            a = analytic[name].reshape(-1)[i]
            orig = flat[i]
            estimates = []
            prev = None
            for h in STEPS:
                flat[i] = orig + h
                lp, sp = loss()
                flat[i] = orig - h
                lm, sm = loss()
                flat[i] = orig
                n = (lp - lm) / (2.0 * h) if sp == sm else None
                if n is not None:
                    estimates.append(n)
                    if prev is not None:
                        r2 = (prev[0] / h) ** 2
                        estimates.append((r2 * n - prev[1]) / (r2 - 1.0))
                prev = None if n is None else (h, n)
            if not estimates:
                kink_only += 1
                continue
            checked += 1
            worst = max(worst, min(abs(a - n) / max(abs(a), abs(n), 1e-8)
                                   for n in estimates))
    store.zero_grads()
    return worst <= GRAD_RTOL and checked > 0, worst, checked, kink_only


def params_digest(*arrays_or_models) -> str:
    """sha256 over parameter bytes (store order) and plain arrays."""
    h = hashlib.sha256()
    for item in arrays_or_models:
        if hasattr(item, "store"):
            for name, p in item.store.params.items():
                h.update(name.encode())
                h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(np.ascontiguousarray(item, dtype=np.float64).tobytes())
    return h.hexdigest()
