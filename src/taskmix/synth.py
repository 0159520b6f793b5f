"""Synthetic problem generators.

Two families:

- ``make_latent_tasks``: three binary tasks reading the same hidden parity
  rule through noisy linear feature sensors, each task seeing a different
  window of the sensor pool. A planted pair of indicator concepts leaks one
  task's observed label: deterministic for that task (so its causal mask
  catches them) while staying merely predictive for a sibling task that also
  carries them. Exercises alignment, masking, transfer, and attention scoring
  end to end without any external data.

- ``make_hypercube_pairs``: a single binary task with clusters on the
  vertices of a hypercube in the informative subspace, linear-mix redundant
  features, pure-noise features and label flips. This is the generation
  process of the classic feature-selection benchmarks with many noise
  dimensions, useful as an offline stand-in for them at matching scale.
"""

from __future__ import annotations

import numpy as np

from .concepts import LABEL_PREFIX, TaskSchema, Vocabulary
from .data import SPLITS, TaskDataset, align_tasks, serialize_libsvm

__all__ = [
    "make_latent_tasks",
    "make_hypercube_pairs",
]


def make_latent_tasks(seed: int = 0, *, latent_dim: int = 16,
                      num_shared: int = 28, window: int = 24, stride: int = 2,
                      train_n: int = 100, val_n: int = 50, test_n: int = 2000,
                      noise_x: float = 0.25, label_flip: float = 0.03,
                      ind_flip: float = 0.07, min_support: int = 1):
    """Generate three aligned binary tasks over one hidden parity rule.

    Every entity has a latent z ~ N(0, I_latent_dim); shared concept k reads
    x_k = a_k . z + noise. All tasks predict (noisy copies of) the same
    parity bit [z_0 > 0] xor [z_1 > 0], but task i only sees the sensor
    window [i*stride, i*stride + window). The rule is invisible to linear
    probes, so learning it from one small task alone is hard while pooling
    the three trains is enough -- transfer has to carry the difference.

    Each entity also carries one noisy parity sensor n_1 (flip rate
    ``ind_flip``). Task t1's observed label IS that sensor realization, and
    two indicator concepts expose it: g1pos = n_1 and g1neg = 1 - n_1. They
    sit in the vocabularies of t1 and t2 only. For t1 they pin the label
    exactly, so its empirical causal mask catches them; for t2 they are
    informative but inconsistent (t2's own flips differ), so they stay
    visible and t2 learns to lean on them. Task t0 never sees them.

    Labels of t0 and t2 flip with probability ``label_flip``. Returns
    (tasks, info) with the tasks already aligned (shared meta-vocabulary,
    empirical causal masks); ``info`` is a dict of the ground truth: the
    source, dependent and probe task ids, the indicator names and both
    flip rates.
    """
    num_tasks = 3
    if stride * (num_tasks - 1) + window > num_shared:
        raise ValueError("vocabulary windows exceed the shared pool")
    if latent_dim < 2:
        raise ValueError("parity needs two latent coordinates")
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(num_shared, latent_dim))
    A /= np.linalg.norm(A, axis=1, keepdims=True)

    width = len(str(num_shared))
    shared_names = [f"s{k:0{width}d}" for k in range(num_shared)]
    g_pos, g_neg = "g1pos", "g1neg"

    tasks = []
    sizes = {"train": train_n, "val": val_n, "test": test_n}
    for i in range(num_tasks):
        lo = i * stride
        cols = list(range(lo, lo + window))
        names = [shared_names[k] for k in cols]
        if i != 0:
            names += [g_pos, g_neg]
        names.sort()
        vocab = Vocabulary(names)
        label = LABEL_PREFIX + f"t{i}"
        feature_pos = {n: j for j, n in enumerate(names)}
        splits = {}
        for split in SPLITS:
            n = sizes[split]
            Z = rng.normal(size=(n, latent_dim))
            parity = (Z[:, 0] > 0.0) ^ (Z[:, 1] > 0.0)
            n1 = parity ^ (rng.random(n) < ind_flip)
            if i == 1:
                y = n1.astype(np.float64)
            else:
                own_flip = rng.random(n) < label_flip
                y = (parity ^ own_flip).astype(np.float64)
            X_shared = Z @ A[cols].T + noise_x * rng.normal(size=(n, window))
            dense = np.zeros((n, len(names)))
            for j, k in enumerate(cols):
                dense[:, feature_pos[shared_names[k]]] = X_shared[:, j]
            if i != 0:
                dense[:, feature_pos[g_pos]] = n1.astype(np.float64)
                dense[:, feature_pos[g_neg]] = 1.0 - n1.astype(np.float64)
            splits[split] = (dense + 0.0, y)  # no -0.0 at rest
        meta_self = Vocabulary(sorted(set(names) | {label}))
        schema = TaskSchema.build(f"t{i}", label, vocab, meta_self, {label},
                                  loss_kind="binary")
        tasks.append(TaskDataset(schema, splits))
    aligned = align_tasks(tasks, min_support=min_support)
    info = {
        "source_task": "t1",
        "dependent_task": "t2",
        "probe_task": "t0",
        "indicators": (g_pos, g_neg),
        "label_flip": label_flip,
        "ind_flip": ind_flip,
    }
    return aligned, info


def make_hypercube_pairs(seed: int = 0, *, n_train: int = 2000,
                         n_test: int = 600, n_features: int = 500,
                         n_informative: int = 5, n_redundant: int = 15,
                         class_sep: float = 1.0, cluster_std: float = 1.0,
                         flip_y: float = 0.01):
    """One binary task: Gaussian clusters on hypercube vertices.

    All 2^n_informative vertices (side 2*class_sep, centered) become cluster
    centers, alternately assigned to the two classes; instances draw a
    uniform cluster of their class and add N(0, cluster_std^2) within the
    informative subspace. Redundant features are random linear combinations
    of the informative ones; the rest is N(0, 1) noise; columns are shuffled;
    labels flip with probability ``flip_y``. Returns (train_lines, test_lines)
    as LIBSVM text.
    """
    if n_informative < 1 or n_informative > 20:
        raise ValueError("n_informative out of range")
    if n_redundant < 0 or n_informative + n_redundant > n_features:
        raise ValueError("feature budget exceeded")
    rng = np.random.default_rng(seed)
    n_clusters = 2 ** n_informative
    vertices = ((np.arange(n_clusters)[:, None]
                 >> np.arange(n_informative)[None, :]) & 1) * 2.0 - 1.0
    vertices *= class_sep
    cluster_class = np.arange(n_clusters) % 2
    mix = rng.normal(size=(n_informative, n_redundant)) if n_redundant else None
    col_order = rng.permutation(n_features)

    def draw(n: int):
        y = rng.integers(0, 2, size=n)
        inf = np.zeros((n, n_informative))
        for c in (0, 1):
            rows = np.flatnonzero(y == c)
            own = np.flatnonzero(cluster_class == c)
            pick = own[rng.integers(0, own.size, size=rows.size)]
            inf[rows] = vertices[pick] + cluster_std * rng.normal(
                size=(rows.size, n_informative))
        parts = [inf]
        if n_redundant:
            parts.append(inf @ mix)
        n_noise = n_features - n_informative - n_redundant
        if n_noise:
            parts.append(rng.normal(size=(n, n_noise)))
        X = np.concatenate(parts, axis=1)[:, np.argsort(col_order)]
        flips = rng.random(n) < flip_y
        return serialize_libsvm(X, y ^ flips)

    return draw(n_train), draw(n_test)  # train drawn first
