"""Concept vocabularies, task schemas, alignment, and leakage masks.

A *concept* is a named input coordinate. Tasks arrive with their own
vocabularies; alignment produces one shared meta-vocabulary (the
lexicographically sorted union of all task vocabularies and label concepts),
and every instance is embedded into it as a dense row. Each task then gets
a *causal mask*: the set of concepts whose activation pins the task's label to
a single value on the training data (plus the label concept itself). Those
coordinates are zeroed whenever an instance is materialized for that task, so
a model can never read its own answer, while other tasks keep full view.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "SchemaError",
    "Vocabulary",
    "TaskSchema",
    "align_vocabularies",
    "compute_causal_mask",
    "constant_columns_by_activation",
    "vocab_projection",
]

LABEL_PREFIX = "label::"


class SchemaError(ValueError):
    """Inconsistent vocabularies, masks, or out-of-range concept references."""


class Vocabulary:
    """An ordered set of unique concept names with O(1) name<->index lookup."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        self.names: tuple[str, ...] = tuple(names)
        self._index = {name: i for i, name in enumerate(self.names)}
        if len(self._index) != len(self.names):
            seen: set[str] = set()
            dup = next(n for n in self.names if n in seen or seen.add(n))
            raise SchemaError(f"duplicate concept name: {dup!r}")
        for name in self.names:
            if not name:
                raise SchemaError("empty concept name")

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Vocabulary)
                                 and self.names == other.names)

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"Vocabulary({len(self.names)} concepts)"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"concept {name!r} not in vocabulary") from None

    # serialization: one concept name per line, order preserved
    def to_lines(self) -> str:
        return "\n".join(self.names) + "\n"

    def fingerprint(self) -> str:
        """Stable content hash, used to pair checkpoints with datasets."""
        return hashlib.sha256(self.to_lines().encode()).hexdigest()


@dataclass(frozen=True)
class TaskSchema:
    """Everything needed to materialize one task's instances.

    ``causal_mask`` always contains ``label_concept``; every masked concept
    and every task concept is in the meta-vocabulary.
    """

    task_id: str
    label_concept: str
    task_vocab: Vocabulary
    meta_vocab: Vocabulary
    causal_mask: frozenset[str]
    loss_kind: str  # 'binary' or 'regression'

    def __post_init__(self):
        if self.loss_kind not in ("binary", "regression"):
            raise SchemaError(f"unknown loss_kind {self.loss_kind!r}")
        if self.label_concept not in self.causal_mask:
            raise SchemaError(
                f"task {self.task_id}: label {self.label_concept!r} missing "
                f"from its causal mask")
        meta = self.meta_vocab._index.keys()
        checks = [("mask member", self.causal_mask)]
        if self.task_vocab is not self.meta_vocab:
            checks.append(("concept", self.task_vocab._index.keys()))
        for what, names in checks:
            if not names <= meta:
                raise SchemaError(
                    f"task {self.task_id}: {what} {min(names - meta)!r} not "
                    f"in the meta-vocabulary")

    @classmethod
    def build(cls, task_id: str, label_concept: str, task_vocab: Vocabulary,
              meta_vocab: Vocabulary, causal_mask: Iterable[str],
              loss_kind: str = "binary") -> "TaskSchema":
        return cls(task_id=task_id, label_concept=label_concept,
                   task_vocab=task_vocab, meta_vocab=meta_vocab,
                   causal_mask=frozenset(causal_mask) | {label_concept},
                   loss_kind=loss_kind)

    def with_alignment(self, meta_vocab: Vocabulary,
                       causal_mask: Iterable[str]) -> "TaskSchema":
        return replace(self, meta_vocab=meta_vocab,
                       causal_mask=frozenset(causal_mask) | {self.label_concept})

    def mask_indices(self) -> np.ndarray:
        """Meta indices of the masked coordinates, sorted ascending."""
        return np.array(sorted(self.meta_vocab.index(n) for n in self.causal_mask),
                        dtype=np.int64)


def align_vocabularies(task_vocabs: Sequence[Vocabulary],
                       label_concepts: Sequence[str]) -> Vocabulary:
    """Sorted union of all task vocabularies and label concepts.

    Lexicographic order makes the meta-vocabulary independent of task order
    and of duplicate membership, which keeps checkpoints comparable across
    ingestion runs.
    """
    names: set[str] = set()
    for vocab in task_vocabs:
        names.update(vocab.names)
    names.update(label_concepts)
    if not names:
        raise SchemaError("alignment over zero concepts")
    return Vocabulary(sorted(names))


def constant_columns_by_activation(dense: np.ndarray, targets: np.ndarray,
                                   min_support: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """For each column c of ``dense``: is each target constant where c != 0?

    ``targets`` is one target, (n,), or F of them, (n, F). Returns
    (constant, support): ``constant[c]`` (``constant[c, f]`` for (n, F)
    targets) is True when column c is active on at least ``min_support``
    rows and the target takes a single value on all of them (exact
    equality: -0.0 equals 0.0, NaN equals nothing). ``support`` counts each
    column's active rows. Columns below the support floor report False, as
    do all columns of a table with no rows.

    Columns are grouped by their first active row r0. One matmul of 0/1
    matrices per group counts, for every column of the group and every
    target, the active rows whose target differs from its value at r0; the
    target is constant where that count is 0. Only zero against non-zero
    is read, and a float32 sum of non-negative terms is zero exactly when
    every term is, so float32 operands are exact here at any n.
    """
    dense = np.asarray(dense, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if dense.ndim != 2 or targets.ndim not in (1, 2) \
            or targets.shape[0] != dense.shape[0]:
        raise SchemaError("activation table needs (n, C) data and (n,) or "
                          "(n, F) targets")
    many = targets if targets.ndim == 2 else targets[:, None]
    active = dense != 0.0
    support = active.sum(axis=0)
    constant = np.zeros((dense.shape[1], many.shape[1]), dtype=bool)
    cols = np.flatnonzero(support >= max(min_support, 1))
    first = active[:, cols].argmax(axis=0) if cols.size else cols
    for r0 in set(first.tolist()):  # np.unique would import numpy.ma
        group = cols[first == r0]
        differs = many[r0:] != many[r0]  # NaN differs from itself
        counts = (active[r0:, group].T.astype(np.float32)
                  @ differs.astype(np.float32))
        constant[group] = counts == 0.0
    return (constant if targets.ndim == 2 else constant[:, 0]), support


def compute_causal_mask(dense: np.ndarray, labels: Sequence[float],
                        label_concept: str, candidates: Vocabulary,
                        min_support: int = 1) -> frozenset[str]:
    """Concepts whose activation pins the label, plus the label itself.

    ``dense`` is the (n, C) table of the n training instances over
    ``candidates``: the same size as the train table that
    ``build_auxiliary_tasks`` already gathers. A concept is masked when
    ``constant_columns_by_activation`` flags its column: it is active
    (non-zero) on at least ``min_support`` instances and the label is the
    same on every one of them. This catches both orientations (always-1 and
    always-0 labels), e.g. disjoint one-hot buckets of the label variable.
    With no co-occurrence structure the mask is exactly {label_concept}.
    """
    if label_concept not in candidates:
        raise SchemaError(f"label {label_concept!r} not in candidate vocabulary")
    dense = np.asarray(dense, dtype=np.float64)
    if dense.ndim != 2 or dense.shape[1] != len(candidates):
        raise SchemaError(
            f"dense table of shape {dense.shape} is not (n, {len(candidates)})")
    labels = np.asarray(labels, dtype=np.float64)
    if labels.shape != (dense.shape[0],):
        raise SchemaError("one label per instance required")
    constant, _ = constant_columns_by_activation(dense, labels, min_support)
    names = candidates.names
    return frozenset([label_concept] + [names[c] for c in np.flatnonzero(constant)])


def vocab_projection(src: Vocabulary, dst: Vocabulary) -> np.ndarray:
    """Index map m with dst[m[i]] == src[i]; every src name must exist in dst."""
    try:
        return np.array([dst.index(n) for n in src], dtype=np.int64)
    except SchemaError as e:
        raise SchemaError(f"projection failed: {e}") from None
