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
        return isinstance(other, Vocabulary) and self.names == other.names

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
        for what, names in (("mask member", self.causal_mask),
                            ("concept", self.task_vocab._index.keys())):
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
    """For each column c of ``dense``: is ``targets`` constant where c != 0?

    Returns (constant, support): ``constant[c]`` is True when column c is
    active on at least ``min_support`` rows and the target takes a single
    value on all of them (exact equality, either target value). Columns below
    the support floor report False, as do all columns of a table with no
    rows. Complexity O(n * C) per call.
    """
    dense = np.asarray(dense, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if dense.ndim != 2 or targets.shape != (dense.shape[0],):
        raise SchemaError("activation table needs (n, C) data and (n,) targets")
    active = dense != 0.0
    support = active.sum(axis=0)
    t = targets[:, None]
    hi = np.where(active, t, -np.inf).max(axis=0, initial=-np.inf)
    lo = np.where(active, t, np.inf).min(axis=0, initial=np.inf)
    constant = (support >= max(min_support, 1)) & (hi == lo)
    return constant, support


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
