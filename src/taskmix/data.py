"""Dataset ingestion and meta-dataset assembly.

Pipeline: read LIBSVM files as ASCII, parse them into flat entry arrays,
scatter each file once into a dense array, split train/validation, name
concepts, align vocabularies, compute per-task causal masks, and build a
MetaDataset whose instances live in shared meta space. Auxiliary tasks for
the single-task construction are also built here: one task per
(non-constant) feature, predicting that feature's value from the rest of
the record.

Storage convention: each task split is a dense float64 (n, width) array.
Footprints over the meta-vocabulary are stored RAW (including the task's own
label value at its label coordinate), one per task and split, built on first
use; auxiliary tasks take the base task's footprints as their rows, so they
share one array per split. The task's causal mask is applied whenever an
instance is materialized for training or evaluation, never at rest, so the
original per-task data remains exactly recoverable. Stored arrays are never
written after they are built.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .concepts import (SchemaError, TaskSchema, Vocabulary,
                       align_vocabularies, compute_causal_mask,
                       constant_columns_by_activation, vocab_projection,
                       LABEL_PREFIX)

__all__ = [
    "ParseError",
    "parse_libsvm",
    "serialize_libsvm",
    "split_train_val",
    "TaskDataset",
    "ingest_task",
    "MetaDataset",
    "build_meta_dataset",
    "align_tasks",
    "build_auxiliary_tasks",
    "BatchSampler",
    "write_manifest",
]

log = logging.getLogger(__name__)

SPLITS = ("train", "val", "test")


class ParseError(ValueError):
    """Malformed LIBSVM input; message carries the 1-based line number."""


_MAX_INDEX = 2**63 - 1  # indices are stored as int64


def _plain(text: str) -> bool:
    # float() and int() also take '1_0' and non-ASCII digits such as '\u0661'
    return text.isascii() and "_" not in text


def _check_line(ln: int, tokens: list[str]) -> None:
    """Raise the ParseError of the first bad token of line ``ln``, if it
    has one: ``parse_libsvm``'s rules, one token at a time."""
    try:
        if not _plain(tokens[0]):
            raise ValueError(tokens[0])
        label = float(tokens[0])
    except ValueError:
        raise ParseError(f"line {ln}: bad label {tokens[0]!r}") from None
    if label not in (-1.0, 0.0, 1.0):
        raise ParseError(f"line {ln}: label {tokens[0]!r} not in {{-1,0,+1}}")
    prev = 0
    for tok in tokens[1:]:
        part = tok.split(":")
        try:
            if not (len(part) == 2 and part[0].isdigit() and _plain(tok)):
                raise ValueError(tok)
            idx, val = int(part[0]), float(part[1])
        except ValueError:
            raise ParseError(f"line {ln}: bad feature token {tok!r}") from None
        if idx < 1:
            raise ParseError(f"line {ln}: feature index {idx} < 1")
        if idx > _MAX_INDEX:
            raise ParseError(f"line {ln}: feature index {idx} > 2^63 - 1")
        if idx <= prev:
            raise ParseError(
                f"line {ln}: feature indices must be strictly increasing "
                f"({idx} after {prev})")
        if not math.isfinite(val):
            raise ParseError(f"line {ln}: non-finite value in {tok!r}")
        prev = idx


_CHUNK = 2**10  # feature tokens held as text at once


def _convert_features(feats: list[str], idx: list, values: list) -> None:
    """Append the index and value arrays of ``feats`` to ``idx`` and
    ``values``; ValueError unless every token is ``digits:number``."""
    if not feats:
        return
    if set(map(str.count, feats, repeat(":"))) != {1}:
        raise ValueError("a feature token without exactly one ':'")
    atoms = ":".join(feats).split(":")
    if not all(map(str.isdigit, atoms[0::2])):
        raise ValueError("a feature index that is not digits")
    idx.append(np.array(atoms[0::2], dtype=np.int64))
    values.append(np.array(atoms[1::2], dtype=np.float64))


def _parse_valid(lines: list[str]):
    """``parse_libsvm``'s arrays, converted and checked in bulk; ValueError
    or OverflowError when any line breaks a rule."""
    heads, counts, feats, idx, values = [], [], [], [], []
    for ln, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            continue
        if not _plain(line):
            _check_line(ln, tokens)
        heads.append(tokens[0])
        counts.append(len(tokens) - 1)
        feats += tokens[1:]
        if len(feats) >= _CHUNK:
            _convert_features(feats, idx, values)
            feats = []
    _convert_features(feats, idx, values)
    labels = np.array(heads, dtype=np.float64)
    idx = np.concatenate([np.zeros(0, dtype=np.int64), *idx])
    values = np.concatenate([np.zeros(0), *values])
    counts = np.array(counts, dtype=np.int64)
    prev = np.zeros(idx.size, dtype=np.int64)  # 0 before a record's first index
    prev[1:] = idx[:-1]
    prev[(np.cumsum(counts) - counts)[counts > 0]] = 0
    if not (np.all((labels == -1.0) | (labels == 0.0) | (labels == 1.0))
            and np.all(idx > prev) and np.all(np.isfinite(values))):
        raise ValueError("a label, index or value breaks a rule")
    rows = np.repeat(np.arange(len(heads), dtype=np.int64), counts)
    return ((labels == 1.0).astype(np.float64), rows, idx - 1, values,
            int(idx.max(initial=0)))


def parse_libsvm(text: str):
    """Parse LIBSVM text into flat entry arrays, in file order.

    Records are separated by ``\\n`` alone, so line numbers count
    newlines; any other control character (``\\r``, ``\\f``, ...) is
    whitespace inside its line. Each line is ``label idx:val idx:val ...``
    with 1-based, strictly increasing indices of ASCII digits within int64,
    and ASCII numbers without '_' for labels and values. Labels must be in
    {-1, 0, +1} ({-1,+1} and {0,1} conventions both normalize to {0,1}).
    Blank lines are skipped. Returns ``(labels, rows, cols, values,
    width)``: one label per record, the record and 0-based column of every
    stored entry with its value, and the widest index seen (0 when there is
    none).

    A valid file is converted in bulk (``_parse_valid``). Any other is
    checked again line by line with ``_check_line``, which raises the
    ParseError of the first line that fails.
    """
    lines = text.split("\n")
    try:
        return _parse_valid(lines)
    except (ValueError, OverflowError):
        pass  # name the first failing line, below
    for ln, line in enumerate(lines, start=1):
        tokens = line.split()
        if tokens:
            _check_line(ln, tokens)
    raise AssertionError("the file fails as a whole but in no line")


def serialize_libsvm(X: np.ndarray, labels: Sequence[float]) -> str:
    """LIBSVM text of dense rows: the non-zero entries of each row, labels
    written as 0/1. Parsing it and scattering the entries gives X back, a
    -0.0 entry as +0.0."""
    out = []
    for x, label in zip(X, labels):
        nz = np.flatnonzero(x)
        toks = [str(int(label))]
        toks.extend(f"{i + 1}:{v!r}" for i, v in zip(nz.tolist(),
                                                      x[nz].tolist()))
        out.append(" ".join(toks))
    return "\n".join(out) + "\n"


def split_train_val(n: int, val_fraction: float, seed: int):
    """Row indices (train, val) of n records: a seeded uniform permutation,
    whose suffix of length floor(n*frac) is val."""
    if not 0.0 <= val_fraction < 1.0:
        raise ValueError(f"val_fraction {val_fraction} outside [0, 1)")
    k = int(n * val_fraction)
    perm = np.random.default_rng(seed).permutation(n)
    return perm[:n - k], perm[n - k:]


@dataclass
class TaskDataset:
    """One task: schema plus train/val/test splits over schema.task_vocab,
    each a dense (n, len(task_vocab)) float64 array and its n labels."""

    schema: TaskSchema
    splits: dict[str, tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        width = len(self.schema.task_vocab)
        for name, (rows, labels) in self.splits.items():
            if name not in SPLITS:
                raise SchemaError(f"unknown split {name!r}")
            if rows.dtype != np.float64 or rows.ndim != 2 \
                    or rows.shape[1] != width:
                raise SchemaError(f"split {name!r} is not a float64 "
                                  f"(n, {width}) array")
            if rows.shape[0] != labels.shape[0]:
                raise SchemaError(f"split {name!r}: rows/labels length mismatch")
        self._footprints: dict[str, np.ndarray] = {}  # see footprint

    def n(self, split: str) -> int:
        return len(self.splits[split][0]) if split in self.splits else 0

    def labels(self, split: str) -> np.ndarray:
        return self.splits[split][1]

    def footprint(self, split: str) -> np.ndarray:
        """The split's raw rows in meta space, built on first use: the
        split's own array when the task vocabulary is the meta-vocabulary
        and holds the label concept, else one meta-space copy with the label
        value added at the label coordinate."""
        if split not in self._footprints:
            rows, labels = self.splits[split]
            s = self.schema
            if s.task_vocab == s.meta_vocab and s.label_concept in s.task_vocab:
                block = rows  # already full footprints; share storage
            else:
                block = np.zeros((len(rows), len(s.meta_vocab)))
                block[:, vocab_projection(s.task_vocab, s.meta_vocab)] = rows
                if s.label_concept not in s.task_vocab:
                    # + 0.0: every zero label is stored as +0.0
                    block[:, s.meta_vocab.index(s.label_concept)] = labels + 0.0
            self._footprints[split] = block
        return self._footprints[split]

    def dense(self, split: str, *, masked: bool = True) -> np.ndarray:
        """Dense inputs over the task vocabulary (a copy); masked zeroes the
        coordinates of causal_mask that exist in this vocabulary (the label
        concept usually does not, for supervised tasks)."""
        out = self.splits[split][0].copy()
        if masked:
            local = [self.schema.task_vocab.index(c)
                     for c in self.schema.causal_mask
                     if c in self.schema.task_vocab]
            if local:
                out[:, np.array(local, dtype=np.int64)] = 0.0
        return out


def _dense(parsed, width: int):
    """(X, labels) of one parsed file, X dense at ``width``."""
    labels, rows, cols, values, _ = parsed
    X = np.zeros((len(labels), width))
    X[rows, cols] = values
    return X, labels


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where sysconf has no answer."""
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return pages * size if pages > 0 and size > 0 else None


# Bytes each feature costs ingest besides its dense rows: its name and its
# entries in the task's vocabularies. tracemalloc (CPython 3.11) measured
# ≈320 at 3 rows and 10^6 features (≈135 for the names and one Vocabulary
# alone).
_FEATURE_BYTES = 256


def _feature_names(count: int) -> list[str]:
    width = len(str(count))
    return [f"f{i + 1:0{width}d}" for i in range(count)]


def ingest_task(train_path, test_path, task_id: str, *,
                val_fraction: float = 0.1, seed: int = 0,
                min_support: int = 1, standardize: bool = False) -> TaskDataset:
    """Parse one supervised LIBSVM dataset into a self-aligned TaskDataset.

    Each file is read as ASCII (any other byte is a ParseError naming its
    line) and scattered once into a dense array at the wider of the two
    files' widths; validation rows are then taken out of the train file.
    Feature concepts are named f0001.. (zero padded to the max index width so
    lexicographic order matches index order); the label concept is
    ``label::<task_id>``. The returned schema is aligned against the task's
    own meta-vocabulary (features + label) with the causal mask computed on
    the training split.

    With ``standardize``, features are z-scored with train-split statistics,
    so "active" in mask computations then means "differs from the training
    mean". A width whose rows or feature names do not fit in memory raises
    ParseError, and so does one whose rows and names (8 bytes per row and
    feature, plus ``_FEATURE_BYTES`` per feature) exceed physical memory,
    before anything is allocated.
    """
    train, test = (parse_libsvm(Path(p).read_text(encoding="ascii",
                                                  errors="replace"))
                   for p in (train_path, test_path))
    width = max(train[4], test[4])
    if width == 0:
        raise ParseError("no features found in input")
    rows = len(train[0]) + len(test[0])
    memory = _physical_memory()
    try:
        # np.zeros may reserve a width lazily that no feature list can name
        if memory is not None and width * (8 * rows + _FEATURE_BYTES) > memory:
            raise MemoryError
        X, y = _dense(train, width)
        test_split = _dense(test, width)
        task_vocab = Vocabulary(_feature_names(width))
    except (ValueError, MemoryError):
        raise ParseError(f"{rows} rows of {width} features do not fit in "
                         f"memory") from None
    train_idx, val_idx = split_train_val(len(y), val_fraction, seed)
    splits = {"train": (X[train_idx], y[train_idx]),
              "val": (X[val_idx], y[val_idx]), "test": test_split}
    del X  # the splits are copies
    if standardize:
        train = splits["train"][0]
        mu = train.mean(axis=0)
        sd = train.std(axis=0)
        sd[sd == 0.0] = 1.0
        for rows, _ in splits.values():  # in place: (rows - mu) / sd + 0.0
            rows -= mu
            rows /= sd
            rows += 0.0  # every zero this gives is stored as +0.0

    label_concept = LABEL_PREFIX + task_id
    schema = TaskSchema.build(
        task_id, label_concept, task_vocab,
        align_vocabularies([task_vocab], [label_concept]), {label_concept},
        loss_kind="binary")
    return align_tasks([TaskDataset(schema, splits)], min_support)[0]


@dataclass
class MetaDataset:
    """Aligned multi-task dataset over one shared meta-vocabulary.

    Each task's ``footprint(split)`` holds its raw dense (n, concepts) rows;
    ``masks`` is the (tasks, concepts) matrix that is True on each task's
    causal-mask columns. Every accessor that hands instances to a model
    zeroes the owning task's masked columns first, so observable vectors are
    always zero on masked coordinates.

    ``dense_batch`` reads a split from tables built on its first call for
    that split: the distinct footprint arrays (by identity; tasks that hold
    one array share it) stacked into one table, or the one array itself,
    and the labels of every task in one array. The dataset is not meant to
    change after that.
    """

    meta_vocab: Vocabulary
    tasks: list[TaskDataset]

    def __post_init__(self):
        fp = self.meta_vocab.fingerprint()
        ids = set()
        self.masks = np.zeros((len(self.tasks), len(self.meta_vocab)),
                              dtype=bool)
        for i, t in enumerate(self.tasks):
            vocab = t.schema.meta_vocab
            if vocab is not self.meta_vocab and vocab.fingerprint() != fp:
                raise SchemaError(
                    f"task {t.schema.task_id} aligned against a different "
                    f"meta-vocabulary")
            if t.schema.task_id in ids:
                raise SchemaError(f"duplicate task_id {t.schema.task_id!r}")
            ids.add(t.schema.task_id)
            self.masks[i, t.schema.mask_indices()] = True
        self._tables: dict[str, tuple] = {}  # see _split_tables

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    @property
    def num_concepts(self) -> int:
        return len(self.meta_vocab)

    def task_index(self, task_id: str) -> int:
        for i, t in enumerate(self.tasks):
            if t.schema.task_id == task_id:
                return i
        raise SchemaError(f"no task {task_id!r} in meta-dataset")

    def sizes(self, split: str) -> np.ndarray:
        return np.array([t.n(split) for t in self.tasks], dtype=np.int64)

    def labels(self, task: int, split: str) -> np.ndarray:
        return self.tasks[task].labels(split)

    def loss_kinds(self) -> list[str]:
        return [t.schema.loss_kind for t in self.tasks]

    def dense_rows(self, task: int, rows: np.ndarray | None,
                   split: str) -> np.ndarray:
        """Masked dense inputs for task ``task`` (every row when None)."""
        block = self.tasks[task].footprint(split)
        out = block.copy() if rows is None \
            else block[np.asarray(rows, dtype=np.int64)]
        out[:, self.masks[task]] = 0.0
        return out

    def _split_tables(self, split: str) -> tuple:
        """(table, first table row of each task, labels, first label of
        each task, task sizes) for ``split``, built on first use."""
        if split not in self._tables:
            first: dict[int, int] = {}  # id(block) -> its first table row
            blocks, rows = [], 0
            starts = np.zeros(self.num_tasks, dtype=np.int64)
            for t, task in enumerate(self.tasks):
                if split not in task.splits:
                    continue
                block = task.footprint(split)
                if id(block) not in first:
                    first[id(block)] = rows
                    blocks.append(block)
                    rows += len(block)
                starts[t] = first[id(block)]
            table = blocks[0] if len(blocks) == 1 else np.concatenate(
                [np.zeros((0, self.num_concepts))] + blocks)
            sizes = self.sizes(split)
            labels = np.concatenate([np.zeros(0)] + [
                self.labels(t, split) for t in np.flatnonzero(sizes)])
            self._tables[split] = (table, starts, labels,
                                   np.cumsum(sizes) - sizes, sizes)
        return self._tables[split]

    def dense_batch(self, task_ids: np.ndarray, row_ids: np.ndarray,
                    split: str = "train"):
        """Materialize a mixed-task batch: returns fresh (X, y) in batch
        order, X +0.0 on each row's task mask (one take from the split's
        table, then one masked store)."""
        task_ids = np.asarray(task_ids, dtype=np.int64)
        row_ids = np.asarray(row_ids, dtype=np.int64)
        table, starts, labels, label_starts, sizes = self._split_tables(split)
        if task_ids.size and (task_ids.min() < 0 or row_ids.min() < 0
                              or np.any(row_ids >= sizes[task_ids])):
            raise IndexError(f"batch row outside its task's {split!r} split")
        X = table[starts[task_ids] + row_ids]
        X[self.masks[task_ids]] = 0.0
        return X, labels[label_starts[task_ids] + row_ids]


def _digest(block: np.ndarray) -> str:
    """sha256 of a block's float64 bytes in row-major order."""
    return hashlib.sha256(np.ascontiguousarray(block)).hexdigest()


def build_meta_dataset(tasks: Sequence[TaskDataset]) -> MetaDataset:
    """Assemble aligned tasks into one MetaDataset.

    Preconditions: all schemas reference the same meta-vocabulary. The
    tasks keep their footprints; tasks that read one array (the base task
    and its auxiliary tasks) share it, and nothing is copied.
    """
    if not tasks:
        raise SchemaError("meta-dataset needs at least one task")
    return MetaDataset(tasks[0].schema.meta_vocab, list(tasks))


def align_tasks(tasks: Sequence[TaskDataset],
                min_support: int = 1) -> list[TaskDataset]:
    """Re-align several tasks onto one shared meta-vocabulary.

    The meta-vocabulary is the sorted union of vocabularies and label
    concepts; each task's causal mask is recomputed from its training
    footprints against the full candidate space.
    """
    meta_vocab = align_vocabularies([t.schema.task_vocab for t in tasks],
                                    [t.schema.label_concept for t in tasks])
    out = []
    for t in tasks:
        provisional = t.schema.with_alignment(meta_vocab,
                                              {t.schema.label_concept})
        lifted = TaskDataset(provisional, t.splits)
        mask = compute_causal_mask(
            lifted.footprint("train"), t.labels("train"),
            t.schema.label_concept, meta_vocab, min_support)
        # only the mask changes, which no footprint reads: the train
        # footprint built for the mask stays the task's own
        lifted.schema = provisional.with_alignment(meta_vocab, mask)
        out.append(lifted)
    return out


def build_auxiliary_tasks(base: TaskDataset, policy: str = "all", *,
                          sample_k: int = 0, seed: int = 0,
                          min_support: int = 1) -> list[TaskDataset]:
    """One auxiliary task per selected feature of ``base``.

    Task ``aux:<feature>`` predicts that feature's value from the rest of the
    record (the supervised label included, it is masked only where leakage
    exists). Features constant on the training split are skipped with a
    warning. Binary features (values in {0,1} across all splits) become
    binary tasks; anything else becomes regression with labels standardized
    by train statistics.

    ``policy``: 'all', or 'sample' with ``sample_k`` tasks drawn without
    replacement (seeded) from the eligible features.
    """
    if policy not in ("all", "sample"):
        raise ValueError(f"unknown auxiliary policy {policy!r}")
    # every auxiliary task sees the same records (features plus the
    # supervised label as an ordinary concept): the base's footprints
    meta_vocab = base.schema.meta_vocab
    blocks = {s: base.footprint(s) for s in base.splits}
    train = blocks["train"]
    n_train = train.shape[0]
    if n_train == 0:
        raise SchemaError("cannot build auxiliary tasks from an empty train split")

    # one column per feature: eligibility, kind and labels for all at once
    names = np.array(base.schema.task_vocab.names, dtype=object)
    cols = vocab_projection(base.schema.task_vocab, meta_vocab)
    constant = (train.max(axis=0) == train.min(axis=0))[cols]
    for name in names[constant]:
        log.warning("auxiliary task for %r skipped: constant on train", name)
    chosen = np.flatnonzero(~constant)
    if policy == "sample":
        if sample_k < 0:
            raise ValueError("sample_k must be >= 0")
        k = min(sample_k, chosen.size)
        pick = np.random.default_rng(seed).choice(chosen.size, size=k,
                                                  replace=False)
        chosen = chosen[np.sort(pick)]
    names, cols = names[chosen].tolist(), cols[chosen]

    # labels[s][j]: task j's labels on split s, the feature's values as one
    # contiguous row, standardized by train statistics for regression tasks
    labels = {s: blocks[s].T[cols] for s in blocks}
    binary = np.ones(len(cols), dtype=bool)
    for rows in labels.values():
        binary &= np.all((rows == 0.0) | (rows == 1.0), axis=1)
    masks, _ = constant_columns_by_activation(train, labels["train"].T,
                                              min_support)
    # each row's mean and std sum in the order of a one-column call; a
    # binary row keeps its bits through - 0.0 and / 1.0
    fit = labels["train"]
    mu = np.where(binary, 0.0, fit.mean(axis=1))[:, None]
    sd = np.where(binary, 1.0, fit.std(axis=1))[:, None]
    for rows in labels.values():
        rows -= mu
        rows /= sd

    task_of, masked = np.nonzero(masks.T)
    bounds = np.searchsorted(task_of, np.arange(len(cols) + 1)).tolist()
    concepts = meta_vocab.names
    aux_tasks = []
    for j, name in enumerate(names):
        mask = [concepts[c] for c in masked[bounds[j]:bounds[j + 1]].tolist()]
        schema = TaskSchema.build(
            f"aux:{name}", name, meta_vocab, meta_vocab, mask,
            loss_kind="binary" if binary[j] else "regression")
        # each task owns its labels: kept as one (tasks, n) block they would
        # outlive set-up as one large allocation, which raised peak RSS
        aux_tasks.append(TaskDataset(schema, {s: (blocks[s],
                                                  labels[s][j].copy())
                                              for s in blocks}))
    return aux_tasks


class BatchSampler:
    """Mixed-task batches: task drawn proportionally to train split size,
    instance uniform within the task, with replacement. One PCG64 stream per
    sampler, so identical seeds give identical batch sequences."""

    def __init__(self, train_sizes: Sequence[int], batch_size: int, seed: int = 0):
        sizes = np.asarray(train_sizes, dtype=np.int64)
        if sizes.ndim != 1 or sizes.size == 0 or np.any(sizes < 0):
            raise ValueError("train_sizes must be non-negative and non-empty")
        total = int(sizes.sum())
        if total == 0:
            raise ValueError("cannot sample from zero training instances")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        weights = sizes / total
        cum = np.cumsum(weights)
        if abs(cum[-1] - 1.0) > 1e-12:
            raise ValueError("task weights do not sum to 1")
        cum[-1] = 1.0
        self.sizes = sizes
        self.batch_size = int(batch_size)
        self.seed = int(seed)
        self._cum = cum
        self._rng = np.random.default_rng(seed)

    def draw(self) -> tuple[np.ndarray, np.ndarray]:
        u = self._rng.random(self.batch_size)
        tasks = np.searchsorted(self._cum, u, side="right").astype(np.int64)
        r = self._rng.random(self.batch_size)
        rows = np.minimum((r * self.sizes[tasks]).astype(np.int64),
                          self.sizes[tasks] - 1)
        return tasks, rows


def write_manifest(path, meta: MetaDataset) -> str:
    """Human-readable meta-dataset manifest; returns the text written.
    A task's ``checksums`` are, per split, the first 16 hex digits of the
    sha256 of its footprint's float64 bytes in row order; tasks that share
    a footprint array share its one hash."""
    blocks = {id(b): b for t in meta.tasks for b in map(t.footprint, t.splits)}
    digests = {key: _digest(block)[:16] for key, block in blocks.items()}
    lines = [
        f"meta_vocab: vocab.txt sha256={meta.meta_vocab.fingerprint()}",
        f"concepts: {meta.num_concepts}",
        f"tasks: {meta.num_tasks}",
    ]
    for task in meta.tasks:
        s = task.schema
        sizes = "/".join(str(task.n(sp)) for sp in SPLITS)
        lines.append(f"task {s.task_id}:")
        lines.append(f"  label: {s.label_concept}")
        lines.append(f"  loss: {s.loss_kind}")
        members = " ".join(sorted(s.causal_mask))
        lines.append(f"  cmask ({len(s.causal_mask)}): {members}")
        lines.append(f"  sizes train/val/test: {sizes}")
        sums = " ".join(f"{sp}={digests[id(task.footprint(sp))]}"
                        for sp in SPLITS if sp in task.splits)
        lines.append(f"  checksums: {sums}")
    text = "\n".join(lines) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text
