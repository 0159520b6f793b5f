"""Reference paths used only as test oracles.

``instances`` walks every stored row of a MetaDataset and zeroes the owning
task's masked coordinates one at a time; ``recover_task`` projects the raw
footprints back onto a task's own vocabulary. The program reads data only
through ``dense_rows``/``dense_batch``; these slow paths pin what those must
agree with, and that masking never loses data at rest.
``per_task_meta_loss`` is the meta objective as one forward pass per task
and chunk, which the batched ``train.meta_loss`` must agree with.
``adam_step_full`` is Adam over a store's full gradient buffer, which
``numeric.adam_step`` on a store bound to task slots must agree with.
``parse_libsvm`` checks and converts one token at a time; the bulk
``data.parse_libsvm`` must give the same arrays or the same error text.
``build_auxiliary_tasks`` builds one task at a time, each mask from
``constant_columns_hi_lo`` (one target's max and min over the active
rows); ``data.build_auxiliary_tasks`` and
``concepts.constant_columns_by_activation`` must agree with them.
"""

import logging
import math

import numpy as np

from taskmix import numeric
from taskmix.concepts import TaskSchema, vocab_projection
from taskmix.data import ParseError, TaskDataset, _plain
from taskmix.train import _per_instance_loss


def instances(meta, split="train"):
    """All instances as (task_index, masked dense row, label)."""
    for t in range(meta.num_tasks):
        block = meta.tasks[t].footprint(split)
        labels = meta.labels(t, split)
        masked = meta.tasks[t].schema.mask_indices()
        for i in range(len(block)):
            row = block[i].copy()
            for j in masked:
                row[j] = 0.0
            yield t, row, float(labels[i])


def recover_task(meta, task, split):
    """(rows over task_vocab, labels) read back from the raw footprints of
    one task."""
    vocab = meta.tasks[task].schema.task_vocab
    block = meta.tasks[task].footprint(split)
    proj = vocab_projection(vocab, meta.meta_vocab)
    rows = np.array([[block[i, j] for j in proj] for i in range(len(block))])
    return rows.reshape(len(block), len(vocab)), meta.labels(task, split)


def per_task_meta_loss(model, data, split, chunk=4096):
    """Sum of per-instance losses, task by task: each task's rows go
    through ``predict_logits`` at its own head ``chunk`` rows at a time."""
    kinds = data.loss_kinds()
    total = 0.0
    for t in range(data.num_tasks):
        n = int(data.sizes(split)[t])
        labels = data.labels(t, split)
        reg = kinds[t] == "regression"
        for s in range(0, n, chunk):
            rows = np.arange(s, min(s + chunk, n))
            logits = model.predict_logits(data.dense_rows(t, rows, split),
                                          t, chunk)
            losses, _ = _per_instance_loss(
                logits, labels[rows], np.full(rows.size, reg, dtype=bool))
            total += float(losses.sum())
    return total


def adam_step_full(store, state, lr):
    """One Adam update over every element of ``store.flat_grads``, in
    ``numeric._ADAM_CHUNK`` chunks; zeroes the gradients after."""
    if state.names != tuple(store.names()):
        raise KeyError("Adam state does not match parameter store")
    state.t += 1
    b1, b2 = numeric._BETA1, numeric._BETA2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    n = store.num_params()
    s1 = np.empty(min(n, numeric._ADAM_CHUNK))
    s2 = np.empty_like(s1)
    for lo in range(0, n, numeric._ADAM_CHUNK):
        hi = min(lo + numeric._ADAM_CHUNK, n)
        p, g = store.flat_params[lo:hi], store.flat_grads[lo:hi]
        m, v = state.m[lo:hi], state.v[lo:hi]
        t1, t2 = s1[:hi - lo], s2[:hi - lo]
        m *= b1
        m += np.multiply(1.0 - b1, g, out=t1)
        v *= b2
        np.multiply(g, g, out=t1)
        v += np.multiply(1.0 - b2, t1, out=t1)
        np.divide(v, bc2, out=t1)
        np.sqrt(t1, out=t1)
        t1 += numeric._EPS
        np.divide(m, bc1, out=t2)
        np.multiply(lr, t2, out=t2)
        p -= np.divide(t2, t1, out=t2)
        g.fill(0.0)


def parse_libsvm(text):
    """``data.parse_libsvm`` one token at a time: each is checked and
    converted on its own, and each record's entries become arrays at its
    end."""
    labels, cols, vals = [], [], []
    width = 0
    for ln, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        tokens = line.split()
        plain = _plain(line)
        try:
            if not (plain or _plain(tokens[0])):
                raise ValueError(tokens[0])
            label_val = float(tokens[0])
        except ValueError:
            raise ParseError(f"line {ln}: bad label {tokens[0]!r}") from None
        if label_val == -1.0 or label_val == 0.0:
            label = 0.0
        elif label_val == 1.0:
            label = 1.0
        else:
            raise ParseError(f"line {ln}: label {tokens[0]!r} not in {{-1,0,+1}}")
        idxs, values = [], []
        prev = 0
        for tok in tokens[1:]:
            part = tok.split(":")
            if len(part) != 2:
                raise ParseError(f"line {ln}: bad feature token {tok!r}")
            try:
                if not (part[0].isdigit() and (plain or _plain(tok))):
                    raise ValueError(tok)
                idx = int(part[0])
                val = float(part[1])
            except ValueError:
                raise ParseError(f"line {ln}: bad feature token {tok!r}") from None
            if idx < 1:
                raise ParseError(f"line {ln}: feature index {idx} < 1")
            if idx > 2**63 - 1:
                raise ParseError(f"line {ln}: feature index {idx} > 2^63 - 1")
            if idx <= prev:
                raise ParseError(
                    f"line {ln}: feature indices must be strictly increasing "
                    f"({idx} after {prev})")
            if not math.isfinite(val):
                raise ParseError(f"line {ln}: non-finite value in {tok!r}")
            prev = idx
            idxs.append(idx - 1)
            values.append(val)
        cols.append(np.array(idxs, dtype=np.int64))
        vals.append(np.array(values, dtype=np.float64))
        labels.append(label)
        width = max(width, prev)
    rows = np.repeat(np.arange(len(cols), dtype=np.int64),
                     [c.size for c in cols])
    return (np.array(labels, dtype=np.float64), rows,
            np.concatenate([np.zeros(0, dtype=np.int64), *cols]),
            np.concatenate([np.zeros(0), *vals]), width)


def constant_columns_hi_lo(dense, targets, min_support=1):
    """``constant[c]``: column c is active on at least ``min_support`` rows
    and the largest and smallest target over those rows are equal."""
    active = dense != 0.0
    support = active.sum(axis=0)
    t = targets[:, None]
    hi = np.where(active, t, -np.inf).max(axis=0, initial=-np.inf)
    lo = np.where(active, t, np.inf).min(axis=0, initial=np.inf)
    return (support >= max(min_support, 1)) & (hi == lo), support


def build_auxiliary_tasks(base, policy="all", *, sample_k=0, seed=0,
                          min_support=1):
    """``data.build_auxiliary_tasks`` one feature at a time."""
    meta_vocab = base.schema.meta_vocab
    blocks = {s: base.footprint(s) for s in base.splits}
    train = blocks["train"]
    eligible = []
    for name in base.schema.task_vocab:
        v = train[:, meta_vocab.index(name)]
        if v.max() == v.min():
            logging.getLogger("taskmix.data").warning(
                "auxiliary task for %r skipped: constant on train", name)
            continue
        eligible.append(name)
    if policy == "sample":
        k = min(sample_k, len(eligible))
        pick = np.random.default_rng(seed).choice(len(eligible), size=k,
                                                  replace=False)
        eligible = [eligible[i] for i in sorted(pick)]
    aux_tasks = []
    for name in eligible:
        col = meta_vocab.index(name)
        all_vals = np.concatenate([blocks[s][:, col] for s in blocks])
        labels = {}
        if np.all((all_vals == 0.0) | (all_vals == 1.0)):
            for s in blocks:
                labels[s] = blocks[s][:, col].copy()
            kind = "binary"
        else:
            mu = train[:, col].mean()
            sd = train[:, col].std()
            for s in blocks:
                labels[s] = (blocks[s][:, col] - mu) / sd
            kind = "regression"
        constant, _ = constant_columns_hi_lo(train, train[:, col], min_support)
        mask = [name] + [meta_vocab.names[c] for c in np.flatnonzero(constant)]
        schema = TaskSchema.build(f"aux:{name}", name, meta_vocab, meta_vocab,
                                  mask, loss_kind=kind)
        aux_tasks.append(TaskDataset(schema, {s: (blocks[s], labels[s])
                                              for s in blocks}))
    return aux_tasks
