"""Reference paths used only as test oracles.

``instances`` walks every stored row of a MetaDataset and drops the owning
task's masked coordinates one sparse entry at a time; ``recover_task``
projects the raw footprints back onto a task's own vocabulary. The program
reads data only through ``dense_rows``/``dense_batch``; these slow paths pin
what those must agree with, and that masking never loses data at rest.
``per_task_meta_loss`` is the meta objective as one forward pass per task
and chunk, which the batched ``train.meta_loss`` must agree with.
"""

import numpy as np

from taskmix.concepts import ConceptVector, vocab_projection
from taskmix.train import _per_instance_loss


def instances(meta, split="train"):
    """All instances as (task_index, masked sparse vector, label)."""
    for t in range(meta.num_tasks):
        block = meta.footprints[(t, split)]
        labels = meta.labels(t, split)
        masked = set(int(i) for i in meta.tasks[t].schema.mask_indices())
        for i in range(len(block)):
            vec = block.row(i)
            keep = np.array([j not in masked for j in vec.indices], dtype=bool)
            yield (t,
                   ConceptVector(vec.indices[keep], vec.values[keep], vec.size),
                   float(labels[i]))


def recover_task(meta, task, split):
    """(ConceptVector over task_vocab, label) pairs read back from the raw
    footprints of one task."""
    vocab = meta.tasks[task].schema.task_vocab
    block = meta.footprints[(task, split)]
    rev = np.full(meta.num_concepts, -1, dtype=np.int64)
    rev[vocab_projection(vocab, meta.meta_vocab)] = np.arange(len(vocab))
    labels = meta.labels(task, split)
    out = []
    for i in range(len(block)):
        vec = block.row(i)
        local = rev[vec.indices]
        keep = local >= 0
        out.append((ConceptVector(local[keep], vec.values[keep], len(vocab)),
                    float(labels[i])))
    return out


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
