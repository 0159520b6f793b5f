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
"""

import numpy as np

from taskmix import numeric
from taskmix.concepts import vocab_projection
from taskmix.train import _per_instance_loss


def instances(meta, split="train"):
    """All instances as (task_index, masked dense row, label)."""
    for t in range(meta.num_tasks):
        block = meta.footprints[(t, split)]
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
    block = meta.footprints[(task, split)]
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
