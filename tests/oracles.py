"""Reference readers of a MetaDataset, used only as test oracles.

``instances`` walks every stored row and drops the owning task's masked
coordinates one sparse entry at a time; ``recover_task`` projects the raw
footprints back onto a task's own vocabulary. The program reads data only
through ``dense_rows``/``dense_batch``; these slow paths pin what those
must agree with, and that masking never loses data at rest.
"""

import numpy as np

from taskmix.concepts import ConceptVector, vocab_projection


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
