"""Span tracing from outside the program.

``Tracer.install`` replaces the public entry points of each taskmix module
with wrappers that record one span per call: name, start, end and the span
that was open when the call began. Functions are replaced in every loaded
taskmix module that holds them, because modules import each other's names
(``taskmix.train`` calls its own ``adam_step`` binding, not
``taskmix.numeric.adam_step``). ``uninstall`` restores the originals, so a
run can measure untraced and traced rounds in one process.

Spans stay in memory and are written out once, when the run ends. The
aggregation below turns one round's spans into the per-layer metrics; every
``*_s`` metric is self time (span duration minus the time its child spans
cover) unless its description says otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

# Per-step phases of a training loop, in the order _fit calls them.
LOOPS = ("train.meta", "train.adapt", "train.baseline")
STEP_START = "data.sample"
STEP_END = "numeric.adam"


def _targets():
    """(owner, attribute, span name, note) for every traced entry point.

    ``note(args, result)`` extracts the few values the aggregation needs; it
    runs after the span's end time is taken.
    """
    from taskmix import concepts, data, metrics, model, numeric, train

    def rows_and_cfg(args, result):
        return (args[1].shape[0], getattr(args[0], "config", None))

    return [
        (data, "ingest_task", "data.ingest", None),
        (data, "build_auxiliary_tasks", "data.aux_tasks", None),
        (data, "build_meta_dataset", "data.meta_dataset", None),
        (data.BatchSampler, "draw", "data.sample",
         lambda args, result: result[0]),
        (data.MetaDataset, "dense_batch", "data.gather", None),
        (data.MetaDataset, "dense_rows", "data.gather", None),
        # the baseline loop reads its task through this adapter
        (train._TaskVocabView, "dense_batch", "data.gather", None),
        (concepts, "compute_causal_mask", "concepts.causal_mask", None),
        (concepts, "constant_columns_by_activation", "concepts.causal_mask",
         None),
        (model.Mixture, "standard", "model.init", None),
        (model.FeedForwardNet, "mlp", "model.init", None),
        (model.Mixture, "forward_batch", "model.forward", rows_and_cfg),
        (model.FeedForwardNet, "forward_batch", "model.forward", None),
        (model.Mixture, "backward_batch", "model.backward", None),
        (model.FeedForwardNet, "backward_batch", "model.backward", None),
        (model, "save_checkpoint", "model.checkpoint_save",
         lambda args, result: len(result)),
        (model, "load_checkpoint", "model.checkpoint_load", None),
        (numeric, "adam_step", "numeric.adam",
         lambda args, result: args[0]),
        (numeric, "clip_grads_", "numeric.clip", None),
        (numeric.ParamStore, "copy", "numeric.store_copy", None),
        (train, "meta_loss", "train.val_eval", None),
        (train, "_per_instance_loss", "train.loss", None),
        (train, "meta_train", "train.meta", None),
        (train, "online_adapt", "train.adapt", None),
        (train, "train_baseline", "train.baseline", None),
        (metrics, "evaluate_model", "metrics.eval", None),
        (metrics, "evaluate_binary", "metrics.eval", None),
        (metrics, "task_attention", "metrics.attention", None),
    ]


class Tracer:
    """Records spans as ``[name, start, end, parent, note]`` lists."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = [-1]
        self._undo: list = []

    def _wrap(self, fn, name, note):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1], None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name):
        """The benchmark's own spans (rounds); yields the span id."""
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1], None])
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self.spans[idx][2] = perf_counter()
            self._stack.pop()

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if k == "taskmix" or k.startswith("taskmix.")]
        for owner, attr, name, note in _targets():
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name, note))
                else:
                    new = self._wrap(raw, name, note)
                setattr(owner, attr, new)
                self._undo.append((owner, attr, raw))
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(fn, name, note)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path, header: dict):
        """JSON lines: a header object, then one object per span. Times are
        seconds from the first span; ``parent`` is a span id or -1."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "start": round(start - t0, 9),
                                     "end": round(end - t0, 9)},
                                    separators=(",", ":")) + "\n")


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds to its caller, from wrapping a no-op."""
    def noop():
        return None

    traced = Tracer()._wrap(noop, "noop", None)
    t0 = perf_counter()
    for _ in range(calls):
        noop()
    t1 = perf_counter()
    for _ in range(calls):
        traced()
    t2 = perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


def _tree(spans, root):
    """Span ids under ``root`` (inclusive) with their children lists."""
    children: dict[int, list[int]] = {}
    members = [root]
    for i in range(root + 1, len(spans)):
        parent = spans[i][3]
        if parent in children or parent == root:
            children.setdefault(parent, []).append(i)
            children.setdefault(i, [])
            members.append(i)
    children.setdefault(root, [])
    return members, children


def round_metrics(spans, root) -> tuple[dict, dict]:
    """Per-layer metrics of one traced round, plus step-accounting detail.

    ``root`` is the id of the benchmark's round span.
    """
    from taskmix.model import mixture_forward_flops

    members, children = _tree(spans, root)
    dur = {i: spans[i][2] - spans[i][1] for i in members}
    self_t = {i: dur[i] - sum(dur[c] for c in children[i]) for i in members}

    # nearest enclosing loop / attention span of every span
    context = {root: None}
    for i in members:
        name = spans[i][0]
        ctx = context[i]
        inner = name if name in LOOPS or name == "metrics.attention" else ctx
        for c in children[i]:
            context[c] = inner

    acc: dict[str, float] = {}

    def add(key, value):
        acc[key] = acc.get(key, 0.0) + value

    flops_cache: dict = {}
    params_cache: dict = {}
    batch_tasks = []
    for i in members[1:]:
        name, start, end, parent, note = spans[i]
        in_att = context[i] == "metrics.attention"
        if name in ("data.gather", "model.forward") and in_att:
            kind = "gather" if name == "data.gather" else "forward"
            add(f"att.{kind}.s", self_t[i])
            add(f"att.{kind}.n", 1)
            continue
        add(f"{name}.s", self_t[i])
        add(f"{name}.n", 1)
        add(f"{name}.dur", dur[i])
        if name == "data.sample" and context[i] == "train.meta":
            batch_tasks.append(len(set(note.tolist())))
        elif name == "model.forward" and note is not None and note[1] is not None:
            rows, cfg = note
            if cfg not in flops_cache:
                flops_cache[cfg] = mixture_forward_flops(cfg)
            add("mix.flops", rows * flops_cache[cfg])
            add("mix.dur", dur[i])
        elif name == "numeric.adam":
            key = id(note)
            if key not in params_cache:
                params_cache[key] = note.num_params()
            # read param, grad, m, v; write param, m, v and the zeroed grad
            add("adam.bytes", 8 * 8 * params_cache[key])
        elif name == "model.checkpoint_save":
            add("ckpt.bytes", note)

    steps = {loop: [] for loop in LOOPS}
    for i in members:
        if spans[i][0] not in LOOPS:
            continue
        start = None
        covered = 0.0
        for c in children[i]:
            cname = spans[c][0]
            if cname == STEP_START:
                start, covered = spans[c][1], 0.0
            if start is not None:
                covered += dur[c]
            if cname == STEP_END and start is not None:
                steps[spans[i][0]].append((spans[c][2] - start, covered))
                start = None

    def get(key):
        return acc.get(key, 0.0)

    def step_ms(loop):
        walls = [w for w, _ in steps[loop]]
        return 1e3 * sum(walls) / len(walls) if walls else 0.0

    out = {
        "data.ingest_s": get("data.ingest.s"),
        "data.aux_tasks_s": get("data.aux_tasks.s"),
        "data.meta_dataset_s": get("data.meta_dataset.s"),
        "data.sample_s": get("data.sample.s"),
        "data.gather_s": get("data.gather.s"),
        "data.gather_calls": get("data.gather.n"),
        "data.tasks_per_batch": (sum(batch_tasks) / len(batch_tasks)
                                 if batch_tasks else 0.0),
        "concepts.causal_mask_s": get("concepts.causal_mask.s"),
        "concepts.causal_mask_calls": get("concepts.causal_mask.n"),
        "model.init_s": get("model.init.s"),
        "model.forward_s": get("model.forward.s"),
        "model.forward_calls": get("model.forward.n"),
        "model.backward_s": get("model.backward.s"),
        "model.forward_gflop_per_s": (get("mix.flops") / get("mix.dur") / 1e9
                                      if get("mix.dur") else 0.0),
        "model.checkpoint_save_s": get("model.checkpoint_save.s"),
        "model.checkpoint_load_s": get("model.checkpoint_load.s"),
        "model.checkpoint_bytes": get("ckpt.bytes"),
        "numeric.adam_s": get("numeric.adam.s"),
        "numeric.adam_calls": get("numeric.adam.n"),
        "numeric.adam_gb_per_s": (get("adam.bytes") / get("numeric.adam.s")
                                  / 1e9 if get("numeric.adam.s") else 0.0),
        "numeric.clip_s": get("numeric.clip.s"),
        "numeric.store_copy_s": get("numeric.store_copy.s"),
        "numeric.store_copies": get("numeric.store_copy.n"),
        "train.meta_step_ms": step_ms("train.meta"),
        "train.meta_steps": len(steps["train.meta"]),
        "train.adapt_step_ms": step_ms("train.adapt"),
        "train.adapt_steps": len(steps["train.adapt"]),
        "train.loss_s": get("train.loss.s"),
        "train.val_eval_s": get("train.val_eval.dur"),
        "train.val_evals": get("train.val_eval.n"),
        "train.loop_self_s": sum(get(f"{loop}.s") for loop in LOOPS),
        "metrics.eval_s": get("metrics.eval.s"),
        "metrics.attention_evals": get("att.forward.n"),
        "metrics.attention_forward_s": get("att.forward.s"),
        "metrics.attention_gather_s": get("att.gather.s"),
    }
    all_steps = [s for loop in LOOPS for s in steps[loop]]
    detail = {
        "round_s": dur[root],
        "spans": len(members) - 1,
        "steps": {loop: len(steps[loop]) for loop in LOOPS},
        # share of step wall time covered by the traced per-step phases
        "step_coverage": (sum(c for _, c in all_steps)
                          / sum(w for w, _ in all_steps)
                          if all_steps else None),
    }
    return out, detail


def median_metrics(per_round: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
