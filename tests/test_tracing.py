"""The benchmark's tracer (perfbench/tracing.py) wraps src entry points by
name, so renaming one in src must fail here and not only in a traced
benchmark run."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bindings() -> dict:
    """Every name bound in a taskmix module or in a class it defines."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname != "taskmix" and not modname.startswith("taskmix."):
            continue
        for key, value in vars(mod).items():
            out[(modname, key)] = value
            if isinstance(value, type) and value.__module__ == modname:
                for attr, raw in vars(value).items():
                    out[(modname, key, attr)] = raw
    return out


def test_tracer_installs_on_every_named_entry_point_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    # every traced module is loaded before install, as in a benchmark run
    from taskmix import concepts, data, metrics, model, numeric, train  # noqa
    from taskmix.model import Mixture, MixtureConfig
    from taskmix.synth import make_latent_tasks

    tasks, _ = make_latent_tasks(0, train_n=16, val_n=4, test_n=4)
    meta = data.build_meta_dataset(tasks)
    model = Mixture.standard(
        MixtureConfig(input_dim=meta.num_concepts, num_tasks=meta.num_tasks,
                      num_experts=1, expert_depth=1, expert_width=4,
                      gate_hidden=2, head_hidden=2),
        task_ids=[t.schema.task_id for t in tasks],
        vocab_fingerprint=meta.meta_vocab.fingerprint())
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, attr, name, _ in tracing._targets():
            raw = vars(owner)[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            assert hasattr(fn, "__wrapped__"), f"{name}: {attr} not wrapped"
        # a short adaptation runs every per-step phase through the wrappers
        train.online_adapt(model, tasks[0], train.AdaptConfig(
            epochs=1, batch_size=8, lrs=(1e-3,)))
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"train.adapt", "data.sample", "data.gather", "model.forward",
            "train.loss", "model.backward", "numeric.adam",
            "train.val_eval"} <= names
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed, f"not restored: {changed}"
