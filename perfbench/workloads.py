"""The three benchmark workloads.

Each workload makes its inputs from the seed with ``taskmix.synth`` (outside
any timed region), then runs rounds of the same program calls in the order
``single_task_meta`` and the CLI use them. ``Phases`` times every call from
outside and counts it as one operation. Checks run on the last round's
outputs; see checks.py.

Sizes are chosen so one round takes seconds on a 2-core box with one BLAS
thread while every phase does the work it does at full scale: the task
count, the model configs and the batch sizes are those of the paper's
protocols; only the row counts are small.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import checks
from taskmix import data, metrics, model, numeric, synth, train


class Phases:
    """Times each program call under a phase name; counts finished calls."""

    def __init__(self):
        self.times: dict[str, float] = {}
        self.cpu: dict[str, float] = {}
        self.done = 0

    def __call__(self, phase: str, fn, *args, **kwargs):
        c0 = process_time()
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        t1 = perf_counter()
        c1 = process_time()
        self.times[phase] = self.times.get(phase, 0.0) + t1 - t0
        self.cpu[phase] = self.cpu.get(phase, 0.0) + c1 - c0
        self.done += 1
        return out


def _check(results: dict, name: str, ok: bool, detail: str) -> None:
    results[name] = {"ok": bool(ok), "detail": detail}


def _ckpt_roundtrip(results, trained, blob, loaded, X, head) -> None:
    again = model.save_checkpoint(None, loaded)
    same_logits = np.array_equal(trained.predict_logits(X, head),
                                 loaded.predict_logits(X, head))
    _check(results, "checkpoint_roundtrip", again == blob and same_logits,
           f"{len(blob)} bytes; resave identical={again == blob}; "
           f"logits bit-identical={same_logits}")


def _meta_checks(results, meta, cfg, trained, mcfg, steps,
                 lowers: str = "val") -> None:
    """Checks shared by every workload that meta-trains. ``lowers`` names
    the split whose loss meta-training must bring below the fresh mixture's:
    val after one epoch; train on latent3-transfer, whose 150 epochs over 100
    rows a task overfit (its val loss ends above the start on every seed
    tried)."""
    own = checks.split_loss(trained.model, meta, "val")
    reported = trained.rows[-1].val_meta_loss
    _check(results, "meta_loss_matches_sum",
           checks.rel_close(own, reported, 1e-9),
           f"meta_loss {reported!r} vs own sum {own!r}")
    fresh = model.Mixture.standard(
        replace(mcfg, input_dim=meta.num_concepts, num_tasks=meta.num_tasks))
    before = checks.split_loss(fresh, meta, lowers)
    del fresh
    after = own if lowers == "val" else checks.split_loss(trained.model, meta,
                                                          lowers)
    _check(results, f"meta_lowers_{lowers}_loss", after < before,
           f"{lowers} loss {before:.6g} at init -> {after:.6g} after "
           f"meta_train")
    sampler = data.BatchSampler(meta.sizes("train"), cfg.batch_size, cfg.seed)
    ok, detail = checks.batches_masked(
        meta, sampler, steps,
        lambda t, r: meta.dense_batch(t, r, "train")[0])
    _check(results, "batches_masked", ok, "meta_train: " + detail)


def _auc_check(results, report_auc, logits, labels) -> None:
    own = checks.pairwise_auc(logits, labels)
    _check(results, "auc_matches_pairwise", abs(report_auc - own) <= 1e-12,
           f"roc_auc {report_auc!r} vs pairwise count {own!r}")


class Hypercube124:
    """The single-task protocol at a9a width."""

    name = "hc124-protocol"
    ops_per_round = 9
    setup_ops = 3

    def __init__(self, seed: int, workdir: Path, small: bool):
        self.seed = seed
        features, n_train, n_test = (24, 600, 400) if small else (124, 266, 1000)
        # class_sep 2 keeps the planted signal learnable from one meta epoch
        # over 253 rows, so the above-chance check holds on every seed
        train_text, test_text = synth.make_hypercube_pairs(
            seed, n_train=n_train, n_test=n_test, n_features=features,
            class_sep=2.0)
        self.paths = (workdir / "hc124.train", workdir / "hc124.test")
        self.paths[0].write_text(train_text)
        self.paths[1].write_text(test_text)
        self.inputs = {"features": features, "train_file_rows": n_train,
                       "test_rows": n_test, "val_fraction": 0.05,
                       "class_sep": 2.0}
        self.mcfg = model.MixtureConfig(
            input_dim=1, num_tasks=1, num_experts=3, expert_depth=3,
            expert_width=128, gate_hidden=32, head_hidden=32, seed=seed)
        self.cfg = train.MetaTrainConfig(epochs=1, batch_size=256, lr=5e-3,
                                         seed=seed)
        self.acfg = train.AdaptConfig(epochs=5 if small else 20,
                                      batch_size=256, seed=seed)

    def setup(self, ph: Phases):
        base = ph("setup", data.ingest_task, *self.paths, "hc124",
                  val_fraction=0.05, seed=self.seed)
        aux = ph("setup", data.build_auxiliary_tasks, base, "all")
        meta = ph("setup", data.build_meta_dataset, [base] + aux)
        return base, meta

    def round(self, ph: Phases) -> dict:
        base, meta = self.setup(ph)
        trained = ph("meta", train.meta_train, meta, self.mcfg, self.cfg)
        blob = ph("checkpoint", model.save_checkpoint, None, trained.model)
        loaded, _ = ph("checkpoint", model.load_checkpoint, blob)
        adapted = ph("adapt", train.online_adapt, loaded, base, self.acfg)
        head = loaded.task_ids.index(base.schema.task_id)
        report = ph("eval", metrics.evaluate_model, adapted.model, meta, 0,
                    "test", head=head)
        att = ph("attention", metrics.task_attention, adapted.model, meta,
                 "val")
        return {"base": base, "meta": meta, "trained": trained, "blob": blob,
                "loaded": loaded, "adapted": adapted, "head": head,
                "report": report, "att": att}

    def adapt_rows(self, out) -> int:
        per_epoch = math.ceil(out["base"].n("train") / self.acfg.batch_size)
        return (len(self.acfg.lrs) * self.acfg.epochs * per_epoch
                * self.acfg.batch_size)

    def round_metrics(self, times, out) -> dict:
        steps = out["trained"].rows[-1].step
        return {
            "meta_rows_per_s": steps * self.cfg.batch_size / times["meta"],
            "adapt_rows_per_s": self.adapt_rows(out) / times["adapt"],
            "attention_s": times["attention"],
        }

    def digest(self, out) -> str:
        return checks.params_digest(out["trained"].model, out["adapted"].model,
                                    out["att"])

    def sizes(self, out) -> dict:
        meta = out["meta"]
        return {"tasks": meta.num_tasks, "concepts": meta.num_concepts,
                "train_rows": int(out["base"].n("train")),
                "val_rows": int(out["base"].n("val")),
                "test_rows": int(out["base"].n("test")),
                "meta_train_instances": int(meta.sizes("train").sum()),
                "params": out["trained"].model.store.num_params(),
                "param_tensors": len(out["trained"].model.store.params)}

    def check(self, out) -> dict:
        res: dict = {}
        base, meta, head = out["base"], out["meta"], out["head"]
        adapted = out["adapted"]
        X_test = meta.dense_rows(0, None, "test")
        y_test = meta.labels(0, "test")
        logits = adapted.model.predict_logits(X_test, head)
        _auc_check(res, out["report"].auc, logits, y_test)
        margin = checks.null_auc_margin(y_test)
        _check(res, "test_auc_above_null", out["report"].auc > 0.5 + margin,
               f"adapted test AUC {out['report'].auc:.4f} vs 0.5 + "
               f"{margin:.4f} (3 sd of the null AUC)")
        _meta_checks(res, meta, self.cfg, out["trained"], self.mcfg,
                     out["trained"].rows[-1].step)
        single = data.build_meta_dataset([base])
        heads = [head]
        before = checks.split_loss(out["loaded"], single, "val", heads)
        after = checks.split_loss(adapted.model, single, "val", heads)
        _check(res, "adapt_only_helps",
               after <= before and checks.rel_close(after, adapted.best_val,
                                                    1e-9),
               f"val loss {before!r} -> {after!r}; best_val "
               f"{adapted.best_val!r} (lr {adapted.lr})")
        sampler = data.BatchSampler(single.sizes("train"),
                                    self.acfg.batch_size, self.acfg.seed)
        ok, detail = checks.batches_masked(
            single, sampler, self.acfg.epochs,
            lambda t, r: single.dense_rows(0, r, "train"))
        res["batches_masked"]["ok"] &= ok
        res["batches_masked"]["detail"] += "; online_adapt: " + detail
        _check(res, "attention_diag_zero", np.all(np.diag(out["att"]) == 0.0),
               f"{out['att'].shape[0]}x{out['att'].shape[1]} matrix")
        X_val = meta.dense_rows(0, None, "val")
        _ckpt_roundtrip(res, out["trained"].model, out["blob"], out["loaded"],
                        X_val, 0)
        return res


class Hypercube500:
    """Meta-training alone at madelon width: the task axis at its largest."""

    name = "hc500-meta"
    ops_per_round = 6
    setup_ops = 3

    def __init__(self, seed: int, workdir: Path, small: bool):
        self.seed = seed
        features, n_train = (24, 40) if small else (500, 15)
        train_text, test_text = synth.make_hypercube_pairs(
            seed, n_train=n_train, n_test=40, n_features=features)
        self.paths = (workdir / "hc500.train", workdir / "hc500.test")
        self.paths[0].write_text(train_text)
        self.paths[1].write_text(test_text)
        self.inputs = {"features": features, "train_file_rows": n_train,
                       "test_rows": 40, "val_fraction": 0.2,
                       "standardize": True}
        self.mcfg = model.MixtureConfig(
            input_dim=1, num_tasks=1, num_experts=3, expert_depth=2,
            expert_width=256, gate_hidden=32, head_hidden=32, seed=seed)
        self.cfg = train.MetaTrainConfig(epochs=1, batch_size=256, lr=1e-4,
                                         seed=seed, clip_norm=1.0)

    def setup(self, ph: Phases):
        base = ph("setup", data.ingest_task, *self.paths, "hc500",
                  val_fraction=0.2, seed=self.seed, standardize=True)
        aux = ph("setup", data.build_auxiliary_tasks, base, "all")
        meta = ph("setup", data.build_meta_dataset, [base] + aux)
        return base, meta

    def round(self, ph: Phases) -> dict:
        base, meta = self.setup(ph)
        trained = ph("meta", train.meta_train, meta, self.mcfg, self.cfg)
        blob = ph("checkpoint", model.save_checkpoint, None, trained.model)
        loaded, _ = ph("checkpoint", model.load_checkpoint, blob)
        return {"base": base, "meta": meta, "trained": trained, "blob": blob,
                "loaded": loaded}

    def round_metrics(self, times, out) -> dict:
        steps = out["trained"].rows[-1].step
        return {"meta_rows_per_s": steps * self.cfg.batch_size / times["meta"]}

    def digest(self, out) -> str:
        return checks.params_digest(out["trained"].model)

    def sizes(self, out) -> dict:
        meta = out["meta"]
        return {"tasks": meta.num_tasks, "concepts": meta.num_concepts,
                "train_rows": int(out["base"].n("train")),
                "val_rows": int(out["base"].n("val")),
                "meta_train_instances": int(meta.sizes("train").sum()),
                "params": out["trained"].model.store.num_params(),
                "param_tensors": len(out["trained"].model.store.params),
                "checkpoint_bytes": len(out["blob"])}

    def check(self, out) -> dict:
        res: dict = {}
        meta, trained = out["meta"], out["trained"].model
        X_test = meta.dense_rows(0, None, "test")
        y_test = meta.labels(0, "test")
        logits = trained.predict_logits(X_test, 0)
        _auc_check(res, metrics.roc_auc(logits, y_test), logits, y_test)
        _meta_checks(res, meta, self.cfg, out["trained"], self.mcfg,
                     out["trained"].rows[-1].step)
        _ckpt_roundtrip(res, trained, out["blob"], out["loaded"], X_test, 0)
        return res


class Latent3:
    """Three small tasks with a planted cross-task dependency."""

    name = "latent3-transfer"
    ops_per_round = 12
    setup_ops = 1

    def __init__(self, seed: int, workdir: Path, small: bool):
        self.seed = seed
        self.tasks, self.info = synth.make_latent_tasks(seed)
        epochs = 60 if small else 150
        self.inputs = {"tasks": 3, "train_rows_per_task": 100,
                       "val_rows_per_task": 50, "test_rows_per_task": 2000,
                       "epochs": epochs}
        self.mcfg = model.MixtureConfig(
            input_dim=1, num_tasks=1, num_experts=1, expert_depth=1,
            expert_width=96, gate_hidden=8, head_hidden=8, seed=seed)
        # at lr 2e-3 the planted dependency is learned on every seed tried
        # (0-40, 209, 304); at 5e-3 it was missed on seed 3
        self.cfg = train.MetaTrainConfig(epochs=epochs, batch_size=16,
                                         lr=2e-3, seed=seed)
        self.bcfg = model.BaselineConfig(hidden=(32,), seed=seed)

    def setup(self, ph: Phases):
        return ph("setup", data.build_meta_dataset, self.tasks)

    def round(self, ph: Phases) -> dict:
        meta = self.setup(ph)
        trained = ph("meta", train.meta_train, meta, self.mcfg, self.cfg)
        baselines = [ph("baseline", train.train_baseline, task, self.bcfg,
                        self.cfg) for task in self.tasks]
        reports = [ph("eval", metrics.evaluate_model, trained.model, meta, t,
                      "test") for t in range(meta.num_tasks)]
        base_reports = [
            ph("eval", lambda bl, task: metrics.evaluate_binary(
                bl.model.predict_logits(task.dense("test", masked=True), 0),
                task.labels("test")), bl, task)
            for bl, task in zip(baselines, self.tasks)]
        att = ph("attention", metrics.task_attention, trained.model, meta,
                 "val")
        return {"meta": meta, "trained": trained, "baselines": baselines,
                "reports": reports, "base_reports": base_reports, "att": att}

    def round_metrics(self, times, out) -> dict:
        steps = out["trained"].rows[-1].step
        base_steps = sum(b.rows[-1].step for b in out["baselines"])
        return {
            "meta_rows_per_s": steps * self.cfg.batch_size / times["meta"],
            "baseline_rows_per_s": (base_steps * self.cfg.batch_size
                                    / times["baseline"]),
            "attention_s": times["attention"],
        }

    def digest(self, out) -> str:
        return checks.params_digest(out["trained"].model,
                                    *[b.model for b in out["baselines"]],
                                    out["att"])

    def sizes(self, out) -> dict:
        meta = out["meta"]
        gap = (np.mean([r.auc for r in out["reports"]])
               - np.mean([r.auc for r in out["base_reports"]]))
        return {"tasks": meta.num_tasks, "concepts": meta.num_concepts,
                "meta_train_instances": int(meta.sizes("train").sum()),
                "params": out["trained"].model.store.num_params(),
                "param_tensors": len(out["trained"].model.store.params),
                "transfer_auc_gap": float(gap)}

    def check(self, out) -> dict:
        res: dict = {}
        meta, trained = out["meta"], out["trained"].model
        aucs_ok, details = True, []
        for t, rep in enumerate(out["reports"]):
            X = meta.dense_rows(t, None, "test")
            own = checks.pairwise_auc(trained.predict_logits(X, t),
                                      meta.labels(t, "test"))
            aucs_ok &= abs(rep.auc - own) <= 1e-12
            details.append(f"t{t} {rep.auc!r}/{own!r}")
        _check(res, "auc_matches_pairwise", aucs_ok,
               "roc_auc/pairwise: " + ", ".join(details))
        _meta_checks(res, meta, self.cfg, out["trained"], self.mcfg,
                     out["trained"].rows[-1].step, lowers="train")
        att = out["att"]
        _check(res, "attention_diag_zero", np.all(np.diag(att) == 0.0),
               f"{att.shape[0]}x{att.shape[1]} matrix")
        dep = meta.task_index(self.info["dependent_task"])
        src = meta.task_index(self.info["source_task"])
        others = [att[dep, j] for j in range(att.shape[0])
                  if j not in (dep, src)]
        _check(res, "planted_dependency",
               att[dep, src] > 0.0 and all(att[dep, src] > v for v in others),
               f"score[{dep},{src}] = {att[dep, src]:.4f}; rest of row "
               + ", ".join(f"{v:.4f}" for v in others))
        rng = np.random.default_rng(self.seed)
        sampler = data.BatchSampler(meta.sizes("train"), 64, self.seed)
        tasks, rows = sampler.draw()
        X, y = meta.dense_batch(tasks, rows, "train")
        ok, worst, checked, kinks = checks.gradient_sweep(
            trained, X, tasks, y, rng)

        def loss_fn():
            z, cache = trained.forward_batch(X, tasks)
            losses, dz = numeric.logistic_loss(z, y)
            trained.backward_batch(cache, dz)
            return float(losses.sum()), trained.signature(cache)

        fixed = numeric.finite_diff_check(loss_fn, trained.store, h=1e-4,
                                          max_coords=6,
                                          rng=np.random.default_rng(self.seed))
        _check(res, "gradient_fd", ok,
               f"worst relative error {worst:.2e} over {checked} sampled "
               f"coordinates ({kinks} on kinks at every step); "
               f"finite_diff_check at h=1e-4 alone: {fixed.max_rel_err:.2e} "
               f"at {fixed.worst_param}{list(fixed.worst_index)}")
        blob = model.save_checkpoint(None, trained)
        loaded, _ = model.load_checkpoint(blob)
        _ckpt_roundtrip(res, trained, blob, loaded, X, 0)
        return res


WORKLOADS = {w.name: w for w in (Hypercube124, Hypercube500, Latent3)}
