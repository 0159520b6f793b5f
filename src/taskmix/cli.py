"""Command-line interface.

Subcommands cover the full workflow on one supervised LIBSVM dataset:

    ingest      parse/split/align, write vocab.txt and manifest.txt
    baseline    train a plain supervised model, write checkpoint + metrics
    train-meta  build auxiliary tasks, jointly meta-train, write artifacts
    adapt       low-lr fine-tune one task from a checkpoint
    eval        score a checkpoint on a split
    attention   write the cross-task dependency matrix
    gradcheck   finite-difference audit of the mixture gradients
    synth       generate an offline demo dataset in LIBSVM format

Every run is configured by an INI file (all keys optional, unknown keys are
errors) plus a few overriding flags. Outputs use fixed names inside --out:
manifest.txt, checkpoint.bin, runlog.csv, metrics.csv, attention.csv.
Re-running a command with the same config and seed rewrites identical bytes,
except for wall-time fields in the run log.

Set TASKMIX_THREADS to pin BLAS thread counts before numpy loads.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass, field, fields as dc_fields, replace
from pathlib import Path

from .config import AdaptConfig, MetaTrainConfig

__all__ = ["main", "ConfigError", "load_config", "RunConfig"]


class ConfigError(ValueError):
    """Bad configuration: unknown key/section or unparseable value."""


@dataclass
class DataConfig:
    train_path: str = ""
    test_path: str = ""
    task_id: str = "task0"
    val_fraction: float = 0.1
    split_seed: int = 0
    standardize: bool = False


@dataclass
class TasksConfig:
    aux_policy: str = "all"   # "all" or "sample:K"
    aux_seed: int = 0
    min_support: int = 1


@dataclass
class ModelConfig:
    experts: int = 3
    depth: int = 3
    width: int = 128
    gate_hidden: int = 32
    head_hidden: int = 32
    init_seed: int = 0
    baseline_kind: str = "single_task_mlp"
    baseline_hidden: tuple = (64,)


@dataclass
class EvalSection:
    split: str = "test"
    attention_split: str = "val"


@dataclass
class OutputSection:
    dir: str = "."


@dataclass
class RunConfig:
    data: DataConfig = field(default_factory=DataConfig)
    tasks: TasksConfig = field(default_factory=TasksConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    meta_train: MetaTrainConfig = field(default_factory=MetaTrainConfig)
    adapt: AdaptConfig = field(default_factory=AdaptConfig)
    eval: EvalSection = field(default_factory=EvalSection)
    output: OutputSection = field(default_factory=OutputSection)

    def apply_overrides(self, args) -> None:
        if getattr(args, "seed", None) is not None:
            self.data.split_seed = args.seed
            self.tasks.aux_seed = args.seed
            self.meta_train = replace(self.meta_train, seed=args.seed)
            self.adapt = replace(self.adapt, seed=args.seed)
            self.model.init_seed = args.seed
        if getattr(args, "meta_epochs", None) is not None:
            try:
                self.meta_train = replace(self.meta_train,
                                          epochs=args.meta_epochs)
            except ValueError as exc:
                raise ConfigError(f"--meta-epochs: {exc}") from None
        if getattr(args, "aux", None) is not None:
            self.tasks.aux_policy = args.aux
            self.aux_policy()  # checked as the config file's value is
        if getattr(args, "out", None) is not None:
            self.output.dir = args.out

    def aux_policy(self) -> tuple[str, int]:
        raw = self.tasks.aux_policy
        if raw == "all":
            return "all", 0
        if raw.startswith("sample:"):
            k = _convert("tasks", "aux_policy", raw.split(":", 1)[1], 0)
            if k < 0:
                raise ConfigError("[tasks] aux_policy: sample count must be >= 0")
            return "sample", k
        raise ConfigError(
            f"[tasks] aux_policy must be 'all' or 'sample:K', got {raw!r}")


_BOOL = {"1": True, "true": True, "yes": True, "on": True,
         "0": False, "false": False, "no": False, "off": False}


def _convert(section: str, key: str, raw: str, like):
    """``raw`` parsed as the type of the value ``like``; a tuple is a comma
    list of its first item's type, empty items skipped."""
    if isinstance(like, tuple):
        return tuple(_convert(section, key, tok, like[0])
                     for tok in raw.split(",") if tok)
    target_type = type(like)
    try:
        if target_type is bool:
            flag = _BOOL.get(raw.strip().lower())
            if flag is None:
                raise ValueError
            return flag
        if target_type in (int, float) and not (raw.isascii()
                                                and "_" not in raw):
            raise ValueError  # int() and float() take '1_0' and '\u0661'
        value = target_type(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: cannot parse {raw!r} as "
            f"{target_type.__name__}") from None
    if target_type is float and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: {raw!r} is not a finite number")
    return value


def load_config(path: str | None) -> RunConfig:
    """Read an INI run config; every key has a default, unknown keys fail."""
    cfg = RunConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive, as documented
    try:
        read = parser.read(path, encoding="utf-8")
        sections = {s: parser.items(s) for s in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        # a key before any [section], a repeated section or key, a stray
        # '%', bytes that are not UTF-8
        raise ConfigError(f"cannot parse {path}: "
                          + " ".join(str(exc).split())) from None
    if not read:
        raise ConfigError(f"config file not found: {path}")
    known = {f.name for f in dc_fields(cfg)}
    for section, items in sections.items():
        if section not in known:
            raise ConfigError(f"unknown config section [{section}]")
        target = getattr(cfg, section)
        defaults = {f.name: getattr(target, f.name) for f in dc_fields(target)}
        values = {}
        for key, raw in items:
            if key not in defaults:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values[key] = _convert(section, key, raw, defaults[key])
        try:  # the training configs check their ranges
            setattr(cfg, section, replace(target, **values))
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}") from None
    cfg.aux_policy()
    for key in ("split", "attention_split"):
        split = getattr(cfg.eval, key)
        if split not in ("train", "val", "test"):
            raise ConfigError(
                f"[eval] {key} must be train/val/test, not {split!r}")
    kind = cfg.model.baseline_kind
    if kind != "single_task_mlp":
        why = " (it was the same model as single_task_mlp)" \
            if kind == "shared_trunk_multitask" else ""
        raise ConfigError(f"[model] baseline_kind must be 'single_task_mlp', "
                          f"not {kind!r}{why}")
    return cfg


def _require(path: str, what: str) -> str:
    if not path:
        raise ConfigError(f"{what} not set in config")
    if not Path(path).exists():
        print(f"error: {what} {path!r} does not exist", file=sys.stderr)
        raise SystemExit(1)
    return path


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.output.dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolve_checkpoint(cfg: RunConfig, path: str) -> str:
    # bare artifact names live in [output] dir; explicit paths win
    if "/" not in path:
        return str(Path(cfg.output.dir) / path)
    return path


def _ingest(cfg: RunConfig):
    from .data import ingest_task
    train = _require(cfg.data.train_path, "[data] train_path")
    test = _require(cfg.data.test_path, "[data] test_path")
    return ingest_task(train, test, cfg.data.task_id,
                       val_fraction=cfg.data.val_fraction,
                       seed=cfg.data.split_seed,
                       min_support=cfg.tasks.min_support,
                       standardize=cfg.data.standardize)


def _build_meta(cfg: RunConfig, base):
    from .data import build_auxiliary_tasks, build_meta_dataset
    policy, k = cfg.aux_policy()
    aux = build_auxiliary_tasks(base, policy, sample_k=k,
                                seed=cfg.tasks.aux_seed,
                                min_support=cfg.tasks.min_support)
    return build_meta_dataset([base] + aux)


def _mixture_config(cfg: RunConfig, input_dim: int, num_tasks: int):
    from .model import MixtureConfig
    return MixtureConfig(input_dim=input_dim, num_tasks=num_tasks,
                         num_experts=cfg.model.experts,
                         expert_depth=cfg.model.depth,
                         expert_width=cfg.model.width,
                         gate_hidden=cfg.model.gate_hidden,
                         head_hidden=cfg.model.head_hidden,
                         seed=cfg.model.init_seed)


def _write_metrics(out: Path, name: str, model, base, splits,
                   meta=None) -> list:
    """Write metrics.csv with a row per split of ``base`` that has rows and
    name each empty split on stdout; returns the rows. A mixture is scored
    at the task's head on ``meta``, whose task 0 is ``base`` (by default
    ``base`` alone); a baseline on its masked task-vocabulary inputs."""
    from .data import build_meta_dataset
    from .metrics import evaluate_binary, evaluate_model, metrics_csv
    task_id = base.schema.task_id
    if hasattr(model, "task_ids") and meta is None:
        meta = build_meta_dataset([base])
    rows = []
    for split in splits:
        if base.n(split) == 0:
            print(f"{split} split of {task_id} is empty: no {split} metrics")
            continue
        if meta is not None:
            report = evaluate_model(model, meta, 0, split,
                                    head=model.task_ids.index(task_id))
        else:
            report = evaluate_binary(model.predict_logits(
                base.dense(split, masked=True), 0), base.labels(split))
        rows.append((name, task_id, split, report))
    metrics_csv(out / "metrics.csv", rows)
    return rows


def cmd_ingest(cfg: RunConfig) -> int:
    from .data import build_meta_dataset, write_manifest
    base = _ingest(cfg)
    meta = build_meta_dataset([base])
    out = _out_dir(cfg)
    (out / "vocab.txt").write_text(meta.meta_vocab.to_lines())
    write_manifest(out / "manifest.txt", meta)
    print(f"ingested {cfg.data.task_id}: "
          f"{len(base.schema.task_vocab)} features, "
          f"{base.n('train')}/{base.n('val')}/{base.n('test')} train/val/test")
    print(f"wrote {out / 'vocab.txt'} and {out / 'manifest.txt'}")
    return 0


def cmd_train_meta(cfg: RunConfig) -> int:
    from .data import write_manifest
    from .model import save_checkpoint
    from .train import meta_train, write_runlog
    base = _ingest(cfg)
    meta = _build_meta(cfg, base)
    mcfg = _mixture_config(cfg, meta.num_concepts, meta.num_tasks)
    result = meta_train(meta, mcfg, cfg.meta_train)
    out = _out_dir(cfg)
    (out / "vocab.txt").write_text(meta.meta_vocab.to_lines())
    write_manifest(out / "manifest.txt", meta)
    save_checkpoint(out / "checkpoint.bin", result.model,
                    extra={"command": "train-meta",
                           "task_id": cfg.data.task_id,
                           "num_tasks": meta.num_tasks})
    write_runlog(out / "runlog.csv", result.rows)
    rows = _write_metrics(out, "mixture", result.model, base, ("val",), meta)
    line = (f"meta-trained {meta.num_tasks} tasks over "
            f"{meta.num_concepts} concepts")
    for _, _, split, report in rows:
        line += (f"; {split} accuracy={report.accuracy:.4f} "
                 f"auc={report.auc:.4f}")
    print(line)
    print(f"wrote checkpoint.bin, runlog.csv, metrics.csv, manifest.txt in {out}")
    return 0


def cmd_adapt(cfg: RunConfig, checkpoint: str) -> int:
    from .model import load_checkpoint, save_checkpoint
    from .train import online_adapt, write_runlog
    model, _ = load_checkpoint(
        _require(_resolve_checkpoint(cfg, checkpoint), "--checkpoint"))
    base = _ingest(cfg)
    result = online_adapt(model, base, cfg.adapt)
    out = _out_dir(cfg)
    save_checkpoint(out / "checkpoint.bin", result.model,
                    extra={"command": "adapt", "task_id": cfg.data.task_id,
                           "adapt_lr": result.lr})
    write_runlog(out / "runlog.csv", result.rows)
    curves = [f"{lr!r},{epoch},{v!r}" for lr, vals in result.lr_curves.items()
              for epoch, v in enumerate(vals, 1)]
    (out / "lr_curves.csv").write_text(
        "\n".join(["lr,epoch,val_meta_loss"] + curves) + "\n")
    _write_metrics(out, "mixture+adapt", result.model, base, ("val", "test"))
    if base.n("val") == 0:
        outcome = "no validation rows, initial model kept"
    else:
        chosen = result.lr if result.lr else "none (initial model kept)"
        outcome = f"lr={chosen}, val meta-loss={result.best_val:.6f}"
    print(f"adapted {base.schema.task_id}: {outcome}")
    print(f"wrote checkpoint.bin, runlog.csv, lr_curves.csv, metrics.csv "
          f"in {out}")
    return 0


def cmd_eval(cfg: RunConfig, checkpoint: str) -> int:
    from .model import load_checkpoint
    model, _ = load_checkpoint(
        _require(_resolve_checkpoint(cfg, checkpoint), "--checkpoint"))
    base = _ingest(cfg)
    mixture = hasattr(model, "task_ids")
    if mixture and base.schema.task_id not in model.task_ids:
        print(f"error: checkpoint has no head for {base.schema.task_id!r}",
              file=sys.stderr)
        return 1
    name = "mixture" if mixture else "baseline"
    out = _out_dir(cfg)
    for _, _, split, report in _write_metrics(out, name, model, base,
                                              (cfg.eval.split,)):
        print(f"{name} on {cfg.data.task_id}/{split}: "
              f"accuracy={report.accuracy:.4f} auc={report.auc:.4f} "
              f"f1={report.f1:.4f} kappa={report.kappa:.4f} "
              f"log_loss={report.log_loss:.4f} n={report.n}")
    print(f"wrote metrics.csv in {out}")
    return 0


def cmd_attention(cfg: RunConfig, checkpoint: str) -> int:
    from .metrics import attention_csv, task_attention
    from .model import Mixture, load_checkpoint
    model, _ = load_checkpoint(
        _require(_resolve_checkpoint(cfg, checkpoint), "--checkpoint"))
    if not isinstance(model, Mixture):
        print("error: attention needs a mixture checkpoint, not a baseline",
              file=sys.stderr)
        return 1
    base = _ingest(cfg)
    meta = _build_meta(cfg, base)
    if model.vocab_fingerprint is not None \
            and model.vocab_fingerprint != meta.meta_vocab.fingerprint():
        print("error: checkpoint vocabulary does not match this config's "
              "meta-dataset", file=sys.stderr)
        return 1
    if model.num_tasks != meta.num_tasks:
        print(f"error: checkpoint has {model.num_tasks} heads but the config "
              f"builds {meta.num_tasks} tasks", file=sys.stderr)
        return 1
    split = cfg.eval.attention_split
    if not meta.sizes(split).any():
        print(f"error: attention split {split!r} has no rows to score",
              file=sys.stderr)
        return 1
    matrix = task_attention(model, meta, split)
    out = _out_dir(cfg)
    attention_csv(out / "attention.csv", matrix,
                  [t.schema.task_id for t in meta.tasks])
    print(f"wrote attention.csv ({meta.num_tasks}x{meta.num_tasks}) in {out}")
    return 0


def cmd_baseline(cfg: RunConfig) -> int:
    from .model import BaselineConfig, save_checkpoint
    from .train import train_baseline, write_runlog
    base = _ingest(cfg)
    kind = cfg.model.baseline_kind
    bcfg = BaselineConfig(hidden=cfg.model.baseline_hidden,
                          seed=cfg.model.init_seed)
    result = train_baseline(base, bcfg, cfg.meta_train)
    out = _out_dir(cfg)
    save_checkpoint(out / "checkpoint.bin", result.model,
                    extra={"command": "baseline",
                           "task_id": cfg.data.task_id,
                           "kind": kind})
    write_runlog(out / "runlog.csv", result.rows)
    rows = _write_metrics(out, kind, result.model, base, ("val", "test"))
    for _, _, split, report in rows[-1:]:  # test, or val if test is empty
        print(f"baseline {kind} on {cfg.data.task_id}: "
              f"{split} accuracy={report.accuracy:.4f} "
              f"auc={report.auc:.4f}")
    print(f"wrote checkpoint.bin, runlog.csv, metrics.csv in {out}")
    return 0


def cmd_gradcheck(tol: float, h: float) -> int:
    for flag, value in (("--tol", tol), ("--h", h)):
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{flag} must be finite and > 0, got {value!r}")
    import numpy as np
    from .model import Mixture, MixtureConfig
    from .numeric import finite_diff_check, logistic_loss
    cfg = MixtureConfig(input_dim=6, num_tasks=2, num_experts=2,
                        expert_depth=2, expert_width=8, gate_hidden=4,
                        head_hidden=4, seed=7)
    model = Mixture.standard(cfg)
    rng = np.random.default_rng(11)
    X = rng.normal(size=(12, cfg.input_dim))
    tasks = rng.integers(0, cfg.num_tasks, size=12)
    y = rng.integers(0, 2, size=12).astype(np.float64)

    def loss_fn():
        logits, cache = model.forward_batch(X, tasks)
        losses, dlogits = logistic_loss(logits, y)
        model.backward_batch(cache, dlogits)
        return float(losses.sum()), model.signature(cache)

    report = finite_diff_check(loss_fn, model.store, h=h)
    print(report)
    if not report.max_rel_err <= tol:  # a NaN error fails
        print(f"FAIL: {report.max_rel_err:.3e} > tolerance {tol:.1e}")
        return 1
    print(f"OK: within tolerance {tol:.1e}")
    return 0


def cmd_synth(cfg: RunConfig, kind: str, seed: int) -> int:
    from .synth import make_hypercube_pairs
    if kind != "hypercube":
        raise ConfigError(f"unknown synth kind {kind!r}")
    train_text, test_text = make_hypercube_pairs(seed)
    out = _out_dir(cfg)
    (out / "synth.train").write_text(train_text)
    (out / "synth.test").write_text(test_text)
    print(f"wrote {out / 'synth.train'} and {out / 'synth.test'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="taskmix",
                                description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, checkpoint=False):
        sp.add_argument("--config", help="INI run configuration")
        sp.add_argument("--seed", type=int,
                        help="override every seed in the config")
        sp.add_argument("--meta-epochs", type=int, dest="meta_epochs",
                        help="override [meta_train] epochs")
        sp.add_argument("--aux", help="override [tasks] aux_policy "
                                      "(all or sample:K)")
        sp.add_argument("--out", help="output directory")
        if checkpoint:
            sp.add_argument("--checkpoint", default="checkpoint.bin",
                            help="model checkpoint to load (bare names "
                                 "resolve in [output] dir)")

    common(sub.add_parser("ingest", help="parse and align a dataset"))
    common(sub.add_parser("train-meta", help="meta-train with auxiliary tasks"))
    common(sub.add_parser("adapt", help="online-adapt one task"), checkpoint=True)
    common(sub.add_parser("eval", help="score a checkpoint"), checkpoint=True)
    common(sub.add_parser("attention", help="cross-task dependency matrix"),
           checkpoint=True)
    common(sub.add_parser("baseline", help="train a supervised baseline"))
    g = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    g.add_argument("--tol", type=float, default=1e-4)
    g.add_argument("--h", type=float, default=1e-5)
    s = sub.add_parser("synth", help="generate an offline demo dataset")
    common(s)
    s.add_argument("--kind", default="hypercube")
    return p


def main(argv=None) -> int:
    threads = os.environ.get("TASKMIX_THREADS")
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ.setdefault(var, threads)
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gradcheck":
            return cmd_gradcheck(args.tol, args.h)
        cfg = load_config(args.config)
        cfg.apply_overrides(args)
        if args.command == "ingest":
            return cmd_ingest(cfg)
        if args.command == "train-meta":
            return cmd_train_meta(cfg)
        if args.command == "adapt":
            return cmd_adapt(cfg, args.checkpoint)
        if args.command == "eval":
            return cmd_eval(cfg, args.checkpoint)
        if args.command == "attention":
            return cmd_attention(cfg, args.checkpoint)
        if args.command == "baseline":
            return cmd_baseline(cfg)
        if args.command == "synth":
            seed = args.seed if args.seed is not None else 0
            return cmd_synth(cfg, args.kind, seed)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
