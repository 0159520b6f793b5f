"""End-to-end command-line workflow on a tiny dataset."""

import configparser
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskmix.cli import ConfigError, RunConfig, load_config, main
from taskmix.config import AdaptConfig, MetaTrainConfig
from taskmix.data import parse_libsvm, serialize_libsvm
from taskmix.synth import make_hypercube_pairs


def _write_dataset(tmp_path, n_train=60, n_test=30, d=8, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=d)

    def block(n):
        X = rng.normal(size=(n, d))
        y = (X @ w + 0.3 * rng.normal(size=n) > 0).astype(float)
        return serialize_libsvm(X, y)

    train = tmp_path / "demo.train"
    test = tmp_path / "demo.test"
    train.write_text(block(n_train))
    test.write_text(block(n_test))
    return train, test


def _write_config(tmp_path, train, test, **meta_overrides):
    meta = {"epochs": 2, "batch_size": 16, "lr": 0.003, "seed": 0}
    meta.update(meta_overrides)
    meta_lines = "\n".join(f"{k} = {v}" for k, v in meta.items())
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"""
[data]
train_path = {train}
test_path = {test}
task_id = demo
val_fraction = 0.2
split_seed = 0

[tasks]
aux_policy = sample:3
aux_seed = 0

[model]
experts = 2
depth = 1
width = 12
gate_hidden = 4
head_hidden = 4
init_seed = 0
baseline_hidden = 8

[meta_train]
{meta_lines}

[adapt]
epochs = 2
batch_size = 16
lrs = 1e-4,1e-3
seed = 0

[eval]
split = test

[output]
dir = {tmp_path / "out"}
""")
    return cfg


# ---------------------------------------------------------- config errors


def test_unknown_section_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[turbo]\nboost = 9\n")
    assert main(["ingest", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err
    assert "turbo" in str(pytest.raises(ConfigError, load_config,
                                        str(cfg)).value)


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[meta_train]\nepocs = 3\n")
    assert main(["ingest", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "epocs" in err


def test_unparseable_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[meta_train]\nepochs = soon\n")
    assert main(["ingest", "--config", str(cfg)]) == 2
    assert "cannot parse" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("epochs = 3\n[meta_train]\nlr = 1\n", "no section headers"),
    ("[meta_train]\nlr = 1\n[meta_train]\nepochs = 2\n",
     "section 'meta_train' already exists"),
    ("[meta_train]\nlr = 1\nlr = 2\n", "option 'lr' in section"),
    ("[data]\ntask_id = 50%off\n", "'%' must be followed"),
    ("[data]\ntask_id = caf\xe9\n", "can't decode byte 0xe9"),
], ids=["key-before-section", "duplicate-section", "duplicate-key",
        "stray-percent", "not-utf8"])
def test_malformed_ini_exits_2(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text, encoding="latin-1")
    assert main(["ingest", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("section, key, value", [
    ("meta_train", "lr", "nan"),
    ("meta_train", "clip_norm", "-inf"),
    ("data", "val_fraction", "nan"),
    ("adapt", "lrs", "inf,nan"),
    ("adapt", "lrs", "1e-4,1e999"),
], ids=["lr-nan", "clip-norm-minus-inf", "val-fraction-nan", "lrs-inf-nan",
        "lrs-overflow"])
def test_non_finite_number_exits_2(tmp_path, capsys, section, key, value):
    train, test = _write_dataset(tmp_path)
    if section == "meta_train":
        cfg = _write_config(tmp_path, train, test, **{key: value})
    else:  # every other key named here is set once, in its section
        cfg = _write_config(tmp_path, train, test)
        text = cfg.read_text()
        old = next(line for line in text.splitlines()
                   if line.startswith(f"{key} = "))
        cfg.write_text(text.replace(old, f"{key} = {value}"))
    assert main(["ingest", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: [{section}] {key}: ")
    assert "is not a finite number" in err
    assert not (tmp_path / "out").exists()


_INI_KEYS = st.sampled_from(["lr", "epochs", "val_fraction", "lrs",
                             "standardize", "aux_policy", "baseline_kind",
                             "split", "task_id", "bogus"])
_INI_VALUES = st.sampled_from(["nan", "-inf", "1e999", "1_0", "\u0661",
                               "3", "0.5", "yes", "%", ""]) | st.text(max_size=8)
_INI_LINES = st.one_of(
    st.sampled_from(["data", "tasks", "model", "meta_train", "adapt", "eval",
                     "output", "DEFAULT", "turbo"]).map(lambda s: f"[{s}]"),
    st.tuples(_INI_KEYS, _INI_VALUES).map(" = ".join),
    st.text(max_size=12))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.binary(max_size=200),
                 st.lists(_INI_LINES, max_size=8).map("\n".join)))
def test_load_config_gives_a_run_config_or_a_config_error(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.ini"
        path.write_bytes(content if isinstance(content, bytes)
                         else content.encode("utf-8", "surrogatepass"))
        try:
            cfg = load_config(str(path))
        except ConfigError:
            return
    assert isinstance(cfg, RunConfig)
    for section in vars(cfg).values():
        for value in vars(section).values():
            assert not isinstance(value, float) or np.isfinite(value)


@pytest.mark.parametrize("kind, message", [
    ("shared_trunk_multitask", "same model as single_task_mlp"),
    ("transformer", "'transformer'"),
], ids=["shared-trunk", "unknown"])
def test_baseline_kind_other_than_mlp_exits_2(tmp_path, capsys, kind,
                                              message):
    train, test = _write_dataset(tmp_path)
    cfg = _write_config(tmp_path, train, test)
    cfg.write_text(cfg.read_text().replace(
        "[model]\n", f"[model]\nbaseline_kind = {kind}\n"))
    assert main(["baseline", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "baseline_kind" in err and message in err
    assert not (tmp_path / "out" / "checkpoint.bin").exists()


@pytest.mark.parametrize("section, lines, message", [
    ("meta_train", {"epochs": -2, "lr": -0.5}, "epochs must be >= 1, got -2"),
    ("meta_train", {"lr": -0.5}, "lr must be finite and >= 0, got -0.5"),
    ("meta_train", {"batch_size": 0}, "batch_size must be >= 1, got 0"),
    ("meta_train", {"patience": -1}, "patience must be >= 0, got -1"),
    ("meta_train", {"clip_norm": -1.0}, "clip_norm must be >= 0, got -1.0"),
    ("adapt", {"epochs": -1, "lrs": "-1e-3"}, "epochs must be >= 1, got -1"),
    ("adapt", {"lrs": "1e-4,-1e-3"}, "lrs must be finite and >= 0, got -0.001"),
    ("adapt", {"lrs": ","}, "lrs is empty"),
], ids=["epochs-and-lr", "lr", "batch-size", "patience", "clip-norm",
        "adapt-epochs-and-lrs", "adapt-lrs", "adapt-lrs-empty"])
@pytest.mark.parametrize("command", ["train-meta", "adapt"])
def test_out_of_range_training_settings_exit_2(tmp_path, capsys, section,
                                               lines, message, command):
    train, test = _write_dataset(tmp_path)
    if section == "meta_train":
        cfg = _write_config(tmp_path, train, test, **lines)
    else:
        cfg = _write_config(tmp_path, train, test)
        cfg.write_text(cfg.read_text().replace(
            "epochs = 2\nbatch_size = 16\nlrs = 1e-4,1e-3\n",
            "".join(f"{k} = {v}\n" for k, v in lines.items())))
    assert main([command, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: [{section}] {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("epochs", ["0", "-2"])
def test_meta_epochs_flag_out_of_range_exits_2(tmp_path, capsys, epochs):
    train, test = _write_dataset(tmp_path)
    cfg = _write_config(tmp_path, train, test)
    assert main(["train-meta", "--config", str(cfg),
                 "--meta-epochs", epochs]) == 2
    assert capsys.readouterr().err == (
        f"config error: --meta-epochs: epochs must be >= 1, got {epochs}\n")
    assert not (tmp_path / "out").exists()


def test_training_configs_check_their_ranges():
    MetaTrainConfig(lr=0.0)  # a no-op rate is allowed
    AdaptConfig(lrs=(0.0, 1e-3))
    for bad in (dict(epochs=0), dict(batch_size=-1), dict(lr=math.nan),
                dict(lr=math.inf), dict(patience=-1),
                dict(clip_norm=math.nan)):
        with pytest.raises(ValueError):
            MetaTrainConfig(**bad)
    for bad in (dict(epochs=0), dict(batch_size=0), dict(lrs=()),
                dict(lrs=(1e-3, math.nan)), dict(lrs=(-1e-3,))):
        with pytest.raises(ValueError):
            AdaptConfig(**bad)


@pytest.mark.parametrize("section, key, value, command", [
    ("meta_train", "epochs", "1_0", "ingest"),
    ("meta_train", "epochs", "\u0661", "ingest"),
    ("meta_train", "lr", "1_0e-3", "ingest"),
    ("tasks", "aux_policy", "sample:1_0", "ingest"),
    ("tasks", "aux_policy", "sample:\u0663", "ingest"),
    ("model", "baseline_hidden", "8,1_6", "baseline"),
    ("model", "baseline_hidden", "\u0668", "baseline"),
    ("model", "baseline_hidden", "8,1_6", "ingest"),
], ids=["epochs-underscore", "epochs-arabic-indic", "lr-underscore",
        "sample-underscore", "sample-arabic-indic", "hidden-underscore",
        "hidden-arabic-indic", "hidden-underscore-ingest"])
def test_numbers_in_config_are_plain_ascii(tmp_path, capsys, section, key,
                                            value, command):
    train, test = _write_dataset(tmp_path)
    cfg = _write_config(tmp_path, train, test)
    text = cfg.read_text()
    old = next(line for line in text.splitlines()
               if line.startswith(f"{key} = "))
    cfg.write_text(text.replace(old, f"{key} = {value}"), encoding="utf-8")
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: [{section}] {key}: cannot parse ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["split", "attention_split"])
@pytest.mark.parametrize("command", ["ingest", "eval", "attention"])
def test_unknown_eval_split_exits_2_before_any_command(tmp_path, capsys, key,
                                                       command):
    train, test = _write_dataset(tmp_path)
    cfg = _write_config(tmp_path, train, test)
    cfg.write_text(cfg.read_text().replace(
        "[eval]\n", f"[eval]\n{key} = bogus\n").replace("split = test\n", ""))
    assert main([command, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == \
        f"config error: [eval] {key} must be train/val/test, not 'bogus'\n"
    assert not (tmp_path / "out").exists()


def test_meta_train_and_adapt_keys_are_the_library_configs(tmp_path):
    """The README's [meta_train] and [adapt] sections name every field of
    MetaTrainConfig and AdaptConfig, and give their defaults."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(
        encoding="utf-8")
    ini = configparser.ConfigParser(inline_comment_prefixes=(";",))
    ini.optionxform = str
    ini.read_string(readme.split("```ini\n", 1)[1].split("```", 1)[0])
    for section, config in (("meta_train", MetaTrainConfig),
                            ("adapt", AdaptConfig)):
        assert set(ini[section]) == {f.name for f in fields(config)}
        path = tmp_path / f"{section}.ini"
        path.write_text(f"[{section}]\n" + "".join(
            f"{key} = {value}\n" for key, value in ini[section].items()))
        assert getattr(load_config(str(path)), section) == config()


def test_cli_and_config_import_no_numpy():
    # main sets the BLAS thread variables before numpy loads
    code = ("import sys, taskmix.cli, taskmix.config\n"
            "assert 'numpy' not in sys.modules, 'numpy loaded'\n")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr


def test_bad_aux_policy_exits_2(tmp_path, capsys):
    train, test = _write_dataset(tmp_path)
    cfg = _write_config(tmp_path, train, test)
    assert main(["ingest", "--config", str(cfg), "--aux", "sometimes"]) == 2
    assert "aux_policy" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["ingest", "--config", str(tmp_path / "nope.ini")]) == 2
    assert "not found" in capsys.readouterr().err


def test_missing_data_file_exits_1(tmp_path, capsys):
    train, test = _write_dataset(tmp_path)
    cfg = _write_config(tmp_path, train, tmp_path / "gone.test")
    with pytest.raises(SystemExit) as exc:
        main(["ingest", "--config", str(cfg)])
    assert exc.value.code == 1
    assert "does not exist" in capsys.readouterr().err


def test_missing_checkpoint_exits_1(tmp_path, capsys):
    train, test = _write_dataset(tmp_path)
    cfg = _write_config(tmp_path, train, test)
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--config", str(cfg),
              "--checkpoint", str(tmp_path / "void.bin")])
    assert exc.value.code == 1
    assert "does not exist" in capsys.readouterr().err


def test_malformed_checkpoint_header_exits_1(tmp_path, capsys):
    train, test = _write_dataset(tmp_path)
    cfg = _write_config(tmp_path, train, test)
    bl = tmp_path / "bl"
    assert main(["baseline", "--config", str(cfg), "--out", str(bl)]) == 0
    capsys.readouterr()
    blob = (bl / "checkpoint.bin").read_bytes()
    hlen = int.from_bytes(blob[8:16], "big")
    header = json.loads(blob[16:16 + hlen])
    header["params"][1]["name"] = header["params"][0]["name"]
    head = json.dumps(header).encode()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(blob[:8] + len(head).to_bytes(8, "big") + head
                    + blob[16 + hlen:])
    assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "e"),
                 "--checkpoint", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "duplicate checkpoint parameter" in err


def test_malformed_data_exits_1(tmp_path, capsys):
    train, test = _write_dataset(tmp_path)
    bad = tmp_path / "bad.train"
    bad.write_text("1 2:1 1:1\n")
    cfg = _write_config(tmp_path, bad, test)
    assert main(["ingest", "--config", str(cfg)]) == 1
    assert "strictly increasing" in capsys.readouterr().err


def test_feature_index_beyond_int64_exits_1(tmp_path, capsys):
    train, test = _write_dataset(tmp_path)
    bad = tmp_path / "bad.train"
    bad.write_text("1 1:1 99999999999999999999999:1\n")
    cfg = _write_config(tmp_path, bad, test)
    assert main(["ingest", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == "error: line 1: feature index 99999999999999999999999 " \
        "> 2^63 - 1\n"


def test_feature_index_too_wide_to_store_exits_1(tmp_path, capsys):
    # 2^63 - 1 is a valid index, but no dense row that wide can be stored
    train, test = _write_dataset(tmp_path)
    bad = tmp_path / "bad.train"
    bad.write_text("1 1:1 9223372036854775807:2.5\n0 2:1\n")
    cfg = _write_config(tmp_path, bad, test)
    assert main(["ingest", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "9223372036854775807 features" in err


def test_non_ascii_data_exits_1_naming_its_line(tmp_path, capsys):
    bad, test = tmp_path / "bad.train", tmp_path / "te"
    bad.write_bytes(b"1 1:1\n1 1:1 2:\xff\n")
    test.write_text("1 1:1\n")
    cfg = _write_config(tmp_path, bad, test)
    assert main(["ingest", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == "error: line 2: bad feature token '2:\ufffd'\n"


def test_feature_names_too_many_to_store_exit_1(tmp_path):
    # index 10^7 in a child process whose address space is capped: the two
    # dense rows fit, ten million feature names do not
    pytest.importorskip("resource")
    limit = 400 << 20
    code = ("import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
            "from taskmix.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    # one BLAS thread: each thread's buffers count against the cap
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    (tmp_path / "te").write_text("1 1:1\n")
    runs = {}
    for name, line in (("narrow", "1 1:1 7:1\n"), ("wide", "1 1:1 10000000:1\n")):
        (tmp_path / name).write_text(line)
        cfg = _write_config(tmp_path, tmp_path / name, tmp_path / "te")
        runs[name] = subprocess.run(
            [sys.executable, "-c", code, "ingest", "--config", str(cfg)],
            capture_output=True, text=True, env=env, timeout=120)
    assert runs["narrow"].returncode == 0, runs["narrow"].stderr
    assert runs["wide"].returncode == 1
    assert runs["wide"].stderr == \
        "error: 2 rows of 10000000 features do not fit in memory\n"


# -------------------------------------------------------------- pipeline


def test_full_pipeline_produces_expected_artifacts(tmp_path, capsys):
    train, test = _write_dataset(tmp_path)
    cfg = _write_config(tmp_path, train, test)
    out = tmp_path / "out"

    assert main(["ingest", "--config", str(cfg)]) == 0
    assert (out / "vocab.txt").exists()
    manifest_1 = (out / "manifest.txt").read_text()
    assert "task demo:" in manifest_1
    assert main(["ingest", "--config", str(cfg)]) == 0
    assert (out / "manifest.txt").read_text() == manifest_1

    bl = tmp_path / "bl"
    assert main(["baseline", "--config", str(cfg), "--out", str(bl)]) == 0
    for name in ("checkpoint.bin", "runlog.csv", "metrics.csv"):
        assert (bl / name).exists()
    lines = (bl / "metrics.csv").read_text().strip().split("\n")
    assert len(lines) == 3  # header + val + test
    assert lines[1].startswith("single_task_mlp,demo,val")

    mt = tmp_path / "mt"
    assert main(["train-meta", "--config", str(cfg), "--out", str(mt)]) == 0
    for name in ("checkpoint.bin", "runlog.csv", "metrics.csv",
                 "manifest.txt", "vocab.txt"):
        assert (mt / name).exists()
    runlog = (mt / "runlog.csv").read_text().strip().split("\n")
    assert runlog[0] == "step,epoch,train_meta_loss,val_meta_loss,wall_time"
    assert len(runlog) == 3  # two epochs

    ad = tmp_path / "ad"
    assert main(["adapt", "--config", str(cfg), "--out", str(ad),
                 "--checkpoint", str(mt / "checkpoint.bin")]) == 0
    assert (ad / "checkpoint.bin").exists()
    metrics = (ad / "metrics.csv").read_text()
    assert "mixture+adapt,demo,val" in metrics
    assert "mixture+adapt,demo,test" in metrics

    ev = tmp_path / "ev"
    assert main(["eval", "--config", str(cfg), "--out", str(ev),
                 "--checkpoint", str(ad / "checkpoint.bin")]) == 0
    assert "mixture on demo/test" in capsys.readouterr().out
    assert (ev / "metrics.csv").read_text().count("\n") == 2

    at = tmp_path / "at"
    assert main(["attention", "--config", str(cfg), "--out", str(at),
                 "--checkpoint", str(mt / "checkpoint.bin")]) == 0
    grid = (at / "attention.csv").read_text().strip().split("\n")
    assert len(grid) == 5  # header + 4 tasks (demo + sample:3 aux)
    assert grid[0].startswith("task,demo,")
    diag = [float(grid[i + 1].split(",")[i + 1]) for i in range(4)]
    assert diag == [0.0, 0.0, 0.0, 0.0]


def test_adapt_writes_every_lr_curve(tmp_path):
    train, test = _write_dataset(tmp_path)
    cfg = _write_config(tmp_path, train, test)
    mt, ad = tmp_path / "mt", tmp_path / "ad"
    assert main(["train-meta", "--config", str(cfg), "--out", str(mt)]) == 0
    assert main(["adapt", "--config", str(cfg), "--out", str(ad),
                 "--checkpoint", str(mt / "checkpoint.bin")]) == 0
    lines = (ad / "lr_curves.csv").read_text().strip().split("\n")
    assert lines[0] == "lr,epoch,val_meta_loss"
    rows = [line.split(",") for line in lines[1:]]
    # [adapt] lrs = 1e-4,1e-3 and epochs = 2: every rate's every epoch
    assert [(float(lr), int(epoch)) for lr, epoch, _ in rows] == \
        [(1e-4, 1), (1e-4, 2), (1e-3, 1), (1e-3, 2)]
    assert all(float(loss) > 0.0 for _, _, loss in rows)


def test_empty_val_split_gives_metrics_of_the_other_splits(tmp_path, capsys):
    train, test = _write_dataset(tmp_path)
    cfg = _write_config(tmp_path, train, test)
    cfg.write_text(cfg.read_text().replace("val_fraction = 0.2",
                                           "val_fraction = 0"))
    bl, mt, ad = tmp_path / "bl", tmp_path / "mt", tmp_path / "ad"
    runs = [(["baseline", "--out", str(bl)], bl, ["test"]),
            (["train-meta", "--out", str(mt)], mt, []),
            (["adapt", "--out", str(ad), "--checkpoint",
              str(mt / "checkpoint.bin")], ad, ["test"])]
    for argv, out, splits in runs:
        assert main(argv + ["--config", str(cfg)]) == 0
        assert "val split of demo is empty: no val metrics" \
            in capsys.readouterr().out
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "model,dataset,split,accuracy,auc,f1,kappa,log_loss,n"
        assert [line.split(",")[2] for line in lines[1:]] == splits


def test_adapt_without_val_rows_says_the_initial_model_was_kept(tmp_path,
                                                                capsys):
    train, test = _write_dataset(tmp_path)
    cfg = _write_config(tmp_path, train, test)
    cfg.write_text(cfg.read_text().replace("val_fraction = 0.2",
                                           "val_fraction = 0"))
    mt, ad = tmp_path / "mt", tmp_path / "ad"
    assert main(["train-meta", "--config", str(cfg), "--out", str(mt)]) == 0
    capsys.readouterr()
    assert main(["adapt", "--config", str(cfg), "--out", str(ad),
                 "--checkpoint", str(mt / "checkpoint.bin")]) == 0
    out = capsys.readouterr().out
    assert "adapted demo: no validation rows, initial model kept" in out
    assert "val meta-loss" not in out


def test_attention_on_an_empty_split_exits_1_naming_it(tmp_path, capsys):
    train, test = _write_dataset(tmp_path)
    cfg = _write_config(tmp_path, train, test)
    cfg.write_text(cfg.read_text().replace("val_fraction = 0.2",
                                           "val_fraction = 0"))
    mt, at = tmp_path / "mt", tmp_path / "at"
    assert main(["train-meta", "--config", str(cfg), "--out", str(mt)]) == 0
    capsys.readouterr()
    assert main(["attention", "--config", str(cfg), "--out", str(at),
                 "--checkpoint", str(mt / "checkpoint.bin")]) == 1
    assert "error: attention split 'val' has no rows to score" \
        in capsys.readouterr().err
    assert not (at / "attention.csv").exists()


def test_parsed_config_reaches_the_library_unchanged(tmp_path, monkeypatch):
    import taskmix.train
    train, test = _write_dataset(tmp_path)
    cfg = _write_config(tmp_path, train, test, patience=3, clip_norm=2.5)
    parsed = load_config(str(cfg))
    seen = []
    for name in ("meta_train", "online_adapt", "train_baseline"):
        real = getattr(taskmix.train, name)
        monkeypatch.setattr(taskmix.train, name,
                            lambda *a, real=real: seen.append(a[-1]) or real(*a))
    for command in ("train-meta", "adapt", "baseline"):
        assert main([command, "--config", str(cfg)]) == 0
    assert seen == [parsed.meta_train, parsed.adapt, parsed.meta_train]
    assert parsed.meta_train == MetaTrainConfig(
        epochs=2, batch_size=16, lr=0.003, seed=0, patience=3, clip_norm=2.5)
    assert parsed.adapt == AdaptConfig(epochs=2, batch_size=16,
                                       lrs=(1e-4, 1e-3), seed=0)
    assert parsed.model.baseline_hidden == (8,)


def test_bare_checkpoint_names_resolve_in_output_dir(tmp_path, capsys):
    """A plain --config pipeline sharing one output dir needs no --checkpoint:
    the bare default resolves where train-meta wrote it, not in the cwd."""
    train, test = _write_dataset(tmp_path)
    cfg = _write_config(tmp_path, train, test)
    assert main(["ingest", "--config", str(cfg)]) == 0
    assert main(["train-meta", "--config", str(cfg)]) == 0
    assert main(["eval", "--config", str(cfg)]) == 0
    assert "mixture on demo/test" in capsys.readouterr().out
    assert main(["adapt", "--config", str(cfg)]) == 0
    assert main(["attention", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "attention.csv").exists()


def test_rerun_is_idempotent_except_wall_time(tmp_path):
    train, test = _write_dataset(tmp_path)
    cfg = _write_config(tmp_path, train, test)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["train-meta", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["train-meta", "--config", str(cfg), "--out", str(b)]) == 0
    assert (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()
    assert (a / "metrics.csv").read_text() == (b / "metrics.csv").read_text()
    assert (a / "manifest.txt").read_text() == (b / "manifest.txt").read_text()
    ra = [l.split(",")[:4] for l in (a / "runlog.csv").read_text().splitlines()]
    rb = [l.split(",")[:4] for l in (b / "runlog.csv").read_text().splitlines()]
    assert ra == rb


def test_eval_rejects_checkpoint_without_matching_head(tmp_path, capsys):
    train, test = _write_dataset(tmp_path)
    cfg = _write_config(tmp_path, train, test)
    mt = tmp_path / "mt"
    assert main(["train-meta", "--config", str(cfg), "--out", str(mt)]) == 0
    other = _write_config(tmp_path, train, test)
    text = other.read_text().replace("task_id = demo", "task_id = stranger")
    other.write_text(text)
    assert main(["eval", "--config", str(other), "--out", str(tmp_path / "x"),
                 "--checkpoint", str(mt / "checkpoint.bin")]) == 1
    assert "no head" in capsys.readouterr().err


def test_eval_works_on_baseline_checkpoints(tmp_path, capsys):
    train, test = _write_dataset(tmp_path)
    cfg = _write_config(tmp_path, train, test)
    bl = tmp_path / "bl"
    assert main(["baseline", "--config", str(cfg), "--out", str(bl)]) == 0
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "e"),
                 "--checkpoint", str(bl / "checkpoint.bin")]) == 0
    assert "baseline on demo/test" in capsys.readouterr().out
    # the same numbers as the test row `taskmix baseline` wrote
    wrote = (bl / "metrics.csv").read_text().splitlines()
    got = (tmp_path / "e" / "metrics.csv").read_text().splitlines()
    assert got[0] == wrote[0] and len(got) == 2
    model, dataset, split, *fields = got[1].split(",")
    assert (model, dataset, split) == ("baseline", "demo", "test")
    assert wrote[2].split(",")[1:] == [dataset, split, *fields]


def test_attention_rejects_baseline_checkpoint(tmp_path, capsys):
    train, test = _write_dataset(tmp_path)
    cfg = _write_config(tmp_path, train, test)
    bl = tmp_path / "bl"
    assert main(["baseline", "--config", str(cfg), "--out", str(bl)]) == 0
    capsys.readouterr()
    assert main(["attention", "--config", str(cfg), "--out", str(tmp_path / "a"),
                 "--checkpoint", str(bl / "checkpoint.bin")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "mixture" in err


# -------------------------------------------------------------- gradcheck


def test_gradcheck_passes_at_default_tolerance(capsys):
    assert main(["gradcheck"]) == 0
    assert "OK: within tolerance" in capsys.readouterr().out


def test_gradcheck_fails_at_absurd_tolerance(capsys):
    assert main(["gradcheck", "--tol", "1e-12"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("flag, value", [
    ("--h", "0"), ("--h", "-1e-5"), ("--h", "nan"), ("--h", "inf"),
    ("--tol", "nan"), ("--tol", "0"), ("--tol", "inf")])
def test_gradcheck_rejects_degenerate_flags(capsys, flag, value):
    assert main(["gradcheck", f"{flag}={value}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"config error: {flag} must be finite and > 0, "
                   f"got {float(value)!r}\n")


# ------------------------------------------------------------------ synth


def test_synth_api_is_deterministic_and_balanced():
    train, test = make_hypercube_pairs(3, n_train=80, n_test=40,
                                       n_features=10, n_informative=3,
                                       n_redundant=2)
    train2, _ = make_hypercube_pairs(3, n_train=80, n_test=40,
                                     n_features=10, n_informative=3,
                                     n_redundant=2)
    assert train == train2
    labels, _, _, _, width = parse_libsvm(train)
    assert len(labels) == 80 and width == 10
    assert 0.2 < labels.mean() < 0.8
    with pytest.raises(ValueError):
        make_hypercube_pairs(0, n_features=4, n_informative=3, n_redundant=3)


def test_synth_command_writes_parseable_files(tmp_path, capsys):
    out = tmp_path / "synth"
    assert main(["synth", "--out", str(out)]) == 0
    labels, _, _, _, width = parse_libsvm((out / "synth.train").read_text())
    assert width == 500 and len(labels) == 2000
    assert main(["synth", "--kind", "moebius", "--out", str(out)]) == 2
    assert "unknown synth kind" in capsys.readouterr().err
