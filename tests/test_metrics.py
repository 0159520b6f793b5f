"""Metrics: ranking AUC, confusion-derived scores, composites, attention."""

import math

import numpy as np
import pytest
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from taskmix import metrics

from taskmix.concepts import LABEL_PREFIX, TaskSchema, Vocabulary, align_vocabularies
from taskmix.data import TaskDataset, build_meta_dataset
from taskmix.metrics import (
    LOG_LOSS_EPS,
    WRONG_PREDICTION_COST,
    MetricsReport,
    UndefinedMetricError,
    accuracy_score,
    attention_csv,
    cohen_kappa,
    confusion_at,
    evaluate_binary,
    evaluate_model,
    f1_score,
    hard_log_loss,
    metrics_csv,
    overall_score,
    roc_auc,
    task_attention,
)
from taskmix.model import FeedForwardNet, Mixture, MixtureConfig, embed_learners
from taskmix.numeric import ParamStore, logistic_loss, sigmoid, squared_loss

# ------------------------------------------------------------------ AUC


def _auc_oracle(scores, labels):
    """O(n^2) pair count: wins 1, ties 0.5, normalized by pos*neg pairs."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos = s[y == 1.0]
    neg = s[y != 1.0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (pos.size * neg.size)


def test_roc_auc_known_small_case():
    assert roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75


def test_roc_auc_extremes_and_pure_ties():
    y = np.array([0.0, 0.0, 1.0, 1.0])
    assert roc_auc([1, 2, 3, 4], y) == 1.0
    assert roc_auc([4, 3, 2, 1], y) == 0.0
    assert roc_auc([7, 7, 7, 7], y) == 0.5


def test_roc_auc_matches_pair_count_oracle_with_ties():
    rng = np.random.default_rng(0)
    for trial in range(25):
        n = int(rng.integers(2, 40))
        # quantized scores force tie groups
        s = np.round(rng.normal(size=n), 1)
        y = rng.integers(0, 2, size=n).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        assert abs(roc_auc(s, y) - _auc_oracle(s, y)) <= 1e-12


def test_roc_auc_ignores_monotone_transforms():
    rng = np.random.default_rng(1)
    s = rng.normal(size=50)
    y = rng.integers(0, 2, size=50).astype(float)
    y[0], y[1] = 0.0, 1.0
    a = roc_auc(s, y)
    assert roc_auc(sigmoid(s), y) == pytest.approx(a, abs=1e-12)
    assert roc_auc(3.0 * s + 11.0, y) == pytest.approx(a, abs=1e-12)


def test_roc_auc_raises_on_degenerate_input():
    with pytest.raises(UndefinedMetricError):
        roc_auc([0.1, 0.2], [1.0, 1.0])
    with pytest.raises(UndefinedMetricError):
        roc_auc([0.1, 0.2], [0.0, 0.0])
    with pytest.raises(ValueError):
        roc_auc([0.1, 0.2], [1.0])
    with pytest.raises(ValueError):
        roc_auc(np.zeros((2, 2)), np.zeros((2, 2)))


@settings(deadline=None, max_examples=60)
@given(st.lists(st.tuples(st.integers(-5, 5), st.booleans()),
                min_size=2, max_size=25)
       .filter(lambda rows: len({y for _, y in rows}) == 2))
def test_roc_auc_equals_oracle_on_integer_scores(rows):
    s = np.array([float(v) for v, _ in rows])
    y = np.array([1.0 if b else 0.0 for _, b in rows])
    assert abs(roc_auc(s, y) - _auc_oracle(s, y)) <= 1e-12


# ---------------------------------------------------- confusion and kin


def test_confusion_counts_a_hand_case():
    probs = np.array([0.9, 0.8, 0.3, 0.6, 0.4])
    labels = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    tp, fp, tn, fn = confusion_at(probs, labels)
    assert (tp, fp, tn, fn) == (2, 1, 1, 1)
    assert accuracy_score(tp, fp, tn, fn) == pytest.approx(0.6)
    assert f1_score(tp, fp, tn, fn) == pytest.approx(2 / 3)
    # po = 0.6, pe = (3*3 + 2*2)/25 = 0.52 -> (0.6 - 0.52)/0.48
    assert cohen_kappa(tp, fp, tn, fn) == pytest.approx(1 / 6)


def test_threshold_is_inclusive_on_the_positive_side():
    tp, fp, tn, fn = confusion_at(np.array([0.5]), np.array([1.0]))
    assert (tp, fp, tn, fn) == (1, 0, 0, 0)
    tp, fp, tn, fn = confusion_at(np.array([0.5 - 1e-12]), np.array([1.0]))
    assert (tp, fp, tn, fn) == (0, 0, 0, 1)


def test_f1_and_kappa_degenerate_conventions():
    assert f1_score(0, 0, 10, 0) == 0.0          # nothing positive anywhere
    assert cohen_kappa(5, 0, 0, 0) == 0.0        # pe == 1 by convention
    assert cohen_kappa(0, 0, 7, 0) == 0.0
    with pytest.raises(UndefinedMetricError):
        accuracy_score(0, 0, 0, 0)
    with pytest.raises(UndefinedMetricError):
        cohen_kappa(0, 0, 0, 0)
    with pytest.raises(ValueError):
        confusion_at(np.zeros(3), np.zeros(4))


def _kappa_oracle(tp, fp, tn, fn):
    n = tp + fp + tn + fn
    po = (tp + tn) / n
    pe = ((tp + fp) / n) * ((tp + fn) / n) + ((fn + tn) / n) * ((fp + tn) / n)
    return (po - pe) / (1 - pe)


@settings(deadline=None, max_examples=60)
@given(st.tuples(st.integers(0, 30), st.integers(0, 30),
                 st.integers(0, 30), st.integers(0, 30))
       .filter(lambda c: sum(c) > 0))
def test_kappa_matches_marginal_product_oracle(counts):
    tp, fp, tn, fn = counts
    n = sum(counts)
    pe = ((tp + fp) * (tp + fn) + (fn + tn) * (fp + tn)) / (n * n)
    if pe == 1.0:
        assert cohen_kappa(tp, fp, tn, fn) == 0.0
    else:
        assert cohen_kappa(tp, fp, tn, fn) == pytest.approx(
            _kappa_oracle(tp, fp, tn, fn), abs=1e-12)


# ------------------------------------------------------------- log loss


def test_hard_log_loss_closed_form_and_constant():
    assert WRONG_PREDICTION_COST == pytest.approx(34.538776394910684, abs=0)
    assert hard_log_loss(1.0) == 0.0
    assert hard_log_loss(0.0) == pytest.approx(WRONG_PREDICTION_COST)
    for acc in (0.25, 0.5, 0.8227, 0.8417, 0.97):
        assert hard_log_loss(acc) == pytest.approx(
            (1.0 - acc) * WRONG_PREDICTION_COST, abs=0)


def test_hard_log_loss_equals_elementwise_definition():
    rng = np.random.default_rng(2)
    y = rng.integers(0, 2, size=200).astype(float)
    pred = rng.integers(0, 2, size=200).astype(float)
    acc = float((pred == y).mean())
    # per instance: clip the hard prediction to [eps, 1-eps], then
    # -[y ln p + (1-y) ln(1-p)]. 1-(1-eps) cancels catastrophically in
    # floats, so each branch is evaluated in its stable form.
    per = np.where(pred == y, -np.log1p(-LOG_LOSS_EPS), -np.log(LOG_LOSS_EPS))
    assert hard_log_loss(acc) == pytest.approx(float(per.mean()), abs=1e-9)


def test_hard_log_loss_reproduces_published_style_pairs():
    assert hard_log_loss(0.8227) == pytest.approx(6.1224, abs=0.01)
    assert hard_log_loss(0.8417) == pytest.approx(5.4691, abs=0.01)


# ------------------------------------------------------------- report


def test_evaluate_binary_assembles_component_metrics():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=80)
    y = rng.integers(0, 2, size=80).astype(float)
    y[:2] = [0.0, 1.0]
    rep = evaluate_binary(logits, y)
    probs = sigmoid(logits)
    tp, fp, tn, fn = confusion_at(probs, y)
    assert rep.accuracy == accuracy_score(tp, fp, tn, fn)
    assert rep.auc == roc_auc(logits, y)
    assert rep.f1 == f1_score(tp, fp, tn, fn)
    assert rep.kappa == cohen_kappa(tp, fp, tn, fn)
    assert rep.log_loss == hard_log_loss(rep.accuracy)
    assert rep.n == 80


def test_evaluate_binary_rejects_non_finite_scores():
    y = [1.0, 0.0, 1.0, 0.0]
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            evaluate_binary([0.1, bad, 0.3, -1.0], y)


# -------------------------------------------------------- overall score


def _report(acc, auc, f1, kappa):
    return MetricsReport(accuracy=acc, auc=auc, f1=f1, kappa=kappa,
                         log_loss=hard_log_loss(acc), n=100)


def test_overall_score_identity_is_zero():
    r = _report(0.8, 0.85, 0.5, 0.4)
    assert overall_score(r, r) == 0.0


def test_overall_score_sums_five_percent_terms():
    ref = _report(0.8, 0.8, 0.8, 0.40)
    cand = _report(0.9, 0.9, 0.9, 0.45)
    # four +12.5% terms and a 50% log-loss drop: (0.2 - 0.1)/0.2
    assert overall_score(cand, ref) == pytest.approx(4 * 12.5 + 50.0, abs=1e-9)
    assert overall_score(ref, cand) == pytest.approx(
        4 * (-100.0 / 9.0) - 100.0, abs=1e-9)


def test_overall_score_skips_zero_reference_terms(caplog):
    ref = _report(0.8, 0.8, 0.8, 0.0)
    cand = _report(0.9, 0.9, 0.9, 0.45)
    with caplog.at_level("WARNING"):
        got = overall_score(cand, ref)
    assert got == pytest.approx(3 * 12.5 + 50.0, abs=1e-9)
    assert any("kappa" in r.message for r in caplog.records)
    perfect = _report(1.0, 1.0, 1.0, 1.0)  # log_loss 0 reference
    with caplog.at_level("WARNING"):
        got = overall_score(_report(0.9, 0.9, 0.9, 0.9), perfect)
    assert any("log_loss" in r.message for r in caplog.records)
    assert got == pytest.approx(4 * -10.0, abs=1e-9)


# ----------------------------------------------------------------- CSV


def test_metrics_csv_round_trips_full_precision(tmp_path):
    rep = _report(0.8227, 0.8687, 0.5122, 0.4156)
    p = tmp_path / "metrics.csv"
    text = metrics_csv(p, [("mlp", "bank", "test", rep)])
    assert p.read_text() == text
    header, line = text.strip().split("\n")
    assert header == "model,dataset,split,accuracy,auc,f1,kappa,log_loss,n"
    cells = line.split(",")
    assert cells[:3] == ["mlp", "bank", "test"]
    assert float(cells[3]) == rep.accuracy
    assert float(cells[7]) == rep.log_loss
    assert cells[8] == "100"
    assert metrics_csv(None, [("mlp", "bank", "test", rep)]) == text


def test_attention_csv_has_labeled_grid(tmp_path):
    m = np.array([[0.0, 0.25], [-0.5, 0.0]])
    text = attention_csv(tmp_path / "att.csv", m, ["a", "b"])
    lines = text.strip().split("\n")
    assert lines[0] == "task,a,b"
    assert lines[1].startswith("a,") and lines[2].startswith("b,")
    assert float(lines[2].split(",")[1]) == -0.5
    with pytest.raises(ValueError):
        attention_csv(None, m, ["a", "b", "c"])


# ------------------------------------------------------------ attention


def _attention_fixture(val_rows=8):
    """Two tasks over {g, x}: the 'reader' task's model leans on concept g,
    which belongs to the 'owner' task's leak mask."""
    names = ["g", "x"]
    vocab = Vocabulary(names)
    labels = [LABEL_PREFIX + "reader", LABEL_PREFIX + "owner"]
    meta = align_vocabularies([vocab], labels)
    reader = TaskSchema.build("reader", labels[0], vocab, meta, {labels[0]})
    owner = TaskSchema.build("owner", labels[1], vocab, meta,
                             {labels[1], "g"})

    rng = np.random.default_rng(4)
    def task_for(schema, n):
        X = rng.normal(size=(n, 2))
        y = (X[:, 0] > 0).astype(float)
        splits = {}
        for split, k in (("train", n), ("val", val_rows)):
            Xs = rng.normal(size=(k, 2))
            ys = (Xs[:, 0] > 0).astype(float)
            splits[split] = (np.hstack([Xs, np.zeros((k, 2))]), ys)
        return TaskDataset(TaskSchema.build(
            schema.task_id, schema.label_concept, meta, meta,
            schema.causal_mask, schema.loss_kind), splits)

    tasks = [task_for(reader, 16), task_for(owner, 16)]
    meta_ds = build_meta_dataset(tasks)

    # hand-built learners: the reader weighs g strongly, the owner only x
    def learner(w_g, w_x, tag):
        store = ParamStore.from_arrays(
            {f"{tag}.w": np.array([[w_g], [w_x], [0.0], [0.0]]),
             f"{tag}.b": np.zeros(1)})
        from taskmix.model import Affine
        return FeedForwardNet(store, [Affine(f"{tag}.w", f"{tag}.b")], 4)

    model = embed_learners([learner(3.0, 0.0, "r"), learner(0.0, 1.0, "o")],
                           [t.schema for t in tasks])
    return model, meta_ds


def test_attention_diagonal_is_exactly_zero():
    model, meta = _attention_fixture()
    att = task_attention(model, meta, "val")
    assert att.shape == (2, 2)
    assert att[0, 0] == 0.0 and att[1, 1] == 0.0


def test_attention_flags_the_planted_dependency():
    model, meta = _attention_fixture()
    att = task_attention(model, meta, "val")
    # hiding the owner's mask (which contains g) hurts the reader ...
    assert att[0, 1] > 0.0
    # ... while the reader's mask adds nothing the owner can even see
    assert att[1, 0] == 0.0


def test_attention_empty_split_leaves_zero_row(caplog):
    model, meta = _attention_fixture(val_rows=8)
    reader, owner = meta.tasks
    no_val = TaskDataset(reader.schema, {"train": reader.splits["train"],
                                         "val": (np.zeros((0, 4)), np.zeros(0))})
    meta = build_meta_dataset([no_val, owner])
    with caplog.at_level("WARNING"):
        att = task_attention(model, meta, "val")
    assert np.all(att[0] == 0.0)
    assert att[1, 0] == 0.0
    assert any("row 0" in r.message for r in caplog.records)


def test_evaluate_model_matches_manual_pipeline():
    model, meta = _attention_fixture()
    rep = evaluate_model(model, meta, 0, "val")
    X = meta.dense_rows(0, np.arange(int(meta.sizes("val")[0])), "val")
    want = evaluate_binary(model.predict_logits(X, 0), meta.labels(0, "val"))
    assert rep == want


# ----------------------------------------- attention against the pair loop


def _pairwise_attention(model, meta, split="val"):
    """Reference oracle: one full mixture forward per (i, j) pair, with task
    j's extra mask concepts zeroed on top of task i's own mask."""
    k = meta.num_tasks
    out = np.zeros((k, k))
    mask_sets = [frozenset(t.schema.causal_mask) for t in meta.tasks]

    def mean_loglik(i, extra):
        X = meta.dense_rows(i, None, split)
        cols = sorted(meta.meta_vocab.index(c) for c in extra)
        X[:, np.array(cols, dtype=np.int64)] = 0.0
        logits, _ = model.forward_batch(X, np.full(X.shape[0], i))
        y = meta.labels(i, split)
        loss = squared_loss if meta.loss_kinds()[i] == "regression" \
            else logistic_loss
        return -float(loss(logits, y)[0].sum()) / X.shape[0]

    for i in range(k):
        if meta.sizes(split)[i] == 0:
            continue
        base = mean_loglik(i, ())
        for j in range(k):
            extra = mask_sets[j] - mask_sets[i]
            out[i, j] = base - mean_loglik(i, extra) if extra else 0.0
    return out


def _random_attention_case(seed, k, kinds, empty):
    """K tasks over a shared vocabulary; each task draws its val block from a
    pool holding, per base block, the block itself and an equal-content copy,
    so tasks share blocks by object, by content, or not at all."""
    rng = np.random.default_rng(seed)
    c = k + int(rng.integers(1, 5))
    vocab = align_vocabularies([Vocabulary([f"c{i}" for i in range(c)])], [])
    pool = []
    for _ in range(int(rng.integers(1, 3))):
        n = int(rng.integers(1, 7))
        X = rng.normal(size=(n, c)) * (rng.random((n, c)) < 0.7)
        X[:, rng.random(c) < 0.3] = 0.0  # columns the masks cannot touch
        pool += [X, X.copy()]
    tasks = []
    for t in range(k):
        block = pool[int(rng.integers(len(pool)))]
        if empty and t == k - 1:
            block = np.zeros((0, c))
        n = len(block)
        y = rng.normal(size=n) if kinds[t] == "regression" \
            else (rng.random(n) < 0.5).astype(float)
        label = vocab.names[t]
        mask = {name for name in vocab.names if rng.random() < 0.3}
        schema = TaskSchema.build(f"t{t}", label, vocab, vocab, mask, kinds[t])
        tasks.append(TaskDataset(schema, {"val": (block, y)}))
    meta = build_meta_dataset(tasks)
    model = Mixture.standard(
        MixtureConfig(input_dim=c, num_tasks=k, num_experts=2, expert_depth=1,
                      expert_width=5, gate_hidden=3, head_hidden=3, seed=seed),
        loss_kinds=kinds[:k])
    return model, meta


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 5),
       kinds=st.lists(st.sampled_from(["binary", "regression"]),
                      min_size=5, max_size=5),
       empty=st.booleans(), chunk=st.integers(1, 9))
@example(seed=0, k=1, kinds=["binary"] * 5, empty=False, chunk=1)
@example(seed=1, k=4, kinds=["binary", "regression"] * 2 + ["binary"],
         empty=True, chunk=2)
# a head whose relu is dead scores every input alike: zero pattern holds
# only if an input split across chunks is summed like one that is not
@example(seed=358, k=5, kinds=["binary"] * 5, empty=False, chunk=7)
def test_attention_matches_pairwise_oracle(seed, k, kinds, empty, chunk):
    model, meta = _random_attention_case(seed, k, kinds, empty)
    with mock.patch.object(metrics, "_CHUNK_ROWS", chunk):
        att = task_attention(model, meta, "val")
    ref = _pairwise_attention(model, meta, "val")
    assert att.shape == (k, k)
    assert np.abs(att - ref).max() <= 1e-12
    np.testing.assert_array_equal(att == 0.0, ref == 0.0)


def test_attention_runs_one_expert_pass_per_distinct_input():
    """K tasks on one shared block whose masks are their own labels: the
    distinct inputs are the K bases plus one per unordered pair, and every
    row of each goes through the experts exactly once."""
    k, n = 5, 3
    vocab = align_vocabularies([Vocabulary([f"c{i}" for i in range(k)])], [])
    rng = np.random.default_rng(7)
    block = rng.normal(size=(n, k))
    tasks = [TaskDataset(TaskSchema.build(f"t{t}", vocab.names[t], vocab,
                                          vocab, ()),
                         {"val": (block, (rng.random(n) < 0.5) * 1.0)})
             for t in range(k)]
    meta = build_meta_dataset(tasks)
    model = Mixture.standard(MixtureConfig(input_dim=k, num_tasks=k,
                                           num_experts=2, expert_depth=1,
                                           expert_width=4, gate_hidden=3,
                                           head_hidden=3))
    rows = []
    forward = model.expert_forward
    model.expert_forward = lambda X, keep=True: \
        rows.append(X.shape[0]) or forward(X, keep)
    att = task_attention(model, meta, "val")
    assert sum(rows) == n * k * (k + 1) // 2
    assert np.all(np.diag(att) == 0.0) and np.all(att[~np.eye(k, dtype=bool)] != 0.0)
    np.testing.assert_allclose(att, _pairwise_attention(model, meta), rtol=0,
                               atol=1e-12)


def test_attention_rejects_a_model_that_is_not_a_mixture():
    _, meta = _random_attention_case(0, 2, ["binary"] * 5, False)
    baseline = FeedForwardNet.mlp(meta.num_concepts, [3], seed=0)
    with pytest.raises(TypeError, match="FeedForwardNet"):
        task_attention(baseline, meta)
