"""Vocabulary alignment, leak masks and dense materialization."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from taskmix.concepts import (
    LABEL_PREFIX,
    SchemaError,
    TaskSchema,
    Vocabulary,
    align_vocabularies,
    compute_causal_mask,
    constant_columns_by_activation,
    vocab_projection,
)
from taskmix.data import TaskDataset, build_meta_dataset
from oracles import constant_columns_hi_lo


def test_vocabulary_keeps_given_order_and_rejects_dupes():
    v = Vocabulary(["b", "a", "c"])
    assert v.names == ("b", "a", "c")
    assert v.index("a") == 1
    assert v.names[2] == "c"
    assert "a" in v and "z" not in v
    with pytest.raises(SchemaError):
        Vocabulary(["a", "a"])
    with pytest.raises(SchemaError):
        v.index("missing")


def test_vocabulary_lines_roundtrip_and_fingerprint():
    v = Vocabulary(["x1", "x2", "label::t"])
    assert v.to_lines() == "x1\nx2\nlabel::t\n"
    again = Vocabulary(v.to_lines().splitlines())
    assert again == v
    assert again.fingerprint() == v.fingerprint()
    assert v.fingerprint() == hashlib.sha256(v.to_lines().encode()).hexdigest()
    assert Vocabulary(["x1", "x2"]).fingerprint() != v.fingerprint()


def test_alignment_is_sorted_union_with_labels():
    va = Vocabulary(["f2", "f1"])
    vb = Vocabulary(["f3", "f1"])
    meta = align_vocabularies([va, vb], ["label::a", "label::b"])
    assert meta.names == ("f1", "f2", "f3", "label::a", "label::b")
    # order of inputs is irrelevant
    meta2 = align_vocabularies([vb, va], ["label::b", "label::a"])
    assert meta2 == meta


def test_schema_build_partitions_meta_vocab():
    task_vocab = Vocabulary(["f1", "f2"])
    meta = Vocabulary(["f1", "f2", "f3", "label::t"])
    schema = TaskSchema.build("t", "label::t", task_vocab, meta, {"label::t"})
    assert schema.causal_mask == frozenset({"label::t"})
    assert np.array_equal(schema.mask_indices(), [3])
    # build unions the label into the mask even when omitted
    assert "label::t" in TaskSchema.build("t", "label::t", task_vocab, meta,
                                          set()).causal_mask
    with pytest.raises(SchemaError):  # direct construction must include it
        TaskSchema(task_id="t", label_concept="label::t",
                   task_vocab=task_vocab, meta_vocab=meta,
                   causal_mask=frozenset(), loss_kind="binary")
    with pytest.raises(SchemaError):
        TaskSchema.build("t", "label::t", task_vocab, meta, set(),
                         loss_kind="poisson")


def test_schema_rejects_names_outside_the_meta_vocab():
    meta = Vocabulary(["f1", "f2", "label::t"])
    with pytest.raises(SchemaError,
                       match="task t: mask member 'f9' not in the meta"):
        TaskSchema.build("t", "label::t", Vocabulary(["f1"]), meta,
                         {"f1", "f9"})
    with pytest.raises(SchemaError,
                       match="task t: concept 'f7' not in the meta"):
        TaskSchema.build("t", "label::t", Vocabulary(["f1", "f8", "f7"]),
                         meta, set())
    schema = TaskSchema.build("t", "label::t", Vocabulary(["f1"]), meta, set())
    with pytest.raises(SchemaError, match="mask member 'x' not in the meta"):
        schema.with_alignment(meta, {"x"})


def _dense(entries, width):
    """Rows of (indices, values) pairs, scattered into a dense table."""
    out = np.zeros((len(entries), width))
    for r, (idx, vals) in enumerate(entries):
        out[r, idx] = vals
    return out


def _mask_oracle(dense, labels, label_concept, candidates, min_support=1):
    # brute force per concept over the dense table
    out = {label_concept}
    for c, name in enumerate(candidates):
        rows = np.flatnonzero(dense[:, c] != 0.0)
        if rows.size >= max(min_support, 1):
            seg = np.asarray(labels)[rows]
            if np.all(seg == seg[0]):
                out.add(name)
    return frozenset(out)


def test_causal_mask_matches_brute_force_oracle():
    rng = np.random.default_rng(11)
    candidates = Vocabulary([f"c{i}" for i in range(12)] + ["label::t"])
    for trial in range(20):
        n = int(rng.integers(2, 30))
        entries, labels = [], []
        for _ in range(n):
            k = int(rng.integers(0, 8))
            idx = np.sort(rng.choice(13, size=k, replace=False)).astype(np.int64)
            vals = rng.choice([0.0, 1.0, 2.0, -1.0], size=k)
            entries.append((idx, vals))
            labels.append(float(rng.integers(0, 2)))
        dense = _dense(entries, 13)
        for ms in (1, 2, 4):
            got = compute_causal_mask(dense, labels, "label::t", candidates,
                                      min_support=ms)
            want = _mask_oracle(dense, labels, "label::t", candidates, ms)
            assert got == want, (trial, ms)


def test_causal_mask_catches_both_label_orientations():
    cand = Vocabulary(["pos", "neg", "other", "label::t"])
    dense = np.array([
        [1.0, 0.0, 5.0, 0.0],
        [0.0, 1.0, 3.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, -2.0, 0.0],
    ])
    labels = [1.0, 0.0, 1.0, 0.0]
    mask = compute_causal_mask(dense, labels, "label::t", cand)
    assert mask == frozenset({"pos", "neg", "label::t"})


def test_causal_mask_min_support_filters_singletons():
    cand = Vocabulary(["rare", "label::t"])
    dense = np.array([[1.0, 0.0], [0.0, 0.0]])
    labels = [1.0, 0.0]
    assert "rare" in compute_causal_mask(dense, labels, "label::t", cand)
    assert "rare" not in compute_causal_mask(dense, labels, "label::t", cand,
                                             min_support=2)


def test_causal_mask_empty_data_is_just_the_label():
    cand = Vocabulary(["a", "label::t"])
    empty = np.zeros((0, 2))
    assert compute_causal_mask(empty, [], "label::t", cand) == \
        frozenset({"label::t"})
    with pytest.raises(SchemaError):
        compute_causal_mask(empty, [], "label::missing", cand)
    with pytest.raises(SchemaError, match="not \\(n, 2\\)"):
        compute_causal_mask(np.zeros((3, 3)), [0.0] * 3, "label::t", cand)
    with pytest.raises(SchemaError, match="one label per instance"):
        compute_causal_mask(np.zeros((3, 2)), [0.0] * 2, "label::t", cand)


def test_constant_columns_by_activation():
    dense = np.array([
        [1.0, 1.0, 0.0],
        [0.0, 2.0, 0.0],
        [3.0, 0.0, 0.0],
    ])
    targets = np.array([1.0, 1.0, 1.0])
    constant, support = constant_columns_by_activation(dense, targets)
    assert np.array_equal(support, [2, 2, 0])
    assert np.array_equal(constant, [True, True, False])
    targets2 = np.array([1.0, 0.0, 1.0])
    constant2, _ = constant_columns_by_activation(dense, targets2)
    assert np.array_equal(constant2, [True, False, False])


def test_constant_columns_by_activation_on_zero_rows():
    constant, support = constant_columns_by_activation(np.zeros((0, 3)),
                                                       np.zeros(0))
    assert constant.dtype == bool and np.array_equal(constant, [False] * 3)
    assert np.array_equal(support, [0, 0, 0])


def test_constant_columns_by_activation_answers_many_targets():
    dense = np.array([
        [1.0, 1.0, 0.0],
        [0.0, 2.0, 0.0],
        [3.0, 0.0, 0.0],
    ])
    targets = np.array([[1.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    constant, support = constant_columns_by_activation(dense, targets)
    assert np.array_equal(support, [2, 2, 0])
    assert np.array_equal(constant, [[True, True], [True, False],
                                     [False, False]])
    with pytest.raises(SchemaError, match="targets"):
        constant_columns_by_activation(dense, np.zeros((2, 2)))
    with pytest.raises(SchemaError, match="targets"):
        constant_columns_by_activation(dense, np.zeros((3, 2, 1)))


_ACTIVATIONS = st.sampled_from([0.0, -0.0, 1.0, -2.0])
_TARGETS = st.sampled_from([0.0, -0.0, 1.0, 2.0, np.nan, np.inf])


@given(st.integers(0, 140).flatmap(lambda n: st.tuples(
           hnp.arrays(np.float64, (n, 5), elements=_ACTIVATIONS),
           hnp.arrays(np.float64, (n, 4), elements=_TARGETS))),
       st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_constant_columns_for_many_targets_equal_one_call_per_target(
        tables, min_support):
    # NaN targets, signed zeros, all-inactive columns, a support floor
    dense, targets = tables
    constant, support = constant_columns_by_activation(dense, targets,
                                                       min_support)
    assert constant.shape == (5, 4) and constant.dtype == bool
    for f in range(targets.shape[1]):
        one, one_support = constant_columns_by_activation(
            dense, targets[:, f], min_support)
        want, want_support = constant_columns_hi_lo(dense, targets[:, f],
                                                    min_support)
        assert np.array_equal(constant[:, f], one)
        assert np.array_equal(one, want)
        assert np.array_equal(support, one_support)
        assert np.array_equal(support, want_support)


def test_vocab_projection_roundtrip():
    src = Vocabulary(["b", "d"])
    dst = Vocabulary(["a", "b", "c", "d"])
    m = vocab_projection(src, dst)
    assert np.array_equal(m, [1, 3])
    with pytest.raises(SchemaError):
        vocab_projection(Vocabulary(["zz"]), dst)


def _pad_mask(x, x_vocab, schema):
    # oracle: embed a dense row over x_vocab into dense meta space, then
    # zero the task's masked coordinates
    if len(x) != len(x_vocab):
        raise SchemaError(
            f"row of {len(x)} does not match vocabulary of {len(x_vocab)}")
    out = np.zeros(len(schema.meta_vocab))
    out[vocab_projection(x_vocab, schema.meta_vocab)] = x
    out[schema.mask_indices()] = 0.0
    return out


def test_pad_mask_zeroes_masked_coordinates():
    task_vocab = Vocabulary(["f1", "f2", "leak"])
    meta = Vocabulary(["f1", "f2", "label::t", "leak"])
    schema = TaskSchema.build("t", "label::t", task_vocab, meta,
                              {"label::t", "leak"})
    v = np.array([1.0, 2.0, 3.0])
    dense = _pad_mask(v, task_vocab, schema)
    assert dense.shape == (4,)
    assert np.array_equal(dense, [1.0, 2.0, 0.0, 0.0])  # leak zeroed
    # meta-indexed input works too, label coordinate also zeroed
    vm = np.array([0.0, 0.0, 9.0, 4.0])
    assert np.array_equal(_pad_mask(vm, meta, schema), [0.0, 0.0, 0.0, 0.0])
    with pytest.raises(SchemaError):
        _pad_mask(v, meta, schema)  # size mismatch
    # the rows a model reads are the oracle's, row by row
    X = np.array([[1.0, 2.0, 3.0], [0.0, -4.0, 5.0], [0.0, 0.0, 0.0]])
    task = TaskDataset(schema, {"train": (X, np.array([1.0, 0.0, 1.0]))})
    rows = build_meta_dataset([task]).dense_rows(0, None, "train")
    for i, x in enumerate(X):
        np.testing.assert_array_equal(rows[i], _pad_mask(x, task_vocab, schema))


# ---------------------------------------------------------------------------
# properties


_names = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=4),
    min_size=1, max_size=8, unique=True,
)


@given(st.lists(_names, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_alignment_union_property(vocab_lists):
    vocabs = [Vocabulary(names) for names in vocab_lists]
    meta = align_vocabularies(vocabs, ["label::x"])
    union = set().union(*(set(v.names) for v in vocabs)) | {"label::x"}
    assert set(meta.names) == union
    assert list(meta.names) == sorted(meta.names)


@given(_names)
@settings(max_examples=60, deadline=None)
def test_mask_always_contains_label_and_stays_in_candidates(names):
    label = LABEL_PREFIX + "t"
    cand = Vocabulary(sorted(set(names) | {label}))
    rng = np.random.default_rng(0)
    entries = []
    labels = []
    for _ in range(8):
        k = int(rng.integers(0, len(cand) + 1))
        idx = np.sort(rng.choice(len(cand), size=k, replace=False)).astype(np.int64)
        entries.append((idx, np.ones(k)))
        labels.append(float(rng.integers(0, 2)))
    mask = compute_causal_mask(_dense(entries, len(cand)), labels, label, cand)
    assert label in mask
    assert mask <= set(cand.names)
