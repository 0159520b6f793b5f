"""LIBSVM parsing, dense storage, alignment, auxiliary tasks, sampling."""

import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from taskmix.concepts import (
    LABEL_PREFIX,
    SchemaError,
    TaskSchema,
    Vocabulary,
    align_vocabularies,
)
from taskmix.data import (
    BatchSampler,
    MetaDataset,
    ParseError,
    TaskDataset,
    align_tasks,
    build_auxiliary_tasks,
    build_meta_dataset,
    ingest_task,
    parse_libsvm,
    serialize_libsvm,
    split_train_val,
    write_manifest,
)
import taskmix.data
from taskmix.synth import make_hypercube_pairs
import oracles
from oracles import instances, recover_task

# --------------------------------------------------------------- parsing


def test_parse_libsvm_normalizes_all_label_conventions():
    text = "+1 1:0.5 3:2.0\n-1 2:1.0\n0 1:1.0\n1 4:7\n"
    labels, rows, cols, values, width = parse_libsvm(text)
    assert width == 4
    assert labels.tolist() == [1.0, 0.0, 0.0, 1.0]
    assert rows.tolist() == [0, 0, 1, 2, 3]  # entries in file order
    assert cols.tolist() == [0, 2, 1, 0, 3]  # 1-based -> 0-based
    assert values.tolist() == [0.5, 2.0, 1.0, 1.0, 7.0]
    assert rows.dtype == cols.dtype == np.int64
    assert labels.dtype == values.dtype == np.float64


def test_parse_libsvm_skips_blank_lines_and_reads_files(tmp_path):
    text = "\n1 1:1\n\n   \n0 2:3.5\n"
    (tmp_path / "tr").write_text(text)
    (tmp_path / "te").write_text(text)
    labels, rows, cols, values, width = parse_libsvm(text)
    assert width == 2 and labels.tolist() == [1.0, 0.0]
    assert rows.tolist() == [0, 1] and values.tolist() == [1.0, 3.5]
    task = ingest_task(tmp_path / "tr", tmp_path / "te", "t",
                       val_fraction=0.0)
    X, y = task.splits["test"]
    np.testing.assert_array_equal(X, [[1.0, 0.0], [0.0, 3.5]])
    assert y.tolist() == [1.0, 0.0] and task.n("train") == 2


@pytest.mark.parametrize("bad,fragment", [
    ("1 1:1\nx 1:1", "line 2: bad label"),
    ("2 1:1", "line 1: label '2' not in {-1,0,+1}"),
    ("1 1:1 foo", "line 1: bad feature token 'foo'"),
    ("1 1:1 2:a", "line 1: bad feature token '2:a'"),
    ("1 0:1", "line 1: feature index 0 < 1"),
    ("1 1:1\n1 3:1 2:1", "line 2: feature indices must be strictly increasing"),
    ("1 2:1 2:2", "strictly increasing (2 after 2)"),
    ("1 1:inf", "line 1: non-finite value"),
    # records end only at a newline: a form feed is whitespace inside line 1,
    # and a file separator is a blank line 2, so x is on line 3 of 3
    ("1 1:2\x0c0 3:4\n", "line 1: bad feature token '0'"),
    ("1 1:2\n\x1c\n1 2:x\n", "line 3: bad feature token '2:x'"),
])
def test_parse_libsvm_errors_carry_line_numbers(bad, fragment):
    with pytest.raises(ParseError, match="line"):
        try:
            parse_libsvm(bad)
        except ParseError as e:
            assert fragment in str(e)
            raise


@pytest.mark.parametrize("bad,fragment", [
    ("1 99999999999999999999999:1",
     "line 1: feature index 99999999999999999999999 > 2^63 - 1"),
    ("1 9223372036854775808:1", "line 1: feature index 9223372036854775808 >"),
    ("1 1_0:1", "line 1: bad feature token '1_0:1'"),
    ("1 1:1_0", "line 1: bad feature token '1:1_0'"),
    ("1 +2:1", "line 1: bad feature token '+2:1'"),
    ("1 \u0661:1", "line 1: bad feature token '\u0661:1'"),
    ("1 1:\uff11", "line 1: bad feature token '1:\uff11'"),
    ("\u0661 1:1", "line 1: bad label '\u0661'"),
], ids=["index-overflows-int", "index-over-int64", "underscore-index",
        "underscore-value", "signed-index", "arabic-indic-index",
        "fullwidth-value", "arabic-indic-label"])
def test_parse_libsvm_takes_only_plain_ascii_numerals(bad, fragment):
    with pytest.raises(ParseError) as err:
        parse_libsvm(bad)
    assert fragment in str(err.value)


@pytest.mark.parametrize("raw,fragment", [
    (b"1 1:1\n1 1:1 2:\xff\n", "line 2: bad feature token '2:\ufffd'"),
    (b"1 1:1\xc2\xa02:3\n", "line 1: bad feature token"),
], ids=["invalid-utf8", "utf8-no-break-space"])
def test_ingest_task_reads_bytes_as_ascii(tmp_path, raw, fragment):
    # any other byte is malformed data on its line, whatever the locale
    (tmp_path / "tr").write_bytes(raw)
    (tmp_path / "te").write_bytes(b"1 1:1\n")
    with pytest.raises(ParseError) as err:
        ingest_task(tmp_path / "tr", tmp_path / "te", "t")
    assert fragment in str(err.value)


def test_parse_libsvm_accepts_the_largest_int64_index():
    # parsed only: ingest_task names every feature up to the largest index
    labels, rows, cols, values, width = parse_libsvm(
        "1 3:1 9223372036854775807:2.5")
    assert width == 2**63 - 1
    assert cols.tolist() == [2, 2**63 - 2] and rows.tolist() == [0, 0]


_JUNK = st.text("0123456789_+-.eE:naif\u0661\uff11 ", max_size=12)
_LABELS = st.sampled_from(["1", "-1", "0", "+1", "1.0"]) | _JUNK
_FEATURES = st.tuples(
    st.lists(st.integers(0, 2**70), max_size=4, unique=True).map(sorted),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4,
             max_size=4)).map(
    lambda iv: [f"{i}:{v!r}" for i, v in zip(*iv)])
_LINES = st.tuples(_LABELS, _FEATURES, st.lists(_JUNK, max_size=2)).map(
    lambda parts: " ".join([parts[0], *parts[1], *parts[2]]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.lists(_LINES, max_size=4).map("\n".join)))
def test_parse_libsvm_gives_a_result_or_a_parse_error(text):
    try:
        labels, rows, cols, values, width = parse_libsvm(text)
    except ParseError as exc:
        assert str(exc).startswith("line ")
        return
    assert all(tok.isascii() and "_" not in tok for tok in text.split())
    assert np.all((labels == 0.0) | (labels == 1.0))
    assert rows.shape == cols.shape == values.shape
    assert np.all(np.isfinite(values))
    assert np.all(np.diff(rows) >= 0) and np.all((rows >= 0) & (rows < labels.size))
    same_row = np.diff(rows) == 0
    assert np.all(np.diff(cols)[same_row] > 0) and np.all(cols >= 0)
    assert width == (cols.max() + 1 if cols.size else 0)


_ENDS = st.sampled_from(["\n", "\r\n", "\n\n", "\f", "\n \t\n", "\x0b"])


@settings(max_examples=400, deadline=None)
@example("\n\n1 1:1\xa02:3\n")  # non-ASCII whitespace, checked alone
@example("1 1:1:1 2\n")  # right count of ':' in the line, wrong per token
@example("1 2 1:1:1\n")
@example("2 1:1\n\u0661 1:1\n")  # a plain line fails before a non-ASCII one
@example("1 1:1\n\u0661 1:1\n2 1:1\n")  # ... and after it
@example("1 1:1\n1 1:nan 2:x\n1 ::\n")
@example("1 3:1 99999999999999999999:2 2:x\n")  # index overflow, bad value
@example("1 1:1 2:2\n0 3:1 3:2\n1 1:x\n")  # fails in a later chunk
@given(st.one_of(
    st.text(),
    st.lists(st.tuples(_LINES, _ENDS), max_size=5).map(
        lambda parts: "".join(line + end for line, end in parts))))
def test_parse_libsvm_matches_the_per_token_parser(text):
    try:
        want = oracles.parse_libsvm(text)
    except ParseError as exc:
        want = exc
    # feature tokens are converted in chunks: also one and two at a time
    for chunk in (taskmix.data._CHUNK, 1, 2):
        with mock.patch.object(taskmix.data, "_CHUNK", chunk):
            if isinstance(want, ParseError):
                with pytest.raises(ParseError) as err:
                    parse_libsvm(text)
                assert str(err.value) == str(want)
                continue
            got = parse_libsvm(text)
        for g, w in zip(got[:4], want[:4]):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        assert got[4] == want[4]


def _lines_pass(text):
    """Whether every non-blank line of ``text`` passes ``_check_line``."""
    try:
        for ln, line in enumerate(text.split("\n"), start=1):
            if line.split():
                taskmix.data._check_line(ln, line.split())
    except ParseError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(),
    st.lists(st.tuples(_LINES, _ENDS), max_size=5).map(
        lambda parts: "".join(line + end for line, end in parts))))
def test_parse_libsvm_accepts_exactly_the_files_whose_lines_all_pass(text):
    # _check_line is the parser's one rule book: the bulk path only decides
    # whether a file is valid, so its verdict must be the lines' verdict
    valid = _lines_pass(text)
    for chunk in (1, 2, 1024):
        with mock.patch.object(taskmix.data, "_CHUNK", chunk):
            try:
                parse_libsvm(text)
            except ParseError:
                assert not valid
            else:
                assert valid


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(0, 6), st.integers(1, 7)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)
                  | st.sampled_from([0.0, -0.0])),
       st.randoms(use_true_random=False))
def test_serialize_then_parse_is_identity(X, rnd):
    y = np.array([float(rnd.randint(0, 1)) for _ in range(len(X))])
    labels, rows, cols, values, width = parse_libsvm(serialize_libsvm(X, y))
    np.testing.assert_array_equal(labels, y)
    back = np.zeros(X.shape)  # the scatter ingest_task makes
    back[rows, cols] = values
    assert back.tobytes() == (X + 0.0).tobytes()  # -0.0 comes back as +0.0
    assert not np.signbit(back[back == 0.0]).any()
    assert not X[:, width:].any()  # columns past the widest index are zero


def test_make_hypercube_pairs_text_is_unchanged():
    # the benchmark's hypercube inputs are this generator's text
    train, test = make_hypercube_pairs(5, n_train=12, n_test=6, n_features=9,
                                       n_informative=2, n_redundant=2)
    assert hashlib.sha256(train.encode()).hexdigest() == \
        "517e9f93c0de3b35c4a57593a776a829d0a7e22c105558c38b768b5e026498b8"
    assert hashlib.sha256(test.encode()).hexdigest() == \
        "97ae2f36ca8eb585e1fb4f8d1fa40082a26ac1ee4eb9023af59318b27653b220"


def test_split_train_val_is_seeded_partition():
    tr1, va1 = split_train_val(10, 0.3, seed=3)
    tr2, va2 = split_train_val(10, 0.3, seed=3)
    assert len(va1) == 3 and len(tr1) == 7
    assert tr1.tolist() == tr2.tolist() and va1.tolist() == va2.tolist()
    assert sorted(tr1.tolist() + va1.tolist()) == list(range(10))
    tr3, va3 = split_train_val(10, 0.3, seed=4)
    assert va3.tolist() != va1.tolist()
    with pytest.raises(ValueError):
        split_train_val(10, 1.0, seed=0)
    with pytest.raises(ValueError):
        split_train_val(10, -0.1, seed=0)


# ------------------------------------------------------------ task data


def _toy_task(task_id, names, rows, labels, mask=()):
    """TaskDataset aligned against its own vocab + label concept."""
    vocab = Vocabulary(names)
    label = LABEL_PREFIX + task_id
    meta = align_vocabularies([vocab], [label])
    schema = TaskSchema.build(task_id, label, vocab, meta,
                              set(mask) | {label}, loss_kind="binary")
    block = np.asarray(rows, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    return TaskDataset(schema, {"train": (block, y),
                                "test": (block, y)})


def test_task_dataset_validates_shapes_and_split_names():
    t = _toy_task("t", ["a", "b"], [[1.0, 0.0]], [1.0])
    block, y = t.splits["train"]
    with pytest.raises(SchemaError):
        TaskDataset(t.schema, {"weird": (block, y)})
    with pytest.raises(SchemaError):
        TaskDataset(t.schema, {"train": (np.ones((1, 3)), y)})
    with pytest.raises(SchemaError):
        TaskDataset(t.schema, {"train": (np.ones((1, 2), dtype=int), y)})
    with pytest.raises(SchemaError):
        TaskDataset(t.schema, {"train": (block, np.zeros(2))})


def test_task_dataset_dense_applies_mask_only_when_asked():
    t = _toy_task("t", ["a", "b", "c"],
                  [[1.0, 2.0, 3.0], [4.0, 0.0, 6.0]], [1.0, 0.0],
                  mask=["b"])
    raw = t.dense("train", masked=False)
    np.testing.assert_array_equal(raw, [[1.0, 2.0, 3.0], [4.0, 0.0, 6.0]])
    hid = t.dense("train")
    np.testing.assert_array_equal(hid, [[1.0, 0.0, 3.0], [4.0, 0.0, 6.0]])
    # the label concept is not a task feature, so it has nothing to zero
    assert LABEL_PREFIX + "t" in t.schema.causal_mask


# --------------------------------------------------------------- ingest


def _write_libsvm(path, rows, labels):
    path.write_text(serialize_libsvm(np.asarray(rows, dtype=np.float64),
                                     labels))


def test_ingest_task_names_features_and_masks_label(tmp_path):
    rng = np.random.default_rng(5)
    X = np.round(rng.normal(size=(20, 12)), 3)
    y = rng.integers(0, 2, size=20).astype(float)
    _write_libsvm(tmp_path / "tr", X, y)
    _write_libsvm(tmp_path / "te", X[:5], y[:5])
    task = ingest_task(tmp_path / "tr", tmp_path / "te", "bank",
                       val_fraction=0.25, seed=1)
    assert task.schema.task_id == "bank"
    assert task.schema.label_concept == "label::bank"
    assert task.schema.task_vocab.names[0] == "f01"  # width matches max index
    assert task.schema.task_vocab.names[-1] == "f12"
    assert task.n("train") == 15 and task.n("val") == 5 and task.n("test") == 5
    assert "label::bank" in task.schema.causal_mask
    # dense inputs never expose the label column (it is not even a feature)
    assert task.dense("train").shape == (15, 12)


def test_ingest_task_flags_an_obvious_leak(tmp_path):
    # f2 fires exactly on the positive rows: must land in the causal mask
    X = np.array([[1.0, 1.0, 0.5],
                  [2.0, 1.0, 0.0],
                  [3.0, 0.0, 0.5],
                  [4.0, 0.0, 0.0],
                  [5.0, 1.0, 0.5],
                  [6.0, 0.0, 0.25]])
    y = X[:, 1].copy()
    _write_libsvm(tmp_path / "tr", X, y)
    _write_libsvm(tmp_path / "te", X, y)
    task = ingest_task(tmp_path / "tr", tmp_path / "te", "t",
                       val_fraction=0.0, min_support=2)
    assert "f2" in task.schema.causal_mask
    assert "f1" not in task.schema.causal_mask  # distinct value per row
    assert "f3" not in task.schema.causal_mask  # active on both classes
    np.testing.assert_array_equal(task.dense("train")[:, 1], 0.0)


def test_ingest_task_standardize_uses_train_statistics(tmp_path):
    rng = np.random.default_rng(9)
    X = rng.normal(loc=3.0, scale=2.0, size=(40, 4))
    X[:, 3] = 1.0  # constant column: sd guard must not divide by zero
    y = rng.integers(0, 2, size=40).astype(float)
    Xte = rng.normal(loc=3.0, scale=2.0, size=(10, 4))
    Xte[:, 3] = 1.0
    _write_libsvm(tmp_path / "tr", X, y)
    _write_libsvm(tmp_path / "te", Xte, rng.integers(0, 2, size=10).astype(float))
    task = ingest_task(tmp_path / "tr", tmp_path / "te", "t",
                       val_fraction=0.2, seed=0, standardize=True)
    tr = task.dense("train", masked=False)
    mu, sd = tr.mean(axis=0), tr.std(axis=0)
    np.testing.assert_allclose(mu[:3], 0.0, atol=1e-12)
    np.testing.assert_allclose(sd[:3], 1.0, atol=1e-12)
    np.testing.assert_array_equal(tr[:, 3], 0.0)  # (1 - mu)/1 with sd->1
    # test split reuses the *train* statistics, so it is not itself centered
    te = task.dense("test", masked=False)
    assert abs(te[:, 0].mean()) > 1e-9


def test_ingest_task_standardize_stores_no_negative_zero(tmp_path):
    # column 1 has mean 0 on train, so its stored -0 standardizes to -0.0
    # before the + 0.0
    (tmp_path / "tr").write_text("1 1:1\n0 1:-1\n1 1:-0 2:1\n0 2:2\n")
    (tmp_path / "te").write_text("1 1:-0\n")
    task = ingest_task(tmp_path / "tr", tmp_path / "te", "t",
                       val_fraction=0.0, standardize=True)
    for split in ("train", "test"):
        rows = task.dense(split, masked=False)
        assert not np.any((rows == 0.0) & np.signbit(rows))


@pytest.mark.parametrize("standardize", [False, True])
def test_ingest_task_peak_memory_stays_near_two_copies_of_its_rows(
        tmp_path, standardize):
    # a few entries a row under one wide index: the text is small, the
    # dense rows are not. The train file's array is dropped once its splits
    # are taken and standardizing works in place, so the peak is the file's
    # array with its two split copies (1.8 of the dense rows here)
    rng = np.random.default_rng(0)
    width = 1000
    for name, n in (("tr", 400), ("te", 100)):
        lines = [f"{i % 2} " + " ".join(
            f"{j}:{rng.normal():.3f}"
            for j in sorted(set(rng.integers(1, width, 5).tolist()) | {width}))
            for i in range(n)]
        (tmp_path / name).write_text("\n".join(lines) + "\n")
    tracemalloc.start()
    try:
        ingest_task(tmp_path / "tr", tmp_path / "te", "t", val_fraction=0.25,
                    standardize=standardize)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.3 * (400 + 100) * width * 8


def test_ingest_task_rejects_a_width_that_cannot_be_stored(tmp_path):
    # the parser takes index 2^63 - 1; the dense splits cannot hold it, and
    # ingest says so before it names a single feature
    (tmp_path / "tr").write_text("1 1:1 9223372036854775807:2.5\n0 2:1\n")
    (tmp_path / "te").write_text("1 1:1\n")
    with pytest.raises(ParseError, match="3 rows of 9223372036854775807 "
                                         "features do not fit in memory"):
        ingest_task(tmp_path / "tr", tmp_path / "te", "t")


def test_ingest_task_checks_rows_and_names_against_memory(tmp_path,
                                                         monkeypatch):
    # 3 rows of 4 features: 96 bytes of dense float64, plus each name
    need = 4 * (3 * 8 + taskmix.data._FEATURE_BYTES)
    (tmp_path / "tr").write_text("1 1:1 4:2.5\n0 2:1\n")
    (tmp_path / "te").write_text("1 1:1\n")
    monkeypatch.setattr(taskmix.data, "_physical_memory", lambda: need - 1)
    with pytest.raises(ParseError, match="^3 rows of 4 features do not fit "
                                         "in memory$"):
        ingest_task(tmp_path / "tr", tmp_path / "te", "t")
    monkeypatch.setattr(taskmix.data, "_physical_memory", lambda: need)
    assert ingest_task(tmp_path / "tr", tmp_path / "te", "t").n("test") == 1


def test_ingest_task_counts_feature_names_when_the_rows_fit(tmp_path,
                                                           monkeypatch):
    # one large index over 3 rows: the rows (3 * 8 bytes a feature) fit in
    # the memory figure, naming every feature would not
    width = 10**6
    (tmp_path / "tr").write_text(f"1 1:1 {width}:2.5\n0 2:1\n")
    (tmp_path / "te").write_text("1 1:1\n")
    monkeypatch.setattr(taskmix.data, "_physical_memory",
                        lambda: width * (3 * 8 + 1))
    monkeypatch.setattr(taskmix.data, "_feature_names", None)  # never named
    with pytest.raises(ParseError, match=f"^3 rows of {width} features do "
                                         "not fit in memory$"):
        ingest_task(tmp_path / "tr", tmp_path / "te", "t")


def test_ingest_task_without_a_memory_figure_still_rejects_a_huge_width(
        tmp_path, monkeypatch):
    # where sysconf has no answer, the allocation itself fails (at once:
    # numpy refuses the shape before reserving anything)
    monkeypatch.setattr(taskmix.data, "_physical_memory", lambda: None)
    (tmp_path / "tr").write_text("1 1:1 9223372036854775807:2.5\n")
    (tmp_path / "te").write_text("1 1:1\n")
    with pytest.raises(ParseError, match="2 rows of 9223372036854775807 "
                                         "features do not fit in memory"):
        ingest_task(tmp_path / "tr", tmp_path / "te", "t")


def test_physical_memory_is_a_positive_byte_count_or_none(monkeypatch):
    memory = taskmix.data._physical_memory()
    assert memory is None or memory > 2**20
    monkeypatch.setattr(taskmix.data.os, "sysconf", lambda name: -1)
    assert taskmix.data._physical_memory() is None

    def unknown(name):
        raise ValueError(name)
    monkeypatch.setattr(taskmix.data.os, "sysconf", unknown)
    assert taskmix.data._physical_memory() is None


def test_ingest_task_rejects_empty_input(tmp_path):
    (tmp_path / "tr").write_text("\n")
    (tmp_path / "te").write_text("\n")
    with pytest.raises(ParseError):
        ingest_task(tmp_path / "tr", tmp_path / "te", "t")


# ----------------------------------------------- alignment and recovery


def _two_overlapping_tasks():
    a = _toy_task("alpha", ["a", "b", "c"],
                  [[1.0, 0.0, 2.0], [0.0, 3.0, 0.0], [1.5, 1.0, 1.0]],
                  [1.0, 0.0, 1.0])
    b = _toy_task("beta", ["b", "c", "d"],
                  [[2.0, 0.0, 1.0], [0.0, 1.0, 4.0]],
                  [0.0, 1.0])
    return align_tasks([a, b])


def test_align_tasks_builds_sorted_union_vocabulary():
    tasks = _two_overlapping_tasks()
    meta = tasks[0].schema.meta_vocab
    assert meta.names == ("a", "b", "c", "d", "label::alpha", "label::beta")
    assert tasks[1].schema.meta_vocab == meta
    for t in tasks:
        assert t.schema.label_concept in t.schema.causal_mask


def test_meta_dataset_masks_on_read_but_recovers_originals():
    tasks = _two_overlapping_tasks()
    meta = build_meta_dataset(tasks)
    assert meta.num_tasks == 2
    assert meta.num_concepts == 6

    # raw footprint keeps the label value at the label coordinate ...
    fp = meta.tasks[0].footprint("train")
    lab_col = meta.meta_vocab.index("label::alpha")
    np.testing.assert_array_equal(fp[:, lab_col], [1.0, 0.0, 1.0])
    # ... while every accessor zeroes the masked coordinates
    dense = meta.dense_rows(0, None, "train")
    np.testing.assert_array_equal(dense[:, lab_col], 0.0)

    for ti, original in enumerate(tasks):
        rows, labels = recover_task(meta, ti, "train")
        want_rows, want_labels = original.splits["train"]
        assert rows.tobytes() == want_rows.tobytes()
        assert labels.tobytes() == want_labels.tobytes()


def test_meta_dataset_dense_batch_matches_per_task_rows():
    tasks = _two_overlapping_tasks()
    meta = build_meta_dataset(tasks)
    task_ids = np.array([0, 1, 0, 1, 1])
    row_ids = np.array([2, 0, 0, 1, 1])
    X, y = meta.dense_batch(task_ids, row_ids)
    for i in range(5):
        t, r = int(task_ids[i]), int(row_ids[i])
        np.testing.assert_array_equal(
            X[i], meta.dense_rows(t, np.array([r]), "train")[0])
        assert y[i] == meta.labels(t, "train")[r]


def _zero_fill_batch(meta, task_ids, row_ids, split="train"):
    # reference: zero-filled batch, each task's rows copied into place
    X = np.zeros((task_ids.size, meta.num_concepts))
    y = np.zeros(task_ids.size)
    for t in np.unique(task_ids):
        at = np.flatnonzero(task_ids == t)
        X[at] = meta.dense_rows(int(t), row_ids[at], split)
        y[at] = meta.labels(int(t), split)[row_ids[at]]
    return X, y


def test_meta_dataset_dense_batch_is_the_zero_fill_batch_bit_for_bit():
    meta = build_meta_dataset(_two_overlapping_tasks())
    # stored -0.0 values and labels must come through with their sign
    for t in range(meta.num_tasks):
        live = np.flatnonzero(~meta.masks[t])
        meta.tasks[t].footprint("train")[0, live[0]] = -0.0
        meta.labels(t, "train")[1] = -0.0
    batches = [(np.zeros(4, np.int64), np.array([2, 0, 1, 0])),
               (np.ones(3, np.int64), np.array([1, 0, 1])),
               (np.array([0, 1, 0, 1, 0]), np.array([2, 0, 0, 1, 1]))]
    for task_ids, row_ids in batches:
        X, y = meta.dense_batch(task_ids, row_ids)
        want_X, want_y = _zero_fill_batch(meta, task_ids, row_ids)
        assert X.tobytes() == want_X.tobytes()
        assert y.tobytes() == want_y.tobytes()
        assert np.any((X == 0.0) & np.signbit(X))
        assert np.any((y == 0.0) & np.signbit(y))


@st.composite
def _signed_zero_base(draw):
    """A supervised task whose stored values and labels include -0.0."""
    d, n, n_val = draw(st.integers(2, 4)), draw(st.integers(2, 6)), \
        draw(st.integers(1, 3))
    value = st.sampled_from([-0.0, 0.0, 1.0, 1.0, -1.5])
    splits = {}
    for name, k in (("train", n), ("val", n_val)):
        X = np.array(draw(st.lists(st.lists(value, min_size=d, max_size=d),
                                   min_size=k, max_size=k)))
        y = np.array(draw(st.lists(st.sampled_from([-0.0, 0.0, 1.0]),
                                   min_size=k, max_size=k)))
        splits[name] = (X, y)
    vocab = Vocabulary([f"f{i + 1}" for i in range(d)])
    label = LABEL_PREFIX + "base"
    schema = TaskSchema.build("base", label, vocab,
                              align_vocabularies([vocab], [label]), {label})
    return TaskDataset(schema, splits)


@settings(deadline=None, max_examples=40)
@given(_signed_zero_base(), st.data())
def test_dense_batch_is_the_zero_fill_batch_on_shared_and_own_blocks(
        base, data):
    # the base and auxiliary tasks share one footprint array per split, -0.0
    # values included; the two-task test above covers a table of several
    meta = build_meta_dataset([base] + build_auxiliary_tasks(base, "all"))
    assert not meta._tables  # set-up builds no dense table
    k = meta.num_tasks
    for split in ("train", "val", "train"):
        sizes = meta.sizes(split)
        task_ids = np.array(data.draw(st.lists(st.integers(0, k - 1),
                                               max_size=12)), dtype=np.int64)
        if task_ids.size and data.draw(st.booleans()):  # a one-task batch
            task_ids[:] = task_ids[0]
        row_ids = np.array([data.draw(st.integers(0, sizes[t] - 1))
                            for t in task_ids], dtype=np.int64)
        X, y = meta.dense_batch(task_ids, row_ids, split)
        want_X, want_y = _zero_fill_batch(meta, task_ids, row_ids, split)
        assert X.tobytes() == want_X.tobytes()
        assert y.tobytes() == want_y.tobytes()
    assert sorted(meta._tables) == ["train", "val"]


def test_dense_batch_rejects_rows_outside_the_split():
    meta = build_meta_dataset(_two_overlapping_tasks())
    with pytest.raises(IndexError):
        meta.dense_batch(np.array([0, 1]), np.array([0, 2]))  # beta has 2
    with pytest.raises(IndexError):
        meta.dense_batch(np.array([0]), np.array([-1]))
    with pytest.raises(IndexError):
        meta.dense_batch(np.array([-1]), np.array([0]))


def test_meta_dataset_hashes_a_shared_meta_vocabulary_once(monkeypatch):
    tasks = _two_overlapping_tasks()
    assert tasks[0].schema.meta_vocab is tasks[1].schema.meta_vocab
    calls = []
    fingerprint = Vocabulary.fingerprint
    monkeypatch.setattr(Vocabulary, "fingerprint",
                        lambda self: calls.append(self) or fingerprint(self))
    build_meta_dataset(tasks)
    assert len(calls) == 1

    def realigned(task, names):
        schema = task.schema.with_alignment(Vocabulary(names),
                                            task.schema.causal_mask)
        return TaskDataset(schema, task.splits)

    names = tasks[1].schema.meta_vocab.names
    # an equal but distinct vocabulary is hashed and accepted ...
    build_meta_dataset([tasks[0], realigned(tasks[1], names)])
    # ... and a different one rejected
    with pytest.raises(SchemaError, match="different meta-vocabulary"):
        build_meta_dataset([tasks[0], realigned(tasks[1], names + ("z",))])


def test_meta_dataset_rejects_mismatched_alignment_and_dupes():
    tasks = _two_overlapping_tasks()
    stray = _toy_task("gamma", ["z"], [[1.0]], [1.0])
    with pytest.raises(SchemaError):
        build_meta_dataset([tasks[0], stray])
    with pytest.raises(SchemaError):
        build_meta_dataset([tasks[0], tasks[0]])
    with pytest.raises(SchemaError):
        build_meta_dataset([])


def test_meta_dataset_instances_iterates_masked_sparse_rows():
    tasks = _two_overlapping_tasks()
    meta = build_meta_dataset(tasks)
    rows = list(instances(meta, "train"))
    assert len(rows) == 5
    seen = {0: 0, 1: 0}
    for t, dense, y in rows:
        masked = meta.tasks[t].schema.mask_indices()
        assert not np.any(dense[masked])
        # the dense reader the program uses gives the same masked row
        r = seen[t]
        np.testing.assert_array_equal(
            meta.dense_rows(t, np.array([r]), "train")[0], dense)
        assert y == meta.labels(t, "train")[r]
        seen[t] += 1


# -------------------------------------------------------- auxiliary tasks


def _aux_base(tmp_path):
    X = np.array([[0.0, 1.0, 2.5, 7.0],
                  [1.0, 0.0, 1.5, 7.0],
                  [0.0, 1.0, 3.5, 7.0],
                  [1.0, 1.0, 0.5, 7.0],
                  [0.0, 0.0, 2.0, 7.0],
                  [1.0, 0.0, 1.0, 7.0]])
    y = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0])
    _write_libsvm(tmp_path / "tr", X, y)
    _write_libsvm(tmp_path / "te", X[:2], y[:2])
    return ingest_task(tmp_path / "tr", tmp_path / "te", "base",
                       val_fraction=0.0)


def test_build_auxiliary_tasks_kinds_and_constant_skip(tmp_path, caplog):
    base = _aux_base(tmp_path)
    with caplog.at_level("WARNING"):
        aux = build_auxiliary_tasks(base, "all")
    assert [t.schema.task_id for t in aux] == ["aux:f1", "aux:f2", "aux:f3"]
    assert "aux:f4" not in [t.schema.task_id for t in aux]
    assert any("f4" in r.message and "constant" in r.message
               for r in caplog.records)

    by_id = {t.schema.task_id: t for t in aux}
    f1 = by_id["aux:f1"]
    assert f1.schema.loss_kind == "binary"
    assert f1.schema.label_concept == "f1"
    np.testing.assert_array_equal(f1.labels("train"),
                                  base.dense("train", masked=False)[:, 0])
    f3 = by_id["aux:f3"]
    assert f3.schema.loss_kind == "regression"
    z = f3.labels("train")
    np.testing.assert_allclose(z.mean(), 0.0, atol=1e-12)
    np.testing.assert_allclose(z.std(), 1.0, atol=1e-12)
    # the predicted feature itself is always masked out of its own inputs
    for t in aux:
        assert t.schema.label_concept in t.schema.causal_mask


def test_auxiliary_tasks_share_footprint_storage_with_base(tmp_path):
    base = _aux_base(tmp_path)
    aux = build_auxiliary_tasks(base, "all")
    meta = build_meta_dataset([base] + aux)
    lab = meta.meta_vocab.index("label::base")
    for split in ("train", "val", "test"):
        # the auxiliary tasks' rows are the base's own footprint, so all of
        # them hold one array
        root = base.footprint(split)
        for task in meta.tasks:
            assert task.footprint(split) is root
        np.testing.assert_array_equal(root[:, lab], base.labels(split))
        assert aux[0].splits[split][0] is root
        # ... and the split's table is that array: n rows, not 2n
        table = meta._split_tables(split)[0]
        assert table is root and len(table) == base.n(split)


def test_auxiliary_tasks_share_the_base_footprint_without_hashing(
        tmp_path, monkeypatch):
    # one array per split because every task reads the base's own, not
    # because equal bytes were found
    def no_hash(block):
        raise AssertionError("a footprint was hashed during set-up")

    base = _aux_base(tmp_path)
    monkeypatch.setattr(taskmix.data, "_digest", no_hash)
    meta = build_meta_dataset([base] + build_auxiliary_tasks(base, "all"))
    assert meta.num_tasks == 4
    for split in ("train", "val", "test"):
        assert len({id(t.footprint(split)) for t in meta.tasks}) == 1


def test_one_task_meta_dataset_reads_the_task_footprint(tmp_path):
    # as online_adapt and the metrics command build it: no new array
    base = _aux_base(tmp_path)
    blocks = {split: base.footprint(split) for split in base.splits}
    meta = build_meta_dataset([base])
    for split, block in blocks.items():
        assert meta.tasks[0].footprint(split) is block
        assert meta._split_tables(split)[0] is block


def test_auxiliary_sample_policy_is_seeded_subset(tmp_path):
    base = _aux_base(tmp_path)
    s1 = build_auxiliary_tasks(base, "sample", sample_k=2, seed=11)
    s2 = build_auxiliary_tasks(base, "sample", sample_k=2, seed=11)
    assert [t.schema.task_id for t in s1] == [t.schema.task_id for t in s2]
    assert len(s1) == 2
    all_ids = {t.schema.task_id for t in build_auxiliary_tasks(base, "all")}
    assert {t.schema.task_id for t in s1} <= all_ids
    capped = build_auxiliary_tasks(base, "sample", sample_k=99, seed=0)
    assert {t.schema.task_id for t in capped} == all_ids
    with pytest.raises(ValueError):
        build_auxiliary_tasks(base, "sample", sample_k=-1)
    with pytest.raises(ValueError):
        build_auxiliary_tasks(base, "everything")


def _column(rng, kind, n):
    if kind == "constant":
        return np.full(n, rng.choice([0.0, -0.0, 3.0]))
    if kind == "binary":
        return rng.integers(0, 2, size=n).astype(np.float64)
    if kind == "signed zeros":
        return rng.choice([0.0, -0.0, 1.0], size=n)
    if kind == "sparse":
        return rng.choice([0.0, 0.0, 0.0, 2.0, -1.5], size=n)
    return np.round(rng.normal(size=n), int(rng.integers(0, 3)))


@settings(max_examples=120, deadline=None)
@given(st.lists(st.sampled_from(["constant", "binary", "signed zeros",
                                 "sparse", "real"]), min_size=1, max_size=6),
       st.sampled_from([1, 2, 3, 7, 129, 200]), st.integers(0, 4),
       st.integers(0, 3), st.integers(1, 3), st.integers(0, 2**32 - 1),
       st.sampled_from([("all", 0), ("sample", 0), ("sample", 2),
                        ("sample", 9)]))
def test_auxiliary_tasks_match_the_per_feature_builder(
        kinds, n_train, n_val, n_test, min_support, seed, policy):
    # -0.0 entries, constant and {0,1} columns, n > 128 rows (pairwise
    # summation in mean and std), a support floor and the sample policy
    rng = np.random.default_rng(seed)
    names = [f"f{i + 1}" for i in range(len(kinds))]
    splits = {}
    for split, n in (("train", n_train), ("val", n_val), ("test", n_test)):
        X = np.stack([_column(rng, kind, n) for kind in kinds], axis=1)
        splits[split] = (X, rng.integers(0, 2, size=n).astype(np.float64))
    vocab = Vocabulary(names)
    meta = align_vocabularies([vocab], ["label::base"])
    schema = TaskSchema.build("base", "label::base", vocab, meta,
                              {"label::base"})
    base = align_tasks([TaskDataset(schema, splits)], min_support)[0]
    kwargs = dict(sample_k=policy[1], seed=seed, min_support=min_support)
    got = build_auxiliary_tasks(base, policy[0], **kwargs)
    want = oracles.build_auxiliary_tasks(base, policy[0], **kwargs)
    assert [t.schema for t in got] == [t.schema for t in want]
    for g, w in zip(got, want):
        for split in splits:
            (g_rows, g_y), (w_rows, w_y) = g.splits[split], w.splits[split]
            assert g_rows is got[0].splits[split][0]  # one shared block
            assert g_rows.tobytes() == w_rows.tobytes()
            assert g_y.dtype == w_y.dtype and g_y.tobytes() == w_y.tobytes()


# --------------------------------------------------------------- sampler


def test_batch_sampler_is_deterministic_and_in_bounds():
    a = BatchSampler([10, 5, 20], batch_size=16, seed=4)
    b = BatchSampler([10, 5, 20], batch_size=16, seed=4)
    sizes = np.array([10, 5, 20])
    for _ in range(20):
        ta, ra = a.draw()
        tb, rb = b.draw()
        np.testing.assert_array_equal(ta, tb)
        np.testing.assert_array_equal(ra, rb)
        assert ta.shape == ra.shape == (16,)
        assert np.all((ta >= 0) & (ta < 3))
        assert np.all(ra >= 0) and np.all(ra < sizes[ta])


def test_batch_sampler_draws_tasks_proportionally():
    sampler = BatchSampler([100, 300], batch_size=1000, seed=0)
    tasks = np.concatenate([sampler.draw()[0] for _ in range(40)])
    frac = (tasks == 1).mean()
    assert abs(frac - 0.75) < 0.01  # 40k draws; 3 sigma ~ 0.0065


def test_batch_sampler_handles_empty_tasks_and_validates():
    sampler = BatchSampler([0, 7, 0], batch_size=64, seed=1)
    for _ in range(10):
        t, r = sampler.draw()
        assert np.all(t == 1) and np.all(r < 7)
    with pytest.raises(ValueError):
        BatchSampler([], 4)
    with pytest.raises(ValueError):
        BatchSampler([3, -1], 4)
    with pytest.raises(ValueError):
        BatchSampler([0, 0], 4)
    with pytest.raises(ValueError):
        BatchSampler([5], 0)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=6).filter(lambda s: sum(s) > 0),
       st.integers(1, 64), st.integers(0, 2**31 - 1))
def test_batch_sampler_rows_always_addressable(sizes, batch, seed):
    sampler = BatchSampler(sizes, batch, seed)
    arr = np.asarray(sizes)
    t, r = sampler.draw()
    assert np.all(arr[t] > 0)
    assert np.all(r < arr[t])


# -------------------------------------------------------------- manifest


def test_write_manifest_lists_every_task_with_checksums(tmp_path):
    tasks = _two_overlapping_tasks()
    meta = build_meta_dataset(tasks)
    out = tmp_path / "manifest.txt"
    text = write_manifest(out, meta)
    assert out.read_text() == text
    assert f"sha256={meta.meta_vocab.fingerprint()}" in text
    assert "concepts: 6" in text and "tasks: 2" in text
    for t in tasks:
        assert f"task {t.schema.task_id}:" in text
    # a checksum is the sha256 of the footprint's float64 bytes
    head = hashlib.sha256(tasks[0].footprint("train").tobytes()).hexdigest()
    assert f"train={head[:16]}" in text
    assert write_manifest(None, meta) == text


def test_write_manifest_hashes_each_shared_footprint_once(tmp_path,
                                                         monkeypatch):
    base = _aux_base(tmp_path)
    meta = build_meta_dataset([base] + build_auxiliary_tasks(base, "all"))
    calls = []
    digest = taskmix.data._digest
    monkeypatch.setattr(taskmix.data, "_digest",
                        lambda block: calls.append(block) or digest(block))
    text = write_manifest(None, meta)
    distinct = {id(t.footprint(sp)) for t in meta.tasks for sp in t.splits}
    assert meta.num_tasks > 1 and len(calls) == len(distinct) == 3
    # every task still lists the checksums of its own footprints
    for task in meta.tasks:
        sums = " ".join(
            f"{sp}={hashlib.sha256(task.footprint(sp)).hexdigest()[:16]}"
            for sp in ("train", "val", "test"))
        assert f"task {task.schema.task_id}:" in text
        assert f"  checksums: {sums}" in text
