import tracemalloc

import numpy as np
import pytest

from sigclass import dnn, trainer
from sigclass.config import PipelineConfig
from sigclass.dnn import UNCLASSIFIED
from sigclass.errors import ParseError, ValidationError, write_npz
from sigclass.fusion import FeatureMask, SpectrumRow
from sigclass.rng import derive_rng
from sigclass.spectral import N_BINS
from sigclass.trainer import Dataset
from test_dnn import augmented, bits, net, reference_adam, reference_forward, reference_forward_backward

LN2 = 0.6931471805599453
# the columns of RunLog.records
LOSS, TRAIN_ACC, TEST_ACC, TRAIN_BIT, TEST_BIT = range(5)


def row(label, hot_bins=(), value=5.0, base=0.1):
    bins = np.full(N_BINS, base)
    for b in hot_bins:
        bins[b - 1] = value
    return SpectrumRow(bins=bins, label=label)


def dataset(rows):
    """The Dataset that load_rows returns for a store of these rows."""
    vocab = list(dict.fromkeys(r.label for r in rows))
    return Dataset(np.stack([r.bins for r in rows]), np.array([vocab.index(r.label) for r in rows]), vocab, rows)


def class_indices(rows, vocab):
    return np.array([vocab.index(r.label) for r in rows])


def toy_dataset(n_per_class=20, labels=("A", "B"), hot={"A": (10,), "B": (20,)}):
    rows = []
    for i in range(n_per_class):
        for label in labels:
            rows.append(row(label, hot[label], value=5.0 + 0.01 * i))
    return dataset(rows)


def train_on(ds, mask, cfg):
    """trainer.train on the cfg split of ds, as the train stage runs it."""
    x, y = trainer.features_matrix(ds.rows, mask, cfg.normalize_rows), ds.y
    tr, te = trainer.split(y, cfg)
    return trainer.train(x[tr], y[tr], x[te], y[te], len(ds.label_vocab), cfg)


def score(params, rows, mask, vocab):
    """trainer.evaluate on the normalized masked rows, as the eval stage runs it."""
    x = trainer.features_matrix(rows, mask, True)
    return trainer.evaluate(params, x, class_indices(rows, vocab))


def save_store(path, rows):
    trainer.save_rows(path, np.stack([r.bins for r in rows]), [r.label for r in rows])


def write_store(path, **arrays):
    """A hand-made store: np.savez of exactly these arrays, at exactly this path."""
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


# ---------------------------------------------------------------------------
# load_rows

def test_load_rows_roundtrip(tmp_path):
    ds = toy_dataset(3)
    path = tmp_path / "fused"
    save_store(path, ds.rows)
    assert [p.name for p in tmp_path.iterdir()] == ["fused"]  # no .npz appended
    loaded = trainer.load_rows(path)
    assert len(loaded.rows) == len(ds.rows)
    assert loaded.label_vocab == ["A", "B"]
    assert np.array_equal(loaded.x, ds.x) and np.array_equal(loaded.y, ds.y)
    for a, b in zip(ds.rows, loaded.rows):
        assert np.array_equal(a.bins, b.bins)
        assert a.label == b.label and type(b.label) is str


def test_save_rows_bytes_do_not_depend_on_the_clock(tmp_path, monkeypatch):
    ds = toy_dataset(3)
    stores = []
    for now in (0.0, 2e9):
        monkeypatch.setattr("time.time", lambda now=now: now)
        path = tmp_path / f"rows_{now}.npz"
        save_store(path, ds.rows)
        stores.append(path.read_bytes())
    assert stores[0] == stores[1]


def rows_case(x, labels, id):
    return pytest.param({"x": x, "labels": np.array(labels, dtype=str)}, id=id)


@pytest.mark.parametrize("arrays", [
    rows_case(np.random.default_rng(0).normal(size=(40, N_BINS)), ["A"] * 20 + ["Bee"] * 20, id="rows"),
    rows_case(np.arange(3.0 * N_BINS).reshape(3, N_BINS), ["Öl", "日本", "x"], id="non-ascii-labels"),
    rows_case(np.empty((0, N_BINS)), [], id="empty"),
    # the checkpoint's member kinds, and the layouts np.savez writes in their own order
    pytest.param({"normalize": np.array(True)}, id="0-d-bool"),
    pytest.param({"mask": np.array([3, 17, 120], dtype="<i8")}, id="int64"),
    pytest.param({"vocab": np.array(["AllQuiet", "Öl"])}, id="text"),
    pytest.param({"weights": np.linspace(-1.0, 1.0, 41, dtype="<f4")}, id="float32"),
    pytest.param({"w": np.asfortranarray(np.arange(12.0).reshape(3, 4))}, id="fortran-order"),
    pytest.param({"w": np.arange(24.0).reshape(4, 6)[::2, 1::2]}, id="strided"),
])
def test_save_rows_writes_the_bytes_of_np_savez(tmp_path, arrays):
    # save_rows and dnn.save_checkpoint both write through errors.write_npz
    reference, path = tmp_path / "reference.npz", tmp_path / "written.npz"
    write_store(reference, **arrays)
    write_npz(path, **arrays)
    assert path.read_bytes() == reference.read_bytes()
    if arrays.keys() == {"x", "labels"}:
        trainer.save_rows(path, **arrays)
        assert path.read_bytes() == reference.read_bytes()


def test_save_rows_copies_no_whole_array(tmp_path):
    x = np.random.default_rng(1).normal(size=(5000, N_BINS))  # 12 MB, below np.savez's 16 MiB write buffer
    labels = ["A"] * len(x)
    tracemalloc.start()
    try:
        trainer.save_rows(tmp_path / "rows.npz", x, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes / 20


def test_load_rows_vocab_first_appearance(tmp_path):
    rows = [row("A", (10,)), row("B", (20,)), row("A", (10,))]
    path = tmp_path / "rows.npz"
    save_store(path, rows)
    ds = trainer.load_rows(path)
    assert ds.label_vocab == ["A", "B"]


@pytest.mark.parametrize("x, labels", [
    pytest.param(np.ones((2, N_BINS - 1)), ["A", "B"], id="299-columns"),
    pytest.param(np.ones(N_BINS), ["A"], id="one-dimensional"),
    pytest.param(np.ones((2, N_BINS)), ["A"], id="labels-short"),
])
def test_load_rows_wrong_width(tmp_path, x, labels):
    path = tmp_path / "rows.npz"
    write_store(path, x=x, labels=np.array(labels))
    with pytest.raises(ParseError, match="expected float64"):
        trainer.load_rows(path)


@pytest.mark.parametrize("x", [
    pytest.param(np.ones((2, N_BINS), dtype=int), id="int"),
    pytest.param(np.ones((2, N_BINS), dtype=np.float32), id="float32"),
    pytest.param(np.full((2, N_BINS), "0.1"), id="text"),
])
def test_load_rows_non_float_dtype(tmp_path, x):
    path = tmp_path / "rows.npz"
    write_store(path, x=x, labels=np.array(["A", "B"]))
    with pytest.raises(ParseError, match="expected float64"):
        trainer.load_rows(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_load_rows_non_finite_names_line(tmp_path, token):
    rows = [row("A", (10,)), row("B", (20,))]
    rows[1].bins[0] = float(token)
    path = tmp_path / "rows.npz"
    save_store(path, rows)
    with pytest.raises(ParseError, match="row 2: non-finite"):
        trainer.load_rows(path)


def test_load_rows_empty_file(tmp_path):
    path = tmp_path / "rows.npz"
    path.write_bytes(b"")
    with pytest.raises(ParseError, match="not a rows store"):
        trainer.load_rows(path)
    trainer.save_rows(path, np.empty((0, N_BINS)), [])
    with pytest.raises(ParseError, match="no data rows"):
        trainer.load_rows(path)


def test_load_rows_y_indexes_the_first_appearance_vocab(tmp_path):
    path = tmp_path / "rows.npz"
    save_store(path, [row("C"), row("A"), row("D"), row("C")])
    ds = trainer.load_rows(path)
    assert ds.label_vocab == ["C", "A", "D"]
    assert ds.y.tolist() == [0, 1, 2, 0]


def test_load_rows_y_one_per_row(tmp_path):
    vocab = [f"L{i}" for i in range(7)]
    rows = [row(label) for label in reversed(vocab)] + [row("L3")]
    path = tmp_path / "rows.npz"
    save_store(path, rows)
    ds = trainer.load_rows(path)
    assert ds.y.shape == (len(rows),) and ds.y.dtype.kind == "i"
    assert [ds.label_vocab[i] for i in ds.y] == [r.label for r in rows]
    assert [r.label for r in ds.rows] == [r.label for r in rows]


# ---------------------------------------------------------------------------
# split

def labels_of(ds):
    return ds.y


def test_split_sizes_and_disjointness():
    y = labels_of(toy_dataset(n_per_class=500))  # 1000 rows
    train, test = trainer.split(y, PipelineConfig(seed=1))
    assert len(train) == 800 and len(test) == 200
    assert np.all(np.diff(train) > 0) and np.all(np.diff(test) > 0)
    assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(1000))


def test_split_small_dataset():
    y = labels_of(toy_dataset(n_per_class=5))  # 10 rows
    train, test = trainer.split(y, PipelineConfig(seed=2))
    assert len(train) == 8 and len(test) == 2


def test_split_deterministic():
    y = labels_of(toy_dataset(30))
    a_train, a_test = trainer.split(y, PipelineConfig(seed=9))
    b_train, b_test = trainer.split(y, PipelineConfig(seed=9))
    assert np.array_equal(a_train, b_train) and np.array_equal(a_test, b_test)
    c_train, _ = trainer.split(y, PipelineConfig(seed=10))
    assert not np.array_equal(a_train, c_train)


def row_list_split(ds, cfg):
    """The split as it was on row lists: (train rows, test rows) in file order."""
    n = len(ds.rows)
    in_train = np.zeros(n, dtype=bool)
    perm = derive_rng(cfg.seed, "split").permutation(n)
    in_train[perm[: int(round(cfg.train_fraction * n))]] = True
    return (
        [r for r, keep in zip(ds.rows, in_train) if keep],
        [r for r, keep in zip(ds.rows, in_train) if not keep],
    )


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_split_indices_match_row_list_split(seed):
    # three classes of unequal size, interleaved
    sizes = {"A": 37, "B": 20, "C": 53}
    rows = [row(label) for i in range(53) for label in sizes if i < sizes[label]]
    ds = dataset(rows)
    cfg = PipelineConfig(seed=seed, train_fraction=0.7)
    train, test = trainer.split(labels_of(ds), cfg)
    ref_train, ref_test = row_list_split(ds, cfg)
    assert [id(ds.rows[i]) for i in train] == [id(r) for r in ref_train]
    assert [id(ds.rows[i]) for i in test] == [id(r) for r in ref_test]


# ---------------------------------------------------------------------------
# features

def test_features_matrix_normalizes_rows():
    mask = FeatureMask(kept=[10, 20])
    rows = [row("A", (10,), value=8.0, base=2.0)]
    x = trainer.features_matrix(rows, mask, normalize=True)
    assert np.allclose(x, [[1.0, 0.25]])
    raw = trainer.features_matrix(rows, mask, normalize=False)
    assert np.allclose(raw, [[8.0, 2.0]])


def test_features_matrix_zero_row_untouched():
    mask = FeatureMask(kept=[10, 20])
    signed = np.zeros(N_BINS)
    signed[mask.index] = -0.0, -3.0  # no positive peak, so kept bit for bit
    rows = [SpectrumRow(bins=np.zeros(N_BINS), label="A"), SpectrumRow(bins=signed, label="A")]
    x = trainer.features_matrix(rows, mask, normalize=True)
    assert np.array_equal(x, [[0.0, 0.0], [-0.0, -3.0]])
    assert np.array_equal(np.signbit(x), [[False, False], [True, True]])


# ---------------------------------------------------------------------------
# train

def test_train_logs_one_record_per_run():
    ds = toy_dataset(20)
    cfg = PipelineConfig(runs=200, batch_size=16, seed=5)
    params, log = train_on(ds, FeatureMask(kept=[10, 20]), cfg)
    assert log.records.shape == (200, 5) and log.records.dtype == np.float64
    assert np.isfinite(log.records).all()


def test_train_single_run_zero_net_loss_near_ln2(monkeypatch):
    ds = toy_dataset(20)
    d, c = 2, 2
    zero = np.zeros(d * (2 * d + c + 2) + c)
    monkeypatch.setattr(trainer.dnn, "init_network", lambda d_in, c_out, seed: zero)
    cfg = PipelineConfig(runs=1, batch_size=16, seed=6)
    params, log = train_on(ds, FeatureMask(kept=[10, 20]), cfg)
    # one 0.005-sized Adam step barely moves the logits away from 0
    assert log.records[0, LOSS] == pytest.approx(LN2, abs=0.05)


def test_train_deterministic():
    ds = toy_dataset(20)
    cfg = PipelineConfig(runs=10, batch_size=16, seed=7)
    p1, log1 = train_on(ds, FeatureMask(kept=[10, 20]), cfg)
    p2, log2 = train_on(ds, FeatureMask(kept=[10, 20]), cfg)
    assert np.array_equal(log1.records, log2.records)
    for a, b in zip(p1, p2):
        assert np.array_equal(a, b)


def test_train_zero_learn_rate_freezes_metrics():
    ds = toy_dataset(20)
    cfg = PipelineConfig(runs=8, batch_size=16, seed=8)
    cfg.learn_rate = 0.0  # a config rejects it; train itself must still hold still
    _, log = train_on(ds, FeatureMask(kept=[10, 20]), cfg)
    losses = set(log.records[:, LOSS].tolist())
    accs = set(log.records[:, TEST_ACC].tolist())
    assert len(losses) == 1 and len(accs) == 1


def test_train_learns_separable_toy():
    ds = toy_dataset(30)
    cfg = PipelineConfig(runs=300, batch_size=24, seed=9)
    params, log = train_on(ds, FeatureMask(kept=[10, 20]), cfg)
    assert log.records[-1, TEST_ACC] == 1.0
    assert log.records[-1, TRAIN_ACC] == 1.0
    assert log.records[-1, LOSS] < log.records[0, LOSS]


def reference_train(x_train, y_train, x_test, y_test, c, cfg, score_dtype=np.float32):
    """The training loop with new arrays for every step: the bitwise reference.

    It runs the float32 net as plain expressions (`reference_forward_backward`)
    on the batch's columns, steps Adam per parameter array, and scores with
    `reference_forward` over the stacked rows as columns, decoding the train
    and test logits apart; the loss is `dnn.loss` of the train logits.  With
    score_dtype float64 it scores a float64 copy of the parameters over the
    float64 rows instead.
    """
    n_train, d = x_train.shape
    hot_train, hot_test = np.eye(c, dtype=bool)[:, y_train], np.eye(c, dtype=bool)[:, y_test]
    targets = hot_train.astype(np.float32)
    a = augmented(np.concatenate([x_train, x_test]))
    scored = augmented(np.concatenate([x_train, x_test]), score_dtype)
    theta = dnn.init_network(d, c, seed=derive_rng(cfg.seed, "init").integers(2**32)).astype(np.float32)
    params = dnn.unflatten(theta, d, c)
    m, v = [np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params]
    batch_rng = derive_rng(cfg.seed, "batches")
    records = []
    for run in range(1, cfg.runs + 1):
        idx = batch_rng.choice(n_train, size=cfg.batch_size, replace=False)
        _, grads = reference_forward_backward(params, np.take(a, idx, axis=1), np.take(targets, idx, axis=1))
        params, m, v = reference_adam(params, grads, m, v, run, cfg.learn_rate)
        logits = reference_forward([p.astype(score_dtype) for p in params], scored)[0]
        train_logits, test_logits = logits[:, :n_train], logits[:, n_train:]
        scores = []
        for split_logits, y, y_hot in [(train_logits, y_train, hot_train), (test_logits, y_test, hot_test)]:
            hot = split_logits >= 0
            preds = np.where(np.count_nonzero(hot, axis=0) == 1, hot.argmax(axis=0), UNCLASSIFIED)
            scores += [float(np.mean(preds == y)), float(np.mean(hot == y_hot))]
        train_acc, train_bit, test_acc, test_bit = scores
        loss = dnn.loss(train_logits, targets.astype(score_dtype), np.empty((2, c, n_train), score_dtype))
        records.append((loss, train_acc, test_acc, train_bit, test_bit))
    return params, np.array(records)


def test_float32_scoring_matches_float64_reference():
    ds = toy_dataset(30, labels=("A", "B", "C"), hot={"A": (10,), "B": (20,), "C": (30,)})
    cfg = PipelineConfig(runs=600, batch_size=24, seed=12)
    x, y = trainer.features_matrix(ds.rows, FeatureMask(kept=[10, 20, 30]), cfg.normalize_rows), ds.y
    tr, te = trainer.split(y, cfg)
    params, log = trainer.train(x[tr], y[tr], x[te], y[te], 3, cfg)
    ref_params, ref_records = reference_train(x[tr], y[tr], x[te], y[te], 3, cfg, score_dtype=np.float64)
    for a, b in zip(params, ref_params):
        assert np.array_equal(bits(a), bits(b))
    assert log.records.shape == ref_records.shape == (600, 5)
    assert np.array_equal(log.records[:, TRAIN_ACC:], ref_records[:, TRAIN_ACC:])
    assert log.records[:, LOSS] == pytest.approx(ref_records[:, LOSS], rel=1e-6)
    # the accuracies move over the runs, so the equality above is not vacuous
    assert len(set(ref_records[:, TEST_ACC].tolist())) > 2 and ref_records[-1, TEST_ACC] == 1.0


@pytest.mark.parametrize("n, d, c, batch, runs", [
    (48, 5, 3, 12, 40),
    (60, 13, 2, None, 30),  # None: the batch is the whole training split
    (300, 77, 4, 150, 150),
], ids=["d5-c3", "d13-c2-full-batch", "d77-c4"])
def test_train_bit_identical_to_reference_loop(tmp_path, n, d, c, batch, runs):
    rng = np.random.default_rng(d)
    y = np.arange(n) % c
    x = 0.1 + rng.random((n, d))
    x[np.arange(n), y] += 2.0  # one bin per class stands out
    x /= x.max(axis=1, keepdims=True)
    cfg = PipelineConfig(runs=runs, batch_size=1, seed=d)
    tr, te = trainer.split(y, cfg)
    cfg.batch_size = batch or len(tr)
    params, log = trainer.train(x[tr], y[tr], x[te], y[te], c, cfg)
    ref_params, ref_records = reference_train(x[tr], y[tr], x[te], y[te], c, cfg)
    assert [a.shape for a in params] == [a.shape for a in ref_params]
    for a, b in zip(params, ref_params):
        assert a.dtype == np.float32 and np.array_equal(bits(a), bits(b))
    assert log.records.shape == ref_records.shape == (runs, 5)
    assert np.array_equal(log.records.view(np.int64), ref_records.view(np.int64))
    # runlog.csv writes the repr of each value as a Python float
    trainer.write_runlog_csv(tmp_path / "runlog.csv", log)
    lines = [f"{run},{loss!r},{train_acc!r},{test_acc!r},{train_bit!r},{test_bit!r}"
             for run, (loss, train_acc, test_acc, train_bit, test_bit) in enumerate(ref_records.tolist(), start=1)]
    assert (tmp_path / "runlog.csv").read_text().splitlines()[1:] == lines
    # the scores move over the runs, so the equality above is not vacuous
    assert len(set(ref_records[:, LOSS].tolist())) == runs
    assert len({tuple(r) for r in ref_records[:, TRAIN_ACC:].tolist()}) > 2


def test_a_training_run_allocates_nothing_that_grows_with_rows_or_parameters(monkeypatch):
    """Per tracemalloc, a run holds no more than a few Python objects beyond what it keeps.

    Each window runs from one batch draw to the next, leaving out the draw
    itself (numpy's choice keeps its own few-KB set of drawn indices).  With
    numpy's casting buffers cut to 64 elements, one byte per row would show
    as 8,000 bytes, a float per batch element as 20,480 and a float per
    parameter as 27,224.
    """
    import tracemalloc

    windows = []

    class Measured:
        def __init__(self, rng):
            self.rng = rng

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def choice(self, *args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            windows.append(peak - current)
            idx = self.rng.choice(*args, **kwargs)
            tracemalloc.reset_peak()
            return idx

    derive = trainer.derive_rng
    monkeypatch.setattr(trainer, "derive_rng", lambda seed, name: Measured(derive(seed, name)))
    n, d, c = 8000, 40, 3
    y = np.arange(n) % c
    x = np.random.default_rng(1).random((n, d))
    bufsize = np.setbufsize(64)
    tracemalloc.start()
    try:
        trainer.train(x[:6400], y[:6400], x[6400:], y[6400:], c, PipelineConfig(runs=12, batch_size=64, seed=1))
    finally:
        tracemalloc.stop()
        np.setbufsize(bufsize)
    assert len(windows) == 12
    assert max(windows[1:]) < 4096, windows  # the first window is the setup


def test_train_rejects_features_beyond_float32():
    x = np.full((10, 2), 1e39)  # raw magnitudes (normalize_rows = false) past float32's range
    y = np.arange(10) % 2
    with pytest.raises(ValidationError, match="exceeds float32"):
        trainer.train(x[:8], y[:8], x[8:], y[8:], 2, PipelineConfig(runs=1, batch_size=4))


@pytest.mark.parametrize("n, huge", [(300, slice(None)), (6000, slice(-40, None))],
                         ids=["all-rows", "last-test-rows"])
def test_train_rejects_features_that_overflow_the_float32_scoring(n, huge):
    # every value fits float32, but the net's float32 first-layer matmul overflows;
    # when only the last rows are huge, a second BLAS thread may hold the overflow
    x = np.random.default_rng(0).random((n, 20))
    x[huge] *= 3e38
    assert np.all(x < np.finfo(np.float32).max)
    y = np.arange(n) % 3
    cut = n * 4 // 5
    with pytest.raises(ValidationError, match="run 1: the feature magnitudes can overflow the float32 network"):
        trainer.train(x[:cut], y[:cut], x[cut:], y[cut:], 3, PipelineConfig(runs=2, batch_size=8))


def test_train_rejects_oversized_batch():
    ds = toy_dataset(5)  # 10 rows -> 8 train rows
    with pytest.raises(ValidationError):
        cfg = PipelineConfig(runs=1, batch_size=9, seed=0)
        train_on(ds, FeatureMask(kept=[10, 20]), cfg)


# ---------------------------------------------------------------------------
# evaluate

def hand_built_classifier():
    """d=2, c=2 float32 net that maps feature argmax to the class index; its biases are 0."""
    w = np.array([[20.0, -20.0, 0.0], [-20.0, 20.0, 0.0]], np.float32)
    return [w, w.copy(), 1.5 * w]


def test_evaluate_perfect_toy_model():
    params = hand_built_classifier()
    rows = [row("A", (10,)) for _ in range(6)] + [row("B", (20,)) for _ in range(4)]
    mask = FeatureMask(kept=[10, 20])
    acc, counts = score(params, rows, mask, ["A", "B"])
    assert acc == 1.0
    assert np.array_equal(counts, [[6, 0, 0], [0, 4, 0]])


def test_evaluate_counts_conserved():
    rng = np.random.default_rng(13)
    params = net(4, 3, seed=13, dtype=np.float32)
    labels = ["A", "B", "C"]
    rows = []
    for _ in range(60):
        label = labels[rng.integers(0, 3)]
        bins = rng.random(N_BINS) * 4
        rows.append(SpectrumRow(bins=bins, label=label))
    mask = FeatureMask(kept=[1, 2, 3, 4])
    acc, counts = score(params, rows, mask, labels)
    assert counts.shape == (3, 4)
    assert counts.sum() == 60
    for i, label in enumerate(labels):
        assert counts[i].sum() == sum(r.label == label for r in rows)
    unclassified = counts[:, -1].sum()
    assert acc <= 1.0 - unclassified / 60.0 + 1e-12
    # per-row reference tally
    preds = dnn.predict_batch(params, augmented(trainer.features_matrix(rows, mask, True)))
    expected = np.zeros((3, 4), dtype=int)
    for r, pred in zip(rows, preds):
        expected[labels.index(r.label), 3 if pred == UNCLASSIFIED else pred] += 1
    assert np.array_equal(counts, expected)
    assert acc == sum(labels.index(r.label) == p for r, p in zip(rows, preds)) / 60


def test_evaluate_unclassified_lands_in_last_column():
    params = hand_built_classifier()
    # equal features drive both outputs high -> not a one-hot
    rows = [row("A", (10, 20))]
    acc, counts = score(params, rows, FeatureMask(kept=[10, 20]), ["A", "B"])
    assert acc == 0.0
    assert counts[0, 2] == 1


# ---------------------------------------------------------------------------
# csv artifacts

def test_runlog_csv_format(tmp_path):
    ds = toy_dataset(20)
    cfg = PipelineConfig(runs=3, batch_size=16, seed=5)
    _, log = train_on(ds, FeatureMask(kept=[10, 20]), cfg)
    path = tmp_path / "runlog.csv"
    trainer.write_runlog_csv(path, log)
    lines = path.read_text().splitlines()
    assert lines[0] == "run,train_loss,train_acc,test_acc,train_bit_acc,test_bit_acc"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(log.records[0, LOSS])


def test_confusion_csv_format(tmp_path):
    counts = np.array([[3, 1, 2], [0, 4, 0]])
    path = tmp_path / "cm.csv"
    trainer.write_confusion_csv(path, ["A", "B"], counts)
    lines = path.read_text().splitlines()
    assert lines[0] == "actual,A,B,Unclassified"
    assert lines[1] == "A,3,1,2"
    assert lines[2] == "B,0,4,0"


def test_format_confusion_mentions_unclassified():
    counts = np.array([[3, 1, 2], [0, 4, 0]])
    text = trainer.format_confusion(["A", "B"], counts)
    assert "Unclassified" in text and "A" in text
