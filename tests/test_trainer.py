import numpy as np
import pytest

from sigclass import dnn, trainer
from sigclass.config import PipelineConfig
from sigclass.dnn import UNCLASSIFIED
from sigclass.errors import ParseError, ValidationError
from sigclass.fusion import FeatureMask, SpectrumRow
from sigclass.rng import derive_rng
from sigclass.spectral import N_BINS
from sigclass.trainer import Dataset

LN2 = 0.6931471805599453


def row(label, hot_bins=(), value=5.0, base=0.1):
    bins = np.full(N_BINS, base)
    for b in hot_bins:
        bins[b - 1] = value
    return SpectrumRow(bins=bins, label=label)


def toy_dataset(n_per_class=20, labels=("A", "B"), hot={"A": (10,), "B": (20,)}):
    rows = []
    for i in range(n_per_class):
        for label in labels:
            rows.append(row(label, hot[label], value=5.0 + 0.01 * i))
    return Dataset.from_rows(rows)


def train_on(ds, mask, cfg):
    """trainer.train on the cfg split of ds, as the train stage runs it."""
    x = trainer.features_matrix(ds.rows, mask, cfg.normalize_rows)
    y = trainer.label_index(ds.rows, ds.label_vocab)
    tr, te = trainer.split(y, cfg)
    return trainer.train(x[tr], y[tr], x[te], y[te], len(ds.label_vocab), cfg)


def score(params, rows, mask, vocab):
    """trainer.evaluate on the normalized masked rows, as the eval stage runs it."""
    x = trainer.features_matrix(rows, mask, True)
    return trainer.evaluate(params, x, trainer.label_index(rows, vocab), vocab)


def rows_csv_text(rows):
    lines = []
    for r in rows:
        lines.append(",".join(repr(float(v)) for v in r.bins) + f",{r.label}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# load_rows

def test_load_rows_roundtrip(tmp_path):
    ds = toy_dataset(3)
    path = tmp_path / "rows.csv"
    trainer.save_rows(path, np.stack([r.bins for r in ds.rows]), [r.label for r in ds.rows])
    loaded = trainer.load_rows(path)
    assert len(loaded.rows) == len(ds.rows)
    assert loaded.label_vocab == ["A", "B"]
    for a, b in zip(ds.rows, loaded.rows):
        assert np.array_equal(a.bins, b.bins)
        assert a.label == b.label


def test_load_rows_vocab_first_appearance(tmp_path):
    rows = [row("A", (10,)), row("B", (20,)), row("A", (10,))]
    path = tmp_path / "rows.csv"
    path.write_text(rows_csv_text(rows))
    ds = trainer.load_rows(path)
    assert ds.label_vocab == ["A", "B"]


def test_load_rows_wrong_arity_names_line(tmp_path):
    good = rows_csv_text([row("A", (10,))])
    bad = ",".join(["1.0"] * N_BINS) + "\n"  # 300 fields, label missing
    path = tmp_path / "rows.csv"
    path.write_text(good + bad)
    with pytest.raises(ParseError) as err:
        trainer.load_rows(path)
    assert "line 2" in str(err.value)


def test_load_rows_bad_number_names_line(tmp_path):
    text = rows_csv_text([row("A", (10,))]).replace("0.1", "zap", 1)
    path = tmp_path / "rows.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        trainer.load_rows(path)
    assert "line 1" in str(err.value)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_load_rows_non_finite_names_line(tmp_path, token):
    text = rows_csv_text([row("A", (10,)), row("B", (20,))])
    lines = text.splitlines()
    lines[1] = lines[1].replace("0.1", token, 1)
    path = tmp_path / "rows.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="line 2: non-finite"):
        trainer.load_rows(path)


def test_load_rows_empty_file(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("# only a comment\n")
    with pytest.raises(ParseError):
        trainer.load_rows(path)


def test_load_rows_skips_comment_header(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("# header\n" + rows_csv_text([row("A", (10,)), row("B", (11,))]))
    ds = trainer.load_rows(path)
    assert len(ds.rows) == 2


# ---------------------------------------------------------------------------
# label_index

def test_label_index_vocab_order():
    rows = [row("C"), row("A"), row("D"), row("C")]
    idx = trainer.label_index(rows, ["A", "B", "C", "D"])
    assert idx.tolist() == [2, 0, 3, 2]


def test_label_index_one_per_row():
    vocab = [f"L{i}" for i in range(7)]
    rows = [row(label) for label in reversed(vocab)] + [row("L3")]
    idx = trainer.label_index(rows, vocab)
    assert idx.shape == (len(rows),)
    assert [vocab[i] for i in idx] == [r.label for r in rows]


def test_label_index_unknown_label():
    with pytest.raises(ValidationError, match="'Z'"):
        trainer.label_index([row("A"), row("Z")], ["A", "B"])


# ---------------------------------------------------------------------------
# split

def labels_of(ds):
    return trainer.label_index(ds.rows, ds.label_vocab)


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
    rng = derive_rng(cfg.seed, "split")
    in_train = np.zeros(n, dtype=bool)
    if cfg.stratified:
        labels = trainer.label_index(ds.rows, ds.label_vocab)
        for k in range(len(ds.label_vocab)):
            idx = np.flatnonzero(labels == k)
            perm = idx[rng.permutation(len(idx))]
            in_train[perm[: int(round(cfg.train_fraction * len(idx)))]] = True
    else:
        perm = rng.permutation(n)
        in_train[perm[: int(round(cfg.train_fraction * n))]] = True
    return (
        [r for r, keep in zip(ds.rows, in_train) if keep],
        [r for r, keep in zip(ds.rows, in_train) if not keep],
    )


@pytest.mark.parametrize("stratified", [False, True])
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_split_indices_match_row_list_split(stratified, seed):
    # three classes of unequal size, interleaved, so per-class draws matter
    sizes = {"A": 37, "B": 20, "C": 53}
    rows = [row(label) for i in range(53) for label in sizes if i < sizes[label]]
    ds = Dataset.from_rows(rows)
    cfg = PipelineConfig(seed=seed, stratified=stratified, train_fraction=0.7)
    train, test = trainer.split(labels_of(ds), cfg)
    ref_train, ref_test = row_list_split(ds, cfg)
    assert [id(ds.rows[i]) for i in train] == [id(r) for r in ref_train]
    assert [id(ds.rows[i]) for i in test] == [id(r) for r in ref_test]


def test_stratified_split_keeps_class_shares():
    y = labels_of(toy_dataset(n_per_class=50))  # 100 rows, 2 classes
    train, test = trainer.split(y, PipelineConfig(seed=4, stratified=True))
    for k in (0, 1):
        assert np.sum(y[train] == k) == 40
        assert np.sum(y[test] == k) == 10


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
    rows = [SpectrumRow(bins=np.zeros(N_BINS), label="A")]
    x = trainer.features_matrix(rows, mask, normalize=True)
    assert np.all(x == 0.0)


# ---------------------------------------------------------------------------
# train

def test_train_logs_one_record_per_run():
    ds = toy_dataset(20)
    cfg = PipelineConfig(runs=200, batch_size=16, seed=5)
    params, log = train_on(ds, FeatureMask(kept=[10, 20]), cfg)
    assert len(log.records) == 200
    assert [r.run for r in log.records] == list(range(1, 201))
    assert all(np.isfinite(r.train_loss) for r in log.records)


def test_train_single_run_zero_net_loss_near_ln2(monkeypatch):
    ds = toy_dataset(20)
    d, c = 2, 2
    zero = [np.zeros((d, d)), np.zeros(d), np.zeros((d, d)), np.zeros(d),
            np.zeros((c, d)), np.zeros(c)]
    monkeypatch.setattr(trainer.dnn, "init_network", lambda d_in, c_out, seed: zero)
    cfg = PipelineConfig(runs=1, batch_size=16, seed=6)
    params, log = train_on(ds, FeatureMask(kept=[10, 20]), cfg)
    # one 0.005-sized Adam step barely moves the logits away from 0
    assert log.records[0].train_loss == pytest.approx(LN2, abs=0.05)


def test_train_deterministic():
    ds = toy_dataset(20)
    cfg = PipelineConfig(runs=10, batch_size=16, seed=7)
    p1, log1 = train_on(ds, FeatureMask(kept=[10, 20]), cfg)
    p2, log2 = train_on(ds, FeatureMask(kept=[10, 20]), cfg)
    assert log1.records == log2.records
    for a, b in zip(p1, p2):
        assert np.array_equal(a, b)


def test_train_zero_learn_rate_freezes_metrics():
    ds = toy_dataset(20)
    cfg = PipelineConfig(runs=8, batch_size=16, seed=8)
    cfg.learn_rate = 0.0  # a config rejects it; train itself must still hold still
    _, log = train_on(ds, FeatureMask(kept=[10, 20]), cfg)
    losses = {r.train_loss for r in log.records}
    accs = {r.test_acc for r in log.records}
    assert len(losses) == 1 and len(accs) == 1


def test_train_learns_separable_toy():
    ds = toy_dataset(30)
    cfg = PipelineConfig(runs=300, batch_size=24, seed=9)
    params, log = train_on(ds, FeatureMask(kept=[10, 20]), cfg)
    assert log.records[-1].test_acc == 1.0
    assert log.records[-1].train_acc == 1.0
    assert log.records[-1].train_loss < log.records[0].train_loss


def test_train_rejects_oversized_batch():
    ds = toy_dataset(5)  # 10 rows -> 8 train rows
    with pytest.raises(ValidationError):
        cfg = PipelineConfig(runs=1, batch_size=9, seed=0)
        train_on(ds, FeatureMask(kept=[10, 20]), cfg)


# ---------------------------------------------------------------------------
# evaluate

def hand_built_classifier():
    """d=2, c=2 net that maps feature argmax to the class index."""
    w1 = np.array([[20.0, -20.0], [-20.0, 20.0]])
    w2 = np.array([[20.0, -20.0], [-20.0, 20.0]])
    w3 = np.array([[30.0, -30.0], [-30.0, 30.0]])
    return [w1, np.zeros(2), w2, np.array([0.0, 0.0]), w3, np.zeros(2)]


def test_evaluate_perfect_toy_model():
    params = hand_built_classifier()
    rows = [row("A", (10,)) for _ in range(6)] + [row("B", (20,)) for _ in range(4)]
    mask = FeatureMask(kept=[10, 20])
    acc, counts = score(params, rows, mask, ["A", "B"])
    assert acc == 1.0
    assert np.array_equal(counts, [[6, 0, 0], [0, 4, 0]])


def test_evaluate_counts_conserved():
    rng = np.random.default_rng(13)
    params = dnn.init_network(4, 3, seed=13)
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
    preds = dnn.predict_batch(params, trainer.features_matrix(rows, mask, True))
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
    assert float(first[1]) == pytest.approx(log.records[0].train_loss)


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
