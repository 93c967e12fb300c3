import numpy as np
import pytest

from sigclass import dnn, trainer
from sigclass.config import PipelineConfig
from sigclass.dnn import DnnParams, LayerParams, UNCLASSIFIED
from sigclass.errors import ConfigurationError, ParseError, ValidationError
from sigclass.fusion import FeatureMask, SpectrumRow
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
    trainer.save_rows(path, ds.rows)
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
# one_hot

def test_one_hot_basic():
    assert np.array_equal(trainer.one_hot("C", ["A", "B", "C", "D"]), [0, 0, 1, 0])


def test_one_hot_sums_to_one():
    vocab = [f"L{i}" for i in range(7)]
    for label in vocab:
        assert trainer.one_hot(label, vocab).sum() == 1.0


def test_one_hot_unknown_label():
    with pytest.raises(ValidationError):
        trainer.one_hot("Z", ["A", "B"])


# ---------------------------------------------------------------------------
# split

def test_split_sizes_and_disjointness():
    ds = toy_dataset(n_per_class=500)  # 1000 rows
    train, test = trainer.split(ds, PipelineConfig(seed=1))
    assert len(train.rows) == 800 and len(test.rows) == 200
    train_ids = {id(r) for r in train.rows}
    test_ids = {id(r) for r in test.rows}
    assert not (train_ids & test_ids)
    assert len(train_ids | test_ids) == 1000


def test_split_small_dataset():
    ds = toy_dataset(n_per_class=5)  # 10 rows
    train, test = trainer.split(ds, PipelineConfig(seed=2))
    assert len(train.rows) == 8 and len(test.rows) == 2


def test_split_deterministic():
    ds = toy_dataset(30)
    a_train, a_test = trainer.split(ds, PipelineConfig(seed=9))
    b_train, b_test = trainer.split(ds, PipelineConfig(seed=9))
    assert [r.label for r in a_train.rows] == [r.label for r in b_train.rows]
    assert all(np.array_equal(x.bins, y.bins) for x, y in zip(a_train.rows, b_train.rows))
    c_train, _ = trainer.split(ds, PipelineConfig(seed=10))
    assert [id(r) for r in a_train.rows] != [id(r) for r in c_train.rows]


def test_split_warns_when_class_missing_from_train():
    rows = [row("A", (10,)) for _ in range(4)] + [row("B", (20,))]
    ds = Dataset.from_rows(rows)
    with pytest.warns(UserWarning, match="absent from the training split"):
        trainer.split(ds, PipelineConfig(seed=3))


def test_stratified_split_keeps_class_shares():
    ds = toy_dataset(n_per_class=50)  # 100 rows, 2 classes
    train, test = trainer.split(ds, PipelineConfig(seed=4, stratified=True))
    for label in ("A", "B"):
        assert sum(r.label == label for r in train.rows) == 40
        assert sum(r.label == label for r in test.rows) == 10


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
    params, log = trainer.train(ds, FeatureMask(kept=[10, 20]), cfg)
    assert len(log.records) == 200
    assert [r.run for r in log.records] == list(range(1, 201))
    assert log.final_adam_t == 200
    assert all(np.isfinite(r.train_loss) for r in log.records)


def test_train_single_run_zero_net_loss_near_ln2():
    ds = toy_dataset(20)
    d, c = 2, 2
    zero = DnnParams(
        layers=[
            LayerParams(np.zeros((d, d)), np.zeros(d)),
            LayerParams(np.zeros((d, d)), np.zeros(d)),
            LayerParams(np.zeros((c, d)), np.zeros(c)),
        ],
        layer_sizes=(d, d, c),
    )
    cfg = PipelineConfig(runs=1, batch_size=16, seed=6)
    params, log = trainer.train(ds, FeatureMask(kept=[10, 20]), cfg, initial_params=zero)
    # one 0.005-sized Adam step barely moves the logits away from 0
    assert log.records[0].train_loss == pytest.approx(LN2, abs=0.05)


def test_train_deterministic():
    ds = toy_dataset(20)
    cfg = PipelineConfig(runs=10, batch_size=16, seed=7)
    p1, log1 = trainer.train(ds, FeatureMask(kept=[10, 20]), cfg)
    p2, log2 = trainer.train(ds, FeatureMask(kept=[10, 20]), cfg)
    assert log1.records == log2.records
    for a, b in zip(p1.layers, p2.layers):
        assert np.array_equal(a.weight, b.weight)


def test_train_zero_learn_rate_freezes_metrics():
    ds = toy_dataset(20)
    cfg = PipelineConfig(runs=8, batch_size=16, seed=8, learn_rate=0.0)
    _, log = trainer.train(ds, FeatureMask(kept=[10, 20]), cfg)
    losses = {r.train_loss for r in log.records}
    accs = {r.test_acc for r in log.records}
    assert len(losses) == 1 and len(accs) == 1


def test_train_learns_separable_toy():
    ds = toy_dataset(30)
    cfg = PipelineConfig(runs=300, batch_size=24, seed=9)
    params, log = trainer.train(ds, FeatureMask(kept=[10, 20]), cfg)
    assert log.records[-1].test_acc == 1.0
    assert log.records[-1].train_acc == 1.0
    assert log.records[-1].train_loss < log.records[0].train_loss


def test_train_rejects_oversized_batch():
    ds = toy_dataset(5)  # 10 rows -> 8 train rows
    with pytest.raises(ValidationError):
        trainer.train(ds, FeatureMask(kept=[10, 20]), PipelineConfig(runs=1, batch_size=9, seed=0))


def test_train_rejects_empty_mask():
    ds = toy_dataset(20)
    with pytest.raises(ConfigurationError):
        trainer.train(ds, None, PipelineConfig(runs=1, batch_size=8, seed=0))


# ---------------------------------------------------------------------------
# evaluate

def hand_built_classifier():
    """d=2, c=2 net that maps feature argmax to the class index."""
    w1 = LayerParams(np.array([[20.0, -20.0], [-20.0, 20.0]]), np.zeros(2))
    w2 = LayerParams(np.array([[20.0, -20.0], [-20.0, 20.0]]), np.array([0.0, 0.0]))
    w3 = LayerParams(np.array([[30.0, -30.0], [-30.0, 30.0]]), np.zeros(2))
    return DnnParams(layers=[w1, w2, w3], layer_sizes=(2, 2, 2))


def test_evaluate_perfect_toy_model():
    params = hand_built_classifier()
    rows = [row("A", (10,)) for _ in range(6)] + [row("B", (20,)) for _ in range(4)]
    mask = FeatureMask(kept=[10, 20])
    acc, cm = trainer.evaluate(params, rows, mask, ["A", "B"])
    assert acc == 1.0
    assert np.array_equal(cm.counts, [[6, 0, 0], [0, 4, 0]])


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
    acc, cm = trainer.evaluate(params, rows, mask, labels)
    assert cm.counts.shape == (3, 4)
    assert cm.counts.sum() == 60
    for i, label in enumerate(labels):
        assert cm.counts[i].sum() == sum(r.label == label for r in rows)
    unclassified = cm.counts[:, -1].sum()
    assert acc <= 1.0 - unclassified / 60.0 + 1e-12


def test_evaluate_unclassified_lands_in_last_column():
    params = hand_built_classifier()
    # equal features drive both outputs high -> not a one-hot
    rows = [row("A", (10, 20))]
    acc, cm = trainer.evaluate(params, rows, FeatureMask(kept=[10, 20]), ["A", "B"])
    assert acc == 0.0
    assert cm.counts[0, 2] == 1


def test_evaluate_rejects_unknown_label():
    params = hand_built_classifier()
    rows = [row("Z", (10,))]
    with pytest.raises(ValidationError):
        trainer.evaluate(params, rows, FeatureMask(kept=[10, 20]), ["A", "B"])


# ---------------------------------------------------------------------------
# csv artifacts

def test_runlog_csv_format(tmp_path):
    ds = toy_dataset(20)
    cfg = PipelineConfig(runs=3, batch_size=16, seed=5)
    _, log = trainer.train(ds, FeatureMask(kept=[10, 20]), cfg)
    path = tmp_path / "runlog.csv"
    trainer.write_runlog_csv(path, log)
    lines = path.read_text().splitlines()
    assert lines[0] == "run,train_loss,train_acc,test_acc,train_bit_acc,test_bit_acc"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(log.records[0].train_loss)


def test_confusion_csv_format(tmp_path):
    cm = trainer.ConfusionMatrix(labels=["A", "B"], counts=np.array([[3, 1, 2], [0, 4, 0]]))
    path = tmp_path / "cm.csv"
    trainer.write_confusion_csv(path, cm)
    lines = path.read_text().splitlines()
    assert lines[0] == "actual,A,B,Unclassified"
    assert lines[1] == "A,3,1,2"
    assert lines[2] == "B,0,4,0"


def test_format_confusion_mentions_unclassified():
    cm = trainer.ConfusionMatrix(labels=["A", "B"], counts=np.array([[3, 1, 2], [0, 4, 0]]))
    text = trainer.format_confusion(cm)
    assert "Unclassified" in text and "A" in text
