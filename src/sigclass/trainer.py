"""Dataset handling, the training loop, and evaluation.

One "run" is one training cycle: sample a batch from the training rows, do a
single backprop pass and Adam step, then score the updated parameters on the
full training and test sets.  Rows live in a 301-column CSV (300 fused
magnitudes, then the class label).
"""

import warnings as _warnings
from dataclasses import dataclass, field

import numpy as np

from . import dnn
from .dnn import UNCLASSIFIED
from .errors import ConfigurationError, ParseError, ValidationError
from .fusion import SpectrumRow, apply_mask
from .rng import derive_rng
from .spectral import N_BINS


@dataclass
class Dataset:
    rows: list
    label_vocab: list

    @classmethod
    def from_rows(cls, rows):
        vocab = []
        for row in rows:
            if row.label not in vocab:
                vocab.append(row.label)
        return cls(rows=rows, label_vocab=vocab)

    def __len__(self):
        return len(self.rows)


@dataclass
class RunRecord:
    run: int
    train_loss: float
    train_acc: float
    test_acc: float
    train_bit_acc: float
    test_bit_acc: float


@dataclass
class RunLog:
    records: list = field(default_factory=list)
    final_adam_t: int = 0


@dataclass
class ConfusionMatrix:
    """counts[actual, predicted]; the trailing column tallies Unclassified."""

    labels: list
    counts: np.ndarray


def load_rows(path):
    """Parse the 301-column CSV into a Dataset.

    Lines starting with '#' and blank lines are skipped.  Any arity or number
    format problem raises ParseError naming the 1-based line number.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            fields = text.split(",")
            if len(fields) != N_BINS + 1:
                raise ParseError(
                    f"expected {N_BINS + 1} fields, found {len(fields)}", line=lineno
                )
            try:
                bins = np.array([float(v) for v in fields[:N_BINS]])
            except ValueError as exc:
                raise ParseError(f"bad numeric field ({exc})", line=lineno) from None
            label = fields[N_BINS].strip()
            if not label:
                raise ParseError("empty label field", line=lineno)
            rows.append(SpectrumRow(bins=bins, label=label))
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return Dataset.from_rows(rows)


def save_rows(path, rows):
    lines = ["# 300 fused magnitude bins, then the class label"]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row.bins) + f",{row.label}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def one_hot(label, vocab):
    if label not in vocab:
        raise ValidationError(f"label {label!r} not in vocabulary {vocab}")
    vec = np.zeros(len(vocab))
    vec[vocab.index(label)] = 1.0
    return vec


def split(ds, cfg):
    """Disjoint train/test partition; |train| = round(fraction * n).

    cfg is the PipelineConfig.  Plain uniform by default; per-class
    (stratified) when cfg.stratified is set.  Both variants are deterministic
    in cfg.seed.  A warning is issued if some class ends up absent from the
    training side.
    """
    n = len(ds.rows)
    rng = derive_rng(cfg.seed, "split")
    if cfg.stratified:
        train_idx = []
        for label in ds.label_vocab:
            idx = np.array([i for i, r in enumerate(ds.rows) if r.label == label])
            perm = idx[rng.permutation(len(idx))]
            train_idx.extend(perm[: int(round(cfg.train_fraction * len(idx)))])
        train_set = set(int(i) for i in train_idx)
    else:
        perm = rng.permutation(n)
        train_set = set(int(i) for i in perm[: int(round(cfg.train_fraction * n))])
    train_rows = [ds.rows[i] for i in range(n) if i in train_set]
    test_rows = [ds.rows[i] for i in range(n) if i not in train_set]
    present = {r.label for r in train_rows}
    for label in ds.label_vocab:
        if label not in present:
            _warnings.warn(f"class {label!r} absent from the training split")
    return (
        Dataset(rows=train_rows, label_vocab=list(ds.label_vocab)),
        Dataset(rows=test_rows, label_vocab=list(ds.label_vocab)),
    )


def features_matrix(rows, mask, normalize):
    """Masked feature vectors, optionally scaled to a per-row max of 1.

    Raw FFT magnitudes can reach the thousands, which would pin the sigmoid
    layers; dividing each masked vector by its own max keeps them in [0, 1].
    All-zero rows are left untouched.
    """
    x = np.stack([apply_mask(row, mask) for row in rows])
    if normalize:
        peaks = x.max(axis=1, keepdims=True)
        x = np.where(peaks > 0, x / np.where(peaks > 0, peaks, 1.0), x)
    return x


def targets_matrix(rows, vocab):
    return np.stack([one_hot(row.label, vocab) for row in rows])


def _scores(params, x, y):
    """(row accuracy, bit accuracy) of rounded sigmoid outputs against one-hots."""
    hot, preds = dnn.decode(dnn.forward(params, x)[0])
    row_acc = float(np.mean(preds == y.argmax(axis=1)))
    bit_acc = float(np.mean(hot == (y > 0.5)))
    return row_acc, bit_acc


def train(ds, mask, cfg, initial_params=None):
    """Program steps 3..8: split, batch runs with Adam, per-run scoring.

    Every run draws a fresh batch (without replacement inside the batch),
    applies exactly one optimizer step, then logs the full-train-set loss and
    the train/test accuracies of the updated parameters.  cfg is the
    PipelineConfig (its seed, split and training fields).  Returns the final
    parameters and the RunLog.
    """
    if mask is None or len(mask) == 0:
        raise ConfigurationError("selection produced an empty feature mask")
    train_ds, test_ds = split(ds, cfg)
    if cfg.batch_size > len(train_ds.rows):
        raise ValidationError(
            f"batch_size {cfg.batch_size} exceeds the {len(train_ds.rows)} training rows"
        )
    vocab = ds.label_vocab
    x_train = features_matrix(train_ds.rows, mask, cfg.normalize_rows)
    y_train = targets_matrix(train_ds.rows, vocab)
    x_test = features_matrix(test_ds.rows, mask, cfg.normalize_rows)
    y_test = targets_matrix(test_ds.rows, vocab)

    d, c = len(mask), len(vocab)
    params = initial_params
    if params is None:
        init_seed = derive_rng(cfg.seed, "init").integers(2**32)
        params = dnn.init_network(d, c, seed=init_seed)
    state = dnn.AdamState.for_layers(params.layers, alpha=cfg.learn_rate)
    batch_rng = derive_rng(cfg.seed, "batches")

    log = RunLog()
    for run in range(1, cfg.runs + 1):
        idx = batch_rng.choice(len(train_ds.rows), size=cfg.batch_size, replace=False)
        logits, trace = dnn.forward(params, x_train[idx])
        grads = dnn.backward(params, trace, y_train[idx])
        params, state = dnn.adam_step(params, grads, state)

        train_loss = dnn.loss(dnn.forward(params, x_train)[0], y_train)
        train_acc, train_bit = _scores(params, x_train, y_train)
        test_acc, test_bit = _scores(params, x_test, y_test)
        log.records.append(
            RunRecord(run, train_loss, train_acc, test_acc, train_bit, test_bit)
        )
    log.final_adam_t = state.t
    return params, log


def evaluate(params, rows, mask, vocab, normalize_rows=True):
    """Accuracy plus the actual x (predicted + Unclassified) confusion matrix."""
    if not rows:
        raise ValidationError("evaluate needs at least one row")
    x = features_matrix(rows, mask, normalize_rows)
    preds = dnn.predict_batch(params, x)
    t = len(vocab)
    counts = np.zeros((t, t + 1), dtype=int)
    correct = 0
    for row, pred in zip(rows, preds):
        if row.label not in vocab:
            raise ValidationError(f"row label {row.label!r} not in vocabulary")
        actual = vocab.index(row.label)
        col = pred if pred != UNCLASSIFIED else t
        counts[actual, col] += 1
        correct += int(pred == actual)
    return correct / len(rows), ConfusionMatrix(labels=list(vocab), counts=counts)


def write_runlog_csv(path, log):
    lines = ["run,train_loss,train_acc,test_acc,train_bit_acc,test_bit_acc"]
    for r in log.records:
        lines.append(
            f"{r.run},{r.train_loss!r},{r.train_acc!r},{r.test_acc!r},"
            f"{r.train_bit_acc!r},{r.test_bit_acc!r}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_confusion_csv(path, cm):
    header = "actual," + ",".join(cm.labels) + ",Unclassified"
    lines = [header]
    for i, label in enumerate(cm.labels):
        lines.append(label + "," + ",".join(str(int(v)) for v in cm.counts[i]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def format_confusion(cm):
    """Fixed-width text table for terminal output."""
    cols = cm.labels + ["Unclassified"]
    width = max(len(s) for s in cols + cm.labels) + 2
    out = [" " * width + "".join(f"{c:>{width}}" for c in cols)]
    for i, label in enumerate(cm.labels):
        out.append(f"{label:>{width}}" + "".join(f"{int(v):>{width}}" for v in cm.counts[i]))
    return "\n".join(out)
