"""Dataset handling, the training loop, and evaluation.

One "run" is one training cycle: sample a batch from the training rows, do a
single backprop pass and Adam step, then score the updated parameters on the
full training and test sets.  Rows live in a 301-column CSV (300 fused
magnitudes, then the class label).
"""

from dataclasses import dataclass, field

import numpy as np

from . import dnn
from .dnn import UNCLASSIFIED
from .errors import ParseError, ValidationError, text_lines
from .fusion import SpectrumRow, apply_mask
from .rng import derive_rng
from .spectral import N_BINS


@dataclass
class Dataset:
    rows: list
    label_vocab: list

    @classmethod
    def from_rows(cls, rows):
        """The vocabulary lists labels in order of first appearance."""
        return cls(rows=rows, label_vocab=list(dict.fromkeys(row.label for row in rows)))


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


def load_rows(path):
    """Parse the 301-column CSV into a Dataset.

    Lines starting with '#' and blank lines are skipped.  A wrong arity, a
    malformed number or a nan/inf raises ParseError naming the 1-based line.
    """
    rows = []
    for lineno, raw in text_lines(path):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        fields = text.split(",")
        if len(fields) != N_BINS + 1:
            raise ParseError(f"expected {N_BINS + 1} fields, found {len(fields)}", line=lineno)
        try:
            bins = np.array([float(v) for v in fields[:N_BINS]])
        except ValueError as exc:
            raise ParseError(f"bad numeric field ({exc})", line=lineno) from None
        if not np.isfinite(bins).all():
            raise ParseError("non-finite magnitude (nan or inf)", line=lineno)
        label = fields[N_BINS].strip()
        if not label:
            raise ParseError("empty label field", line=lineno)
        rows.append(SpectrumRow(bins=bins, label=label))
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return Dataset.from_rows(rows)


def save_rows(path, x, labels):
    """One CSV line per row of the (n, 300) matrix x plus its label; repr round-trips."""
    lines = ["# 300 fused magnitude bins, then the class label"]
    for row, label in zip(x, labels):
        lines.append(",".join(map(repr, row.tolist())) + f",{label}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def label_index(rows, vocab):
    """Each row's class index in vocab; a label outside vocab raises ValidationError."""
    index = {label: i for i, label in enumerate(vocab)}
    try:
        return np.array([index[row.label] for row in rows], dtype=int)
    except KeyError as exc:
        raise ValidationError(f"label {exc.args[0]!r} not in vocabulary {vocab}") from None


def split(y, cfg):
    """Disjoint train/test partition of the rows with class indices y.

    cfg is the PipelineConfig.  Plain uniform by default, with
    |train| = round(fraction * n); per class (stratified) when cfg.stratified
    is set.  Both variants are deterministic in cfg.seed.  Returns the
    ascending (train_idx, test_idx) row index arrays.
    """
    rng = derive_rng(cfg.seed, "split")
    in_train = np.zeros(len(y), dtype=bool)
    if cfg.stratified:
        for k in sorted(set(y.tolist())):
            idx = np.flatnonzero(y == k)
            perm = idx[rng.permutation(len(idx))]
            in_train[perm[: int(round(cfg.train_fraction * len(idx)))]] = True
    else:
        perm = rng.permutation(len(y))
        in_train[perm[: int(round(cfg.train_fraction * len(y)))]] = True
    return np.flatnonzero(in_train), np.flatnonzero(~in_train)


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


def _scores(logits, y):
    """(row accuracy, bit accuracy) of rounded sigmoid outputs against one-hots."""
    hot, preds = dnn.decode(logits)
    row_acc = float(np.mean(preds == y.argmax(axis=1)))
    bit_acc = float(np.mean(hot == (y > 0.5)))
    return row_acc, bit_acc


def train(x_train, y_train, x_test, y_test, c, cfg):
    """The training loop: batch runs with Adam, scored after every step.

    x_train and x_test are masked feature matrices (see `features_matrix`),
    y_train and y_test their class indices in [0, c).  Every run draws a
    fresh batch (without replacement inside the batch), applies exactly one
    optimizer step, then logs the full-train-set loss and the train/test
    accuracies of the updated parameters.  cfg is the PipelineConfig (its
    seed and training fields).  Returns the final parameters and the RunLog.
    """
    if cfg.batch_size > len(x_train):
        raise ValidationError(
            f"batch_size {cfg.batch_size} exceeds the {len(x_train)} training rows"
        )
    if len(x_test) == 0:
        raise ValidationError("the test split is empty; lower train_fraction")
    y_train, y_test = np.eye(c)[y_train], np.eye(c)[y_test]

    init_seed = derive_rng(cfg.seed, "init").integers(2**32)
    params = dnn.init_network(x_train.shape[1], c, seed=init_seed)
    state = dnn.AdamState.for_params(params)
    batch_rng = derive_rng(cfg.seed, "batches")

    log = RunLog()
    for run in range(1, cfg.runs + 1):
        idx = batch_rng.choice(len(x_train), size=cfg.batch_size, replace=False)
        _, trace = dnn.forward(params, x_train[idx])
        grads = dnn.backward(params, trace, y_train[idx])
        params, state = dnn.adam_update(params, grads, state, cfg.learn_rate)

        train_logits = dnn.forward(params, x_train)[0]
        train_loss = dnn.loss(train_logits, y_train)
        train_acc, train_bit = _scores(train_logits, y_train)
        test_acc, test_bit = _scores(dnn.forward(params, x_test)[0], y_test)
        log.records.append(
            RunRecord(run, train_loss, train_acc, test_acc, train_bit, test_bit)
        )
    return params, log


def evaluate(params, x, y, vocab):
    """Accuracy plus the confusion counts, counts[actual, predicted].

    x holds masked feature rows and y their class indices in vocab; the
    trailing column of counts tallies Unclassified.
    """
    if len(x) == 0:
        raise ValidationError("evaluate needs at least one row")
    preds = dnn.predict_batch(params, x)
    t = len(vocab)
    counts = np.zeros((t, t + 1), dtype=int)
    np.add.at(counts, (y, np.where(preds == UNCLASSIFIED, t, preds)), 1)
    return float(np.mean(preds == y)), counts


def write_runlog_csv(path, log):
    lines = ["run,train_loss,train_acc,test_acc,train_bit_acc,test_bit_acc"]
    for r in log.records:
        lines.append(
            f"{r.run},{r.train_loss!r},{r.train_acc!r},{r.test_acc!r},"
            f"{r.train_bit_acc!r},{r.test_bit_acc!r}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_confusion_csv(path, labels, counts):
    header = "actual," + ",".join(labels) + ",Unclassified"
    lines = [header]
    for label, row in zip(labels, counts):
        lines.append(label + "," + ",".join(str(int(v)) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def format_confusion(labels, counts):
    """Fixed-width text table for terminal output."""
    cols = list(labels) + ["Unclassified"]
    width = max(len(s) for s in cols) + 2
    out = [" " * width + "".join(f"{c:>{width}}" for c in cols)]
    for label, row in zip(labels, counts):
        out.append(f"{label:>{width}}" + "".join(f"{int(v):>{width}}" for v in row))
    return "\n".join(out)
