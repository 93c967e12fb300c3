"""Dataset handling, the training loop, and evaluation.

One "run" is one training cycle: sample a batch from the training rows, do a
single backprop pass and Adam step, then score the updated parameters on the
full training and test sets, all through one float32 `dnn.forward`, which
`evaluate` runs as well.  Rows live in one uncompressed .npz store: a
float64 `x` of 300 fused magnitudes per row and a unicode `labels` array,
which `load_rows` turns into class indices; the run log is one array row per run.
"""

from dataclasses import dataclass

import numpy as np

from . import dnn
from .errors import LABEL_RULE, ParseError, ValidationError, is_label, read_npz
from .fusion import SpectrumRow, apply_mask
from .rng import derive_rng
from .spectral import N_BINS


@dataclass
class Dataset:
    """x (n, 300), y its class indices in label_vocab (first-appearance order), rows SpectrumRow views of x."""

    x: np.ndarray
    y: np.ndarray
    label_vocab: list
    rows: list


@dataclass
class RunLog:
    """records[run - 1]: train loss, train and test accuracy, train and test bitwise accuracy."""

    records: np.ndarray


def load_rows(path):
    """Read the rows store that `save_rows` writes into a Dataset.

    A file that is not such a store (see `errors.read_npz`), a malformed `x`
    or `labels`, no rows, a nan/inf magnitude or a label that breaks the
    label rule (`errors.is_label`) raises ParseError.
    """
    x, labels = read_npz(path, "rows store", ["x", "labels"])
    if (x.dtype, x.shape[1:], labels.dtype.kind, labels.shape) != (np.float64, (N_BINS,), "U", x.shape[:1]):
        raise ParseError(f"{path}: x is {x.dtype} {x.shape} and labels {labels.dtype} {labels.shape}; "
                         f"expected float64 (n, {N_BINS}) and n strings")
    if not len(x):
        raise ParseError(f"{path}: no data rows")
    bad = ~np.isfinite(x).all(axis=1)
    if bad.any():
        raise ParseError(f"{path}: row {bad.argmax() + 1}: non-finite magnitude (nan or inf)")
    labels = labels.tolist()
    vocab = list(dict.fromkeys(labels))
    bad = [label for label in vocab if not is_label(label)]
    if bad:
        raise ParseError(f"{path}: row {labels.index(bad[0]) + 1}: label {bad[0]!r} {LABEL_RULE}")
    index = {label: k for k, label in enumerate(vocab)}
    y = np.array([index[label] for label in labels])
    return Dataset(x, y, vocab, [SpectrumRow(bins=row, label=label) for row, label in zip(x, labels)])


def save_rows(path, x, labels):
    """Write the (n, 300) float64 rows x and their n labels as an uncompressed .npz store."""
    with open(path, "wb") as fh:  # a handle, so np.savez appends no .npz to the name
        np.savez(fh, x=np.asarray(x, dtype=np.float64), labels=np.array(labels, dtype=str))


def split(y, cfg):
    """Disjoint train/test partition of the rows with class indices y.

    cfg is the PipelineConfig.  One permutation from cfg.seed's "split"
    stream sends its first round(train_fraction * len(y)) rows to train.
    Returns the ascending (train_idx, test_idx) row index arrays.
    """
    perm = derive_rng(cfg.seed, "split").permutation(len(y))
    k = int(round(cfg.train_fraction * len(y)))
    return np.sort(perm[:k]), np.sort(perm[k:])


def features_matrix(rows, mask, normalize):
    """Masked feature vectors, optionally scaled to a per-row max of 1.

    Raw FFT magnitudes can reach the thousands, which would pin the sigmoid
    layers; dividing each masked vector by its own max keeps them in [0, 1].
    A row without a positive max is divided by 1.0, which keeps its bits.
    """
    x = np.stack([apply_mask(row, mask) for row in rows])
    if normalize:
        peaks = x.max(axis=1, keepdims=True)
        x /= np.where(peaks > 0, peaks, 1.0)
    return x


def train(x_train, y_train, x_test, y_test, c, cfg):
    """The training loop: batch runs with Adam, scored after every step.

    x_train and x_test are masked feature matrices (see `features_matrix`),
    y_train and y_test their class indices in [0, c).  Every run draws a
    fresh batch (without replacement inside the batch), applies exactly one
    optimizer step, then logs the full-train-set loss and the train/test
    accuracies of the updated parameters.  cfg is the PipelineConfig (its
    seed and training fields).  Returns the final parameters and the RunLog.

    Everything runs in float32 on one flat parameter vector (see `dnn`).  The
    train and test rows are stacked once before the loop as the columns of
    one (d + 1, n) matrix over a row of ones (see `_columns`).  Each run takes
    the batch's columns from it for one `dnn.forward`, `dnn.backward` and
    Adam step, then scores with one `dnn.forward` over all n columns.  A
    column is right exactly when its rounded outputs (logits >= 0, as in
    `dnn.predict_batch`) equal its one-hot target.  Every array a run writes
    into is made before the loop.  Features large enough to overflow float32
    raise ValidationError.
    """
    if cfg.batch_size > len(x_train):
        raise ValidationError(
            f"batch_size {cfg.batch_size} exceeds the {len(x_train)} training rows"
        )
    if len(x_test) == 0:
        raise ValidationError("the test split is empty; lower train_fraction")
    (n_train, d), batch = x_train.shape, cfg.batch_size
    y_all = np.concatenate([y_train, y_test])
    n = len(y_all)
    hot_all = np.arange(c)[:, None] == y_all  # (c, n) one-hots, C-contiguous for the batch takes
    targets = hot_all[:, :n_train].astype(np.float32)
    a, reach = _columns(x_train, x_test)
    halves = slice(n_train), slice(n_train, None)

    init_seed = derive_rng(cfg.seed, "init").integers(2**32)
    theta = dnn.init_network(d, c, seed=init_seed).astype(np.float32)
    grad, state = np.empty_like(theta), np.zeros((3, len(theta)), np.float32)
    params, grads = dnn.unflatten(theta, d, c), dnn.unflatten(grad, d, c)
    batch_out, score_out = (dnn.activations(cols, d, c, np.float32) for cols in (batch, n))
    a_batch, t_batch = np.empty((d + 1, batch), np.float32), np.empty((c, batch), np.float32)
    loss_out = np.empty((2, c, n_train), np.float32)
    bits, right = np.empty((c, n), bool), np.empty(n, bool)
    batch_rng = derive_rng(cfg.seed, "batches")

    log = RunLog(np.empty((cfg.runs, 5)))
    _check_range(reach, params, "run 1: ")
    for run in range(1, cfg.runs + 1):
        idx = batch_rng.choice(n_train, size=batch, replace=False)
        np.take(a, idx, axis=1, out=a_batch, mode="clip")  # idx is in range; "raise" copies via a buffer
        np.take(targets, idx, axis=1, out=t_batch, mode="clip")
        _, trace = dnn.forward(params, a_batch, batch_out)
        dnn.backward(params, trace, t_batch, grads)
        dnn.adam_update(theta, grad, state, run, cfg.learn_rate)
        _check_range(reach, params, f"run {run}: ")  # for this run's scoring and the next run's step
        logits, _ = dnn.forward(params, a, score_out)
        train_loss = dnn.loss(logits[:, :n_train], targets, loss_out)
        # the rounded sigmoid outputs (logits >= 0, see dnn.predict_batch) against the one-hots
        np.equal(np.greater_equal(logits, 0.0, out=bits), hot_all, out=bits)
        np.all(bits, axis=0, out=right)
        scores = [np.count_nonzero(m[..., half]) / m[..., half].size for m in (right, bits) for half in halves]
        log.records[run - 1] = train_loss, *scores
    return params, log


def _columns(*parts):
    """(a, reach): the rows of the feature matrices `parts` as the float32 columns of a over a row of ones.

    a is (d + 1, n) for n rows in all; reach is its largest column L1 norm,
    ones row included.  A feature past float32's range raises ValidationError.
    """
    a = np.ones((parts[0].shape[1] + 1, sum(map(len, parts))), np.float32)
    try:
        with np.errstate(over="raise"):
            np.concatenate(parts, out=a[:-1].T)
    except FloatingPointError:
        raise ValidationError("a feature magnitude exceeds float32, which the network runs in; "
                              "train with normalize_rows = true") from None
    return a, float(np.abs(a).sum(axis=0, dtype=float).max())


def _check_range(reach, params, where=""):
    """Raise ValidationError unless the first layer's sums over columns within reach fit float32.

    Every partial sum of W1 a is within reach * max|W1|, and the layers after
    it take inputs in [-1, 1].  The bound is half of float32's range, which
    leaves room for the rounding of float32 sums.  It is checked outright,
    because numpy does not see an overflow inside a BLAS worker thread.
    """
    w1 = params[0]
    if reach * float(max(w1.max(), -w1.min())) > float(np.finfo(np.float32).max) / 2:
        raise ValidationError(f"{where}the feature magnitudes can overflow the float32 network; "
                              "train with normalize_rows = true")


def evaluate(params, x, y):
    """Accuracy plus the confusion counts, counts[actual, predicted].

    x holds masked feature rows and y their class indices among the
    net's c = len(params[2]) outputs; counts is (c, c + 1), its trailing
    column tallying Unclassified.  The rows are scored as
    `train` scores them (see `_columns` and `_check_range`).
    load_rows rejects a store without rows, and train an empty test split.
    """
    a, reach = _columns(x)
    _check_range(reach, params)
    preds = dnn.predict_batch(params, a)
    c = len(params[2])
    counts = np.zeros((c, c + 1), dtype=int)
    np.add.at(counts, (y, preds), 1)  # UNCLASSIFIED (-1) indexes the trailing column
    return float(np.mean(preds == y)), counts


def write_runlog_csv(path, log):
    lines = ["run,train_loss,train_acc,test_acc,train_bit_acc,test_bit_acc"]
    lines += [f"{run}," + ",".join(map(repr, row)) for run, row in enumerate(log.records.tolist(), start=1)]
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
