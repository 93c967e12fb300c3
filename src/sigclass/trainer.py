"""Dataset handling, the training loop, and evaluation.

One "run" is one training cycle: sample a batch from the training rows, do a
single backprop pass and Adam step, then score the updated parameters on the
full training and test sets.  Rows live in one uncompressed .npz store: a
float64 `x` of 300 fused magnitudes per row and a unicode `labels` array,
which `load_rows` turns into class indices; the run log is one array row per run.
"""

from dataclasses import dataclass

import numpy as np

from . import dnn
from .dnn import UNCLASSIFIED
from .errors import LABEL_RULE, ParseError, ValidationError, is_label, read_npz
from .fusion import SpectrumRow, apply_mask
from .rng import derive_rng
from .spectral import N_BINS

# the bound the scoring pass's first layer must stay within: half of float32's
# range leaves room for the rounding of float32 sums
_FLOAT32_HALF = float(np.finfo(np.float32).max) / 2


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


def train(x_train, y_train, x_test, y_test, c, cfg):
    """The training loop: batch runs with Adam, scored after every step.

    x_train and x_test are masked feature matrices (see `features_matrix`),
    y_train and y_test their class indices in [0, c).  Every run draws a
    fresh batch (without replacement inside the batch), applies exactly one
    optimizer step, then logs the full-train-set loss and the train/test
    accuracies of the updated parameters.  cfg is the PipelineConfig (its
    seed and training fields).  Returns the final parameters and the RunLog.

    The batch forward, backward and Adam step run in float64 on one flat
    parameter vector (see `dnn`), so the parameters do not depend on the
    scoring.  Each run scores with one `dnn.score` pass, the net as a float32
    tanh net, over the train and test rows stacked once before the loop, and
    decodes the stacked logits once; only the logged loss differs from
    float64 scoring, in about its seventh significant digit.  Every array a
    run writes into is made before the loop.  Features large enough to
    overflow the scoring pass raise ValidationError.
    """
    if cfg.batch_size > len(x_train):
        raise ValidationError(
            f"batch_size {cfg.batch_size} exceeds the {len(x_train)} training rows"
        )
    if len(x_test) == 0:
        raise ValidationError("the test split is empty; lower train_fraction")
    targets = np.eye(c)[y_train]  # float64 one-hots for backward and loss
    y_all = np.concatenate([y_train, y_test])
    hot_all = np.eye(c, dtype=bool)[y_all]
    try:
        with np.errstate(over="raise"):
            x_score = np.concatenate([x_train, x_test], dtype=np.float32)
    except FloatingPointError:
        raise ValidationError("a feature magnitude exceeds float32, which the scoring pass "
                              "uses; set normalize_rows = true") from None
    # the scoring pass's first layer sees w1/2 and b1/2, so each of its partial
    # sums is within reach * max|w1| + max|b1|; that bound is checked each run,
    # because numpy does not see an overflow inside a BLAS worker thread
    reach = float(np.abs(x_score).sum(axis=1, dtype=float).max())
    (n_train, d), n, batch = x_train.shape, len(y_all), cfg.batch_size
    halves = slice(n_train), slice(n_train, None)

    init_seed = derive_rng(cfg.seed, "init").integers(2**32)
    theta = np.concatenate([np.ravel(p) for p in dnn.init_network(d, c, seed=init_seed)])
    grad, state = np.empty_like(theta), np.zeros((3, len(theta)))
    params, grads = dnn.unflatten(theta, d, c), dnn.unflatten(grad, d, c)
    w1, b1 = params[:2]
    batch_out, score_out = dnn.buffers(batch, d, c), dnn.score_buffers(n, d, c)
    x_batch, t_batch, loss_out = np.empty((batch, d), x_train.dtype), np.empty((batch, c)), np.empty((2, n_train, c))
    decoded = np.empty((n, c), bool), np.empty((n, c), np.float32), np.empty((n, 2), np.float32), np.empty(n, int)
    right, bits = np.empty(n, bool), np.empty((n, c), bool)
    batch_rng = derive_rng(cfg.seed, "batches")

    log = RunLog(np.empty((cfg.runs, 5)))
    for run in range(1, cfg.runs + 1):
        idx = batch_rng.choice(n_train, size=batch, replace=False)
        np.take(x_train, idx, axis=0, out=x_batch, mode="clip")  # idx is in range; "raise" copies via a buffer
        np.take(targets, idx, axis=0, out=t_batch, mode="clip")
        _, trace = dnn.forward(params, x_batch, batch_out)
        dnn.backward(params, trace, t_batch, grads)
        dnn.adam_update(theta, grad, state, run, cfg.learn_rate)

        if reach * max(w1.max(), -w1.min()) + max(b1.max(), -b1.min()) > _FLOAT32_HALF:
            raise ValidationError(f"run {run}: the feature magnitudes can overflow the float32 "
                                  "scoring pass; set normalize_rows = true")
        logits = dnn.score(params, x_score, score_out)
        train_loss = dnn.loss(logits[:n_train], targets, loss_out)
        hot, preds = dnn.decode(logits, decoded)
        np.equal(preds, y_all, out=right)
        np.equal(hot, hot_all, out=bits)
        scores = [np.count_nonzero(a[half]) / a[half].size for a in (right, bits) for half in halves]
        log.records[run - 1] = train_loss, *scores
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
