"""Three-layer fully connected network built from first principles.

The parameters are one flat vector theta, the checkpoint's `weights`, which
`unflatten` views as three augmented matrices [W1 | b1], [W2 | b2] and
[W3 | b3], each row-major with its bias as the last column: (d, d + 1),
(d, d + 1) and (c, d + 1) for d features and c classes.  The net works
feature-major: its input is a (d + 1, cols) matrix, the rows as columns over
a last row of ones, so each layer, bias included, is one matmul.  Layers 1
and 2 are tanh layers of width d, layer 3 is a plain affine map onto the c
class outputs, so the logits are (c, cols).  Training uses per-class sigmoid
cross-entropy on the logits, analytic backpropagation, and Adam, in numpy
with no autograd; every pass runs in the dtype of its arrays (float32 in the
pipeline, float64 for the gradient oracles).  What a training run calls
writes into arrays passed as `out` (new ones when it is None), and
`adam_update` works in place.  A checkpoint is an uncompressed .npz of the
model and what `eval` needs to feed it: the kept bins, the labels and the
row-normalization flag.
"""

import numpy as np

from .errors import LABEL_RULE, NumericalError, ParseError, ValidationError, is_label, read_npz
from .spectral import N_BINS

# Prediction sentinel: the rounded sigmoid outputs did not form a valid one-hot.
UNCLASSIFIED = -1

# Adam's reference moment decay rates and its denominator guard.
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


def sigmoid(z, out=None):
    """Numerically stable logistic function, elementwise.

    With e = exp(min(z, -z)) = exp(-|z|), maximum(e, z >= 0) / (1 + e) is
    1 / (1 + e) for z >= 0 and e / (1 + e) for z < 0: the IEEE operations of
    the usual two-branch stable form, so each result (a NaN's sign too) is
    bit for bit the same, from one exponential that cannot overflow.  It is
    computed in float32 for float32 z and in float64 otherwise.  With `out`
    the result goes there and z is overwritten as scratch.
    """
    z = np.asarray(z)
    z = z if z.dtype == np.float32 else z.astype(float, copy=False)
    if out is None:
        z, out = z.copy(), np.empty_like(z)
    e = np.exp(np.minimum(z, np.negative(z, out=out), out=out), out=out)
    numerator = np.maximum(e, np.greater_equal(z, 0.0, out=z), out=z)
    return np.divide(numerator, np.add(e, 1.0, out=e), out=out)


def unflatten(theta, d, c):
    """The augmented matrices [W1, W2, W3], (d, d + 1), (d, d + 1) and (c, d + 1), as views of theta."""
    w12 = theta[: 2 * d * (d + 1)].reshape(2, d, d + 1)
    return [w12[0], w12[1], theta[2 * d * (d + 1) :].reshape(c, d + 1)]


def init_network(d, c, seed):
    """A fresh float64 theta: uniform weights, zero biases.

    Weight entries are drawn from U(-r, r) with r = sqrt(6 / (fan_in + fan_out)),
    layer 1 first, each row-major.
    """
    if d < 1 or c < 2:
        raise ValidationError("need d >= 1 inputs and c >= 2 classes")
    rng = np.random.default_rng(seed)
    theta = np.zeros(d * (2 * d + c + 2) + c)
    for w in unflatten(theta, d, c):
        r = np.sqrt(6.0 / (d + len(w)))
        w[:, :d] = rng.uniform(-r, r, size=(len(w), d))
    return theta


def activations(cols, d, c, dtype):
    """Arrays for `forward` and `backward` on `cols` columns: (t1, t2, logits, h, delta).

    t1 and t2 are (d + 1, cols) with their last row set to ones, logits and
    delta (c, cols), h (d, cols); h and delta are backward's scratch.
    """
    return (*np.ones((2, d + 1, cols), dtype), np.empty((c, cols), dtype), np.empty((d, cols), dtype),
            np.empty((c, cols), dtype))


def forward(params, a, out=None):
    """Run the columns of a through the net; returns (logits, trace).

    a is (d + 1, cols), the rows as columns over a row of ones.  Layers 1 and
    2 apply tanh to their affine outputs, t1 = tanh(W1 a) and t2 = tanh(W2
    t1) over the ones rows of t1 and t2, and the logits are W3 t2.  They go
    into out, an `activations` tuple (new arrays when it is None); trace is
    (a, t1, t2, logits, h, delta), what backward needs and its scratch.
    """
    w1, w2, w3 = params
    d = len(w1)
    if a.shape[0] != d + 1:
        raise ValidationError(f"input width {a.shape[0] - 1} does not match network d={d}")
    if out is None:
        out = activations(a.shape[1], d, len(w3), a.dtype)
    t1, t2, z3 = out[:3]
    np.tanh(np.matmul(w1, a, out=t1[:d]), out=t1[:d])
    np.tanh(np.matmul(w2, t1, out=t2[:d]), out=t2[:d])
    np.matmul(w3, t2, out=z3)
    return z3, (a, *out)


def loss(logits, targets, out=None):
    """Mean stable sigmoid cross-entropy over all elements of logits and targets.

    Per element: max(z, 0) - z*y + log1p(exp(-|z|)), which equals
    -y*log(sigmoid(z)) - (1-y)*log(1-sigmoid(z)) but never overflows.  It
    is computed in the dtype of out, two scratch arrays shaped as logits, or
    in float64 when out is None.
    """
    if not np.isfinite([np.min(logits), np.max(logits)]).all():
        raise NumericalError("non-finite logits in loss")
    per_element, part = np.empty((2, *np.shape(logits))) if out is None else out
    np.maximum(logits, 0.0, out=per_element)
    per_element -= np.multiply(logits, targets, out=part, dtype=part.dtype)
    np.log1p(np.exp(np.negative(np.abs(logits, out=part), out=part), out=part), out=part)
    per_element += part
    return float(np.mean(per_element))


def backward(params, trace, targets, out=None):
    """Analytic gradients of the mean loss over (c, cols) targets, shaped as params.

    They go into out, three arrays shaped as params (new ones when it is
    None), which is returned; the trace's arrays serve as scratch.  The
    output delta is (sigmoid(logits) - targets) / (cols * c); hidden deltas
    propagate through tanh'(z) = 1 - t^2.  Each gradient is its delta times
    the layer's input columns, whose ones row gives the bias column.
    """
    a, t1, t2, z3, h, d3 = trace
    g = [np.empty_like(w) for w in params] if out is None else out
    d = len(h)
    delta = np.subtract(sigmoid(z3, out=d3), targets, out=d3)
    delta /= z3.size
    for k, t, below in ((2, t2, h), (1, t1, t2[:d])):  # layers 3 and 2, then the delta of the layer below
        np.matmul(delta, t.T, out=g[k])
        delta = np.matmul(params[k][:, :d].T, delta, out=below)
        np.multiply(t[:d], t[:d], out=t[:d])
        delta *= np.subtract(1.0, t[:d], out=t[:d])
    np.matmul(delta, a.T, out=g[0])
    return g


def adam_update(theta, grad, state, t, alpha):
    """Adam step number t (from 1) with learn rate alpha, in place on theta.

    theta and grad are flat vectors of P values, and grad is overwritten.
    state is a (3, P) array of theta's dtype: m, v and scratch, zeros before
    step 1.
    m <- b1*m + (1-b1)*g; v <- b2*v + (1-b2)*g^2;
    mhat = m/(1-b1^t); vhat = v/(1-b2^t); theta <- theta - alpha*mhat/(sqrt(vhat)+eps).
    epsilon sits outside the square root.
    """
    m, v, s = state
    v *= BETA2
    v += np.multiply(np.multiply(grad, 1.0 - BETA2, out=s), grad, out=s)
    m *= BETA1
    m += np.multiply(grad, 1.0 - BETA1, out=grad)
    np.add(np.sqrt(np.divide(v, 1.0 - BETA2**t, out=s), out=s), EPSILON, out=s)
    step = np.multiply(np.divide(m, 1.0 - BETA1**t, out=grad), alpha, out=grad)
    theta -= np.divide(step, s, out=step)


def predict_batch(params, a):
    """Class index or UNCLASSIFIED (see decode) for each column of a (d + 1, cols) `forward` input."""
    return decode(forward(params, a)[0])[1]


def decode(logits, out=None):
    """(hot, preds) of (c, rows) logits: rounded outputs and the one-hot index or UNCLASSIFIED.

    sigmoid(z) >= 0.5 exactly when z >= 0, so hot = logits >= 0 per element.
    One float32 matmul of the rows [1, k + 1] by the 0/1 outputs gives each
    column's hot count and, where one output k is hot, k + 1; its integer
    sums are exact while the class count c stays below 2**24.  out is a bool
    and a float32 array shaped as logits, a (2, rows) float32 array and an
    int vector of rows to write into (new ones when it is None).
    """
    c, rows = logits.shape
    hot, ones, tally, preds = (np.empty((c, rows), bool), np.empty((c, rows), np.float32),
                               np.empty((2, rows), np.float32), np.empty(rows, int)) if out is None else out
    np.greater_equal(logits, 0.0, out=hot)
    np.copyto(ones, hot)
    count, index = np.matmul(np.array([np.ones(c), np.arange(1, c + 1)], np.float32), ones, out=tally)
    np.equal(count, 1.0, out=count)  # 1 where one output is hot
    np.multiply(count, index, out=preds, casting="unsafe")
    preds -= 1  # the hot index where one output is hot, else UNCLASSIFIED = -1
    return hot, preds


def save_checkpoint(path, params, mask_bins, label_vocab, normalize_rows):
    """Write the model as an uncompressed .npz with four members.

    `mask` holds the d kept frequency bins, `vocab` the c labels, `normalize`
    the row-normalization flag, and `weights` [W1 | b1], [W2 | b2] and
    [W3 | b3] flattened row-major into one little-endian float32 vector.
    """
    with open(path, "wb") as fh:  # a handle, so np.savez appends no .npz to the name
        np.savez(fh, mask=np.asarray(mask_bins, dtype="<i8"), vocab=np.array(label_vocab, dtype=str),
                 normalize=np.array(bool(normalize_rows)),
                 weights=np.concatenate([np.ravel(w) for w in params]).astype("<f4"))


def load_checkpoint(path):
    """Read a checkpoint; returns (params, mask_bins, label_vocab, normalize_rows).

    d is the mask length and c the label count.  A file that is not such an
    archive (see `errors.read_npz`; a checkpoint with float64 `params` in
    place of `weights`, from before the tanh net, is not one), a member of
    the wrong dtype or shape, mask bins not strictly ascending in 1..300 or
    none, a label that breaks the label rule (`errors.is_label`) or repeats,
    or a `weights` vector whose length is not 2d^2 + 2d + cd + c raises
    ParseError.
    """
    members = read_npz(path, "model checkpoint", ["mask", "vocab", "normalize", "weights"])
    mask, vocab, normalize, flat = members
    if [(a.dtype.kind, a.ndim) for a in members] != [("i", 1), ("U", 1), ("b", 0), ("f", 1)] \
            or flat.dtype != np.float32:
        raise ParseError(f"{path}: members are " + ", ".join(f"{a.dtype} {a.shape}" for a in members)
                         + "; expected mask 1-D int, vocab 1-D text, normalize one bool, weights 1-D float32")
    mask_bins, vocab = mask.tolist(), vocab.tolist()
    if not mask_bins or mask_bins != sorted(set(mask_bins)) or not 0 < mask_bins[0] <= mask_bins[-1] <= N_BINS:
        raise ParseError(f"{path}: the mask must hold strictly ascending bins in 1..{N_BINS}, at least one")
    bad = [label for label in vocab if not is_label(label)]
    if bad:
        raise ParseError(f"{path}: label {bad[0]!r} {LABEL_RULE}")
    if len(set(vocab)) < len(vocab):
        raise ParseError(f"{path}: the labels {vocab} repeat one")
    d, c = len(mask_bins), len(vocab)
    need = d * (2 * d + c + 2) + c
    if len(flat) != need:
        raise ParseError(f"{path}: {len(flat)} parameters; {d} bins and {c} labels need {need}")
    return unflatten(flat, d, c), mask_bins, vocab, bool(normalize)
