"""Three-layer fully connected network built from first principles.

The parameters are one flat float64 vector theta, the checkpoint's `params`:
w1, b1, w2, b2, w3 and b3, each row-major, which `unflatten` views as six
arrays; weight k is (n_out, n_in).  Layers 1 and 2 are sigmoid layers of
width d (the feature count), layer 3 is a plain affine map onto the c class
outputs.  Training uses per-class sigmoid cross-entropy on the raw output
logits, analytic backpropagation, and Adam, in float64 numpy; no autograd.
What a training run calls writes into arrays passed as `out` (new ones when
it is None), and `adam_update` works in place.  `score` gives the same
logits from a float32 tanh form of the net, for the per-run scoring pass;
it works feature-major, on the rows as columns, so its logits are
(classes, rows), the layout `loss` and `decode` take as well.
A checkpoint is an uncompressed .npz of the model and what `eval` needs to
feed it: the kept bins, the labels and the row-normalization flag.
"""

import math

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
    computed in float64.  With `out` the result goes there and z is
    overwritten as scratch.
    """
    z = np.asarray(z, dtype=float)
    if out is None:
        z, out = z.copy(), np.empty_like(z)
    e = np.exp(np.minimum(z, np.negative(z, out=out), out=out), out=out)
    numerator = np.maximum(e, np.greater_equal(z, 0.0, out=z), out=z)
    return np.divide(numerator, np.add(e, 1.0, out=e), out=out)


def unflatten(theta, d, c):
    """The six arrays [w1, b1, w2, b2, w3, b3] as views of the flat vector theta."""
    shapes = [(d, d), (d,), (d, d), (d,), (c, d), (c,)]
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    return [part.reshape(shape) for part, shape in zip(np.split(theta, ends[:-1]), shapes)]


def buffers(rows, d, c):
    """Arrays for `forward` and `backward` on `rows` rows: (a1, a2, logits, h, delta).

    a1, a2 and h are (rows, d), logits and delta (rows, c); h and delta are scratch.
    """
    return tuple(np.empty((rows, width)) for width in (d, d, c, d, c))


def score_buffers(rows, d, c):
    """Arrays for `score` on `rows` rows: (folded, folded32, t1, t2, logits).

    folded and folded32 are the float64 and float32 augmented weights, each
    one (2d + c, d + 1) matrix: rows :d are layer 1, d:2d layer 2 and 2d:
    layer 3, each with its bias as the last column.  t1 and t2 are float32
    (d + 1, rows) with their last row set to ones, logits float32 (c, rows).
    """
    folded, folded32 = (np.empty((2 * d + c, d + 1), dtype) for dtype in (np.float64, np.float32))
    return (folded, folded32, *np.ones((2, d + 1, rows), np.float32), np.empty((c, rows), np.float32))


def init_network(d, c, seed):
    """Fresh parameters [w1, b1, w2, b2, w3, b3]: uniform weights, zero biases.

    Weight entries are drawn from U(-r, r) with r = sqrt(6 / (fan_in + fan_out)),
    which keeps the sigmoid layers out of saturation for d up to ~125.
    """
    if d < 1 or c < 2:
        raise ValidationError("need d >= 1 inputs and c >= 2 classes")
    rng = np.random.default_rng(seed)
    params = []
    for n_out, n_in in [(d, d), (d, d), (c, d)]:
        r = np.sqrt(6.0 / (n_in + n_out))
        params += [rng.uniform(-r, r, size=(n_out, n_in)), np.zeros(n_out)]
    return params


def forward(params, x, out=None):
    """Run a batch through the net; returns (logits, trace).

    x has shape (batch, d).  Layers 1 and 2 apply the sigmoid to their affine
    outputs, layer 3 returns its affine output.  They go into out, a `buffers`
    tuple (new arrays when it is None); trace is (x, a1, a2, logits, h,
    delta), what backward needs and its scratch.  It is computed in float64.
    """
    w1, b1, w2, b2, w3, b3 = params
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != w1.shape[1]:
        raise ValidationError(
            f"input width {x.shape[1]} does not match network d={w1.shape[1]}"
        )
    if out is None:
        out = buffers(len(x), len(b1), len(b3))
    a1, a2, z3, h, _ = out
    sigmoid(np.add(np.matmul(x, w1.T, out=h), b1, out=h), out=a1)
    sigmoid(np.add(np.matmul(a1, w2.T, out=h), b2, out=h), out=a2)
    np.add(np.matmul(a2, w3.T, out=z3), b3, out=z3)
    return z3, (x, *out)


def score(params, a, out=None):
    """The (c, rows) logits of the float64 params over the float32 columns of a, from a float32 tanh net.

    a is (d + 1, rows): the rows as columns over a last row of ones.  With
    sigmoid(z) = (1 + tanh(z/2)) / 2, the hidden layers' outputs are
    a1 = (1 + t1)/2 and a2 = (1 + t2)/2, where t1 = tanh(v1 x + c1) and
    t2 = tanh(v2 t1 + c2), and the logits are v3 t2 + c3, for v1 = w1/2,
    c1 = b1/2, v2 = w2/4, c2 = (rowsum(w2)/2 + b2)/2, v3 = w3/2 and
    c3 = rowsum(w3)/2 + b3.  Those are folded in float64 into the augmented
    matrices [v1 c1], [v2 c2] and [v3 c3] and rounded once to float32; the
    ones rows of a, t1 and t2 then carry the biases, so each layer is one
    matmul, and each hidden layer one tanh.  The logits differ from
    `forward`'s by float32 rounding only.  out is a `score_buffers` tuple
    (new arrays when it is None), and the logits are its last array.
    """
    w1, b1, w2, b2, w3, b3 = params
    d = len(b1)
    if out is None:
        out = score_buffers(a.shape[1], d, len(b3))
    folded, folded32, t1, t2, z3 = out
    np.multiply(w1, 0.5, out=folded[:d, :d])
    np.multiply(b1, 0.5, out=folded[:d, d])
    np.multiply(w2, 0.5, out=folded[d:2 * d, :d])
    np.multiply(w3, 0.5, out=folded[2 * d:, :d])
    np.sum(folded[d:, :d], axis=1, out=folded[d:, d])  # rowsum(w)/2 for layers 2 and 3
    folded[d:2 * d, d] += b2
    folded[2 * d:, d] += b3
    folded[d:2 * d] *= 0.5
    np.copyto(folded32, folded)
    h1, h2 = t1[:d], t2[:d]
    np.tanh(np.matmul(folded32[:d], a, out=h1), out=h1)
    np.tanh(np.matmul(folded32[d:2 * d], t1, out=h2), out=h2)
    return np.matmul(folded32[2 * d:], t2, out=z3)


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
    """Analytic gradients of the mean loss, in the order of params.

    They go into out, six arrays shaped as params (new ones when it is None),
    which is returned; the trace's arrays serve as scratch.  The output-layer
    delta is (sigmoid(logits) - targets) / (batch * c); hidden deltas
    propagate through sigmoid'(z) = a * (1 - a).
    """
    x, a1, a2, z3, h, d3 = trace
    g = [np.empty_like(p) for p in params] if out is None else out
    batch, c = z3.shape
    delta = np.subtract(sigmoid(z3, out=d3), targets, out=d3)
    delta /= batch * c
    for k, a, below in ((2, a2, h), (1, a1, a2)):  # layers 3 and 2, then the delta of the layer below
        np.matmul(delta.T, a, out=g[2 * k])
        np.sum(delta, axis=0, out=g[2 * k + 1])
        delta = np.matmul(delta, params[2 * k], out=below)
        delta *= a
        delta *= np.subtract(1.0, a, out=a)
    np.matmul(delta.T, x, out=g[0])
    np.sum(delta, axis=0, out=g[1])
    return g


def adam_update(theta, grad, state, t, alpha):
    """Adam step number t (from 1) with learn rate alpha, in place on theta.

    theta and grad are flat vectors of P values, and grad is overwritten.
    state is a (3, P) float64 array: m, v and scratch, zeros before step 1.
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


def predict_batch(params, x):
    """Class index or UNCLASSIFIED (see decode) for each row of a (batch, d) matrix."""
    return decode(forward(params, x)[0].T)[1].astype(int)


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
    the row-normalization flag, and `params` w1, b1, w2, b2, w3 and b3
    flattened row-major into one little-endian float64 vector.
    """
    with open(path, "wb") as fh:  # a handle, so np.savez appends no .npz to the name
        np.savez(fh, mask=np.asarray(mask_bins, dtype="<i8"), vocab=np.array(label_vocab, dtype=str),
                 normalize=np.array(bool(normalize_rows)),
                 params=np.concatenate([np.ravel(p) for p in params]).astype("<f8"))


def load_checkpoint(path):
    """Read a checkpoint; returns (params, mask_bins, label_vocab, normalize_rows).

    d is the mask length and c the label count.  A file that is not such an
    archive (see `errors.read_npz`), a member of the wrong dtype or shape,
    mask bins not strictly ascending in 1..300 or none, a label that breaks
    the label rule (`errors.is_label`) or repeats, or a `params` vector whose
    length is not 2d^2 + 2d + cd + c raises ParseError.
    """
    members = read_npz(path, "model checkpoint", ["mask", "vocab", "normalize", "params"])
    mask, vocab, normalize, flat = members
    if [(a.dtype.kind, a.ndim) for a in members] != [("i", 1), ("U", 1), ("b", 0), ("f", 1)] \
            or flat.dtype != np.float64:
        raise ParseError(f"{path}: members are " + ", ".join(f"{a.dtype} {a.shape}" for a in members)
                         + "; expected mask 1-D int, vocab 1-D text, normalize one bool, params 1-D float64")
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
    params = unflatten(flat, d, c)
    return params, mask_bins, vocab, bool(normalize)
