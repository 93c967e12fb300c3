"""Three-layer fully connected network built from first principles.

The network is the list [w1, b1, w2, b2, w3, b3]; weight k is (n_out, n_in).
Layers 1 and 2 are sigmoid layers of width d (the feature count), layer 3 is
a plain affine map onto the c class outputs.  Training uses per-class sigmoid
cross-entropy on the raw output logits, analytic backpropagation, and Adam,
in float64 numpy; no autograd.  `sigmoid` and `forward` keep a float32 input
in float32 (any other input becomes float64), which the training loop uses
for its per-run scoring pass over float32 copies of the parameters.
A checkpoint is an uncompressed .npz of the model and what `eval` needs
to feed it: the kept bins, the labels and the row-normalization flag.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import LABEL_RULE, NumericalError, ParseError, ValidationError, is_label, read_npz
from .spectral import N_BINS

# Prediction sentinel: the rounded sigmoid outputs did not form a valid one-hot.
UNCLASSIFIED = -1

# Adam's reference moment decay rates and its denominator guard.
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class AdamState:
    """Adam's first/second moments, one array per parameter array, and step count."""

    m: list
    v: list
    t: int = 0

    @classmethod
    def for_params(cls, params):
        zeros = lambda: [np.zeros_like(p, dtype=float) for p in params]
        return cls(m=zeros(), v=zeros())


def sigmoid(z):
    """Numerically stable logistic function, elementwise.

    exp(min(z, 0)) / (1 + exp(-|z|)) needs no branch.  For z >= 0 the
    numerator is exp(0) = 1 exactly, leaving 1 / (1 + exp(-z)); for z < 0 both
    exponentials are exp(z), leaving exp(z) / (1 + exp(z)).  These are the
    IEEE operations of the usual two-branch stable form, so each result is bit
    for bit the same as there, and no exponential can overflow.  A float32 z
    gives a float32 result; any other z is computed in float64.
    """
    z = _floats(z)
    return np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(-np.abs(z)))


def _floats(a):
    """a as an array: float32 stays float32, anything else becomes float64."""
    a = np.asarray(a)
    return a if a.dtype == np.float32 else a.astype(float, copy=False)


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


def forward(params, x):
    """Run a batch through the net; returns (logits, trace).

    x has shape (batch, d).  The first two layers apply the sigmoid to their
    affine outputs; the third returns the affine output directly.  trace is
    the tuple (x, a1, a2, logits) that backward needs.  A float32 x with
    float32 params gives float32 logits; any other x is taken as float64.
    """
    w1, b1, w2, b2, w3, b3 = params
    x = np.atleast_2d(_floats(x))
    if x.shape[1] != w1.shape[1]:
        raise ValidationError(
            f"input width {x.shape[1]} does not match network d={w1.shape[1]}"
        )
    a1 = sigmoid(x @ w1.T + b1)
    a2 = sigmoid(a1 @ w2.T + b2)
    z3 = a2 @ w3.T + b3
    return z3, (x, a1, a2, z3)


def loss(logits, targets):
    """Mean stable sigmoid cross-entropy over all batch x class elements.

    Per element: max(z, 0) - z*y + log(1 + exp(-|z|)), which equals
    -y*log(sigmoid(z)) - (1-y)*log(1-sigmoid(z)) but never overflows.
    """
    z = np.asarray(logits, dtype=float)
    y = np.asarray(targets, dtype=float)
    if not np.all(np.isfinite(z)):
        raise NumericalError("non-finite logits in loss")
    per_element = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    return float(np.mean(per_element))


def backward(params, trace, targets):
    """Analytic gradients of the mean loss, in the order of params.

    The output-layer delta is (sigmoid(logits) - targets) / (batch * c);
    hidden deltas propagate through sigmoid'(z) = a * (1 - a).
    """
    _, _, w2, _, w3, _ = params
    x, a1, a2, z3 = trace
    y = np.asarray(targets, dtype=float)
    batch, c = z3.shape
    d3 = (sigmoid(z3) - y) / (batch * c)
    d2 = (d3 @ w3) * a2 * (1.0 - a2)
    d1 = (d2 @ w2) * a1 * (1.0 - a1)
    return [d1.T @ x, d1.sum(axis=0), d2.T @ a1, d2.sum(axis=0), d3.T @ a2, d3.sum(axis=0)]


def adam_update(params, grads, state, alpha):
    """One Adam step with learn rate alpha; returns (new_params, new_state).

    t <- t+1; m <- b1*m + (1-b1)*g; v <- b2*v + (1-b2)*g^2;
    mhat = m/(1-b1^t); vhat = v/(1-b2^t); theta <- theta - alpha*mhat/(sqrt(vhat)+eps).
    epsilon sits outside the square root.
    """
    t = state.t + 1
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    new_params, new_m, new_v = [], [], []
    for theta, g, m_prev, v_prev in zip(params, grads, state.m, state.v):
        m = BETA1 * m_prev + (1.0 - BETA1) * g
        v = BETA2 * v_prev + (1.0 - BETA2) * g * g
        new_params.append(theta - alpha * (m / bc1) / (np.sqrt(v / bc2) + EPSILON))
        new_m.append(m)
        new_v.append(v)
    return new_params, AdamState(m=new_m, v=new_v, t=t)


def predict_batch(params, x):
    """Class index or UNCLASSIFIED (see decode) for each row of a (batch, d) matrix."""
    return decode(forward(params, x)[0])[1].astype(int)


def decode(logits):
    """(hot, preds): rounded outputs and the one-hot index or UNCLASSIFIED.

    sigmoid(z) >= 0.5 exactly when z >= 0, so hot = logits >= 0 per element.
    """
    hot = logits >= 0.0
    preds = np.where(hot.sum(axis=1) == 1, hot.argmax(axis=1), UNCLASSIFIED)
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
    shapes = [(d, d), (d,), (d, d), (d,), (c, d), (c,)]
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    if len(flat) != ends[-1]:
        raise ParseError(f"{path}: {len(flat)} parameters; {d} bins and {c} labels need {ends[-1]}")
    params = [part.reshape(shape) for part, shape in zip(np.split(flat, ends[:-1]), shapes)]
    return params, mask_bins, vocab, bool(normalize)
