"""Three-layer fully connected network built from first principles.

The network is the list [w1, b1, w2, b2, w3, b3]; weight k is (n_out, n_in).
Layers 1 and 2 are sigmoid layers of width d (the feature count), layer 3 is
a plain affine map onto the c class outputs.  Training uses per-class sigmoid
cross-entropy on the raw output logits, analytic backpropagation, and Adam,
in float64 numpy; no autograd.  `sigmoid` and `forward` keep a float32 input
in float32 (any other input becomes float64), which the training loop uses
for its per-run scoring pass over float32 copies of the parameters.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .spectral import N_BINS

# Prediction sentinel: the rounded sigmoid outputs did not form a valid one-hot.
UNCLASSIFIED = -1

CHECKPOINT_MAGIC = b"SIGCKPT1"

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
    """Write a self-describing binary model checkpoint.

    Layout: 8-byte magic, layer sizes (d, d, c), the kept frequency bins, the
    label vocabulary, the row-normalization flag, then all weight matrices and
    bias vectors row-major as little-endian float64.
    """
    d, c = params[0].shape[1], params[4].shape[0]
    out = bytearray()
    out += CHECKPOINT_MAGIC
    out += struct.pack("<3I", d, d, c)
    out += struct.pack("<I", len(mask_bins))
    out += struct.pack(f"<{len(mask_bins)}H", *mask_bins)
    out += struct.pack("<I", len(label_vocab))
    for label in label_vocab:
        raw = label.encode("utf-8")
        out += struct.pack("<H", len(raw))
        out += raw
    out += struct.pack("<B", 1 if normalize_rows else 0)
    for arr in params:
        out += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(out))


def load_checkpoint(path):
    """Read a checkpoint; returns (params, mask_bins, label_vocab, normalize_rows).

    A file that is cut short or has trailing bytes, a hidden width or mask
    length other than d, a label count other than c, a non-UTF-8 label, or
    mask bins not strictly ascending in 1..300 raises ValidationError.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != CHECKPOINT_MAGIC:
        raise ValidationError(f"{path}: not a model checkpoint (bad magic)")
    off = 8

    def take(size):
        nonlocal off
        if off + size > len(raw):
            raise ValidationError(f"{path}: checkpoint truncated at byte {len(raw)}")
        off += size
        return raw[off - size : off]

    d, h, c = struct.unpack("<3I", take(12))
    if h != d:
        raise ValidationError(f"{path}: hidden width {h} must equal the input width {d}")
    (n_mask,) = struct.unpack("<I", take(4))
    mask_bins = list(struct.unpack(f"<{n_mask}H", take(2 * n_mask)))
    (n_vocab,) = struct.unpack("<I", take(4))
    if n_vocab != c:
        raise ValidationError(f"{path}: {n_vocab} labels for {c} outputs")
    vocab = []
    for _ in range(n_vocab):
        (ln,) = struct.unpack("<H", take(2))
        try:
            vocab.append(take(ln).decode("utf-8"))
        except UnicodeDecodeError:
            raise ValidationError(f"{path}: label {len(vocab) + 1} is not valid UTF-8") from None
    (norm_flag,) = struct.unpack("<B", take(1))
    params = []
    for shape in [(d, d), (d,), (d, d), (d,), (c, d), (c,)]:
        params.append(np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape).copy())
    if off != len(raw):
        raise ValidationError(f"{path}: {len(raw) - off} trailing bytes after the checkpoint")
    if n_mask != d or sorted(set(mask_bins)) != mask_bins or not all(0 < b <= N_BINS for b in mask_bins):
        raise ValidationError(f"{path}: the mask must hold {d} strictly ascending bins in 1..{N_BINS}")
    return params, mask_bins, vocab, bool(norm_flag)
