"""Three-layer fully connected network built from first principles.

Layers 1 and 2 are sigmoid layers of width d (the feature count), layer 3 is
a plain affine map onto the c class outputs.  Training uses per-class sigmoid
cross-entropy on the raw output logits, analytic backpropagation, and Adam.
Everything is plain float64 numpy; no autograd.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

# Prediction sentinel: the rounded sigmoid outputs did not form a valid one-hot.
UNCLASSIFIED = -1

CHECKPOINT_MAGIC = b"SIGCKPT1"


@dataclass
class LayerParams:
    """One affine layer: out = weight @ x + bias, weight is (n_out, n_in)."""

    weight: np.ndarray
    bias: np.ndarray


@dataclass
class DnnParams:
    """The full network: exactly three layers sized (d->d, d->d, d->c)."""

    layers: list
    layer_sizes: tuple

    def __post_init__(self):
        d, h, c = self.layer_sizes
        if h != d:
            raise ValidationError("hidden width must equal the input width")
        expected = [(d, d), (d, d), (c, d)]
        if len(self.layers) != 3:
            raise ValidationError("network must have exactly three layers")
        for layer, shape in zip(self.layers, expected):
            if layer.weight.shape != shape or layer.bias.shape != (shape[0],):
                raise ValidationError(
                    f"layer shapes {layer.weight.shape} do not match {shape}"
                )

    @property
    def input_dim(self):
        return self.layer_sizes[0]

    @property
    def n_classes(self):
        return self.layer_sizes[2]


@dataclass
class ForwardTrace:
    """Per-batch cache of the quantities backpropagation needs."""

    x: np.ndarray
    z1: np.ndarray
    a1: np.ndarray
    z2: np.ndarray
    a2: np.ndarray
    z3: np.ndarray


@dataclass
class AdamState:
    """First/second moment estimates plus the step counter.

    m and v mirror the layer list they were created for.  alpha is the learn
    rate; beta1/beta2/epsilon keep the reference defaults.
    """

    m: list
    v: list
    t: int = 0
    alpha: float = 0.005
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    @classmethod
    def for_layers(cls, layers, alpha=0.005, beta1=0.9, beta2=0.999, epsilon=1e-8):
        zeros = lambda a: np.zeros_like(a, dtype=float)
        m = [LayerParams(zeros(l.weight), zeros(l.bias)) for l in layers]
        v = [LayerParams(zeros(l.weight), zeros(l.bias)) for l in layers]
        return cls(m=m, v=v, t=0, alpha=alpha, beta1=beta1, beta2=beta2, epsilon=epsilon)


def sigmoid(z):
    """Numerically stable logistic function, elementwise."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def init_network(d, c, seed):
    """Fresh parameters: symmetric uniform weights, zero biases.

    Weight entries are drawn from U(-r, r) with r = sqrt(6 / (fan_in + fan_out)),
    which keeps the sigmoid layers out of saturation for d up to ~125.
    """
    if d < 1 or c < 2:
        raise ValidationError("need d >= 1 inputs and c >= 2 classes")
    rng = np.random.default_rng(seed)
    layers = []
    for n_out, n_in in [(d, d), (d, d), (c, d)]:
        r = np.sqrt(6.0 / (n_in + n_out))
        w = rng.uniform(-r, r, size=(n_out, n_in))
        layers.append(LayerParams(w, np.zeros(n_out)))
    return DnnParams(layers=layers, layer_sizes=(d, d, c))


def forward(params, x):
    """Run a batch through the net; returns (logits, trace).

    x has shape (batch, d).  The first two layers apply the sigmoid to their
    affine outputs; the third returns the affine output directly.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != params.input_dim:
        raise ValidationError(
            f"input width {x.shape[1]} does not match network d={params.input_dim}"
        )
    w1, w2, w3 = params.layers
    z1 = x @ w1.weight.T + w1.bias
    a1 = sigmoid(z1)
    z2 = a1 @ w2.weight.T + w2.bias
    a2 = sigmoid(z2)
    z3 = a2 @ w3.weight.T + w3.bias
    return z3, ForwardTrace(x=x, z1=z1, a1=a1, z2=z2, a2=a2, z3=z3)


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
    """Analytic gradients of the mean loss w.r.t. every parameter.

    Returns a list of LayerParams-shaped gradients.  The output-layer delta is
    (sigmoid(logits) - targets) / (batch * c); hidden deltas propagate through
    sigmoid'(z) = a * (1 - a).
    """
    y = np.asarray(targets, dtype=float)
    batch, c = trace.z3.shape
    w1, w2, w3 = params.layers

    d3 = (sigmoid(trace.z3) - y) / (batch * c)
    g_w3 = d3.T @ trace.a2
    g_b3 = d3.sum(axis=0)

    d2 = (d3 @ w3.weight) * trace.a2 * (1.0 - trace.a2)
    g_w2 = d2.T @ trace.a1
    g_b2 = d2.sum(axis=0)

    d1 = (d2 @ w2.weight) * trace.a1 * (1.0 - trace.a1)
    g_w1 = d1.T @ trace.x
    g_b1 = d1.sum(axis=0)

    return [LayerParams(g_w1, g_b1), LayerParams(g_w2, g_b2), LayerParams(g_w3, g_b3)]


def adam_update(layers, grads, state):
    """One Adam step over a list of layers; returns (new_layers, new_state).

    t <- t+1; m <- b1*m + (1-b1)*g; v <- b2*v + (1-b2)*g^2;
    mhat = m/(1-b1^t); vhat = v/(1-b2^t); theta <- theta - alpha*mhat/(sqrt(vhat)+eps).
    epsilon sits outside the square root.
    """
    t = state.t + 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    new_layers, new_m, new_v = [], [], []
    for layer, grad, m, v in zip(layers, grads, state.m, state.v):
        upd = []
        for theta, g, m_prev, v_prev in [
            (layer.weight, grad.weight, m.weight, v.weight),
            (layer.bias, grad.bias, m.bias, v.bias),
        ]:
            m_new = b1 * m_prev + (1.0 - b1) * g
            v_new = b2 * v_prev + (1.0 - b2) * g * g
            m_hat = m_new / bc1
            v_hat = v_new / bc2
            theta_new = theta - state.alpha * m_hat / (np.sqrt(v_hat) + state.epsilon)
            upd.append((theta_new, m_new, v_new))
        (w, mw, vw), (b, mb, vb) = upd
        new_layers.append(LayerParams(w, b))
        new_m.append(LayerParams(mw, mb))
        new_v.append(LayerParams(vw, vb))
    new_state = AdamState(
        m=new_m, v=new_v, t=t, alpha=state.alpha,
        beta1=b1, beta2=b2, epsilon=state.epsilon,
    )
    return new_layers, new_state


def adam_step(params, grads, state):
    """Adam update for a full network; returns (new_params, new_state)."""
    new_layers, new_state = adam_update(params.layers, grads, state)
    return DnnParams(layers=new_layers, layer_sizes=params.layer_sizes), new_state


def predict(params, x):
    """Classify one feature vector.

    The sigmoid outputs are rounded to {0,1} at 0.5 (0.5 itself rounds up,
    i.e. logit >= 0 counts as 1).  If the rounded vector is a valid one-hot,
    the hot index is returned; anything else is UNCLASSIFIED.
    """
    x = np.asarray(x, dtype=float)
    return int(predict_batch(params, x.reshape(1, -1))[0])


def predict_batch(params, x):
    """Vectorized predict over a (batch, d) matrix; returns int array."""
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

    Layout: 8-byte magic, layer sizes, the kept frequency bins, the label
    vocabulary, the row-normalization flag, then all weight matrices and bias
    vectors row-major as little-endian float64.
    """
    d, h, c = params.layer_sizes
    out = bytearray()
    out += CHECKPOINT_MAGIC
    out += struct.pack("<3I", d, h, c)
    out += struct.pack("<I", len(mask_bins))
    out += struct.pack(f"<{len(mask_bins)}H", *mask_bins)
    out += struct.pack("<I", len(label_vocab))
    for label in label_vocab:
        raw = label.encode("utf-8")
        out += struct.pack("<H", len(raw))
        out += raw
    out += struct.pack("<B", 1 if normalize_rows else 0)
    for layer in params.layers:
        out += np.ascontiguousarray(layer.weight, dtype="<f8").tobytes()
        out += np.ascontiguousarray(layer.bias, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(out))


def load_checkpoint(path):
    """Read a checkpoint; returns (params, mask_bins, label_vocab, normalize_rows)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != CHECKPOINT_MAGIC:
        raise ValidationError(f"{path}: not a model checkpoint (bad magic)")
    off = 8
    d, h, c = struct.unpack_from("<3I", raw, off)
    off += 12
    (n_mask,) = struct.unpack_from("<I", raw, off)
    off += 4
    mask_bins = list(struct.unpack_from(f"<{n_mask}H", raw, off))
    off += 2 * n_mask
    (n_vocab,) = struct.unpack_from("<I", raw, off)
    off += 4
    vocab = []
    for _ in range(n_vocab):
        (ln,) = struct.unpack_from("<H", raw, off)
        off += 2
        vocab.append(raw[off : off + ln].decode("utf-8"))
        off += ln
    (norm_flag,) = struct.unpack_from("<B", raw, off)
    off += 1
    layers = []
    for n_out, n_in in [(d, d), (h, d), (c, d)]:
        w = np.frombuffer(raw, dtype="<f8", count=n_out * n_in, offset=off)
        off += 8 * n_out * n_in
        b = np.frombuffer(raw, dtype="<f8", count=n_out, offset=off)
        off += 8 * n_out
        layers.append(LayerParams(w.reshape(n_out, n_in).copy(), b.copy()))
    params = DnnParams(layers=layers, layer_sizes=(d, h, c))
    return params, mask_bins, vocab, bool(norm_flag)
