import numpy as np
import pytest

from sigclass import dnn, trainer
from sigclass.config import PipelineConfig
from sigclass.dnn import UNCLASSIFIED
from sigclass.errors import NumericalError, ParseError
from sigclass.fusion import FeatureMask, SpectrumRow
from sigclass.spectral import N_BINS

LN2 = 0.6931471805599453


def zero_net(d, c):
    return [np.zeros((d, d + 1)), np.zeros((d, d + 1)), np.zeros((c, d + 1))]


def net(d, c, seed, dtype=np.float64):
    """init_network's draws as the three augmented matrices, views of one vector of dtype."""
    return dnn.unflatten(dnn.init_network(d, c, seed).astype(dtype), d, c)


def augmented(x, dtype=np.float32):
    """The (d + 1, rows) `forward` input: the rows of x as columns over a row of ones."""
    return np.vstack([x.T, np.ones((1, len(x)))]).astype(dtype)


def bits(a):
    """The raw bits of a float array, for bitwise comparison."""
    return a.view(f"i{a.itemsize}")


def predict_one(params, x):
    """Class of one feature vector, through predict_batch on a 1-column matrix."""
    return int(dnn.predict_batch(params, augmented(np.reshape(x, (1, -1)), float))[0])


# ---------------------------------------------------------------------------
# init

def test_init_shapes_small_task():
    theta = dnn.init_network(23, 4, seed=0)
    assert theta.shape == (2 * 23 * 24 + 4 * 24,) and theta.dtype == np.float64
    p = dnn.unflatten(theta, 23, 4)
    assert [a.shape for a in p] == [(23, 24), (23, 24), (4, 24)]
    assert all(np.shares_memory(a, theta) for a in p)


def test_init_shapes_large_task():
    theta = dnn.init_network(115, 7, seed=0)
    assert theta.shape == (2 * 115 * 116 + 7 * 116,)
    assert [a.shape for a in dnn.unflatten(theta, 115, 7)] == [(115, 116), (115, 116), (7, 116)]


def test_init_deterministic_and_bounded():
    a = net(10, 3, seed=99)
    b = net(10, 3, seed=99)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa, pb)
    assert all(np.all(w[:, -1] == 0) for w in a)  # zero biases
    r1 = np.sqrt(6.0 / (10 + 10))
    r3 = np.sqrt(6.0 / (10 + 3))
    assert np.all(np.abs(a[0]) <= r1) and np.all(a[0][:, :-1] != 0)
    assert np.all(np.abs(a[2]) <= r3)
    c = net(10, 3, seed=100)
    assert not np.array_equal(a[0], c[0])


# ---------------------------------------------------------------------------
# sigmoid

def reference_sigmoid(z):
    """The two-branch stable sigmoid in z's float dtype, with boolean masks: the bitwise reference."""
    z = np.asarray(z)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


SIGMOID_EDGES = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, np.nan]


def test_sigmoid_bit_identical_to_branched_reference():
    # float32 z stays float32: backward's output delta in the pipeline's net
    for dtype in (np.float64, np.float32):
        z = np.concatenate([np.linspace(-800.0, 800.0, 200_001), SIGMOID_EDGES]).astype(dtype)
        with np.errstate(under="ignore"):
            expected = reference_sigmoid(z)
            got = dnn.sigmoid(z)
        assert got.shape == z.shape and got.dtype == dtype
        assert np.array_equal(bits(got), bits(expected))
    x = np.random.default_rng(4).normal(scale=6.0, size=(37, 11))
    assert np.array_equal(dnn.sigmoid(x).view(np.int64), reference_sigmoid(x).view(np.int64))


def test_sigmoid_matches_mpmath_oracle():
    import mpmath

    z = np.concatenate([np.linspace(-745.0, 745.0, 3001),
                        np.random.default_rng(3).uniform(-40.0, 40.0, 1000)])
    got = dnn.sigmoid(z)
    with mpmath.workdps(50):
        exact = np.array([float(1 / (1 + mpmath.exp(-mpmath.mpf(float(v))))) for v in z])
    normal = z >= -708.0
    rel = np.abs(got[normal] - exact[normal]) / exact[normal]
    assert rel.max() <= 4.5e-16
    # below -708 the result is subnormal: only an absolute bound is meaningful
    assert np.abs(got[~normal] - exact[~normal]).max() <= 1e-323


def test_sigmoid_never_overflows_or_goes_invalid():
    z = np.array([-800.0, -745.0, 745.0, 800.0, -np.inf, np.inf])
    with np.errstate(over="raise", invalid="raise", under="ignore"):
        out = dnn.sigmoid(z)
    # exp(-745) rounds to the smallest subnormal, 5e-324
    assert np.array_equal(out, [0.0, 5e-324, 1.0, 1.0, 0.0, 1.0])


def test_sigmoid_out_overwrites_z_and_no_out_leaves_it():
    z = np.random.default_rng(9).normal(scale=5.0, size=(7, 5))
    before = z.copy()
    expected = reference_sigmoid(z)
    assert np.array_equal(dnn.sigmoid(z).view(np.int64), expected.view(np.int64))
    assert np.array_equal(z, before)
    out = np.empty_like(z)
    assert dnn.sigmoid(z, out=out) is out
    assert np.array_equal(out.view(np.int64), expected.view(np.int64))


def test_sigmoid_swap_leaves_training_bit_identical(monkeypatch):
    # random spectra keep the activations off 0 and 1, so every bit of the sigmoid counts
    rng = np.random.default_rng(11)
    rows = [SpectrumRow(bins=0.1 + rng.random(N_BINS), label=label)
            for _ in range(16) for label in ("A", "B", "C")]
    cfg = PipelineConfig(runs=25, batch_size=12, seed=3)
    x = trainer.features_matrix(rows, FeatureMask(kept=[4, 9, 30, 31, 77]), True)
    y = np.arange(len(rows)) % 3  # the labels cycle A, B, C
    tr, te = trainer.split(y, cfg)
    p_new, log_new = trainer.train(x[tr], y[tr], x[te], y[te], 3, cfg)
    calls = []

    def swapped(z, out=None):
        calls.append(np.shape(z))
        if out is None:
            return reference_sigmoid(z)
        out[...] = reference_sigmoid(z)
        return out

    monkeypatch.setattr(dnn, "sigmoid", swapped)
    p_ref, log_ref = trainer.train(x[tr], y[tr], x[te], y[te], 3, cfg)
    # only backward's output delta goes through the swapped sigmoid; the hidden layers use tanh
    assert len(calls) == cfg.runs
    assert set(calls) == {(3, 12)}
    for a, b in zip(p_new, p_ref):
        assert np.array_equal(bits(a), bits(b))
    assert log_new.records.shape == log_ref.records.shape == (25, 5)
    assert np.array_equal(log_new.records.view(np.int64), log_ref.records.view(np.int64))


# ---------------------------------------------------------------------------
# forward

def test_forward_zero_net_gives_half_activations():
    # tanh(0) = 0 is the sigmoid form's activation of 1/2
    p = zero_net(4, 3)
    logits, (_, t1, t2, *_) = dnn.forward(p, augmented(np.zeros((2, 4)), float))
    assert np.all(t1[:4] == 0.0) and np.all(t1[4] == 1.0)
    assert np.all(t2[:4] == 0.0) and np.all(t2[4] == 1.0)
    assert np.all(logits == 0.0)


def test_forward_hand_evaluated_chain():
    # 1-wide net: W1 = 2, W2 = 1, b2 = 0.5, W3 = 1, b3 = 1 applied to x = 0.5
    p = [np.array([[2.0, 0.0]]), np.array([[1.0, 0.5]]), np.array([[1.0, 1.0]])]
    logits, (_, t1, t2, *_) = dnn.forward(p, np.array([[0.5], [1.0]]))
    assert t1[0, 0] == pytest.approx(0.7615941559557649, abs=1e-12)  # tanh(1)
    assert t2[0, 0] == pytest.approx(0.8515030064982424, abs=1e-12)  # tanh(tanh(1) + 0.5)
    assert logits[0, 0] == pytest.approx(1.8515030064982425, abs=1e-12)


def test_forward_batch_shape():
    p = net(23, 4, seed=3, dtype=np.float32)
    a = augmented(np.random.default_rng(0).normal(size=(150, 23)))
    logits, (_, t1, *_) = dnn.forward(p, a)
    assert logits.shape == (4, 150) and logits.dtype == np.float32
    assert t1.shape == (24, 150)


def test_forward_batch_order_equivariant():
    p = net(8, 3, seed=5)
    a = augmented(np.random.default_rng(1).normal(size=(20, 8)), float)
    perm = np.random.default_rng(2).permutation(20)
    logits, _ = dnn.forward(p, a)
    logits_perm, _ = dnn.forward(p, np.ascontiguousarray(a[:, perm]))
    assert np.array_equal(logits[:, perm], logits_perm)


# ---------------------------------------------------------------------------
# loss

def test_loss_reference_values():
    assert dnn.loss(np.array([[0.0]]), np.array([[1.0]])) == pytest.approx(LN2, abs=1e-12)
    assert dnn.loss(np.array([[0.0]]), np.array([[0.0]])) == pytest.approx(LN2, abs=1e-12)


def test_loss_saturation_no_overflow():
    assert dnn.loss(np.array([[1000.0]]), np.array([[1.0]])) <= 1e-6
    assert dnn.loss(np.array([[1000.0]]), np.array([[0.0]])) == pytest.approx(1000.0, abs=1e-6)
    assert dnn.loss(np.array([[-1000.0]]), np.array([[0.0]])) <= 1e-6


def test_loss_stable_form_matches_naive():
    # the naive formula cancels catastrophically in float64 past |z| ~ 13,
    # so evaluate it at 50 digits to get a trustworthy reference
    import mpmath

    mpmath.mp.dps = 50
    for zz in np.linspace(-20, 20, 401):
        sig = 1 / (1 + mpmath.exp(-mpmath.mpf(float(zz))))
        for y in (0.0, 1.0):
            naive = float(-(y * mpmath.log(sig) + (1 - y) * mpmath.log(1 - sig)))
            stable = dnn.loss(np.array([[zz]]), np.array([[y]]))
            assert abs(stable - naive) < 1e-10


def test_loss_is_mean_over_all_elements():
    logits = np.array([[0.0, 1000.0], [0.0, 0.0]])
    targets = np.array([[1.0, 0.0], [0.0, 1.0]])
    expected = (LN2 + 1000.0 + LN2 + LN2) / 4.0
    assert dnn.loss(logits, targets) == pytest.approx(expected, rel=1e-12)


def test_loss_nonnegative():
    rng = np.random.default_rng(7)
    logits = rng.normal(scale=3.0, size=(30, 5))
    targets = (rng.random((30, 5)) > 0.5).astype(float)
    assert dnn.loss(logits, targets) >= 0.0


def test_loss_rejects_nonfinite_logits():
    # a nan or inf logit, against target 0 or 1, in float64 or float32, with or without out
    for bad in (np.nan, np.inf, -np.inf):
        for target in (0.0, 1.0):
            for dtype in (np.float64, np.float32):
                logits = np.array([[0.5, bad], [-2.0, 3.0]], dtype)
                targets = np.full((2, 2), target, dtype)
                for out in (None, np.empty((2, 2, 2), dtype)):
                    with pytest.raises(NumericalError):
                        dnn.loss(logits, targets, out)


def test_loss_in_float32_out_near_float64_expression():
    rng = np.random.default_rng(10)
    y = (rng.random((7, 1015)) > 0.5).astype(np.float32)
    z = rng.normal(scale=8.0, size=(7, 1015)).astype(np.float32)
    z64, y64 = z.astype(float), y.astype(float)
    want = float(np.mean(np.maximum(z64, 0.0) - z64 * y64 + np.log1p(np.exp(-np.abs(z64)))))
    got = dnn.loss(z, y, np.empty((2, 7, 1015), np.float32))
    assert got == pytest.approx(want, rel=1e-6)
    assert got != dnn.loss(z, y)  # the float32 path is a different computation


def test_loss_float32_mean_bit_identical_to_np_mean():
    rng = np.random.default_rng(11)
    for shape in ((7, 150), (7, 1015), (4, 5000)):
        y = (rng.random(shape) > 0.5).astype(np.float32)
        z = rng.normal(scale=8.0, size=shape).astype(np.float32)
        scratch = np.empty((2, *shape), np.float32)
        got = dnn.loss(z, y, scratch)
        assert got == float(np.mean(scratch[0]))  # scratch[0] holds the per-element losses


def test_loss_bit_identical_to_float64_expression():
    rng = np.random.default_rng(10)
    y = (rng.random((50, 3)) > 0.5).astype(float)
    z = rng.normal(scale=8.0, size=(50, 3))
    for logits in (z, z.astype(np.float32)):
        z64 = logits.astype(float)
        want = float(np.mean(np.maximum(z64, 0.0) - z64 * y + np.log1p(np.exp(-np.abs(z64)))))
        assert dnn.loss(logits, y) == want
        assert dnn.loss(logits, y, np.empty((2, 50, 3))) == want


# ---------------------------------------------------------------------------
# backward

def finite_difference_grads(params, a, y, h=1e-5):
    """Central-difference loss gradients; independent of backward()."""
    grads = []
    for arr in params:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            saved = arr[i]
            arr[i] = saved + h
            up = dnn.loss(dnn.forward(params, a)[0], y)
            arr[i] = saved - h
            down = dnn.loss(dnn.forward(params, a)[0], y)
            arr[i] = saved
            g[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def one_hot_columns(rng, c, cols):
    """(c, cols) float64 targets, one random hot output per column."""
    y = np.zeros((c, cols))
    y[rng.integers(0, c, size=cols), np.arange(cols)] = 1.0
    return y


def test_backward_output_delta_zero_net():
    p = zero_net(2, 3)
    batch = 4
    a = augmented(np.zeros((batch, 2)), float)
    y = np.ones((3, batch))
    _, trace = dnn.forward(p, a)
    grads = dnn.backward(p, trace, y)
    # delta = (0.5 - 1) / (batch * c) at every output; the bias column sums it over the batch
    expected_b3 = batch * (0.5 - 1.0) / (batch * 3)
    assert np.allclose(grads[2][:, -1], expected_b3, atol=1e-15)
    assert np.all(grads[2][:, :-1] == 0.0)  # t2 = tanh(0) = 0


def test_backward_matches_finite_differences():
    # a float64 instance of the net the pipeline runs in float32
    rng = np.random.default_rng(12)
    p = net(4, 3, seed=42)
    a = augmented(rng.normal(size=(5, 4)), float)
    y = one_hot_columns(rng, 3, 5)
    _, trace = dnn.forward(p, a)
    analytic = dnn.backward(p, trace, y)
    numeric = finite_difference_grads(p, a, y)
    assert [g.shape for g in analytic] == [w.shape for w in p]
    for ga, gn in zip(analytic, numeric):
        rel = np.abs(ga - gn) / np.maximum(1.0, np.abs(ga))
        assert np.max(rel) < 1e-5


def test_backward_zero_input_batch():
    p = net(6, 3, seed=8)
    a = augmented(np.zeros((5, 6)), float)
    y = np.zeros((3, 5))
    y[0] = 1.0
    _, trace = dnn.forward(p, a)
    grads = dnn.backward(p, trace, y)
    assert np.all(grads[0][:, :-1] == 0.0)  # delta1 x^T with x = 0
    assert np.any(grads[0][:, -1] != 0.0)  # the bias column sees the ones row


def reference_forward(params, a):
    """Logits and hidden activations as plain expressions with new arrays: the bitwise reference."""
    w1, w2, w3 = params
    ones = np.ones((1, a.shape[1]), a.dtype)
    t1 = np.vstack([np.tanh(w1 @ a), ones])
    t2 = np.vstack([np.tanh(w2 @ t1), ones])
    return w3 @ t2, t1, t2


def reference_forward_backward(params, a, y):
    """Logits and gradients as plain expressions with new arrays: the bitwise reference."""
    w1, w2, w3 = params
    d = len(w1)
    z3, t1, t2 = reference_forward(params, a)
    d3 = (reference_sigmoid(z3) - y) / z3.size
    d2 = (w3[:, :d].T @ d3) * (1.0 - t2[:d] * t2[:d])
    d1 = (w2[:, :d].T @ d2) * (1.0 - t1[:d] * t1[:d])
    return z3, [d1 @ a.T, d2 @ t1.T, d3 @ t2.T]


@pytest.mark.parametrize("d, c, batch", [(5, 3, 12), (13, 2, 40), (77, 4, 150)])
def test_buffered_passes_bit_identical_to_expressions(d, c, batch):
    rng = np.random.default_rng(d)
    theta = dnn.init_network(d, c, seed=d).astype(np.float32)
    theta += rng.normal(scale=0.5, size=theta.shape)  # nonzero biases and weights past init's range
    a = augmented(0.1 + rng.random((batch, d)))
    y = np.eye(c, dtype=np.float32)[:, rng.integers(0, c, batch)]
    params, grad = dnn.unflatten(theta, d, c), np.empty_like(theta)
    want_logits, want_grads = reference_forward_backward(params, a, y)
    assert want_logits.dtype == flat(want_grads).dtype == np.float32
    work = dnn.activations(batch, d, c, np.float32)
    for _ in range(2):  # the same arrays serve every pass, though backward uses them as scratch
        logits, trace = dnn.forward(params, a, work)
        assert logits is work[2]
        assert np.array_equal(bits(logits), bits(want_logits))
        dnn.backward(params, trace, y, dnn.unflatten(grad, d, c))
        assert np.array_equal(bits(grad), bits(flat(want_grads)))


@pytest.mark.parametrize("d, c, rows", [(5, 3, 12), (58, 4, 600), (77, 7, 1015), (125, 7, 300)])
def test_score_bit_identical_to_expressions_and_near_float64_forward(d, c, rows):
    # the scoring pass: the float32 forward over every column, as train and eval run it
    rng = np.random.default_rng(d)
    x = rng.random((rows, d)).astype(np.float32)
    theta = dnn.init_network(d, c, seed=d).astype(np.float32)
    theta += rng.normal(scale=0.5, size=theta.shape)
    params = dnn.unflatten(theta, d, c)
    a = augmented(x)
    want = reference_forward(params, a)[0]
    assert want.shape == (c, rows)
    out = dnn.activations(rows, d, c, np.float32)
    for got in (dnn.forward(params, a)[0], dnn.forward(params, a, out)[0], dnn.forward(params, a, out)[0]):
        assert got.dtype == want.dtype == np.float32
        assert np.array_equal(bits(got), bits(want))
    assert got is out[2]
    z = dnn.forward(dnn.unflatten(theta.astype(float), d, c), augmented(x, float))[0]
    assert np.abs(z).max() > 1.0  # the logits reach past the bound's constant term
    assert np.all(np.abs(got - z) <= 1e-5 * (1.0 + np.abs(z)))


# ---------------------------------------------------------------------------
# adam

def flat(arrays):
    return np.concatenate([np.ravel(a) for a in arrays])


def test_adam_first_step_moves_alpha_per_element():
    p = net(3, 2, seed=1)
    rng = np.random.default_rng(3)
    grads = [
        rng.uniform(1e-3, 2.0, a.shape) * rng.choice([-1, 1], a.shape) for a in p
    ]
    before, g = flat(p), flat(grads)
    theta, state = before.copy(), np.zeros((3, len(before)))
    dnn.adam_update(theta, g.copy(), state, 1, 0.005)
    # the moments hold exactly one step's worth of g
    assert np.array_equal(state[0], (1 - dnn.BETA1) * g)
    assert np.array_equal(state[1], (1 - dnn.BETA2) * g * g)
    step = np.abs(theta - before)
    expected = 0.005 * np.abs(g) / (np.abs(g) + dnn.EPSILON)
    assert np.max(np.abs(step - expected)) < 1e-12
    assert np.max(np.abs(step - 0.005)) < 1e-6  # |g| >= 1e-3 everywhere
    # moves against the gradient
    assert np.all(np.sign(theta - before) == -np.sign(g))


def test_adam_zero_gradient_keeps_params():
    before = dnn.init_network(4, 2, seed=2)
    theta, state = before.copy(), np.zeros((3, len(before)))
    dnn.adam_update(theta, np.zeros_like(theta), state, 1, 0.005)
    assert np.array_equal(theta, before)
    assert not state[:2].any()


def test_adam_two_steps_match_scalar_recurrence():
    # hand recurrence for one scalar parameter and a constant gradient
    alpha, b1, b2, eps = 0.005, 0.9, 0.999, 1e-8
    theta, g = 0.7, 0.3
    m = (1 - b1) * g
    v = (1 - b2) * g * g
    theta1 = theta - alpha * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
    m2 = b1 * m + (1 - b1) * g
    v2 = b2 * v + (1 - b2) * g * g
    theta2 = theta1 - alpha * (m2 / (1 - b1**2)) / (np.sqrt(v2 / (1 - b2**2)) + eps)

    assert (dnn.BETA1, dnn.BETA2, dnn.EPSILON) == (b1, b2, eps)
    params = np.array([theta, 0.0])
    state = np.zeros((3, 2))
    dnn.adam_update(params, np.array([g, 0.0]), state, 1, alpha)
    assert params[0] == pytest.approx(theta1, abs=1e-12)
    dnn.adam_update(params, np.array([g, 0.0]), state, 2, alpha)
    assert params[0] == pytest.approx(theta2, abs=1e-12)
    assert params[1] == 0.0


def reference_adam(params, grads, m, v, t, alpha):
    """The per-array Adam step with new arrays: the bitwise reference."""
    bc1, bc2 = 1.0 - dnn.BETA1**t, 1.0 - dnn.BETA2**t
    m = [dnn.BETA1 * mp + (1.0 - dnn.BETA1) * g for mp, g in zip(m, grads)]
    v = [dnn.BETA2 * vp + (1.0 - dnn.BETA2) * g * g for vp, g in zip(v, grads)]
    params = [p - alpha * (mi / bc1) / (np.sqrt(vi / bc2) + dnn.EPSILON)
              for p, mi, vi in zip(params, m, v)]
    return params, m, v


def test_adam_in_place_bit_identical_to_per_array_reference():
    rng = np.random.default_rng(6)
    p = net(7, 3, seed=6)
    theta, state = flat(p), np.zeros((3, len(flat(p))))
    m, v = [np.zeros_like(a) for a in p], [np.zeros_like(a) for a in p]
    for t in range(1, 6):
        grads = [rng.normal(scale=10.0 ** rng.integers(-9, 2), size=a.shape) for a in p]
        grads[1][0] = 0.0
        dnn.adam_update(theta, flat(grads), state, t, 0.01)
        p, m, v = reference_adam(p, grads, m, v, t, 0.01)
        for got, want in [(theta, p), (state[0], m), (state[1], v)]:
            assert np.array_equal(bits(got), bits(flat(want)))


def test_adam_descends_on_convex_toy():
    # full-batch single affine layer + the sigmoid cross-entropy loss
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 3))
    y = (x @ np.array([[1.0, -2.0, 0.5], [-1.0, 1.0, 2.0]]).T > 0).astype(float)
    theta, state = np.zeros(8), np.zeros((3, 8))
    w, bias = theta[:6].reshape(2, 3), theta[6:]
    losses = []
    for t in range(1, 51):
        z = x @ w.T + bias
        losses.append(dnn.loss(z, y))
        delta = (dnn.sigmoid(z) - y) / z.size
        dnn.adam_update(theta, flat([delta.T @ x, delta.sum(axis=0)]), state, t, 0.005)
    z = x @ w.T + bias
    losses.append(dnn.loss(z, y))
    assert all(b < a for a, b in zip(losses, losses[1:]))


# ---------------------------------------------------------------------------
# predict

def test_predict_single_hot_output():
    p = zero_net(2, 3)
    p[2][:, -1] = [-5.0, 5.0, -5.0]
    assert predict_one(p, np.zeros(2)) == 1


def test_predict_no_hot_output_is_unclassified():
    p = zero_net(2, 3)
    p[2][:, -1] = [-5.0, -5.0, -5.0]
    assert predict_one(p, np.zeros(2)) == UNCLASSIFIED


def test_predict_two_hot_outputs_is_unclassified():
    p = zero_net(2, 3)
    p[2][:, -1] = [5.0, 5.0, -5.0]
    assert predict_one(p, np.zeros(2)) == UNCLASSIFIED


def test_predict_matches_rounded_one_hot():
    rng = np.random.default_rng(11)
    p = net(6, 4, seed=11, dtype=np.float32)
    a = augmented(rng.normal(size=(50, 6)))
    logits, _ = dnn.forward(p, a)
    rounded = (dnn.sigmoid(logits) >= 0.5).astype(int)
    preds = dnn.predict_batch(p, a)
    assert preds.shape == (50,)
    for row, pred in zip(rounded.T, preds):
        if pred == UNCLASSIFIED:
            assert row.sum() != 1
        else:
            expected = np.zeros(4, dtype=int)
            expected[pred] = 1
            assert np.array_equal(row, expected)


def test_predict_batch_matches_where_form():
    # with d = c and W1 = W2 = W3 = [I | 0], each logit is tanh(tanh(input)), of the input's sign
    # (a -0.0 input may come out as +0.0, and both are hot)
    for c, shift in [(4, 0.0), (12, -1.3)]:
        logits = (np.random.default_rng(12).normal(size=(c, 500)) + shift).astype(np.float32)
        logits[0, ::7] = -0.0  # -0 >= 0: hot
        hot_ref = logits >= 0.0
        preds_ref = np.where(hot_ref.sum(axis=0) == 1, hot_ref.argmax(axis=0), UNCLASSIFIED)
        counts = set(hot_ref.sum(axis=0).tolist())
        assert {0, 1, 2} <= counts and max(counts) >= 3
        assert len(set(preds_ref[preds_ref != UNCLASSIFIED].tolist())) == c
        identity = np.eye(c, c + 1, dtype=np.float32)
        preds = dnn.predict_batch([identity] * 3, augmented(logits.T))
        assert preds.dtype == preds_ref.dtype and preds.dtype.kind == "i"
        assert np.array_equal(preds, preds_ref)


# ---------------------------------------------------------------------------
# checkpoint

def test_checkpoint_roundtrip(tmp_path):
    p = net(12, 4, seed=21, dtype=np.float32)
    path = tmp_path / "model.bin"
    bins = [3, 17, 120, *range(200, 209)]  # one bin per input, as load_checkpoint requires
    dnn.save_checkpoint(path, p, bins, ["AllQuiet", "TruckA", "CarB", "Gen"], True)
    loaded, mask, vocab, normalize = dnn.load_checkpoint(path)
    assert mask == bins
    assert vocab == ["AllQuiet", "TruckA", "CarB", "Gen"]
    assert normalize is True
    assert [a.shape for a in loaded] == [a.shape for a in p]
    for a, b in zip(p, loaded):
        assert b.dtype == np.float32 and np.array_equal(bits(a), bits(b))


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "weird.bin"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ParseError, match="not a model checkpoint"):
        dnn.load_checkpoint(path)


def test_checkpoint_bytes_deterministic(tmp_path):
    p = net(9, 3, seed=5)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    dnn.save_checkpoint(a, p, [1, 2], ["x", "y", "z"], False)
    dnn.save_checkpoint(b, p, [1, 2], ["x", "y", "z"], False)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_golden_bytes(tmp_path):
    import hashlib

    p = net(3, 4, seed=21)
    # the init draws: the sha256 of the last 320 bytes of the earlier hand-packed
    # checkpoint of this network, which were its 40 parameters as <f8, each
    # layer's weights before its biases
    draws = b"".join(np.asarray(part, dtype="<f8").tobytes() for w in p for part in (w[:, :-1], w[:, -1]))
    assert hashlib.sha256(draws).hexdigest() == (
        "3788856c16085e92c0ccc8261c80baebfced80cd8ae3d441f34f1f73a1bd1385"
    )
    # the .npz format
    path = tmp_path / "model.bin"
    dnn.save_checkpoint(path, p, [3, 17, 120], ["AllQuiet", "TruckA", "CarB", "Gen"], True)
    raw = path.read_bytes()
    assert len(raw) == 1313
    assert hashlib.sha256(raw).hexdigest() == (
        "d09ec165979f97904a266bb9df3f580bec8ae8ab84d284d6707294d5874d0f10"
    )
    loaded, mask, vocab, normalize = dnn.load_checkpoint(path)
    again = tmp_path / "again.bin"
    dnn.save_checkpoint(again, loaded, mask, vocab, normalize)
    assert again.read_bytes() == raw
