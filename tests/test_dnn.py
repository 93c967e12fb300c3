import numpy as np
import pytest

from sigclass import dnn, trainer
from sigclass.config import PipelineConfig
from sigclass.dnn import AdamState, UNCLASSIFIED
from sigclass.errors import NumericalError, ParseError, ValidationError
from sigclass.fusion import FeatureMask, SpectrumRow
from sigclass.spectral import N_BINS
from sigclass.trainer import Dataset

LN2 = 0.6931471805599453


def zero_net(d, c):
    return [np.zeros((d, d)), np.zeros(d), np.zeros((d, d)), np.zeros(d),
            np.zeros((c, d)), np.zeros(c)]


def predict_one(params, x):
    """Class of one feature vector, through predict_batch on a 1-row matrix."""
    return int(dnn.predict_batch(params, np.asarray(x, dtype=float).reshape(1, -1))[0])


# ---------------------------------------------------------------------------
# init

def test_init_shapes_small_task():
    p = dnn.init_network(23, 4, seed=0)
    assert [a.shape for a in p] == [(23, 23), (23,), (23, 23), (23,), (4, 23), (4,)]


def test_init_shapes_large_task():
    p = dnn.init_network(115, 7, seed=0)
    assert [a.shape for a in p] == [(115, 115), (115,), (115, 115), (115,), (7, 115), (7,)]


def test_init_deterministic_and_bounded():
    a = dnn.init_network(10, 3, seed=99)
    b = dnn.init_network(10, 3, seed=99)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa, pb)
    assert all(np.all(bias == 0) for bias in a[1::2])
    r1 = np.sqrt(6.0 / (10 + 10))
    r3 = np.sqrt(6.0 / (10 + 3))
    assert np.all(np.abs(a[0]) <= r1)
    assert np.all(np.abs(a[4]) <= r3)
    c = dnn.init_network(10, 3, seed=100)
    assert not np.array_equal(a[0], c[0])


def test_init_rejects_degenerate_sizes():
    with pytest.raises(ValidationError):
        dnn.init_network(0, 3, seed=1)
    with pytest.raises(ValidationError):
        dnn.init_network(4, 1, seed=1)


# ---------------------------------------------------------------------------
# sigmoid

def reference_sigmoid(z):
    """The two-branch stable sigmoid, with boolean masks: the bitwise reference.

    A floating z keeps its dtype, as in dnn.sigmoid; anything else becomes float64.
    """
    z = np.asarray(z)
    z = z if z.dtype.kind == "f" else z.astype(float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


SIGMOID_EDGES = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, np.nan]


def test_sigmoid_bit_identical_to_branched_reference():
    z = np.concatenate([np.linspace(-800.0, 800.0, 200_001), SIGMOID_EDGES])
    with np.errstate(under="ignore"):
        expected = reference_sigmoid(z)
    got = dnn.sigmoid(z)
    assert got.shape == z.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    x = np.random.default_rng(4).normal(scale=6.0, size=(37, 11))
    assert np.array_equal(dnn.sigmoid(x).view(np.int64), reference_sigmoid(x).view(np.int64))
    # float32, as in the training loop's scoring pass
    z32 = np.concatenate([np.linspace(-200.0, 200.0, 200_001), SIGMOID_EDGES]).astype(np.float32)
    with np.errstate(under="ignore"):
        expected32 = reference_sigmoid(z32)
        got32 = dnn.sigmoid(z32)
    assert got32.dtype == expected32.dtype == np.float32
    assert np.array_equal(got32.view(np.int32), expected32.view(np.int32))


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


def test_sigmoid_swap_leaves_training_bit_identical(monkeypatch):
    # random spectra keep the activations off 0 and 1, so every bit of the sigmoid counts
    rng = np.random.default_rng(11)
    rows = [SpectrumRow(bins=0.1 + rng.random(N_BINS), label=label)
            for _ in range(16) for label in ("A", "B", "C")]
    ds = Dataset.from_rows(rows)
    cfg = PipelineConfig(runs=25, batch_size=12, seed=3)
    x = trainer.features_matrix(ds.rows, FeatureMask(kept=[4, 9, 30, 31, 77]), True)
    y = trainer.label_index(ds.rows, ds.label_vocab)
    tr, te = trainer.split(y, cfg)
    p_new, log_new = trainer.train(x[tr], y[tr], x[te], y[te], 3, cfg)
    monkeypatch.setattr(dnn, "sigmoid", reference_sigmoid)
    p_ref, log_ref = trainer.train(x[tr], y[tr], x[te], y[te], 3, cfg)
    for a, b in zip(p_new, p_ref):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))
    assert len(log_new.records) == len(log_ref.records) == 25
    for r_new, r_ref in zip(log_new.records, log_ref.records):
        for name, value in vars(r_new).items():
            assert np.float64(value).view(np.int64) == np.float64(getattr(r_ref, name)).view(np.int64)


# ---------------------------------------------------------------------------
# forward

def test_forward_zero_net_gives_half_activations():
    p = zero_net(4, 3)
    logits, (_, a1, a2, _) = dnn.forward(p, np.zeros((2, 4)))
    assert np.all(a1 == 0.5)
    assert np.all(a2 == 0.5)
    assert np.all(logits == 0.0)


def test_forward_hand_evaluated_chain():
    # 1-wide net: W1=2, W2=1, W3=1, b3=1 applied to x=0
    p = [np.array([[2.0]]), np.array([0.0]), np.array([[1.0]]), np.array([0.0]),
         np.array([[1.0]]), np.array([1.0])]
    logits, (_, a1, a2, _) = dnn.forward(p, np.array([[0.0]]))
    assert a1[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert a2[0, 0] == pytest.approx(0.6224593312018546, abs=1e-12)
    assert logits[0, 0] == pytest.approx(1.6224593312018546, abs=1e-12)


def test_forward_batch_shape():
    p = dnn.init_network(23, 4, seed=3)
    x = np.random.default_rng(0).normal(size=(150, 23))
    logits, (_, a1, _, _) = dnn.forward(p, x)
    assert logits.shape == (150, 4)
    assert a1.shape == (150, 23)


def test_forward_keeps_float32_and_widens_the_rest():
    p = dnn.init_network(6, 3, seed=4)
    x = np.random.default_rng(5).random((9, 6))
    p32 = [a.astype(np.float32) for a in p]
    logits32, (x32, a1, a2, _) = dnn.forward(p32, x.astype(np.float32))
    assert {a.dtype for a in (logits32, x32, a1, a2)} == {np.dtype(np.float32)}
    assert np.allclose(logits32, dnn.forward(p, x)[0], rtol=0, atol=1e-5)
    assert dnn.forward(p, x.tolist())[0].dtype == np.float64
    assert dnn.forward(p, np.ones((2, 6), dtype=int))[0].dtype == np.float64
    assert dnn.forward(p, [1] * 6)[1][0].dtype == np.float64


def test_forward_rejects_wrong_width():
    p = dnn.init_network(5, 3, seed=0)
    with pytest.raises(ValidationError):
        dnn.forward(p, np.zeros((2, 4)))


def test_forward_batch_order_equivariant():
    p = dnn.init_network(8, 3, seed=5)
    x = np.random.default_rng(1).normal(size=(20, 8))
    perm = np.random.default_rng(2).permutation(20)
    logits, _ = dnn.forward(p, x)
    logits_perm, _ = dnn.forward(p, x[perm])
    assert np.array_equal(logits[perm], logits_perm)


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
    with pytest.raises(NumericalError):
        dnn.loss(np.array([[np.nan]]), np.array([[1.0]]))
    with pytest.raises(NumericalError):
        dnn.loss(np.array([[np.inf]]), np.array([[0.0]]))


# ---------------------------------------------------------------------------
# backward

def finite_difference_grads(params, x, y, h=1e-5):
    """Central-difference loss gradients; independent of backward()."""
    grads = []
    for arr in params:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            saved = arr[i]
            arr[i] = saved + h
            up = dnn.loss(dnn.forward(params, x)[0], y)
            arr[i] = saved - h
            down = dnn.loss(dnn.forward(params, x)[0], y)
            arr[i] = saved
            g[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def test_backward_output_delta_zero_net():
    p = zero_net(2, 3)
    batch = 4
    x = np.zeros((batch, 2))
    y = np.ones((batch, 3))
    _, trace = dnn.forward(p, x)
    grads = dnn.backward(p, trace, y)
    # delta = (0.5 - 1) / (batch * c) at every output; bias grad sums over the batch
    expected_b3 = batch * (0.5 - 1.0) / (batch * 3)
    assert np.allclose(grads[5], expected_b3, atol=1e-15)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(12)
    p = dnn.init_network(4, 3, seed=42)
    x = rng.normal(size=(5, 4))
    y = np.zeros((5, 3))
    y[np.arange(5), rng.integers(0, 3, size=5)] = 1.0
    _, trace = dnn.forward(p, x)
    analytic = dnn.backward(p, trace, y)
    numeric = finite_difference_grads(p, x, y)
    assert [g.shape for g in analytic] == [a.shape for a in p]
    for ga, gn in zip(analytic, numeric):
        rel = np.abs(ga - gn) / np.maximum(1.0, np.abs(ga))
        assert np.max(rel) < 1e-5


def test_backward_zero_input_batch():
    p = dnn.init_network(6, 3, seed=8)
    x = np.zeros((5, 6))
    y = np.zeros((5, 3))
    y[:, 0] = 1.0
    _, trace = dnn.forward(p, x)
    grads = dnn.backward(p, trace, y)
    assert np.all(grads[0] == 0.0)  # delta1 x^T with x = 0
    assert np.any(grads[1] != 0.0)


# ---------------------------------------------------------------------------
# adam

def test_adam_first_step_moves_alpha_per_element():
    p = dnn.init_network(3, 2, seed=1)
    state = AdamState.for_params(p)
    rng = np.random.default_rng(3)
    grads = [
        rng.uniform(1e-3, 2.0, a.shape) * rng.choice([-1, 1], a.shape) for a in p
    ]
    new_p, new_state = dnn.adam_update(p, grads, state, 0.005)
    assert new_state.t == 1
    for b, a, gg in zip(p, new_p, grads):
        step = np.abs(a - b)
        expected = 0.005 * np.abs(gg) / (np.abs(gg) + dnn.EPSILON)
        assert np.max(np.abs(step - expected)) < 1e-12
        assert np.max(np.abs(step - 0.005)) < 1e-6  # |g| >= 1e-3 everywhere
        # moves against the gradient
        assert np.all(np.sign(a - b) == -np.sign(gg))


def test_adam_zero_gradient_keeps_params():
    p = dnn.init_network(4, 2, seed=2)
    state = AdamState.for_params(p)
    grads = [np.zeros_like(a) for a in p]
    new_p, new_state = dnn.adam_update(p, grads, state, 0.005)
    for before, after in zip(p, new_p):
        assert np.array_equal(before, after)
    assert new_state.t == 1


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
    params = [np.array([[theta]]), np.zeros(1)]
    grads = [np.array([[g]]), np.zeros(1)]
    state = AdamState.for_params(params)
    params, state = dnn.adam_update(params, grads, state, alpha)
    assert params[0][0, 0] == pytest.approx(theta1, abs=1e-12)
    params, state = dnn.adam_update(params, grads, state, alpha)
    assert params[0][0, 0] == pytest.approx(theta2, abs=1e-12)
    assert state.t == 2


def test_adam_descends_on_convex_toy():
    # full-batch single affine layer + the sigmoid cross-entropy loss
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 3))
    y = (x @ np.array([[1.0, -2.0, 0.5], [-1.0, 1.0, 2.0]]).T > 0).astype(float)
    params = [np.zeros((2, 3)), np.zeros(2)]
    state = AdamState.for_params(params)
    losses = []
    for _ in range(50):
        z = x @ params[0].T + params[1]
        losses.append(dnn.loss(z, y))
        delta = (dnn.sigmoid(z) - y) / z.size
        grads = [delta.T @ x, delta.sum(axis=0)]
        params, state = dnn.adam_update(params, grads, state, 0.005)
    z = x @ params[0].T + params[1]
    losses.append(dnn.loss(z, y))
    assert all(b < a for a, b in zip(losses, losses[1:]))


# ---------------------------------------------------------------------------
# predict

def test_predict_single_hot_output():
    p = zero_net(2, 3)
    p[5][:] = [-5.0, 5.0, -5.0]
    assert predict_one(p, np.zeros(2)) == 1


def test_predict_no_hot_output_is_unclassified():
    p = zero_net(2, 3)
    p[5][:] = [-5.0, -5.0, -5.0]
    assert predict_one(p, np.zeros(2)) == UNCLASSIFIED


def test_predict_two_hot_outputs_is_unclassified():
    p = zero_net(2, 3)
    p[5][:] = [5.0, 5.0, -5.0]
    assert predict_one(p, np.zeros(2)) == UNCLASSIFIED


def test_predict_matches_rounded_one_hot():
    rng = np.random.default_rng(11)
    p = dnn.init_network(6, 4, seed=11)
    x = rng.normal(size=(50, 6))
    logits, _ = dnn.forward(p, x)
    rounded = (dnn.sigmoid(logits) >= 0.5).astype(int)
    preds = dnn.predict_batch(p, x)
    for row, pred in zip(rounded, preds):
        if pred == UNCLASSIFIED:
            assert row.sum() != 1
        else:
            expected = np.zeros(4, dtype=int)
            expected[pred] = 1
            assert np.array_equal(row, expected)


# ---------------------------------------------------------------------------
# checkpoint

def test_checkpoint_roundtrip(tmp_path):
    p = dnn.init_network(12, 4, seed=21)
    path = tmp_path / "model.bin"
    bins = [3, 17, 120, *range(200, 209)]  # one bin per input, as load_checkpoint requires
    dnn.save_checkpoint(path, p, bins, ["AllQuiet", "TruckA", "CarB", "Gen"], True)
    loaded, mask, vocab, normalize = dnn.load_checkpoint(path)
    assert mask == bins
    assert vocab == ["AllQuiet", "TruckA", "CarB", "Gen"]
    assert normalize is True
    assert [a.shape for a in loaded] == [a.shape for a in p]
    for a, b in zip(p, loaded):
        assert np.array_equal(a, b)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "weird.bin"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ParseError, match="not a model checkpoint"):
        dnn.load_checkpoint(path)


def test_checkpoint_bytes_deterministic(tmp_path):
    p = dnn.init_network(9, 3, seed=5)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    dnn.save_checkpoint(a, p, [1, 2], ["x", "y", "z"], False)
    dnn.save_checkpoint(b, p, [1, 2], ["x", "y", "z"], False)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_golden_bytes(tmp_path):
    import hashlib

    p = dnn.init_network(3, 4, seed=21)
    # the init draws: the sha256 of the last 320 bytes of the earlier hand-packed
    # checkpoint of this network, which were its 40 parameters as <f8
    draws = b"".join(np.asarray(a, dtype="<f8").tobytes() for a in p)
    assert hashlib.sha256(draws).hexdigest() == (
        "3788856c16085e92c0ccc8261c80baebfced80cd8ae3d441f34f1f73a1bd1385"
    )
    # the .npz format
    path = tmp_path / "model.bin"
    dnn.save_checkpoint(path, p, [3, 17, 120], ["AllQuiet", "TruckA", "CarB", "Gen"], True)
    raw = path.read_bytes()
    assert len(raw) == 1471
    assert hashlib.sha256(raw).hexdigest() == (
        "19b13818f18e26fbd343d3299f2a59638bc510c1df2aa3e3d2944a4dba9adc11"
    )
    loaded, mask, vocab, normalize = dnn.load_checkpoint(path)
    again = tmp_path / "again.bin"
    dnn.save_checkpoint(again, loaded, mask, vocab, normalize)
    assert again.read_bytes() == raw
