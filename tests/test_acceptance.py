"""End-to-end acceptance gate.

Runs every acceptance criterion at its stated tolerance and prints one
PASS/FAIL line per criterion (use `pytest -s tests/test_acceptance.py` to see
them in order).  Criteria 6/7/9 drive the real CLI pipelines at full scale.
"""

import time

import numpy as np
import pytest

from sigclass import cli, dnn, fusion, trainer
from sigclass.dnn import AdamState, LayerParams
from sigclass.fusion import FeatureMask, SpectrumRow
from sigclass.config import PipelineConfig
from sigclass.spectral import N_BINS, magnitude_spectrum

LN2 = 0.6931471805599453


def check(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def naive_dft_bins(samples, n_bins=N_BINS):
    n = len(samples)
    t = np.arange(n)
    out = np.empty(n_bins)
    for k in range(1, n_bins + 1):
        angle = 2.0 * np.pi * k * t / n
        re = float(np.sum(samples * np.cos(angle)))
        im = float(-np.sum(samples * np.sin(angle)))
        out[k - 1] = np.hypot(re, im)
    return out


# ---------------------------------------------------------------------------
# full pipelines, shared across criteria 6, 7, 9

def run_pipeline(root, config_text, runs_override=None):
    cfg_path = root / "config.txt"
    cfg_path.write_text(config_text)
    out = root / "out"
    started = time.perf_counter()
    args = ["--config", str(cfg_path), "--out", str(out)]
    assert cli.main(args + ["synth"]) == 0
    assert cli.main(args + ["rows"]) == 0
    train_args = args + ["train"]
    if runs_override:
        train_args += ["--runs", str(runs_override)]
    assert cli.main(train_args) == 0
    elapsed = time.perf_counter() - started
    return out, elapsed


@pytest.fixture(scope="module")
def group2_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("group2")
    return run_pipeline(root, "group = Group2\n")


@pytest.fixture(scope="module")
def group1_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("group1")
    return run_pipeline(root, "group = Group1\n", runs_override=1000)


def read_runlog(out):
    lines = (out / "runlog.csv").read_text().splitlines()
    header = lines[0].split(",")
    records = [dict(zip(header, l.split(","))) for l in lines[1:]]
    return records


def read_confusion(out, name="confusion.csv"):
    lines = (out / name).read_text().splitlines()
    header = lines[0].split(",")
    labels = []
    counts = []
    for line in lines[1:]:
        fields = line.split(",")
        labels.append(fields[0])
        counts.append([int(v) for v in fields[1:]])
    return header, labels, np.array(counts)


# ---------------------------------------------------------------------------
# criterion 1: FFT against the naive DFT oracle

def test_criterion_1_fft_oracle():
    started = time.perf_counter()
    worst_rel = 0.0
    for n in (600, 1000, 1024, 2000):
        samples = np.random.default_rng(n).normal(size=n)
        got = magnitude_spectrum(samples)
        oracle = naive_dft_bins(samples)
        diff = float(np.max(np.abs(got - oracle)))
        worst_rel = max(worst_rel, diff / n)
        assert diff < 1e-9 * n, f"N={n}: max diff {diff}"
        # noise-free on-bin sinusoid peaks at its own bin at N*A/2
        freq, amp = 137, 0.8
        tone = amp * np.sin(2 * np.pi * freq * np.arange(n) / n + 0.7)
        bins = magnitude_spectrum(tone)
        assert int(np.argmax(bins)) + 1 == freq
        assert abs(bins[freq - 1] - n * amp / 2.0) <= 1e-6 * n * amp
    elapsed = time.perf_counter() - started
    check(1, elapsed < 10.0,
          f"FFT matches naive DFT (worst {worst_rel:.2e} of 1e-9*N) and sinusoid "
          f"peaks at N*A/2; {elapsed:.2f}s < 10s")


# ---------------------------------------------------------------------------
# criterion 2: gradient check

def test_criterion_2_gradient_check():
    started = time.perf_counter()
    rng = np.random.default_rng(2)
    params = dnn.init_network(4, 3, seed=2)
    x = rng.normal(size=(5, 4))
    y = np.zeros((5, 3))
    y[np.arange(5), rng.integers(0, 3, size=5)] = 1.0
    _, trace = dnn.forward(params, x)
    analytic = dnn.backward(params, trace, y)

    h = 1e-5
    worst = 0.0
    for layer, grad in zip(params.layers, analytic):
        for arr, g in ((layer.weight, grad.weight), (layer.bias, grad.bias)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                i = it.multi_index
                saved = arr[i]
                arr[i] = saved + h
                up = dnn.loss(dnn.forward(params, x)[0], y)
                arr[i] = saved - h
                down = dnn.loss(dnn.forward(params, x)[0], y)
                arr[i] = saved
                numeric = (up - down) / (2 * h)
                rel = abs(g[i] - numeric) / max(1.0, abs(g[i]))
                worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    check(2, worst < 1e-5 and elapsed < 1.0,
          f"all analytic gradients within {worst:.2e} of central differences; "
          f"{elapsed:.2f}s < 1s")


# ---------------------------------------------------------------------------
# criterion 3: loss reference values

def test_criterion_3_loss_references():
    import mpmath

    ok = abs(dnn.loss(np.array([[0.0]]), np.array([[1.0]])) - LN2) <= 1e-12
    ok &= dnn.loss(np.array([[1000.0]]), np.array([[1.0]])) <= 1e-6
    ok &= abs(dnn.loss(np.array([[1000.0]]), np.array([[0.0]])) - 1000.0) <= 1e-6

    mpmath.mp.dps = 50
    worst = 0.0
    for z in np.linspace(-20, 20, 401):
        sig = 1 / (1 + mpmath.exp(-mpmath.mpf(float(z))))
        for y in (0.0, 1.0):
            naive = float(-(y * mpmath.log(sig) + (1 - y) * mpmath.log(1 - sig)))
            stable = dnn.loss(np.array([[z]]), np.array([[y]]))
            worst = max(worst, abs(stable - naive))
    ok &= worst < 1e-10
    check(3, ok,
          f"loss(0,1)=ln2 to 1e-12, saturation exact to 1e-6, stable==naive "
          f"within {worst:.2e} for |z|<=20")


# ---------------------------------------------------------------------------
# criterion 4: Adam reference behaviors

def test_criterion_4_adam_references():
    # first step magnitude
    rng = np.random.default_rng(4)
    g_vals = rng.uniform(1e-3, 5.0, size=200) * rng.choice([-1.0, 1.0], size=200)
    layers = [LayerParams(np.zeros((1, 200)), np.zeros(1))]
    grads = [LayerParams(g_vals.reshape(1, -1).copy(), np.zeros(1))]
    state = AdamState.for_layers(layers, alpha=0.005)
    stepped, state1 = dnn.adam_update(layers, grads, state)
    moved = np.abs(stepped[0].weight - layers[0].weight).ravel()
    expected = 0.005 * np.abs(g_vals) / (np.abs(g_vals) + 1e-8)
    first_ok = np.max(np.abs(moved - expected)) < 1e-12 and np.max(np.abs(moved - 0.005)) < 1e-6

    # zero gradient leaves parameters fixed
    zeros = [LayerParams(np.zeros((1, 200)), np.zeros(1))]
    frozen, _ = dnn.adam_update(layers, zeros, AdamState.for_layers(layers))
    zero_ok = np.array_equal(frozen[0].weight, layers[0].weight)

    # two-step scalar recurrence against hand computation
    alpha, b1, b2, eps = 0.005, 0.9, 0.999, 1e-8
    theta, g = -1.25, 0.4
    m = (1 - b1) * g
    v = (1 - b2) * g * g
    t1 = theta - alpha * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
    m2 = b1 * m + (1 - b1) * g
    v2 = b2 * v + (1 - b2) * g * g
    t2 = t1 - alpha * (m2 / (1 - b1**2)) / (np.sqrt(v2 / (1 - b2**2)) + eps)
    lay = [LayerParams(np.array([[theta]]), np.zeros(1))]
    grd = [LayerParams(np.array([[g]]), np.zeros(1))]
    st = AdamState.for_layers(lay, alpha=alpha)
    lay, st = dnn.adam_update(lay, grd, st)
    step1_ok = abs(lay[0].weight[0, 0] - t1) <= 1e-12
    lay, st = dnn.adam_update(lay, grd, st)
    step2_ok = abs(lay[0].weight[0, 0] - t2) <= 1e-12

    check(4, first_ok and zero_ok and step1_ok and step2_ok,
          "first-step displacement is alpha*|g|/(|g|+eps), zero gradient is a "
          "no-op, two-step scalar recurrence matches to 1e-12")


# ---------------------------------------------------------------------------
# criterion 5: selection oracle

def test_criterion_5_selection_oracle():
    flat = np.ones(N_BINS)
    hot = np.ones(N_BINS)
    hot[49] = 10.0
    rows = [SpectrumRow(bins=flat.copy(), label="A") for _ in range(10)]
    rows += [SpectrumRow(bins=hot.copy(), label="B") for _ in range(10)]
    mask, _ = fusion.compute_selection(rows, threshold=1.5, max_classes_per_bin=1)
    exact_ok = mask.kept == [50]

    scaled = [SpectrumRow(bins=r.bins * 1e3, label=r.label) for r in rows]
    mask_scaled, _ = fusion.compute_selection(scaled, 1.5, 1)
    scale_ok = mask_scaled.kept == mask.kept

    # a bin super-threshold for 2 of 4 classes is dropped by the column guard
    rows4 = []
    for label, own_bin, shared in [("A", 30, 50.0), ("B", 40, 50.0), ("C", 60, 0.1), ("D", 70, 0.1)]:
        bins = np.ones(N_BINS)
        bins[6] = shared
        bins[own_bin - 1] = 25.0
        rows4 += [SpectrumRow(bins=bins.copy(), label=label) for _ in range(10)]
    mask4, report4 = fusion.compute_selection(rows4, threshold=1.75, max_classes_per_bin=1)
    guard_ok = 7 not in mask4.kept and report4.per_bin_class_counts[6] == 2

    check(5, exact_ok and scale_ok and guard_ok,
          f"two-class oracle selects exactly bin 50 (got {mask.kept}), mask "
          "is invariant under x1000 scaling, guard drops the shared hot bin")


# ---------------------------------------------------------------------------
# criterion 6: Group-2-scale pipeline

def test_criterion_6_group2_pipeline(group2_run):
    out, elapsed = group2_run
    mask = fusion.load_mask(out / "mask.txt")
    records = read_runlog(out)
    data_rows = [
        l for l in (out / "rows.csv").read_text().splitlines() if not l.startswith("#")
    ]
    import json

    accuracy = json.loads((out / "train_manifest.json").read_text())["test_accuracy"]
    ok = (
        len(data_rows) == 1000
        and 20 <= len(mask) <= 125
        and len(records) == 200
        and accuracy >= 0.90
        and elapsed < 120.0
    )
    check(6, ok,
          f"Group2 default pipeline: 1000 rows, mask {len(mask)} in [20,125], "
          f"200 runs, test accuracy {accuracy:.3f} >= 0.90, {elapsed:.1f}s < 120s")


# ---------------------------------------------------------------------------
# criterion 7: Group-1-scale pipeline

def test_criterion_7_group1_pipeline(group1_run):
    out, elapsed = group1_run
    mask = fusion.load_mask(out / "mask.txt")
    import json

    accuracy = json.loads((out / "train_manifest.json").read_text())["test_accuracy"]
    header, labels, counts = read_confusion(out)

    # row sums must equal the per-class counts of the deterministic test split
    ds = trainer.load_rows(out / "rows.csv")
    _, test_ds = trainer.split(ds, PipelineConfig(group="Group1", seed=0))
    per_class = {label: 0 for label in ds.label_vocab}
    for r in test_ds.rows:
        per_class[r.label] += 1
    sums_ok = all(counts[i].sum() == per_class[label] for i, label in enumerate(labels))

    ok = (
        900 <= len(ds.rows) <= 1100
        and accuracy >= 0.80
        and header[-1] == "Unclassified"
        and counts.shape == (7, 8)
        and sums_ok
        and 20 <= len(mask) <= 125
        and elapsed < 300.0
    )
    check(7, ok,
          f"Group1 pipeline (1000 runs, {len(ds.rows)} rows): test accuracy "
          f"{accuracy:.3f} >= 0.80, 7x8 confusion with Unclassified column, row "
          f"sums match the {len(test_ds.rows)}-row test split, {elapsed:.1f}s < 300s")


# ---------------------------------------------------------------------------
# criterion 8: end-to-end determinism

def test_criterion_8_determinism(tmp_path):
    config = (
        "group = Group2\nseed = 11\nduration_s = 3.0\ntrials = 2\n"
        "blocks_per_recording = 10\nbatch_size = 32\nruns = 20\n"
    )
    artifacts = ("rows.csv", "mask.txt", "runlog.csv", "checkpoint.bin")
    outs = []
    for name in ("first", "second"):
        root = tmp_path / name
        root.mkdir()
        out, _ = run_pipeline(root, config)
        outs.append(out)
    same = {a: (outs[0] / a).read_bytes() == (outs[1] / a).read_bytes() for a in artifacts}
    check(8, all(same.values()),
          "two executions with one config are byte-identical for "
          + ", ".join(artifacts))


# ---------------------------------------------------------------------------
# criterion 9: overtraining signature

def test_criterion_9_overtraining(group1_run):
    out, _ = group1_run
    records = read_runlog(out)
    final = records[-1]
    train_acc = float(final["train_acc"])
    test_acc = float(final["test_acc"])
    ok = len(records) == 1000 and train_acc >= test_acc
    check(9, ok,
          f"after 1000 runs: final train accuracy {train_acc:.3f} >= "
          f"final test accuracy {test_acc:.3f}")
