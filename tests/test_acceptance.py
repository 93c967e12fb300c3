"""End-to-end acceptance gate.

Runs every acceptance criterion at its stated tolerance and prints one
PASS/FAIL line per criterion (use `pytest -s tests/test_acceptance.py` to see
them in order).  Criteria 6, 7, 9 and 10 check the real CLI pipelines at full scale.
"""

import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from sigclass import cli, dnn, fusion, synthgen, trainer
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

def run_pipeline(root, config_text):
    cfg_path = root / "config.txt"
    cfg_path.write_text(config_text)
    out = root / "out"
    started = time.perf_counter()
    args = ["--config", str(cfg_path), "--out", str(out)]
    assert cli.main(args + ["synth"]) == 0
    assert cli.main(args + ["rows"]) == 0
    assert cli.main(args + ["train"]) == 0
    elapsed = time.perf_counter() - started
    return out, elapsed


@pytest.fixture(scope="module")
def group2_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("group2")
    return run_pipeline(root, "group = Group2\n")


@pytest.fixture(scope="module")
def group1_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("group1")
    return run_pipeline(root, "group = Group1\nruns = 1000\n")


@pytest.fixture(scope="module")
def hard_run(tmp_path_factory):
    """Group1 in a noise regime where the classifier is good but not perfect."""
    root = tmp_path_factory.mktemp("hard")
    return run_pipeline(root, "group = Group1\nseed = 0\nnoise_rms = 20\nthreshold = 1.3\nruns = 2000\n")


def read_runlog(out):
    lines = (out / "runlog.csv").read_text().splitlines()
    header = lines[0].split(",")
    records = [dict(zip(header, l.split(","))) for l in lines[1:]]
    return records


def read_mask(out):
    """The kept bins from the checkpoint; mask.txt lists exactly them, one per line."""
    kept = dnn.load_checkpoint(out / "checkpoint.bin")[1]
    assert (out / "mask.txt").read_text() == "".join(f"{b}\n" for b in kept)
    return kept


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
    # a float64 instance of the net that the pipeline runs in float32
    rng = np.random.default_rng(2)
    params = dnn.unflatten(dnn.init_network(4, 3, seed=2), 4, 3)
    x = np.vstack([rng.normal(size=(5, 4)).T, np.ones((1, 5))])  # the rows as columns over a row of ones
    y = np.zeros((3, 5))
    y[rng.integers(0, 3, size=5), np.arange(5)] = 1.0
    _, trace = dnn.forward(params, x)
    analytic = dnn.backward(params, trace, y)

    h = 1e-5
    worst = 0.0
    assert [g.shape for g in analytic] == [a.shape for a in params]
    for arr, g in zip(params, analytic):
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
    stepped = np.zeros(201)  # 200 weights and one bias with a zero gradient
    dnn.adam_update(stepped, np.append(g_vals, 0.0), np.zeros((3, 201)), 1, 0.005)
    moved = np.abs(stepped[:200])  # each weight started at 0
    expected = 0.005 * np.abs(g_vals) / (np.abs(g_vals) + 1e-8)
    first_ok = np.max(np.abs(moved - expected)) < 1e-12 and np.max(np.abs(moved - 0.005)) < 1e-6

    # zero gradient leaves parameters fixed
    frozen = np.zeros(201)
    dnn.adam_update(frozen, np.zeros(201), np.zeros((3, 201)), 1, 0.005)
    zero_ok = np.array_equal(frozen, np.zeros(201))

    # two-step scalar recurrence against hand computation
    alpha, b1, b2, eps = 0.005, 0.9, 0.999, 1e-8
    theta, g = -1.25, 0.4
    m = (1 - b1) * g
    v = (1 - b2) * g * g
    t1 = theta - alpha * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
    m2 = b1 * m + (1 - b1) * g
    v2 = b2 * v + (1 - b2) * g * g
    t2 = t1 - alpha * (m2 / (1 - b1**2)) / (np.sqrt(v2 / (1 - b2**2)) + eps)
    lay, st = np.array([theta, 0.0]), np.zeros((3, 2))
    dnn.adam_update(lay, np.array([g, 0.0]), st, 1, alpha)
    step1_ok = abs(lay[0] - t1) <= 1e-12
    dnn.adam_update(lay, np.array([g, 0.0]), st, 2, alpha)
    step2_ok = abs(lay[0] - t2) <= 1e-12

    check(4, first_ok and zero_ok and step1_ok and step2_ok,
          "first-step displacement is alpha*|g|/(|g|+eps), zero gradient is a "
          "no-op, two-step scalar recurrence matches to 1e-12")


# ---------------------------------------------------------------------------
# criterion 5: selection oracle

def test_criterion_5_selection_oracle():
    # ten flat A rows, then ten B rows hot at bin 50
    x, y = np.ones((20, N_BINS)), np.repeat([0, 1], 10)
    x[y == 1, 49] = 10.0
    mask, _ = fusion.compute_selection(x, y, ["A", "B"], threshold=1.5)
    exact_ok = mask.kept == [50]

    mask_scaled, _ = fusion.compute_selection(x * 1e3, y, ["A", "B"], 1.5)
    scale_ok = mask_scaled.kept == mask.kept

    # a bin super-threshold for 2 of 4 classes is dropped by the column guard
    x4, y4 = np.ones((40, N_BINS)), np.repeat(np.arange(4), 10)
    for k, (own_bin, shared) in enumerate([(30, 50.0), (40, 50.0), (60, 0.1), (70, 0.1)]):
        x4[y4 == k, 6] = shared
        x4[y4 == k, own_bin - 1] = 25.0
    mask4, report4 = fusion.compute_selection(x4, y4, list("ABCD"), threshold=1.75)
    guard_ok = (7 not in mask4.kept and report4.per_bin_class_counts[6] == 2
                and report4.max_classes_per_bin == 1)

    check(5, exact_ok and scale_ok and guard_ok,
          f"two-class oracle selects exactly bin 50 (got {mask.kept}), mask "
          "is invariant under x1000 scaling, guard drops the shared hot bin")


# ---------------------------------------------------------------------------
# criterion 6: Group-2-scale pipeline

def test_criterion_6_group2_pipeline(group2_run):
    out, elapsed = group2_run
    mask = read_mask(out)
    records = read_runlog(out)
    n_rows = len(trainer.load_rows(out / "rows.npz").y)
    accuracy = json.loads((out / "train_manifest.json").read_text())["test_accuracy"]
    ok = (
        n_rows == 1000
        and 20 <= len(mask) <= 125
        and len(records) == 200
        and accuracy >= 0.90
        and elapsed < 120.0
    )
    check(6, ok,
          f"Group2 default pipeline: 1000 rows, mask {len(mask)} in [20,125], "
          f"200 runs, test accuracy {accuracy:.3f} >= 0.90, {elapsed:.1f}s < 120s")


def test_readme_library_use_block_runs(group2_run, tmp_path, monkeypatch):
    """The README's `Library use` example runs as printed, with `out/` the default Group2 run."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    code = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.DOTALL).group(1)
    out, _ = group2_run
    (tmp_path / "out").symlink_to(out)
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    assert trainer.load_rows(tmp_path / "fused.npz").x.shape == (50, N_BINS)
    # the example trains as the train stage does, at the same defaults and seed
    assert scope["mask"].kept == read_mask(out)
    assert scope["accuracy"] == json.loads((out / "train_manifest.json").read_text())["test_accuracy"]
    trainer.write_runlog_csv(tmp_path / "runlog.csv", scope["log"])
    assert (tmp_path / "runlog.csv").read_bytes() == (out / "runlog.csv").read_bytes()


def test_train_manifest_accuracy_is_the_last_runs_test_accuracy(group1_run, group2_run):
    # the per-run scoring and the final evaluate run the same float32 net
    for out, _ in (group1_run, group2_run):
        manifest = json.loads((out / "train_manifest.json").read_text())
        assert manifest["test_accuracy"] == float(read_runlog(out)[-1]["test_acc"])


# ---------------------------------------------------------------------------
# criterion 7: Group-1-scale pipeline

def test_criterion_7_group1_pipeline(group1_run):
    out, elapsed = group1_run
    mask = read_mask(out)
    accuracy = json.loads((out / "train_manifest.json").read_text())["test_accuracy"]
    header, labels, counts = read_confusion(out)

    # row sums must equal the per-class counts of the deterministic test split
    ds = trainer.load_rows(out / "rows.npz")
    y = ds.y
    _, test_idx = trainer.split(y, PipelineConfig(group="Group1", seed=0))
    per_class = {label: 0 for label in ds.label_vocab}
    for k in y[test_idx]:
        per_class[ds.label_vocab[k]] += 1
    sums_ok = all(counts[i].sum() == per_class[label] for i, label in enumerate(labels))

    ok = (
        900 <= len(ds.y) <= 1100
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
          f"sums match the {len(test_idx)}-row test split, {elapsed:.1f}s < 300s")


# ---------------------------------------------------------------------------
# criterion 8: end-to-end determinism

def test_criterion_8_determinism(tmp_path):
    config = (
        "group = Group2\nseed = 11\nduration_s = 3.0\ntrials = 2\n"
        "blocks_per_recording = 10\nbatch_size = 32\nruns = 20\n"
    )
    artifacts = ("rows.npz", "mask.txt", "runlog.csv", "checkpoint.bin")
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


# ---------------------------------------------------------------------------
# criterion 10: the mask against the synthetic ground truth

def test_criterion_10_mask_ground_truth(group1_run, group2_run):
    details, ok = [], True
    for group, (out, _) in (("Group1", group1_run), ("Group2", group2_run)):
        lines = {
            line.freq_hz
            for profile in synthgen.load_profiles(out / "profiles.txt")
            for channel_lines in profile.lines_per_channel.values()
            for line in channel_lines
        }
        kept = read_mask(out)
        near = sum(any(abs(k - f) <= 1 for f in lines) for k in kept)
        covered = sum(any(abs(k - f) <= 1 for k in kept) for f in lines)
        ok = ok and near == len(kept) and covered == len(lines)
        details.append(f"{group} {near}/{len(kept)} kept bins within 1 Hz of a line, "
                       f"{covered}/{len(lines)} lines with a kept bin within 1 Hz")
    check(10, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# recordings the model never saw: new recordings of the same profiles

def test_checkpoint_classifies_new_recordings_of_its_profiles(group1_run, tmp_path):
    out, _ = group1_run
    cfg_path = tmp_path / "config.txt"
    # the fixture used seed 0
    cfg_path.write_text(f"group = Group1\nseed = 1\nprofiles_file = {out / 'profiles.txt'}\n")
    fresh = tmp_path / "out"
    args = ["--config", str(cfg_path), "--out", str(fresh)]
    assert cli.main(args + ["synth"]) == 0
    assert cli.main(args + ["rows"]) == 0
    assert cli.main(args + ["eval", "--checkpoint", str(out / "checkpoint.bin"),
                            "--rows", str(fresh / "rows.npz")]) == 0
    accuracy = json.loads((fresh / "eval_manifest.json").read_text())["accuracy"]
    rows = len(trainer.load_rows(fresh / "rows.npz").y)
    check("new recordings", accuracy >= 0.80,
          f"the Group1 checkpoint scores {accuracy:.4f} >= 0.80 on {rows} rows of "
          "new seed-1 recordings of its profiles")


# ---------------------------------------------------------------------------
# a hard regime: noise_rms = 20 and threshold = 1.3 leave some rows misclassified

def test_hard_regime_is_hard_but_learnable(hard_run):
    out, _ = hard_run
    manifest = json.loads((out / "train_manifest.json").read_text())
    accuracy = manifest["test_accuracy"]
    check("hard regime", 0.80 <= accuracy <= 0.95,
          f"Group1 at noise_rms 20, threshold 1.3, 2000 runs: mask {manifest['mask_size']} bins, "
          f"test accuracy {accuracy:.4f} in [0.80, 0.95] on {manifest['test_rows']} rows")
