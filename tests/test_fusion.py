import numpy as np
import pytest

from sigclass import fusion
from sigclass.errors import SelectionError, ValidationError
from sigclass.fusion import FeatureMask, SpectrumRow
from sigclass.spectral import N_BINS


def spec(values):
    return np.asarray(values, float)


def flat_rows(label, count, bins):
    return [SpectrumRow(bins=np.asarray(bins, float).copy(), label=label) for _ in range(count)]


def select(rows, threshold):
    """compute_selection on the rows' matrix, class indices and first-appearance vocabulary."""
    vocab = list(dict.fromkeys(r.label for r in rows))
    y = np.array([vocab.index(r.label) for r in rows])
    return fusion.compute_selection(np.stack([r.bins for r in rows]), y, vocab, threshold)


def ratio(report, label):
    return report.ratios[report.labels.index(label)]


# ---------------------------------------------------------------------------
# fuse

def test_single_channel_unit_weight_is_identity():
    bins = np.random.default_rng(0).random(N_BINS)
    row = fusion.fuse(spec([bins]), [1.0])
    assert np.array_equal(row, bins)


def test_equal_weights_average():
    row = fusion.fuse(spec([np.full(N_BINS, 2.0), np.full(N_BINS, 4.0)]), [1.0, 1.0])
    assert np.all(row == 3.0)


def test_unequal_weights_average():
    row = fusion.fuse(spec([np.full(N_BINS, 2.0), np.full(N_BINS, 4.0)]), [1.0, 3.0])
    # (1*2 + 3*4) / 4
    assert np.all(row == 3.5)


def test_fusion_stays_between_channel_extremes():
    rng = np.random.default_rng(4)
    sa, sb, sc = rng.random(N_BINS), rng.random(N_BINS) * 3, rng.random(N_BINS) * 0.2
    row = fusion.fuse(spec([sa, sb, sc]), [0.3, 1.2, 2.0])
    lo = np.min([sa, sb, sc], axis=0)
    hi = np.max([sa, sb, sc], axis=0)
    assert np.all(row >= lo - 1e-12) and np.all(row <= hi + 1e-12)


def test_fusion_scale_equivariant():
    rng = np.random.default_rng(5)
    sa, sb = rng.random(N_BINS), rng.random(N_BINS)
    base = fusion.fuse(spec([sa, sb]), [1.0, 1.0])
    scaled = fusion.fuse(spec([sa * 7.0, sb * 7.0]), [1.0, 1.0])
    assert np.allclose(scaled, base * 7.0, rtol=1e-12)


# ---------------------------------------------------------------------------
# selection

def hot_bin_rows():
    """Two classes: A flat at 1.0, B flat except bin 50 at 10.0."""
    flat = np.ones(N_BINS)
    hot = np.ones(N_BINS)
    hot[49] = 10.0
    return flat_rows("A", 10, flat) + flat_rows("B", 10, hot)


def test_selection_keeps_exactly_the_hot_bin():
    mask, report = select(hot_bin_rows(), threshold=1.5)
    assert mask.kept == [50]
    # B's ratio at bin 50 is 10 / 5.5
    assert ratio(report, "B")[49] == pytest.approx(10.0 / 5.5, rel=1e-12)
    assert report.per_bin_class_counts[49] == 1


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def test_matrix_selection_matches_per_label_stack_bit_for_bit():
    # interleaved labels of unequal class sizes, random magnitudes: every bit counts
    rng = np.random.default_rng(21)
    labels = ["B"] * 13 + ["A", "C", "B"] * 17 + ["C"] * 6
    rng.shuffle(labels)
    scale = {l: 1.0 + 3.0 * rng.random(N_BINS) for l in "ABC"}
    rows = [SpectrumRow(bins=rng.random(N_BINS) * scale[l], label=l) for l in labels]
    vocab = list(dict.fromkeys(labels))
    y = np.array([vocab.index(l) for l in labels])
    mask, report = fusion.compute_selection(np.stack([r.bins for r in rows]), y, vocab, 1.15)

    # the reference stacks each label's rows in row order, as the row-list code did
    by_label = {}
    for r in rows:
        by_label.setdefault(r.label, []).append(r.bins)
    means = {l: np.mean(np.stack(stack), axis=0) for l, stack in by_label.items()}
    grand = np.mean(np.stack([r.bins for r in rows]), axis=0)
    assert report.labels == list(by_label)
    assert report.class_means.shape == report.ratios.shape == (3, N_BINS)
    assert np.array_equal(bits(report.global_mean), bits(grand))
    counts = np.zeros(N_BINS, dtype=int)
    for k, (l, mean) in enumerate(means.items()):
        assert np.array_equal(bits(report.class_means[k]), bits(mean))
        assert np.array_equal(bits(report.ratios[k]), bits(mean / grand))
        counts += mean / grand > 1.15
    assert np.array_equal(report.per_bin_class_counts, counts)
    # more bins than the cap pass here, so the mask is the 125 with the highest class ratio
    passing = [int(i) for i in np.flatnonzero(counts == 1)]
    best = {i: max(mean[i] / grand[i] for mean in means.values()) for i in passing}
    assert len(passing) > 125
    assert mask.kept == sorted(i + 1 for i in sorted(passing, key=lambda i: (-best[i], i))[:125])


def test_selection_mask_is_scale_free():
    rows = hot_bin_rows()
    scaled = [SpectrumRow(bins=r.bins * 1e3, label=r.label) for r in rows]
    m1, _ = select(rows, 1.5)
    m2, _ = select(scaled, 1.5)
    assert m1.kept == m2.kept


def test_selection_is_deterministic():
    rows = hot_bin_rows()
    m1, _ = select(rows, 1.5)
    m2, _ = select(rows, 1.5)
    assert m1.kept == m2.kept


def test_identical_classes_fail_selection():
    rows = flat_rows("A", 10, np.ones(N_BINS)) + flat_rows("B", 10, np.ones(N_BINS))
    with pytest.raises(SelectionError) as err:
        select(rows, 1.5)
    assert err.value.report is not None
    assert np.all(err.value.report.per_bin_class_counts == 0)


def shared_bin_rows(n_classes):
    """Class k hot at its own bin 30 + 10k; bin 7 hot for the first two classes only."""
    base = np.ones(N_BINS)
    rows = []
    for k in range(n_classes):
        bins = base.copy()
        bins[6] = 50.0 if k < 2 else 0.1
        bins[30 + 10 * k - 1] = 25.0
        rows.extend(flat_rows("ABCDEFG"[k], 10, bins))
    return rows


def test_guard_drops_bin_hot_for_too_many_classes():
    # bin 7 is super-threshold for two of four classes; bin 30/40/50/60 are
    # each class's own signature
    mask, report = select(shared_bin_rows(4), threshold=1.75)
    assert report.max_classes_per_bin == 1
    assert report.per_bin_class_counts[6] == 2
    assert 7 not in mask.kept
    assert mask.kept == [30, 40, 50, 60]


def test_guard_wide_enough_keeps_shared_bin():
    # six classes give a guard of 2, so bin 7, hot for two of them, stays
    mask, report = select(shared_bin_rows(6), threshold=1.75)
    assert report.max_classes_per_bin == 2
    assert report.per_bin_class_counts[6] == 2
    assert 7 in mask.kept


def test_bin_equally_hot_for_every_class_never_selected():
    # ratios are ~1 when all classes share the energy, so the bin cannot pass
    base = np.ones(N_BINS)
    rows = []
    for label, own_bin in [("A", 30), ("B", 40), ("C", 50)]:
        bins = base.copy()
        bins[6] = 80.0
        bins[own_bin - 1] = 25.0
        rows.extend(flat_rows(label, 10, bins))
    mask, report = select(rows, threshold=1.5)
    assert 7 not in mask.kept
    assert all(ratio(report, l)[6] == pytest.approx(1.0) for l in "ABC")


def test_zero_mean_bin_excluded_with_warning():
    rows = hot_bin_rows()
    for r in rows:
        r.bins[199] = 0.0  # bin 200 dead in every row
    mask, report = select(rows, 1.5)
    assert 200 not in mask.kept
    assert report.warnings and "zero grand mean" in report.warnings[0]
    assert np.isnan(ratio(report, "A")[199])


def test_selection_preconditions():
    rows = flat_rows("A", 10, np.ones(N_BINS))
    with pytest.raises(ValidationError):
        select(rows, 1.5)  # one label only
    rows = flat_rows("A", 10, np.ones(N_BINS)) + flat_rows("B", 9, np.ones(N_BINS))
    with pytest.raises(ValidationError, match="label 'B' has 9 rows; need >= 10"):
        select(rows, 1.5)  # too few B rows


def test_threshold_strictly_greater():
    # a ratio exactly at the threshold is not selected
    flat = np.ones(N_BINS)
    hot = np.ones(N_BINS)
    hot[9] = 3.0  # B ratio at bin 10 = 3/2 = 1.5 exactly
    rows = flat_rows("A", 10, flat) + flat_rows("B", 10, hot)
    with pytest.raises(SelectionError):
        select(rows, threshold=1.5)


def test_default_guard_values():
    # max(1, ceil(T/2) - 1) for T labels
    guards = {n: select(shared_bin_rows(n), threshold=1.75)[1].max_classes_per_bin for n in (7, 4, 2)}
    assert guards == {7: 3, 4: 1, 2: 1}


# ---------------------------------------------------------------------------
# masks

def test_apply_mask_prefix():
    row = SpectrumRow(bins=np.arange(N_BINS, dtype=float) + 1.0, label="X")
    out = fusion.apply_mask(row, FeatureMask(kept=[1, 2, 3]))
    assert np.array_equal(out, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("size", [23, 115])
def test_apply_mask_sizes(size):
    row = SpectrumRow(bins=np.arange(N_BINS, dtype=float), label="X")
    kept = list(range(2, 2 + size))
    out = fusion.apply_mask(row, FeatureMask(kept=kept))
    assert out.shape == (size,)
    assert np.array_equal(out, np.array(kept, dtype=float) - 1.0)


def test_selection_report_csv(tmp_path):
    _, report = select(hot_bin_rows(), 1.5)
    path = tmp_path / "report.csv"
    fusion.write_selection_report_csv(path, report)
    lines = path.read_text().splitlines()
    names = [l.split(",", 1)[0] for l in lines]
    assert names[0] == "row"
    assert "global_mean" in names
    assert "mean:A" in names and "ratio:B" in names
    assert names[-1] == "superthreshold_classes"
    assert all(len(l.split(",")) == N_BINS + 1 for l in lines)


def test_selection_report_text_matches_per_element_reference(tmp_path):
    awkward = np.resize(np.array([0.1, 1e-300, 5e-324, 10.0, 0.0, np.nan, 2.5e-310]), N_BINS)
    report = fusion.SelectionReport(
        labels=["A", "B"], class_means=np.stack([awkward, awkward[::-1]]), global_mean=awkward * 3,
        ratios=np.stack([awkward / 7, awkward]), per_bin_class_counts=np.arange(N_BINS) % 3,
        max_classes_per_bin=1)
    path = tmp_path / "report.csv"
    fusion.write_selection_report_csv(path, report)

    def fmt(arr):
        return ",".join(repr(float(v)) for v in arr)

    expected = ["row," + ",".join(f"hz_{i}" for i in range(1, N_BINS + 1)),
                "global_mean," + fmt(awkward * 3),
                "mean:A," + fmt(awkward), "mean:B," + fmt(awkward[::-1]),
                "ratio:A," + fmt(awkward / 7), "ratio:B," + fmt(awkward),
                "superthreshold_classes," + ",".join(str(c % 3) for c in range(N_BINS))]
    assert path.read_text() == "\n".join(expected) + "\n"


def test_selection_caps_mask_at_the_highest_ratio_bins():
    # 131 bins hot for class B alone: bins 7..130 with ratios rising with the bin, then
    # bins 1..6 and 201 tied below them; the lowest of the tied bins takes the last place
    flat, hot = np.ones(N_BINS), np.ones(N_BINS)
    hot[:6] = hot[200] = 4.0
    hot[6:130] = 5.0 + np.arange(124) / 100
    mask, report = select(flat_rows("A", 10, flat) + flat_rows("B", 10, hot), 1.5)
    assert len(mask) == fusion.MAX_MASK_BINS == 125
    assert mask.kept == [1] + list(range(7, 131))
    assert report.warnings == ["131 bins passed the threshold; kept the 125 with the highest class ratio"]
    assert report.per_bin_class_counts[200] == 1  # the report still counts the dropped bins


def test_group1_mask_at_8000_hz_stays_within_125_bins_and_covers_every_line():
    # the rows stage in memory: each recording synthesized with every roster id (the draws
    # follow the roster order), its fused channels rounded to float32 as a .rec file stores
    # them, then cut with the "blocks" seeds and fused
    from sigclass import spectral, synthgen
    from sigclass.config import PipelineConfig
    from sigclass.rng import derive_seed

    cfg = PipelineConfig(group="Group1", seed=1, sample_rate_hz=8000)
    fused = [synthgen.ROSTER.index(cid) for cid in cfg.fusion_channels]
    profiles = synthgen.build_group_profiles(cfg)
    x, y = [], []
    for k, p in enumerate(profiles):
        for trial in range(1, cfg.trials + 1):
            seed = derive_seed(cfg.seed, "synth", p.label, trial)
            rec = synthgen.synthesize_recording(p, synthgen.ROSTER, cfg.duration_s, cfg.sample_rate_hz, seed)
            rec.samples = rec.samples[fused].astype(np.float32).astype(np.float64)
            rec.channels = cfg.fusion_channels
            blocks = spectral.extract_blocks(rec, cfg.blocks_per_recording,
                                             derive_seed(cfg.seed, "blocks", p.label, trial))
            x.append(fusion.fuse(np.stack([spectral.magnitude_spectrum(b) for b in blocks.values()]),
                                 cfg.fusion_weights))
            y += [k] * cfg.blocks_per_recording
    vocab = [p.label for p in profiles]
    mask, report = fusion.compute_selection(np.concatenate(x), np.array(y), vocab, cfg.threshold)
    assert len(mask) <= 125
    assert any(w.startswith("130 bins passed the threshold") for w in report.warnings)  # uncapped: 130
    lines = {line.freq_hz for p in profiles for ls in p.lines_per_channel.values() for line in ls}
    assert len(lines) == 30
    assert all(any(abs(b - f) <= 1 for b in mask.kept) for f in lines)
