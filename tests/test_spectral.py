import numpy as np
import pytest

from sigclass import fusion, spectral
from sigclass.spectral import N_BINS
from sigclass.synthgen import Recording


def naive_dft_bins(samples, n_bins=N_BINS):
    """Direct-summation DFT magnitudes at bins 1..n_bins (the O(N^2) oracle)."""
    n = len(samples)
    t = np.arange(n)
    out = np.empty(n_bins)
    for k in range(1, n_bins + 1):
        angle = 2.0 * np.pi * k * t / n
        re = float(np.sum(samples * np.cos(angle)))
        im = float(-np.sum(samples * np.sin(angle)))
        out[k - 1] = np.hypot(re, im)
    return out


def make_recording(arrays, rate=1000, label="X"):
    """A Recording whose channels are the keys of `arrays`, its rows their values."""
    samples = np.stack(list(arrays.values()))
    return Recording(label=label, sample_rate_hz=rate, channels=tuple(arrays), samples=samples,
                     duration_s=samples.shape[1] / rate)


def block(samples):
    return np.asarray(samples, float)


# ---------------------------------------------------------------------------
# extract_blocks

def test_extract_block_count_per_channel():
    rng = np.random.default_rng(0)
    rec = make_recording({"a": rng.normal(size=60_000), "b": rng.normal(size=60_000)})
    blocks = spectral.extract_blocks(rec, 20, seed=1)
    assert list(blocks) == ["a", "b"]
    assert len(blocks["a"]) == 20 and len(blocks["b"]) == 20
    assert blocks["a"].shape == (20, 1000) and blocks["b"].shape == (20, 1000)


def test_extract_single_block_from_one_second_recording():
    arr = np.arange(1000.0)
    rec = make_recording({"a": arr})
    blocks = spectral.extract_blocks(rec, 1, seed=7)
    assert np.array_equal(blocks["a"][0], arr)


def test_extract_offsets_shared_across_channels():
    # channel b is channel a shifted by a constant, so aligned blocks differ
    # by exactly that constant everywhere
    base = np.arange(30_000.0)
    rec = make_recording({"a": base, "b": base + 5e6})
    blocks = spectral.extract_blocks(rec, 10, seed=3)
    for ba, bb in zip(blocks["a"], blocks["b"]):
        assert np.array_equal(bb - ba, np.full(1000, 5e6))
        # block content is a contiguous slice starting at an integer offset
        start = int(ba[0])
        assert np.array_equal(ba, base[start : start + 1000])
    # a recording of fewer channels draws the same offsets
    only_b = spectral.extract_blocks(make_recording({"b": base + 5e6}), 10, seed=3)
    assert list(only_b) == ["b"]
    assert np.array_equal(only_b["b"], blocks["b"])


def test_extract_blocks_deterministic():
    rng = np.random.default_rng(5)
    rec = make_recording({"a": rng.normal(size=20_000)})
    one = spectral.extract_blocks(rec, 8, seed=11)
    two = spectral.extract_blocks(rec, 8, seed=11)
    assert np.array_equal(one["a"], two["a"])


# ---------------------------------------------------------------------------
# magnitude_spectrum

def test_on_bin_sinusoid_peak_magnitude():
    for n, freq, amp in [(1000, 100, 1.0), (2000, 37, 0.7), (1024, 250, 2.5)]:
        t = np.arange(n)
        samples = amp * np.sin(2 * np.pi * freq * t / n + 0.3)
        bins = spectral.magnitude_spectrum(block(samples))
        assert int(np.argmax(bins)) + 1 == freq
        assert bins[freq - 1] == pytest.approx(n * amp / 2.0, abs=1e-6 * n * amp)


def test_all_zero_block_gives_zero_bins():
    bins = spectral.magnitude_spectrum(block(np.zeros(1000)))
    assert bins.shape == (N_BINS,)
    assert np.all(bins == 0.0)


@pytest.mark.parametrize("n", [600, 1000, 1024, 2000, 5000, 50000])
def test_fft_matches_naive_dft(n):
    samples = np.random.default_rng(n).normal(size=n)
    bins = spectral.magnitude_spectrum(block(samples))
    oracle = naive_dft_bins(samples)
    assert np.max(np.abs(bins - oracle)) < 1e-9 * n


def test_out_of_peak_energy_negligible():
    # noise-free on-bin sinusoid: everything outside the peak bin is rounding
    n, freq = 2000, 120
    samples = np.sin(2 * np.pi * freq * np.arange(n) / n + 1.1)
    bins = spectral.magnitude_spectrum(block(samples))
    peak_energy = bins[freq - 1] ** 2
    rest = np.delete(bins, freq - 1)
    assert np.sum(rest**2) < 1e-6 * peak_energy


def test_spectrum_excludes_dc():
    # constant signal lives entirely in the DC bin, which is dropped
    bins = spectral.magnitude_spectrum(block(np.full(1000, 7.0)))
    assert np.max(bins) < 1e-9


# ---------------------------------------------------------------------------
# heat maps

def spectra_of(*rows):
    """One channel's (1, rows, 300) spectra."""
    return np.array([rows], dtype=float)


def test_heatmap_scales_rows_to_ten():
    row = np.zeros(N_BINS)
    row[10] = 5.0
    row[20] = 2.5
    hm = spectral.build_heatmap(spectra_of(row))
    assert hm[0][0][10] == pytest.approx(10.0)
    assert hm[0][0][20] == pytest.approx(5.0)


def test_heatmap_zero_row_stays_zero():
    hm = spectral.build_heatmap(spectra_of(np.zeros(N_BINS)))
    assert np.all(hm[0][0] == 0.0)


def test_heatmap_one_row_per_spectrum_and_range():
    rng = np.random.default_rng(9)
    spectra = np.concatenate([
        spectra_of(*[rng.random(N_BINS) * 50 for _ in range(50)]),
        spectra_of(*[rng.random(N_BINS) * 3 for _ in range(50)]),
    ])
    hm = spectral.build_heatmap(spectra)
    assert hm.shape == (2, 50, N_BINS)
    for row in hm.reshape(-1, N_BINS):
        assert np.all(row >= 0.0) and np.all(row <= 10.0)
        assert row.max() == pytest.approx(10.0)


def test_heatmap_pgm_format(tmp_path):
    row = np.linspace(0, 10, N_BINS)
    hm = spectral.build_heatmap(spectra_of(row))
    path = tmp_path / "map.pgm"
    spectral.write_heatmap_pgm(path, hm)
    header = f"P5\n{N_BINS} 1\n255\n".encode("ascii")
    data = path.read_bytes()
    assert data.startswith(header) and len(data) == len(header) + N_BINS
    pixels = np.frombuffer(data[len(header):], dtype=np.uint8)
    assert pixels[0] == 0 and pixels[-1] == 255
    assert np.all(np.diff(pixels.astype(int)) >= 0)


def test_heatmap_csv_roundtrip_shape(tmp_path):
    rng = np.random.default_rng(2)
    hm = spectral.build_heatmap(spectra_of(*[rng.random(N_BINS) for _ in range(3)]))
    path = tmp_path / "map.csv"
    spectral.write_heatmap_csv(path, hm, ["ch"], [4])  # three blocks of trial 4
    lines = path.read_text().splitlines()
    assert len(lines) == 4  # header + 3 rows
    assert lines[0].split(",")[:4] == ["channel", "trial", "block", "hz_1"]
    assert [line.split(",")[:3] for line in lines[1:]] == [
        ["ch", "4", "0"], ["ch", "4", "1"], ["ch", "4", "2"]]
    assert len(lines[1].split(",")) == N_BINS + 3


# awkward floats for the four-decimal text: subnormals, values that round to
# 0.0000 or up to 10.0000, and the neighbours of 10 on the 0..10 scale
AWKWARD = [0.0, 5e-324, 1e-300, 5e-5, 1.5e-4, 1 / 3, 9.99995, 9.999999999999998,
           10.0, 10.000000000000002]


def four_decimals(v):
    q = round(v * 1e4)
    return f"{q // 10000}.{q % 10000:04d}"


def test_heatmap_text_matches_per_element_reference(tmp_path):
    rows = np.resize(np.array(AWKWARD), (4, N_BINS))
    rows[1] = rows[1][::-1]
    hm = rows.reshape(2, 2, N_BINS)  # channels a, b; one block of trials 1, 2
    spectral.write_heatmap_csv(tmp_path / "map.csv", hm, ["a", "b"], [1, 2])
    expected = ["channel,trial,block," + ",".join(f"hz_{i}" for i in range(1, N_BINS + 1))]
    for cid, trial, block, row in [("a", 1, 0, rows[0]), ("a", 2, 0, rows[1]),
                                   ("b", 1, 0, rows[2]), ("b", 2, 0, rows[3])]:
        expected.append(f"{cid},{trial},{block}," + ",".join(four_decimals(float(v)) for v in row))
    text = (tmp_path / "map.csv").read_text()
    assert text == "\n".join(expected) + "\n"
    written = np.array([[float(v) for v in line.split(",")[3:]] for line in text.splitlines()[1:]])
    assert np.max(np.abs(written - rows)) <= 5e-5 + 1e-12
    spectral.write_heatmap_pgm(tmp_path / "map.pgm", hm)
    pixels = np.clip(np.rint(rows * 25.5), 0, 255).astype(np.uint8)
    expected = f"P5\n{N_BINS} 4\n255\n".encode("ascii") + pixels.tobytes()
    assert (tmp_path / "map.pgm").read_bytes() == expected


# ---------------------------------------------------------------------------
# the array path against a per-block reference

def test_array_path_matches_per_block_reference():
    """Batched FFT, fusion and heat-map scaling are bit-equal to a loop over blocks."""
    rate, count, seed = 1000, 12, 4
    rng = np.random.default_rng(8)
    arrays = {
        "a": rng.normal(size=5500) * 3.0,
        "b": rng.normal(size=5500) + np.sin(2 * np.pi * 40 * np.arange(5500) / rate),
        "dead": np.zeros(5500),  # all-zero spectra, so all-zero heat-map rows
    }
    weights = {"b": 1.7, "dead": 2.0, "a": 0.3}  # summed in this order
    rec = make_recording({cid: arrays[cid] for cid in weights}, rate=rate)

    offsets = np.random.default_rng(seed).integers(0, 5500 - rate + 1, size=count)
    ref_spectra = {
        cid: [np.abs(np.fft.rfft(arr[o : o + rate])[1 : N_BINS + 1]) for o in offsets]
        for cid, arr in arrays.items()
    }
    ref_fused = []
    for k in range(count):
        acc, total = np.zeros(N_BINS), 0.0
        for cid, w in weights.items():
            acc += w * ref_spectra[cid][k]
            total += w
        ref_fused.append(acc / total)
    ref_heat = {
        cid: [s * (10.0 / s.max()) if s.max() > 0 else np.zeros(N_BINS) for s in specs]
        for cid, specs in ref_spectra.items()
    }

    blocks = spectral.extract_blocks(rec, count, seed)
    spectra = np.stack([spectral.magnitude_spectrum(b) for b in blocks.values()])
    fused = fusion.fuse(spectra, list(weights.values()))
    heat = spectral.build_heatmap(spectra)

    assert rec.channels == tuple(weights)  # row i of spectra and heat is channel rec.channels[i]
    for i, cid in enumerate(rec.channels):
        assert np.array_equal(spectra[i], np.stack(ref_spectra[cid]))
        assert np.array_equal(heat[i], np.stack(ref_heat[cid]))
    assert np.all(heat[rec.channels.index("dead")] == 0.0)
    assert np.array_equal(fused, np.stack(ref_fused))
