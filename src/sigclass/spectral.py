"""Block extraction, magnitude spectra, and heat maps.

Blocks are exactly one second long, so FFT bin i sits at exactly i Hz at any
sample rate; only bins 1..300 are kept (DC excluded).  Everything here works
on arrays: a channel's blocks are one (count, rate) matrix and its spectra one
(count, 300) matrix.  Heat maps rescale each spectrum row to [0, 10] with the
row peak at 10, for visual comparison of per-channel signatures.
"""

import numpy as np

from .errors import ValidationError

N_BINS = 300


def extract_blocks(rec, count, seed):
    """Cut `count` random 1-second blocks out of every channel.

    Start offsets are drawn uniformly over all valid sample positions and are
    shared across channels, so the k-th block of every channel covers the same
    time span (fused spectra must be time-aligned).  Blocks may overlap.
    Returns {channel_id: (count, rate) array}; row k is block k.
    """
    if count < 1:
        raise ValidationError("count must be >= 1")
    rate = rec.sample_rate_hz
    n = rec.n_samples
    if n < rate:
        raise ValidationError("recording is shorter than 1 second")
    rng = np.random.default_rng(seed)
    offsets = rng.integers(0, n - rate + 1, size=count)
    return {
        cid: np.lib.stride_tricks.sliding_window_view(arr, rate)[offsets]
        for cid, arr in rec.samples.items()
    }


def magnitude_spectrum(blocks):
    """FFT magnitudes of the blocks along the last axis, bins 1..300.

    bins[..., i] = |DFT(block)[i+1]|, the magnitude at (i+1) Hz.  Works for
    any block length >= 600 (numpy's FFT is mixed-radix, so non-power-of-two
    one-second blocks are exact, not padded).
    """
    samples = np.asarray(blocks, dtype=float)
    if samples.shape[-1] < 2 * N_BINS:
        raise ValidationError(
            f"block of {samples.shape[-1]} samples is too short; need >= {2 * N_BINS}"
        )
    return np.abs(np.fft.rfft(samples, axis=-1)[..., 1 : N_BINS + 1])


def build_heatmap(spectra_by_channel):
    """Normalize spectra onto a 0..10 scale, one heat-map row per spectrum.

    Input is {channel_id: (rows, 300) array}; the result has the same keys and
    shapes.  Each row is scaled by 10/max(row); an all-zero row stays zero.
    """
    heatmap = {}
    for cid, spectra in spectra_by_channel.items():
        peaks = spectra.max(axis=1, keepdims=True)
        scale = 10.0 / np.where(peaks > 0, peaks, 1.0)
        heatmap[cid] = np.where(peaks > 0, spectra * scale, 0.0)
    return heatmap


def write_heatmap_pgm(path, heatmap):
    """ASCII PGM (P2) image of the heat map; value 10 maps to pixel 255."""
    rows = np.concatenate(list(heatmap.values()))
    pixels = np.clip(np.rint(rows * 25.5), 0, 255).astype(int)
    lines = ["P2", f"{N_BINS} {len(rows)}", "255"]
    lines.extend(" ".join(str(p) for p in row) for row in pixels)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def write_heatmap_csv(path, heatmap):
    header = "channel,trial," + ",".join(f"hz_{i}" for i in range(1, N_BINS + 1))
    lines = [header]
    for cid, rows in heatmap.items():
        for trial, row in enumerate(rows):
            vals = ",".join(repr(float(v)) for v in row)
            lines.append(f"{cid},{trial},{vals}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
