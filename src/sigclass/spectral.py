"""Block extraction, magnitude spectra, and heat maps.

Blocks are exactly one second long, so FFT bin i sits at exactly i Hz at any
sample rate; only bins 1..300 are kept (DC excluded).  Everything here works
on arrays: the blocks of every channel of a recording are cut by one index
into its (channels, n) matrix, and its spectra are one (channels, count, 300)
array, row i its channel i.  Heat maps rescale each spectrum to [0, 10] with
its peak at 10, for visual comparison of per-channel signatures.  They are
written as a binary P5 PGM image and a CSV with four decimals per value, both
from whole arrays, so no value is formatted on its own in Python.
"""

import numpy as np

from .errors import ValidationError

N_BINS = 300


def extract_blocks(rec, count, seed):
    """Cut `count` random 1-second blocks out of every channel of `rec`.

    Start offsets are drawn uniformly over all valid sample positions and are
    shared across channels, so the k-th block of every channel covers the same
    time span (fused spectra must be time-aligned).  Blocks may overlap.  The
    offsets do not depend on which channels the recording holds.  Returns
    {channel_id: (count, rate) array} in `rec.channels` order; row k is block k.
    The config checks count >= 1, and load_recording at least one second of samples.
    """
    rate = rec.sample_rate_hz
    n = rec.samples.shape[1]
    offsets = np.random.default_rng(seed).integers(0, n - rate + 1, size=count)
    blocks = np.lib.stride_tricks.sliding_window_view(rec.samples, rate, axis=1)[:, offsets]
    return dict(zip(rec.channels, blocks))


def magnitude_spectrum(blocks):
    """FFT magnitudes of the blocks along the last axis, bins 1..300.

    bins[..., i] = |DFT(block)[i+1]|, the magnitude at (i+1) Hz.  A one-second
    block has the >= 600 samples this needs, since load_recording checks the rate
    (numpy's FFT is mixed-radix, so non-power-of-two blocks are exact, not padded).
    """
    return np.abs(np.fft.rfft(np.asarray(blocks, dtype=float), axis=-1)[..., 1 : N_BINS + 1])


def build_heatmap(spectra):
    """Normalize spectra onto a 0..10 scale, one heat-map row per spectrum.

    Input is a (channels, rows, 300) array; the result has its shape.  Each
    row is scaled by 10/max(row); an all-zero row stays zero.
    """
    peaks = spectra.max(axis=-1, keepdims=True)
    scale = 10.0 / np.where(peaks > 0, peaks, 1.0)
    return np.multiply(spectra, scale, out=np.zeros_like(spectra), where=peaks > 0)


def write_heatmap_pgm(path, heatmap):
    """Binary PGM (P5) image of a (channels, rows, 300) heat map, one pixel row per heat-map row.

    Value 10 maps to pixel 255: each pixel is rint(v * 25.5), clipped to 0..255.
    A value outside 0..10 or NaN (see `_in_ten_thousandths`) raises
    ValidationError before the file is opened.
    """
    _in_ten_thousandths(heatmap)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{N_BINS} {heatmap.size // N_BINS}\n255\n".encode("ascii"))
        pixels = heatmap * 25.5
        fh.write(np.clip(np.rint(pixels, out=pixels), 0, 255, out=pixels).astype(np.uint8))


def _in_ten_thousandths(rows):
    """rint(rows * 1e4); a value outside 0..10 at that rounding, or NaN, raises ValidationError."""
    scaled = rows * 1e4
    np.rint(scaled, out=scaled)
    if not np.all((scaled >= 0) & (scaled <= 100_000)):
        raise ValidationError("heat-map value outside 0..10 or NaN; cannot write it")
    return scaled


def _four_decimal_lines(rows):
    """Each row of a (rows, 300) block as bytes: its values, comma-separated, and a newline.

    A value v is written as f"{q // 10000}.{q % 10000:04d}" with q = rint(v * 1e4),
    so the text is within 5e-5 of v.  The digits come from integer division
    into a 7-byte field per value: ones, ".", four decimals, then "," or the
    newline.  The ones digit 10 lands on ":", the byte after "9", which is then
    replaced by "10".  A v outside 0..10 or NaN raises ValidationError.
    """
    q = _in_ten_thousandths(rows).astype(np.int32)
    fields = np.empty(q.shape + (7,), dtype=np.uint8)
    fields[..., 0] = q // 10_000
    for col, place in zip((2, 3, 4, 5), (1000, 100, 10, 1)):
        fields[..., col] = q // place % 10
    fields += ord("0")
    fields[..., 1] = ord(".")
    fields[..., 6] = ord(",")
    fields[:, -1, 6] = ord("\n")
    return fields.tobytes().replace(b":", b"10").splitlines(keepends=True)


def write_heatmap_csv(path, heatmap, channels, trials):
    """One CSV line per heat-map row: channel, trial, block, hz_1..hz_300.

    Row i of the (channels, rows, 300) heat map is channel `channels[i]`.
    `trials` lists the 1-based trial of each stacked recording, which all gave
    the same number of blocks; `block` is 0-based within the trial.  Values
    have four decimals (see `_four_decimal_lines`); one outside 0..10 raises
    ValidationError before the file is opened.
    """
    header = "channel,trial,block," + ",".join(f"hz_{i}" for i in range(1, N_BINS + 1))
    parts = [header.encode("ascii") + b"\n"]
    per_trial = heatmap.shape[1] // len(trials)
    for cid, rows in zip(channels, heatmap):  # a channel at a time keeps the text buffers small
        for i, values in enumerate(_four_decimal_lines(rows)):
            parts += [f"{cid},{trials[i // per_trial]},{i % per_trial},".encode("utf-8"), values]
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))
