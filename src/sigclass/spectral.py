"""Block extraction, magnitude spectra, and heat maps.

Blocks are exactly one second long, so FFT bin i sits at exactly i Hz at any
sample rate; only bins 1..300 are kept (DC excluded).  Everything here works
on arrays: a recording's block offsets are drawn once, the blocks of every
channel are cut by one index into its (channels, n) matrix, and their spectra
are one (channels, blocks, 300) array, row i its channel i.  The `rows` stage
cuts, transforms and fuses a recording's blocks a chunk of offsets at a time,
each chunk about CHUNK_BYTES of float64 block samples, so its memory does not
grow with blocks x rate; each block's FFT is its own, so the rows are
bit-identical to those of a single cut.  Heat maps rescale each spectrum to
[0, 10] with its peak at 10, for visual comparison of per-channel signatures.
They are written as a binary P5 PGM image and a CSV with four decimals per
value, both from whole arrays, so no value is formatted on its own in Python.
"""

import numpy as np

N_BINS = 300
# float64 block samples that `rows` cuts and transforms at a time (43 blocks of
# three 2000 Hz channels): smaller chunks cost `rows` time, larger ones memory
CHUNK_BYTES = 2 * 1024 * 1024


def block_offsets(rec, count, seed):
    """Start offsets of `count` random 1-second blocks of `rec`, from one draw.

    Offsets are uniform over all valid sample positions and do not depend on
    which channels the recording holds.  They are drawn in one call, since
    drawing them in parts would give other offsets.  The config checks
    count >= 1, and load_recording at least one second of samples.
    """
    n = rec.samples.shape[1]
    return np.random.default_rng(seed).integers(0, n - rec.sample_rate_hz + 1, size=count)


def extract_blocks(rec, offsets):
    """Cut the 1-second blocks that start at `offsets` out of every channel of `rec`.

    The offsets (see `block_offsets`) are shared across channels, so the k-th
    block of every channel covers the same time span (fused spectra must be
    time-aligned).  Blocks may overlap.  Returns {channel_id: (len(offsets),
    rate) array} in `rec.channels` order; row k is the block at offsets[k].
    """
    blocks = np.lib.stride_tricks.sliding_window_view(rec.samples, rec.sample_rate_hz, axis=1)[:, offsets]
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
    row is scaled by 10/max(row); an all-zero row is divided by 1, so it stays zero.
    """
    peaks = spectra.max(axis=-1, keepdims=True)
    return spectra * (10.0 / np.where(peaks > 0, peaks, 1.0))


def write_heatmap_pgm(path, heatmap):
    """Binary PGM (P5) image of a (channels, rows, 300) heat map, one pixel row per heat-map row.

    Value 10 maps to pixel 255: each pixel is rint(v * 25.5), clipped to 0..255.
    """
    with open(path, "wb") as fh:
        fh.write(f"P5\n{N_BINS} {heatmap.size // N_BINS}\n255\n".encode("ascii"))
        pixels = heatmap * 25.5
        fh.write(np.clip(np.rint(pixels, out=pixels), 0, 255, out=pixels).astype(np.uint8))


def _four_decimal_lines(rows):
    """Each row of a (rows, 300) block as bytes: its values, comma-separated, and a newline.

    A value v is written as f"{q // 10000}.{q % 10000:04d}" with q = rint(v * 1e4),
    so the text is within 5e-5 of v.  The digits come from integer division
    into a 7-byte field per value: ones, ".", four decimals, then "," or the
    newline.  The ones digit 10 lands on ":", the byte after "9", which is then
    replaced by "10".  build_heatmap's values are finite and in 0..10, since
    load_recording rejects non-finite samples, so q is in 0..100,000.
    """
    q = np.rint(rows * 1e4).astype(np.int32)
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
    have four decimals (see `_four_decimal_lines`).
    """
    header = "channel,trial,block," + ",".join(f"hz_{i}" for i in range(1, N_BINS + 1))
    parts = [header.encode("ascii") + b"\n"]
    per_trial = heatmap.shape[1] // len(trials)
    for cid, rows in zip(channels, heatmap):  # a channel at a time keeps the text buffers small
        for i, values in enumerate(_four_decimal_lines(rows)):
            parts += [f"{cid},{trials[i // per_trial]},{i % per_trial},".encode("utf-8"), values]
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))
