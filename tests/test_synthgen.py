import numpy as np
import pytest

from sigclass import fusion, spectral, synthgen
from sigclass.config import PipelineConfig
from sigclass.errors import ConfigurationError, ParseError
from sigclass.rng import derive_seed
from sigclass.synthgen import (
    GROUP1_LABELS,
    GROUP2_LABELS,
    Recording,
    SpectralLine,
    TargetProfile,
)

SETUP = ("mic", "geo")


def profile(lines_per_channel, noise=0.0, label="T"):
    return TargetProfile(label=label, lines_per_channel=lines_per_channel, noise_rms=noise)


# ---------------------------------------------------------------------------
# synthesize_recording

def test_silence_profile_gives_zero_samples():
    rec = synthgen.synthesize_recording(profile({}), SETUP, 2.0, 1000, seed=0)
    assert rec.channels == SETUP
    assert np.all(rec.samples == 0.0)
    assert rec.samples.shape == (2, 2000)


def test_pure_sinusoid_rms_closed_form():
    p = profile({"mic": [SpectralLine(100, 1.0, jitter_hz=0.0)]})
    rec = synthgen.synthesize_recording(p, SETUP, 1.0, 1000, seed=4)
    mic, geo = rec.samples
    rms = float(np.sqrt(np.mean(mic**2)))
    assert rms == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-9)
    assert np.all(geo == 0.0)


def test_same_seed_bit_identical():
    p = profile({"mic": [SpectralLine(60, 1.5), SpectralLine(90, 0.5)]}, noise=0.7)
    a = synthgen.synthesize_recording(p, SETUP, 3.0, 2000, seed=9)
    b = synthgen.synthesize_recording(p, SETUP, 3.0, 2000, seed=9)
    assert np.array_equal(a.samples, b.samples)
    c = synthgen.synthesize_recording(p, SETUP, 3.0, 2000, seed=10)
    assert not np.array_equal(a.samples[0], c.samples[0])  # mic


def test_channel_energy_matches_line_and_noise_power():
    # RMS^2 ~ sum(amp^2)/2 + noise^2 for long recordings
    p = profile(
        {"mic": [SpectralLine(50, 1.2), SpectralLine(90, 0.7)]},
        noise=0.8,
    )
    for seed in (1, 2):
        rec = synthgen.synthesize_recording(p, SETUP, 12.0, 2000, seed=seed)
        expected = (1.2**2 + 0.7**2) / 2.0 + 0.8**2
        got = float(np.mean(rec.samples[0] ** 2))  # mic
        assert got == pytest.approx(expected, rel=0.05)


def test_noise_free_lines_peak_at_their_bins():
    p = profile({
        "mic": [SpectralLine(37, 1.0, jitter_hz=0.0), SpectralLine(120, 0.8, jitter_hz=0.0)],
    })
    rec = synthgen.synthesize_recording(p, SETUP, 4.0, 2000, seed=3)
    blocks = spectral.extract_blocks(rec, spectral.block_offsets(rec, 4, seed=5))
    for bins in spectral.magnitude_spectrum(blocks["mic"]):
        assert int(np.argmax(bins)) + 1 == 37
        # the weaker line still dominates its own neighborhood
        lo, hi = 110, 130
        assert int(np.argmax(bins[lo:hi])) + 1 + lo == 120


# ---------------------------------------------------------------------------
# group profiles

def test_group_profile_counts_and_first_label():
    g1 = synthgen.build_group_profiles(PipelineConfig(group="Group1", seed=0))
    g2 = synthgen.build_group_profiles(PipelineConfig(group="Group2", seed=0))
    assert len(g1) == 7 and len(g2) == 4
    assert g1[0].label == "AllQuiet" and g2[0].label == "AllQuiet"
    assert [p.label for p in g1] == GROUP1_LABELS
    assert [p.label for p in g2] == GROUP2_LABELS


def test_group_profiles_deterministic():
    a = synthgen.build_group_profiles(PipelineConfig(group="Group2", seed=5))
    b = synthgen.build_group_profiles(PipelineConfig(group="Group2", seed=5))
    for pa, pb in zip(a, b):
        assert pa.label == pb.label
        assert pa.lines_per_channel == pb.lines_per_channel


def test_nonquiet_profiles_have_lines_on_multiple_channels():
    for group in ("Group1", "Group2"):
        for p in synthgen.build_group_profiles(PipelineConfig(group=group, seed=2))[1:]:
            freqs = {l.freq_hz for lines in p.lines_per_channel.values() for l in lines}
            assert len(freqs) >= 3
            assert len(p.lines_per_channel) >= 2


def test_profiles_use_disjoint_frequencies():
    profiles = synthgen.build_group_profiles(PipelineConfig(group="Group1", seed=8))
    seen = set()
    for p in profiles[1:]:
        freqs = {l.freq_hz for lines in p.lines_per_channel.values() for l in lines}
        assert not (freqs & seen)
        seen |= freqs


def test_min_line_spacing_respected():
    for group in ("Group1", "Group2"):
        profiles = synthgen.build_group_profiles(PipelineConfig(group=group, seed=1))
        freqs = sorted(
            {l.freq_hz for p in profiles for lines in p.lines_per_channel.values() for l in lines}
        )
        assert set(freqs) <= set(range(5, 296, 3))
        assert all(b - a >= 3 for a, b in zip(freqs, freqs[1:]))


def test_group_signatures_fit_the_line_grid():
    # each profile but AllQuiet draws its lines from the grid without replacement
    for group, (labels, _, n_lines) in synthgen.GROUPS.items():
        assert (len(labels) - 1) * n_lines <= len(synthgen.LINE_GRID_HZ)
        profiles = synthgen.build_group_profiles(PipelineConfig(group=group, seed=0))
        assert [len({l.freq_hz for lines in p.lines_per_channel.values() for l in lines})
                for p in profiles] == [0] + [n_lines] * (len(labels) - 1)


def test_unknown_group_rejected():
    with pytest.raises(ConfigurationError):
        synthgen.build_group_profiles(PipelineConfig(group="Group3", seed=0))


# ---------------------------------------------------------------------------
# persistence

def test_recording_roundtrip(tmp_path):
    # load_recording takes roster ids only
    p = profile({"mic_front_10m": [SpectralLine(42, 1.1)]}, noise=0.4)
    rec = synthgen.synthesize_recording(p, ("mic_front_10m", "geo_front_10m"), 2.0, 2000, seed=12)
    path = tmp_path / "t.rec"
    synthgen.save_recording(path, rec)
    loaded = synthgen.load_recording(path, rec.channels)
    assert loaded.label == rec.label
    assert loaded.sample_rate_hz == rec.sample_rate_hz
    assert loaded.duration_s == rec.duration_s
    assert loaded.channels == rec.channels
    assert np.array_equal(loaded.samples, rec.samples.astype(np.float32).astype(np.float64))


def test_recording_file_has_ascii_header(tmp_path):
    rec = synthgen.synthesize_recording(profile({}), SETUP, 1.0, 1000, seed=0)
    path = tmp_path / "t.rec"
    synthgen.save_recording(path, rec)
    header = path.read_bytes().split(b"\n", 1)[0].decode("ascii")
    assert header.startswith("SIGREC3 ")
    assert "rate=1000" in header and "channels=mic,geo" in header


def test_recording_bytes_are_header_then_channel_major_float32(tmp_path):
    p = profile({"mic": [SpectralLine(42, 1.1)], "geo": [SpectralLine(7, 0.3)]}, noise=0.4)
    rec = synthgen.synthesize_recording(p, ("mic", "geo", "accel"), 1.5, 1000, seed=4)
    path = tmp_path / "t.rec"
    synthgen.save_recording(path, rec)
    header = b"SIGREC3 label=T rate=1000 duration=1.5 channels=mic,geo,accel\n"
    payload = rec.samples.astype("<f4").tobytes()  # rows in channel order, each sample rounded to nearest
    assert path.read_bytes() == header + payload


def test_save_recording_into_a_reused_payload_writes_the_same_bytes(tmp_path):
    p = profile({"mic": [SpectralLine(42, 1.1)], "geo": [SpectralLine(7, 0.3)]}, noise=0.4)
    payload = np.full((3, 1500), np.nan, dtype="<f4")
    for seed in (4, 5):
        rec = synthgen.synthesize_recording(p, ("mic", "geo", "accel"), 1.5, 1000, seed=seed)
        synthgen.save_recording(tmp_path / "fresh.rec", rec)
        synthgen.save_recording(tmp_path / "reused.rec", rec, payload=payload)
        assert (tmp_path / "reused.rec").read_bytes() == (tmp_path / "fresh.rec").read_bytes()


def test_load_recording_reads_only_the_given_channels_read_only(tmp_path):
    mic, geo, accel = "mic_front_10m", "geo_front_10m", "accel_engine"  # load_recording takes roster ids only
    p = profile({mic: [SpectralLine(42, 1.1)], geo: [SpectralLine(7, 0.3)]}, noise=0.4)
    rec = synthgen.synthesize_recording(p, (mic, geo, accel), 1.5, 1000, seed=4)
    path = tmp_path / "t.rec"
    synthgen.save_recording(path, rec)
    for channels in ([accel, mic], [geo], [mic, geo, accel]):
        loaded = synthgen.load_recording(path, channels)
        assert loaded.channels == tuple(channels)
        assert loaded.samples.dtype == np.float64 and not loaded.samples.flags.writeable
        rows = [rec.channels.index(cid) for cid in loaded.channels]
        assert loaded.samples.tobytes() == rec.samples[rows].astype(np.float32).astype(np.float64).tobytes()
    with pytest.raises(ParseError, match="has no channel"):
        synthgen.load_recording(path, [mic, "mag_x_side_10m"])


@pytest.mark.parametrize("group", ["Group1", "Group2"])
def test_stored_recording_spectra_stay_within_1e6_of_float64(tmp_path, group):
    # a default recording of the group's second profile, cut and fused as the rows stage does, once
    # from the float64 samples in memory and once from the float32 file; measured at most 1.2e-8
    # of each channel spectrum's peak and 1.6e-7 of each fused bin
    cfg = PipelineConfig(group=group, seed=0)
    p = synthgen.build_group_profiles(cfg)[1]
    rec = synthgen.synthesize_recording(p, synthgen.ROSTER, cfg.duration_s, cfg.sample_rate_hz,
                                        derive_seed(cfg.seed, "synth", p.label, 1))
    path = tmp_path / "t.rec"
    synthgen.save_recording(path, rec)
    fused = [synthgen.ROSTER.index(cid) for cid in cfg.fusion_channels]
    rec = Recording(p.label, rec.sample_rate_hz, cfg.fusion_channels, rec.samples[fused], rec.duration_s)
    seed = derive_seed(cfg.seed, "blocks", p.label, 1)
    spectra = [np.stack([spectral.magnitude_spectrum(b)
                         for b in spectral.extract_blocks(r, spectral.block_offsets(r, cfg.blocks_per_recording, seed)).values()])
               for r in (rec, synthgen.load_recording(path, cfg.fusion_channels))]
    assert np.all(np.abs(spectra[1] - spectra[0]) <= 1e-6 * spectra[0].max(axis=-1, keepdims=True))
    rows = [fusion.fuse(s, cfg.fusion_weights) for s in spectra]
    assert np.all(np.abs(rows[1] - rows[0]) <= 1e-6 * rows[0])


def reference_synthesize(profile, channels, duration_s, sample_rate_hz, seed):
    """The allocating synthesis body that the in-place one must match bit for bit.

    Second s of a line has one frequency f_s, a start phase P_s (phase0 plus
    the cycles of the seconds before it, modulo one) and a step w_s = 2 pi f_s /
    rate.  Its sample j = span * q + r is amp * sin(P_s + w_s span q + w_s r),
    expanded by angle addition; each second is padded to whole spans, then cut.
    """
    n = int(round(duration_s * sample_rate_hz))
    rng = np.random.default_rng(seed)
    n_seconds = int(np.ceil(duration_s))
    span = int(np.ceil(np.sqrt(sample_rate_hz)))
    q = span * np.arange(int(np.ceil(sample_rate_hz / span)))
    r = np.arange(span)
    samples = {}
    for cid in channels:
        data = rng.normal(0.0, profile.noise_rms, size=n) if profile.noise_rms > 0 else np.zeros(n)
        for line in profile.lines_per_channel.get(cid, []):
            phase0 = rng.uniform(0.0, 2.0 * np.pi)
            wobble = rng.normal(0.0, line.jitter_hz, size=n_seconds) if line.jitter_hz > 0 else np.zeros(n_seconds)
            freqs = float(line.freq_hz) + wobble
            cycles = np.concatenate([[0.0], np.cumsum(freqs)[:-1]])
            start = phase0 + 2.0 * np.pi * np.fmod(cycles, 1.0)
            step = 2.0 * np.pi * freqs / sample_rate_hz
            coarse = start[:, None] + step[:, None] * q
            fine = step[:, None] * r
            wave = ((line.amplitude * np.sin(coarse))[:, :, None] * np.cos(fine)[:, None, :]
                    + (line.amplitude * np.cos(coarse))[:, :, None] * np.sin(fine)[:, None, :])
            data = data + wave.reshape(n_seconds, -1)[:, :sample_rate_hz].reshape(-1)[:n]
        samples[cid] = data
    return samples


# one channel whose lines mix jitters, a jitter-0 line among them, beside a one-line channel
MIXED_JITTER = profile({
    "mic": [SpectralLine(40, 1.2, jitter_hz=0.5), SpectralLine(97, 0.8, jitter_hz=0.0),
            SpectralLine(211, 1.7, jitter_hz=0.25)],
    "geo": [SpectralLine(13, 0.6)],
}, noise=0.9)


@pytest.mark.parametrize("group, noise_rms, jitter_hz, duration_s, rate", [
    ("Group1", 3.5, 0.5, 2.5, 1000), ("Group2", 3.5, 0.5, 2.5, 1000), ("Group1", 0.0, 0.5, 2.5, 1000),
    ("Group2", 0.7, 0.0, 2.5, 1000), (None, None, None, 2.5, 1000), (None, None, None, 12.0, 2000),
], ids=["group1", "group2", "no-noise", "no-jitter", "mixed-jitter-cut", "mixed-jitter-12s"])
def test_synthesis_bit_identical_to_allocating_reference(group, noise_rms, jitter_hz, duration_s, rate):
    # 2.5 s: the last second is cut; 1000 Hz: not a perfect square, so each second is padded
    if group is None:
        profiles, channels = [MIXED_JITTER] * 3, ("mic", "accel", "geo")
    else:
        cfg = PipelineConfig(group=group, seed=3, noise_rms=noise_rms, jitter_hz=jitter_hz)
        profiles, channels = synthgen.build_group_profiles(cfg), synthgen.ROSTER
    # one buffer reused from profile to profile, as synth's workers do; nan shows any sample it leaks
    out = np.full((len(channels), int(np.ceil(duration_s)) * rate), np.nan)
    for seed, p in enumerate(profiles):
        expected = reference_synthesize(p, channels, duration_s, rate, seed)
        for rec in (synthgen.synthesize_recording(p, channels, duration_s, rate, seed),
                    synthgen.synthesize_recording(p, channels, duration_s, rate, seed, out=out)):
            assert rec.channels == tuple(expected)
            for row, (cid, data) in zip(rec.samples, expected.items()):
                assert row.tobytes() == data.tobytes(), (p.label, cid)
        assert np.shares_memory(rec.samples, out)


def test_noise_free_samples_match_mpmath_oracle():
    # a sample of second s, j samples in, is amp * sin(phase0 + 2 pi (C_s + j f_s / rate)), C_s the
    # cycles of the seconds before it; the oracle sums them exactly, from the same draws
    import mpmath

    rate, n_seconds, amp, jitter, seed = 2000, 12, 1.5, 0.5, 1
    p = profile({"mic": [SpectralLine(296, amp, jitter_hz=jitter)]})
    got = synthgen.synthesize_recording(p, SETUP, float(n_seconds), rate, seed).samples[0]
    rng = np.random.default_rng(seed)
    phase0 = rng.uniform(0.0, 2.0 * np.pi)
    wobble = rng.normal(0.0, jitter, size=n_seconds)
    n = n_seconds * rate
    # a strided subset, plus each second's first and last sample
    picks = np.unique(np.concatenate([np.arange(0, n, 7), np.arange(0, n, rate), np.arange(rate - 1, n, rate)]))
    with mpmath.workdps(30):
        freqs = [296 + mpmath.mpf(float(w)) for w in wobble]
        cycles = [sum(freqs[:s], mpmath.mpf(0)) for s in range(n_seconds)]
        exact = np.array([float(amp * mpmath.sin(phase0 + 2 * mpmath.pi * (cycles[s] + j * freqs[s] / rate)))
                          for s, j in (divmod(int(k), rate) for k in picks)])
    # measured 5.9e-12; the per-sample phase sum of earlier versions was 1.5e-8 off here
    assert np.abs(got[picks] - exact).max() < 3e-11


def test_load_recording_rejects_garbage(tmp_path):
    path = tmp_path / "bad.rec"
    path.write_bytes(b"BOGUS header\n\x00\x01")
    with pytest.raises(ParseError):
        synthgen.load_recording(path, synthgen.ROSTER)


def test_profiles_roundtrip(tmp_path):
    profiles = synthgen.build_group_profiles(PipelineConfig(group="Group2", seed=7))
    path = tmp_path / "profiles.txt"
    synthgen.save_profiles(path, profiles)
    loaded = synthgen.load_profiles(path)
    assert [p.label for p in loaded] == [p.label for p in profiles]
    for a, b in zip(profiles, loaded):
        assert a.noise_rms == b.noise_rms
        assert a.lines_per_channel == b.lines_per_channel


def test_profiles_parse_error_names_line(tmp_path):
    path = tmp_path / "profiles.txt"
    path.write_text("profile A\nline mic notanumber 1.0 0.5\n")
    with pytest.raises(ParseError) as err:
        synthgen.load_profiles(path)
    assert str(err.value).startswith(f"{path}:2: ")
