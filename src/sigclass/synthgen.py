"""Synthetic multi-channel recordings with known sub-300 Hz signatures.

Each target class is a TargetProfile: a set of spectral lines per sensor
channel plus a white noise floor.  Recordings are sums of phase-continuous
sinusoids whose frequency wobbles a little from second to second, emulating
run-to-run engine variation, plus Gaussian noise.  Within a second a line is
a pure sinusoid, so each second is rendered in closed form from its start
phase, which the seconds before it fix modulo one cycle (see
`synthesize_recording`).

A Recording holds one (channels, n) float64 matrix beside its channel ids,
row i being channel i.  Synthesis runs in float64; a recording file (.rec) is
one ASCII header line, then that matrix rounded to little-endian float32,
channel after channel, channels x samples x 4 bytes.  Float32 holds the 16- to
24-bit samples of real sensors exactly.  A stage reads only the channels it
needs, into the rows of one float32 buffer, which it converts once to a
read-only float64 matrix.
"""

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import LABEL_RULE, ParseError, ValidationError, is_label, text_lines
from .rng import derive_rng

# channel-major float32; the older float64 formats, sample-major SIGREC1 and
# channel-major SIGREC2, are refused, never misread
RECORDING_MAGIC = "SIGREC3"

# The 13-channel measurement setup the synthetic data mirrors; each id's
# prefix names its sensor: microphone, geophone, accelerometer, magnetometer.
ROSTER = (
    "mic_front_10m", "mic_front_5m", "mic_on_target", "mic_side_10m",
    "geo_front_10m", "geo_front_5m",
    "accel_front_10m", "accel_front_5m", "accel_engine", "accel_roof",
    "mag_x_side_10m", "mag_y_side_10m", "mag_z_side_10m",
)


@dataclass(frozen=True)
class SpectralLine:
    """One sinusoidal component: integer frequency, amplitude, wobble std."""

    freq_hz: int
    amplitude: float
    jitter_hz: float = 0.5

    def __post_init__(self):
        if not (1 <= int(self.freq_hz) <= 300):
            raise ValidationError(f"line frequency {self.freq_hz} outside [1, 300] Hz")
        if not math.isfinite(self.amplitude) or self.amplitude < 0:
            raise ValidationError(f"line amplitude {self.amplitude} must be finite and >= 0")
        if not math.isfinite(self.jitter_hz) or self.jitter_hz < 0:
            raise ValidationError(f"line jitter {self.jitter_hz} must be finite and >= 0")


@dataclass
class TargetProfile:
    """A class signature: lines per channel id plus a noise floor RMS."""

    label: str
    lines_per_channel: dict
    noise_rms: float = 0.0

    def __post_init__(self):
        if not is_label(self.label):
            raise ValidationError(f"label {self.label!r} {LABEL_RULE}")
        if not math.isfinite(self.noise_rms) or self.noise_rms < 0:
            raise ValidationError("noise_rms must be finite and >= 0")


@dataclass
class Recording:
    """Multi-channel time series; all channels share one clock and length."""

    label: str
    sample_rate_hz: int
    channels: tuple  # channel ids, one per row of samples
    samples: np.ndarray  # (len(channels), n) float64
    duration_s: float


GROUP1_LABELS = [
    "AllQuiet", "HondaCivic", "ToyotaCorolla", "FordF150",
    "DieselVan", "FordFusion", "AcuraMDX",
]
GROUP2_LABELS = ["AllQuiet", "HondaGenerator", "FordF150", "Saab83"]

# Channel subsets whose spectra actually carry class signatures; the fusion
# stage averages over exactly these by default.
GROUP1_FUSED_CHANNELS = ["mic_front_10m", "mic_side_10m", "geo_front_10m", "accel_front_10m"]
GROUP2_FUSED_CHANNELS = ["geo_front_10m", "accel_front_5m", "mag_z_side_10m"]

# group -> (labels, fused channels, signature lines per profile); the line
# counts keep the selected feature set comfortably inside 20..125 bins even
# when frequency wobble drags neighbor bins along
GROUPS = {
    "Group1": (GROUP1_LABELS, GROUP1_FUSED_CHANNELS, 5),
    "Group2": (GROUP2_LABELS, GROUP2_FUSED_CHANNELS, 7),
}

LINE_GRID_HZ = range(5, 296, 3)  # the frequencies signature lines are drawn from

# signature line amplitudes are drawn uniformly from this range
LINE_AMPLITUDES = (1.0, 2.0)


@np.errstate(over="ignore", invalid="ignore")  # a sample past float64's range is inf; save_recording refuses it
def synthesize_recording(profile, channels, duration_s, sample_rate_hz, seed):
    """Render a TargetProfile into a Recording of the given channel ids.

    Each channel is the sum of its spectral lines plus white Gaussian noise of
    std profile.noise_rms.  A line contributes amplitude * sin(phase) where
    the instantaneous frequency is freq_hz plus a per-second Gaussian wobble
    (std jitter_hz) and the phase is continuous across seconds.  All draws
    come from one generator seeded by `seed`, so output is bit-reproducible.

    Second s has one frequency f_s, so its start phase is P_s = phase0 +
    2 pi frac(f_0 + ... + f_{s-1}), the cycles before it reduced modulo one
    cycle, and its step is w_s = 2 pi f_s / rate.  With span = ceil(sqrt(rate)),
    its sample j = span * q + r is sin(P_s + w_s span q) cos(w_s r) +
    cos(P_s + w_s span q) sin(w_s r): 2 (rate / span + span) sin/cos calls per
    second, and no angle beyond about one second's turn.  Each sample is
    within 1e-11 per unit amplitude of the exact waveform.  A cut last second
    is rendered whole and cut back to the n samples.

    A channel's lines draw first, in line order (each line's phase, then its
    wobble unless its jitter is 0); the angle and sin/cos tables of all of
    its lines are then built at once, and each line's two products are
    einsum outer products, added into the channel line by line.
    The config checks duration_s, the rate and the sample count; profiles name only ROSTER channels.
    """
    n = int(round(duration_s * sample_rate_hz))
    rng = np.random.default_rng(seed)
    rate = int(sample_rate_hz)
    n_seconds = int(math.ceil(duration_s))
    # sample j of a second is j = span * q + r: one coarse angle per q, one fine angle per r
    span = math.isqrt(rate - 1) + 1  # ceil(sqrt(rate))
    coarse_steps, fine_steps = span * np.arange(-(-rate // span)), np.arange(span)
    data = np.zeros((len(channels), n_seconds * rate))  # a cut last second is padded
    # one line's samples, each second padded to a whole number of spans, and
    # its second term: buffers reused by every line
    wave = np.empty((n_seconds, len(coarse_steps), span))
    term = np.empty_like(wave)
    seconds = wave.reshape(n_seconds, -1)[:, :rate]  # (n_seconds, rate) view of the samples
    for row, cid in zip(data, channels):
        whole = row.reshape(n_seconds, rate)
        if profile.noise_rms > 0:
            # rng.normal(0.0, noise_rms, n) computes 0.0 + noise_rms * z
            rng.standard_normal(out=row[:n])
            row *= profile.noise_rms
            row += 0.0
        lines = profile.lines_per_channel.get(cid)
        if not lines:
            continue
        # the draws, in line order: each line's start phase, then its wobble if it has one
        phase0 = np.empty(len(lines))
        freqs = np.empty((len(lines), n_seconds))
        for k, line in enumerate(lines):
            phase0[k] = rng.uniform(0.0, 2.0 * np.pi)
            freqs[k] = rng.normal(0.0, line.jitter_hz, size=n_seconds) if line.jitter_hz > 0 else 0.0
        freqs += [[float(line.freq_hz)] for line in lines]
        # cycles before each second, reduced modulo one cycle (fmod is exact),
        # so that every angle below stays within 2 pi (f_s + 1) rad
        cycles = np.zeros_like(freqs)
        np.cumsum(freqs[:, :-1], axis=1, out=cycles[:, 1:])
        start = phase0[:, None] + 2.0 * np.pi * np.fmod(cycles, 1.0)
        step = 2.0 * np.pi * freqs / rate  # rad per sample
        coarse = start[:, :, None] + step[:, :, None] * coarse_steps
        fine = step[:, :, None] * fine_steps
        amps = np.array([[[line.amplitude]] for line in lines])
        sin_coarse, cos_coarse = amps * np.sin(coarse), amps * np.cos(coarse)
        cos_fine, sin_fine = np.cos(fine), np.sin(fine)
        for k in range(len(lines)):
            # amp * sin(coarse + fine) = (amp sin coarse) cos fine + (amp cos coarse) sin fine;
            # einsum writes +0.0 for a -0.0 product; either zero added to a row that never holds -0.0 gives its bits
            np.einsum("sq,sr->sqr", sin_coarse[k], cos_fine[k], out=wave)
            np.einsum("sq,sr->sqr", cos_coarse[k], sin_fine[k], out=term)
            wave += term
            whole += seconds
    return Recording(label=profile.label, sample_rate_hz=rate, channels=tuple(channels),
                     samples=data[:, :n], duration_s=float(duration_s))


def build_group_profiles(cfg):
    """Generate the target profiles of cfg.group from a resolved PipelineConfig.

    Group1 yields 7 profiles, Group2 yields 4; the first is always the
    no-lines AllQuiet background.  Each other profile has the group's number
    of signature frequencies, drawn without replacement from LINE_GRID_HZ, so
    every pair of profiles differs in all of its line frequencies.  Each
    signature frequency lands on at least two of the group's fused channels.
    """
    labels, fused, n_lines = GROUPS[cfg.group]
    rng = derive_rng(cfg.seed, "profiles", cfg.group)
    pool = list(rng.permutation(np.array(LINE_GRID_HZ)))

    profiles = [TargetProfile(label=labels[0], lines_per_channel={}, noise_rms=cfg.noise_rms)]
    for label in labels[1:]:
        lines = {cid: [] for cid in fused}
        for _ in range(n_lines):
            freq = int(pool.pop())
            n_ch = int(rng.integers(2, len(fused) + 1))
            picks = rng.choice(len(fused), size=n_ch, replace=False)
            for idx in sorted(picks):
                amp = float(rng.uniform(*LINE_AMPLITUDES))
                lines[fused[idx]].append(SpectralLine(freq, amp, cfg.jitter_hz))
        lines = {cid: lst for cid, lst in lines.items() if lst}
        profiles.append(TargetProfile(label=label, lines_per_channel=lines, noise_rms=cfg.noise_rms))
    return profiles


# ---------------------------------------------------------------------------
# Persistence

def save_recording(path, rec):
    """Binary recording file: one ASCII header line, then the samples rounded to
    little-endian float32, channel after channel.

    A sample that float32 cannot hold (past its range of about 3.4e38, or not
    finite) raises ValidationError naming the file and the channel, before the
    file is opened.
    """
    with np.errstate(over="ignore"):  # a sample past float32's range becomes inf, refused below
        payload = rec.samples.astype("<f4")
    finite = np.isfinite(payload).all(axis=1)
    if not finite.all():
        raise ValidationError(f"{path}: not written: channel {rec.channels[np.argmin(finite)]!r} holds a "
                              "sample outside float32's finite range, in which recordings are stored; "
                              "lower noise_rms or the line amplitudes")
    header = (
        f"{RECORDING_MAGIC} label={rec.label} rate={rec.sample_rate_hz} "
        f"duration={rec.duration_s!r} channels={','.join(rec.channels)}\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(payload)


def load_recording(path, channels):
    """Read the given channel ids of a recording file, in that order.

    Each channel is read into its row of one float32 buffer, which is then
    converted once to a read-only float64 matrix.  A bad header, an older
    SIGREC1 or SIGREC2 file, a rate below 600 Hz or fewer samples than one
    second, a repeated channel id or one outside ROSTER, a file length other
    than the header plus channels times samples times 4 bytes, a channel the
    header lacks, or a nan/inf sample in a channel read raises ParseError
    naming the file and the first such channel.
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        payload = os.fstat(fh.fileno()).st_size - len(header)
        try:
            if not header.endswith(b"\n"):
                raise ParseError(f"{path}: header line is cut")
            fields = header.decode("ascii").split()
            if fields and fields[0] in ("SIGREC1", "SIGREC2"):
                raise ParseError(f"{path}: an older {fields[0]} float64 recording; "
                                 f"run 'synth' again to write {RECORDING_MAGIC} files")
            if not fields or fields[0] != RECORDING_MAGIC:
                raise ParseError(f"{path}: not a {RECORDING_MAGIC} recording file")
            meta = dict(f.split("=", 1) for f in fields[1:])
            label, ids = meta["label"], meta["channels"].split(",")
            rate = int(meta["rate"])
            duration = float(meta["duration"])
            n = int(round(rate * duration))
        except KeyError as exc:
            raise ParseError(f"{path}: header has no {exc.args[0]!r} field") from None
        except (ValueError, OverflowError) as exc:
            raise ParseError(f"{path}: bad header ({exc})") from None
        # a block is one second and must resolve 300 Hz, as synthesis requires
        if rate < 600:
            raise ParseError(f"{path}: rate {rate} Hz is below 600, the least that resolves 300 Hz")
        if n < rate:
            raise ParseError(f"{path}: {n} samples at {rate} Hz is shorter than one second")
        repeated = [cid for cid in dict.fromkeys(ids) if ids.count(cid) > 1]
        if repeated:
            raise ParseError(f"{path}: header repeats channel {repeated[0]!r}")
        unknown = [cid for cid in ids if cid not in ROSTER]
        if unknown:
            raise ParseError(f"{path}: header names channel {unknown[0]!r}, which is not in the roster")
        if payload != 4 * n * len(ids):
            raise ParseError(f"{path}: payload of {payload} bytes, expected {4 * n * len(ids)} "
                             f"({len(ids)} channels of {n} float32 samples)")
        chosen = tuple(channels)
        missing = [cid for cid in chosen if cid not in ids]
        if missing:
            raise ParseError(f"{path}: recording {label!r} has no channel {missing}")
        stored = np.empty((len(chosen), n), dtype="<f4")
        for row, cid in zip(stored, chosen):
            fh.seek(len(header) + 4 * n * ids.index(cid))
            fh.readinto(row)
    finite = np.isfinite(stored).all(axis=1)
    if not finite.all():
        raise ParseError(f"{path}: channel {chosen[np.argmin(finite)]!r} holds non-finite samples")
    samples = stored.astype(np.float64)  # once per recording; the blocks cut from it are many times larger
    samples.flags.writeable = False
    return Recording(label=label, sample_rate_hz=rate, channels=chosen, samples=samples, duration_s=duration)


def save_profiles(path, profiles):
    """Human-editable profile list: whitespace-separated key/value lines."""
    out = ["# target profiles: label, noise floor, and per-channel spectral lines"]
    for p in profiles:
        out.append(f"profile {p.label}")
        out.append(f"noise_rms {p.noise_rms!r}")
        for cid, lines in p.lines_per_channel.items():
            for line in lines:
                out.append(f"line {cid} {line.freq_hz} {line.amplitude!r} {line.jitter_hz!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


def load_profiles(path):
    """Parse a profiles file; a bad line raises ParseError naming it.

    Bad lines include malformed or out-of-range values, a repeated profile
    label and a channel id outside ROSTER.  A file with no profile is an error.
    """
    profiles = {}  # label -> TargetProfile, in file order
    current = None
    for lineno, raw in text_lines(path):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        key, args = parts[0], parts[1:]
        try:
            if key == "profile":
                if len(args) != 1:
                    raise ValidationError("expected: profile <label>")
                if args[0] in profiles:
                    raise ValidationError(f"profile {args[0]!r} is defined twice")
                current = TargetProfile(label=args[0], lines_per_channel={}, noise_rms=0.0)
                profiles[current.label] = current
            elif current is None:
                raise ValidationError(f"{key!r} before any 'profile' line")
            elif key == "noise_rms":
                if len(args) != 1:
                    raise ValidationError("expected: noise_rms <value>")
                # replace() re-runs the profile's own noise_rms check
                current = profiles[current.label] = replace(current, noise_rms=float(args[0]))
            elif key == "line":
                if len(args) != 4:
                    raise ValidationError("expected: line <channel> <freq_hz> <amp> <jitter>")
                if args[0] not in ROSTER:
                    raise ValidationError(f"unknown channel {args[0]!r}; expected one of {', '.join(ROSTER)}")
                line = SpectralLine(int(args[1]), float(args[2]), float(args[3]))
                current.lines_per_channel.setdefault(args[0], []).append(line)
            else:
                raise ValidationError(f"unknown directive {key!r}")
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad number in {key!r} line ({exc})") from None
        except ValidationError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
    if not profiles:
        raise ParseError(f"{path}: no profiles")
    return list(profiles.values())
