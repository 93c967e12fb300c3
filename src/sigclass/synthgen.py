"""Synthetic multi-channel recordings with known sub-300 Hz signatures.

Each target class is a TargetProfile: a set of spectral lines per sensor
channel plus a white noise floor.  Recordings are sums of phase-continuous
sinusoids whose frequency wobbles a little from second to second, emulating
run-to-run engine variation, plus Gaussian noise.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, ParseError, ValidationError
from .rng import derive_rng

SENSOR_KINDS = ("microphone", "geophone", "accelerometer", "magnetometer")

RECORDING_MAGIC = "SIGREC1"


@dataclass(frozen=True)
class SensorChannel:
    id: str
    kind: str
    placement: str = ""

    def __post_init__(self):
        if self.kind not in SENSOR_KINDS:
            raise ValidationError(f"unknown sensor kind {self.kind!r}")


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
        if not self.label or any(ch.isspace() or ch == "," for ch in self.label):
            raise ValidationError(f"label {self.label!r} must be a token without spaces or commas")
        if not math.isfinite(self.noise_rms) or self.noise_rms < 0:
            raise ValidationError("noise_rms must be finite and >= 0")


@dataclass
class Recording:
    """Multi-channel time series; all channels share one clock and length."""

    label: str
    sample_rate_hz: int
    samples: dict  # channel id -> float64 array
    duration_s: float

    @property
    def n_samples(self):
        return next(iter(self.samples.values())).shape[0]

    @property
    def channel_ids(self):
        return list(self.samples.keys())


def default_roster():
    """The 13-channel measurement setup the synthetic data mirrors."""
    return [
        SensorChannel("mic_front_10m", "microphone", "10m front"),
        SensorChannel("mic_front_5m", "microphone", "5m front"),
        SensorChannel("mic_on_target", "microphone", "on target"),
        SensorChannel("mic_side_10m", "microphone", "10m side"),
        SensorChannel("geo_front_10m", "geophone", "10m front"),
        SensorChannel("geo_front_5m", "geophone", "5m front"),
        SensorChannel("accel_front_10m", "accelerometer", "10m front"),
        SensorChannel("accel_front_5m", "accelerometer", "5m front"),
        SensorChannel("accel_engine", "accelerometer", "on engine"),
        SensorChannel("accel_roof", "accelerometer", "on roof"),
        SensorChannel("mag_x_side_10m", "magnetometer", "10m side, x axis"),
        SensorChannel("mag_y_side_10m", "magnetometer", "10m side, y axis"),
        SensorChannel("mag_z_side_10m", "magnetometer", "10m side, z axis"),
    ]


GROUP1_LABELS = [
    "AllQuiet", "HondaCivic", "ToyotaCorolla", "FordF150",
    "DieselVan", "FordFusion", "AcuraMDX",
]
GROUP2_LABELS = ["AllQuiet", "HondaGenerator", "FordF150", "Saab83"]

# Channel subsets whose spectra actually carry class signatures; the fusion
# stage averages over exactly these by default.
GROUP1_FUSED_CHANNELS = ["mic_front_10m", "mic_side_10m", "geo_front_10m", "accel_front_10m"]
GROUP2_FUSED_CHANNELS = ["geo_front_10m", "accel_front_5m", "mag_z_side_10m"]

GROUPS = {
    "Group1": (GROUP1_LABELS, GROUP1_FUSED_CHANNELS),
    "Group2": (GROUP2_LABELS, GROUP2_FUSED_CHANNELS),
}

# Default class-signature sizes keep the selected feature set comfortably
# inside 20..125 bins even when frequency wobble drags neighbor bins along.
DEFAULT_LINES_PER_PROFILE = {"Group1": 5, "Group2": 7}


def synthesize_recording(profile, setup, duration_s, sample_rate_hz, seed):
    """Render a TargetProfile into a multi-channel Recording.

    Each channel is the sum of its spectral lines plus white Gaussian noise of
    std profile.noise_rms.  A line contributes amplitude * sin(phase) where
    the instantaneous frequency is freq_hz plus a per-second Gaussian wobble
    (std jitter_hz) and the phase is continuous across seconds.  All draws
    come from one generator seeded by `seed`, so output is bit-reproducible.
    """
    if duration_s < 1:
        raise ValidationError("duration_s must be >= 1 second")
    if sample_rate_hz < 600:
        raise ValidationError("sample_rate_hz must be >= 600 so 300 Hz stays below Nyquist")
    n_float = duration_s * sample_rate_hz
    n = int(round(n_float))
    if abs(n_float - n) > 1e-9:
        raise ValidationError("duration_s * sample_rate_hz must be an integer sample count")

    channel_ids = {ch.id for ch in setup}
    for cid in profile.lines_per_channel:
        if cid not in channel_ids:
            raise ConfigurationError(
                f"profile {profile.label!r} references unknown channel {cid!r}"
            )

    rng = np.random.default_rng(seed)
    n_seconds = int(math.ceil(duration_s))
    samples = {}
    for ch in setup:
        data = rng.normal(0.0, profile.noise_rms, size=n) if profile.noise_rms > 0 else np.zeros(n)
        for line in profile.lines_per_channel.get(ch.id, []):
            if not math.isfinite(line.amplitude):
                raise ValidationError("non-finite line amplitude")
            phase0 = rng.uniform(0.0, 2.0 * np.pi)
            wobble = rng.normal(0.0, line.jitter_hz, size=n_seconds) if line.jitter_hz > 0 else np.zeros(n_seconds)
            inst = np.repeat(float(line.freq_hz) + wobble, sample_rate_hz)[:n]
            # phase[k] integrates the instantaneous frequency up to sample k,
            # so the waveform stays continuous across wobble boundaries
            phase = np.empty(n)
            phase[0] = 0.0
            np.cumsum(inst[:-1], out=phase[1:])
            phase = phase0 + 2.0 * np.pi * phase / sample_rate_hz
            data = data + line.amplitude * np.sin(phase)
        samples[ch.id] = data
    return Recording(
        label=profile.label,
        sample_rate_hz=int(sample_rate_hz),
        samples=samples,
        duration_s=float(duration_s),
    )


def build_group_profiles(group, seed, lines_per_profile=None, min_line_spacing_hz=3,
                         noise_rms=3.5, jitter_hz=0.5, amp_lo=1.0, amp_hi=2.0):
    """Generate the target profiles for one classification task.

    Group1 yields 7 profiles, Group2 yields 4; the first is always the
    no-lines AllQuiet background.  Signature frequencies are drawn without
    replacement from a grid with step `min_line_spacing_hz`, so every pair of
    profiles differs in all of its line frequencies.  Each signature
    frequency lands on at least two of the group's fused channels.
    """
    if group not in GROUPS:
        raise ConfigurationError(f"unknown group {group!r}; expected one of {sorted(GROUPS)}")
    labels, fused = GROUPS[group]
    if lines_per_profile is None:
        lines_per_profile = DEFAULT_LINES_PER_PROFILE[group]
    if lines_per_profile < 3:
        raise ConfigurationError("need at least 3 lines per profile")
    if min_line_spacing_hz < 1:
        raise ConfigurationError("min_line_spacing_hz must be >= 1")

    candidates = np.arange(5, 296, int(min_line_spacing_hz))
    needed = (len(labels) - 1) * lines_per_profile
    if needed > len(candidates):
        raise ConfigurationError(
            f"cannot place {needed} distinct lines with spacing {min_line_spacing_hz} Hz"
        )
    rng = derive_rng(seed, "profiles", group)
    pool = list(rng.permutation(candidates))

    profiles = [TargetProfile(label=labels[0], lines_per_channel={}, noise_rms=noise_rms)]
    for label in labels[1:]:
        lines = {cid: [] for cid in fused}
        for _ in range(lines_per_profile):
            freq = int(pool.pop())
            n_ch = int(rng.integers(2, len(fused) + 1))
            picks = rng.choice(len(fused), size=n_ch, replace=False)
            for idx in sorted(picks):
                amp = float(rng.uniform(amp_lo, amp_hi))
                lines[fused[idx]].append(SpectralLine(freq, amp, jitter_hz))
        lines = {cid: lst for cid, lst in lines.items() if lst}
        profiles.append(TargetProfile(label=label, lines_per_channel=lines, noise_rms=noise_rms))
    return profiles


# ---------------------------------------------------------------------------
# Persistence

def save_recording(path, rec):
    """Binary recording file: one ASCII header line, then float64 LE sample rows."""
    ids = rec.channel_ids
    header = (
        f"{RECORDING_MAGIC} label={rec.label} rate={rec.sample_rate_hz} "
        f"duration={rec.duration_s!r} channels={','.join(ids)}\n"
    )
    block = np.column_stack([rec.samples[cid] for cid in ids]).astype("<f8")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(block.tobytes())


def load_recording(path):
    """Read a recording file; a bad header or payload raises ParseError naming the file."""
    with open(path, "rb") as fh:
        header = fh.readline()
        payload = fh.read()
    try:
        fields = header.decode("ascii").split()
        if not fields or fields[0] != RECORDING_MAGIC:
            raise ParseError(f"{path}: not a recording file", line=1)
        meta = dict(f.split("=", 1) for f in fields[1:])
        label, ids = meta["label"], meta["channels"].split(",")
        rate = int(meta["rate"])
        duration = float(meta["duration"])
        n = int(round(rate * duration))
    except KeyError as exc:
        raise ParseError(f"{path}: header has no {exc.args[0]!r} field", line=1) from None
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: bad header ({exc})", line=1) from None
    if len(payload) % 8:
        raise ParseError(f"{path}: payload of {len(payload)} bytes is not whole float64 values")
    data = np.frombuffer(payload, dtype="<f8")
    if data.size != n * len(ids):
        raise ParseError(f"{path}: payload holds {data.size} values, expected {n * len(ids)}")
    if not np.isfinite(data).all():
        raise ParseError(f"{path}: payload holds non-finite samples")
    block = data.reshape(n, len(ids))
    samples = {cid: block[:, j].copy() for j, cid in enumerate(ids)}
    return Recording(label=label, sample_rate_hz=rate, samples=samples, duration_s=duration)


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
    profiles = []
    current = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split()
            key = parts[0]
            if key == "profile":
                if len(parts) != 2:
                    raise ParseError("expected: profile <label>", line=lineno)
                current = TargetProfile(label=parts[1], lines_per_channel={}, noise_rms=0.0)
                profiles.append(current)
            elif current is None:
                raise ParseError(f"{key!r} before any 'profile' line", line=lineno)
            elif key == "noise_rms":
                try:  # replace() re-runs the profile's own noise_rms check
                    profiles[-1] = current = replace(current, noise_rms=float(parts[1]))
                except (IndexError, ValueError):
                    raise ParseError("expected: noise_rms <value>", line=lineno) from None
                except ValidationError as exc:
                    raise ParseError(str(exc), line=lineno) from None
            elif key == "line":
                if len(parts) != 5:
                    raise ParseError("expected: line <channel> <freq_hz> <amp> <jitter>", line=lineno)
                cid = parts[1]
                try:
                    line = SpectralLine(int(parts[2]), float(parts[3]), float(parts[4]))
                except ValueError:
                    raise ParseError(f"bad line numbers {parts[2:]}", line=lineno) from None
                current.lines_per_channel.setdefault(cid, []).append(line)
            else:
                raise ParseError(f"unknown directive {key!r}", line=lineno)
    return profiles
