"""Synthetic multi-channel recordings with known sub-300 Hz signatures.

Each target class is a TargetProfile: a set of spectral lines per sensor
channel plus a white noise floor.  Recordings are sums of phase-continuous
sinusoids whose frequency wobbles a little from second to second, emulating
run-to-run engine variation, plus Gaussian noise.

A Recording holds one (channels, n) float64 matrix beside its channel ids,
row i being channel i.  A recording file (.rec) is one ASCII header line, then
that matrix as little-endian float64, channel after channel.  A stage reads
only the channels it needs, into the rows of one read-only matrix.
"""

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import LABEL_RULE, ConfigurationError, ParseError, ValidationError, is_label, text_lines
from .rng import derive_rng

RECORDING_MAGIC = "SIGREC2"  # channel-major; a sample-major SIGREC1 file is refused, never misread

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

GROUPS = {
    "Group1": (GROUP1_LABELS, GROUP1_FUSED_CHANNELS),
    "Group2": (GROUP2_LABELS, GROUP2_FUSED_CHANNELS),
}

# Default class-signature sizes keep the selected feature set comfortably
# inside 20..125 bins even when frequency wobble drags neighbor bins along.
DEFAULT_LINES_PER_PROFILE = {"Group1": 5, "Group2": 7}

LINE_GRID_HZ = (5, 296)  # signature lines sit on range(*LINE_GRID_HZ, min_line_spacing_hz)

# signature line amplitudes are drawn uniformly from this range
LINE_AMPLITUDES = (1.0, 2.0)


def synthesize_recording(profile, channels, duration_s, sample_rate_hz, seed):
    """Render a TargetProfile into a Recording of the given channel ids.

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

    for cid in profile.lines_per_channel:
        if cid not in channels:
            raise ConfigurationError(
                f"profile {profile.label!r} references unknown channel {cid!r}"
            )

    rng = np.random.default_rng(seed)
    n_seconds = int(math.ceil(duration_s))
    data = np.zeros((len(channels), n))
    # each line's per-second frequencies, repeated per sample, and its phase:
    # one buffer each, reused by every line
    inst = np.empty((n_seconds, sample_rate_hz))
    phase = np.empty(n)
    for row, cid in zip(data, channels):
        if profile.noise_rms > 0:
            # rng.normal(0.0, noise_rms, n) computes 0.0 + noise_rms * z
            rng.standard_normal(out=row)
            row *= profile.noise_rms
            row += 0.0
        for line in profile.lines_per_channel.get(cid, []):
            phase0 = rng.uniform(0.0, 2.0 * np.pi)
            wobble = rng.normal(0.0, line.jitter_hz, size=n_seconds) if line.jitter_hz > 0 else np.zeros(n_seconds)
            inst[:] = (float(line.freq_hz) + wobble)[:, None]
            # phase[k] integrates the instantaneous frequency up to sample k,
            # so the waveform stays continuous across wobble boundaries
            phase[0] = 0.0
            np.cumsum(inst.reshape(-1)[: n - 1], out=phase[1:])
            # phase0 + 2.0 * np.pi * phase / rate, in that operation order
            phase *= 2.0 * np.pi
            phase /= sample_rate_hz
            phase += phase0
            np.sin(phase, out=phase)
            phase *= line.amplitude
            row += phase
    return Recording(label=profile.label, sample_rate_hz=int(sample_rate_hz), channels=tuple(channels),
                     samples=data, duration_s=float(duration_s))


def build_group_profiles(cfg):
    """Generate the target profiles of cfg.group from a resolved PipelineConfig.

    Group1 yields 7 profiles, Group2 yields 4; the first is always the
    no-lines AllQuiet background.  Each other profile has
    cfg.lines_per_profile signature frequencies, drawn without replacement
    from a grid with step cfg.min_line_spacing_hz, so every pair of profiles
    differs in all of its line frequencies.  Each signature frequency lands
    on at least two of the group's fused channels.
    """
    labels, fused = GROUPS[cfg.group]
    candidates = np.arange(*LINE_GRID_HZ, cfg.min_line_spacing_hz)
    rng = derive_rng(cfg.seed, "profiles", cfg.group)
    pool = list(rng.permutation(candidates))

    profiles = [TargetProfile(label=labels[0], lines_per_channel={}, noise_rms=cfg.noise_rms)]
    for label in labels[1:]:
        lines = {cid: [] for cid in fused}
        for _ in range(cfg.lines_per_profile):
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
    """Binary recording file: one ASCII header line, then the channel-major float64 LE samples."""
    header = (
        f"{RECORDING_MAGIC} label={rec.label} rate={rec.sample_rate_hz} "
        f"duration={rec.duration_s!r} channels={','.join(rec.channels)}\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(rec.samples, dtype="<f8"))  # written straight from its buffer


def load_recording(path, channels=None):
    """Read the given channel ids (all, in header order, when None) of a recording file.

    Each channel is read into its row of one read-only float64 matrix.  A bad
    header, a rate below 600 Hz or fewer samples than one second, a repeated
    channel id or one outside ROSTER, a file length other than the header's
    channels times samples, a channel the header lacks, or a nan/inf sample
    in a channel read raises ParseError naming the file and the first such
    channel.
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        payload = os.fstat(fh.fileno()).st_size - len(header)
        try:
            if not header.endswith(b"\n"):
                raise ParseError(f"{path}: header line is cut")
            fields = header.decode("ascii").split()
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
        if payload != 8 * n * len(ids):
            raise ParseError(f"{path}: payload of {payload} bytes, expected {8 * n * len(ids)} "
                             f"({len(ids)} channels of {n} float64 samples)")
        chosen = tuple(ids if channels is None else channels)
        missing = [cid for cid in chosen if cid not in ids]
        if missing:
            raise ParseError(f"{path}: recording {label!r} has no channel {missing}")
        samples = np.empty((len(chosen), n), dtype="<f8")
        for row, cid in zip(samples, chosen):
            fh.seek(len(header) + 8 * n * ids.index(cid))
            fh.readinto(row)
    finite = np.isfinite(samples).all(axis=1)
    if not finite.all():
        raise ParseError(f"{path}: channel {chosen[np.argmin(finite)]!r} holds non-finite samples")
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
