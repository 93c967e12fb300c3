"""Pipeline configuration: one flat key-value file; the CLI adds only the output directory.

Defaults: selection threshold 1.75, batches of 150 rows, 200 training runs,
learn rate 0.005, 80/20 split, 5 trials per target.  The sample rate defaults
to a desk-scale 2000 Hz.  Blocks are exactly one second, so bin i is i Hz at
any rate, but the rate still changes the data: a higher rate raises each
line's spectral SNR, so more bins pass selection (Group1 masks are 77-89 bins
at 2000 Hz and 108-125 at 8000 Hz, where selection caps one seed's 130).
"""

import math
from dataclasses import dataclass, fields
from typing import get_args, get_origin

from .errors import ConfigurationError, text_lines
from .synthgen import GROUPS, ROSTER


@dataclass
class PipelineConfig:
    """Every pipeline setting, range-checked and resolved on construction.

    A 0 or empty default takes its group value here.  Resolution is
    idempotent, so `PipelineConfig(**asdict(cfg)) == cfg`.
    """

    group: str = "Group2"
    seed: int = 0
    out_dir: str = "out"
    # synthesis
    sample_rate_hz: int = 2000
    duration_s: float = 12.0
    trials: int = 5
    noise_rms: float = 3.5
    jitter_hz: float = 0.5
    profiles_file: str = ""        # empty -> generate profiles from the group table
    # spectra / rows
    blocks_per_recording: int = 0  # 0 -> sized so the row count lands near 1000
    heatmap_blocks: int = 20
    # fusion / selection
    fusion_channels: tuple[str, ...] = ()    # empty -> per-group default subset
    fusion_weights: tuple[float, ...] = ()   # empty -> uniform
    threshold: float = 1.75
    # training
    train_fraction: float = 0.8
    batch_size: int = 150
    runs: int = 200
    learn_rate: float = 0.005
    normalize_rows: bool = True

    def __post_init__(self):
        if self.group not in GROUPS:
            raise ConfigurationError(f"unknown group {self.group!r}; expected one of {sorted(GROUPS)}")
        labels, group_channels, _ = GROUPS[self.group]
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        if not math.isfinite(self.threshold) or self.threshold <= 1.0:
            raise ConfigurationError("threshold must be finite and > 1 (1.5 to 2 works well)")
        if not (0 < self.train_fraction < 1):
            raise ConfigurationError("train_fraction must be in (0, 1)")
        if not math.isfinite(self.duration_s) or self.duration_s < 1:
            raise ConfigurationError("duration_s must be finite and >= 1 second")
        if self.sample_rate_hz < 600:
            raise ConfigurationError("sample_rate_hz must be >= 600 so 300 Hz stays below Nyquist")
        try:
            n_samples = self.duration_s * self.sample_rate_hz
            whole = abs(n_samples - round(n_samples)) <= 1e-9
        except OverflowError:  # a rate past float range, or a product that rounds to inf
            raise ConfigurationError("duration_s * sample_rate_hz overflows a float sample count") from None
        if not whole:
            raise ConfigurationError("duration_s * sample_rate_hz must be an integer sample count")
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        for name in ("noise_rms", "jitter_hz"):
            if not math.isfinite(getattr(self, name)) or getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be finite and >= 0")
        if self.heatmap_blocks < 1:
            raise ConfigurationError("heatmap_blocks must be >= 1")
        if self.runs < 1:
            raise ConfigurationError("runs must be >= 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if not math.isfinite(self.learn_rate) or self.learn_rate <= 0:
            raise ConfigurationError("learn_rate must be finite and > 0")
        if self.blocks_per_recording < 0:
            raise ConfigurationError("blocks_per_recording must be >= 0 (0 picks the default)")
        self.blocks_per_recording = (
            self.blocks_per_recording or max(1, round(1000 / (len(labels) * self.trials)))
        )

        channels = tuple(self.fusion_channels) or tuple(group_channels)
        unknown = [cid for cid in channels if cid not in ROSTER]
        if unknown:
            raise ConfigurationError(
                f"unknown fusion channels {unknown}; expected ids from {sorted(ROSTER)}"
            )
        if len(set(channels)) != len(channels):
            raise ConfigurationError(f"fusion channels {list(channels)} name a channel twice")
        weights = tuple(float(w) for w in self.fusion_weights) or (1.0,) * len(channels)
        if len(weights) != len(channels):
            raise ConfigurationError(f"{len(weights)} fusion weights for {len(channels)} channels")
        if not all(math.isfinite(w) and w >= 0 for w in weights) or sum(weights) <= 0:
            raise ConfigurationError("fusion weights must be finite and >= 0, and not all zero")
        self.fusion_channels, self.fusion_weights = channels, weights


_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}

# file values are parsed by field type; a tuple field takes comma-separated items
_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


def _parse_value(key, value):
    kind = _FIELD_TYPES[key]
    if kind is bool:
        word = value.strip().lower()
        if word not in _BOOL_WORDS:
            raise ConfigurationError(f"config key {key!r}: expected true/false, got {value!r}")
        return _BOOL_WORDS[word]
    try:
        if get_origin(kind) is tuple:
            item = get_args(kind)[0]
            return tuple(item(t.strip()) for t in value.split(",") if t.strip())
        return kind(value)
    except (ValueError, TypeError):
        raise ConfigurationError(f"config key {key!r}: bad value {value!r}") from None


def read_config_file(path):
    """Parse 'key = value' lines; '#' starts a comment, blank lines are fine, a key may appear once."""
    values, first = {}, {}
    for lineno, raw in text_lines(path):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (t.strip() for t in text.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigurationError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigurationError(f"{path}:{lineno}: config key {key!r} is set twice (first on line {first[key]})")
        values[key], first[key] = value, lineno
    return values


def build_config(file_values=None, out_dir=None):
    """PipelineConfig from raw string file values; an out_dir given (the --out path) wins over the file's."""
    kwargs = {key: _parse_value(key, value) for key, value in (file_values or {}).items()}
    if out_dir is not None:
        kwargs["out_dir"] = out_dir
    return PipelineConfig(**kwargs)
