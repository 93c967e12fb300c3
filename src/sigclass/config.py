"""Pipeline configuration: one flat key-value file; the output directory is the CLI's --out.

build_config reads the file and checks each line as it reads it, naming a bad
line as '<path>:<line>:'; PipelineConfig then checks the ranges.  Defaults:
selection threshold 1.75, batches of 150 rows, 200 training runs, learn rate
0.005, 80/20 split, 5 trials per target.  The sample rate defaults to a
desk-scale 2000 Hz.  Blocks are exactly one second, so bin i is i Hz at any
rate, but the rate still changes the data: a higher rate raises each line's
spectral SNR, so more bins pass selection (Group1 masks are 77-89 bins at
2000 Hz and 108-125 at 8000 Hz, where selection caps one seed's 130).
"""

import math
import sys
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
        check_array_size(f"duration_s = {self.duration_s!r} at sample_rate_hz = {self.sample_rate_hz}",
                         "a recording", (len(ROSTER), math.ceil(self.duration_s) * self.sample_rate_hz))
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        for name in ("noise_rms", "jitter_hz"):
            if not math.isfinite(getattr(self, name)) or getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be finite and >= 0")
        if self.heatmap_blocks < 1:
            raise ConfigurationError("heatmap_blocks must be >= 1")
        check_array_size(f"heatmap_blocks = {self.heatmap_blocks}", "a recording's block offsets",
                         (self.heatmap_blocks,))
        if self.runs < 1:
            raise ConfigurationError("runs must be >= 1")
        check_array_size(f"runs = {self.runs}", "the run log", (self.runs, 5))
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


def check_array_size(setting, array, shape):
    """Refuse a setting whose array of 8-byte values would pass numpy's largest, sys.maxsize bytes.

    numpy raises ValueError, not MemoryError, for such a shape.  A smaller
    array too large for memory raises MemoryError, which the CLI reports as
    one line too.  Each size is checked against the first array it makes in
    its stage; cli.cmd_rows checks the rows, whose count needs the profiles.
    """
    if 8 * math.prod(shape) > sys.maxsize:
        raise ConfigurationError(f"{setting} is too large: {array} of shape {shape} would pass "
                                 f"numpy's largest array ({sys.maxsize} bytes)")


_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}

# file values are parsed by field type; a tuple field takes comma-separated items
_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


def _parse_value(kind, value):
    """value as a field of type kind; KeyError or ValueError if it is not one."""
    if kind is bool:
        return _BOOL_WORDS[value.lower()]
    if get_origin(kind) is tuple:
        return tuple(get_args(kind)[0](t.strip()) for t in value.split(",") if t.strip())
    return kind(value)


def build_config(path=None):
    """The PipelineConfig of the config file at path, or of the defaults if path is None.

    Each 'key = value' line is parsed where it is read, so a line without
    '=', an unknown key, a key set twice or a value its field cannot take
    raises ConfigurationError starting '<path>:<line>:', as does noise_rms or
    jitter_hz beside a profiles_file, whose profiles set both.  PipelineConfig
    then checks the ranges.
    """
    kwargs, first = {}, {}
    for lineno, text in text_lines(path) if path else ():
        key, sep, value = (t.strip() for t in text.partition("="))
        where = f"{path}:{lineno}:"
        if not sep:
            raise ConfigurationError(f"{where} expected 'key = value'")
        if key not in _FIELD_TYPES:
            raise ConfigurationError(f"{where} unknown config key {key!r}")
        if key in kwargs:
            raise ConfigurationError(f"{where} config key {key!r} is set twice (first on line {first[key]})")
        try:
            kwargs[key], first[key] = _parse_value(_FIELD_TYPES[key], value), lineno
        except (KeyError, ValueError):
            raise ConfigurationError(f"{where} config key {key!r}: bad value {value!r}") from None
    unused = [key for key in kwargs if key in ("noise_rms", "jitter_hz")]  # in file order
    if unused and kwargs.get("profiles_file"):
        raise ConfigurationError(f"{path}:{first[unused[0]]}: config key {unused[0]!r} cannot be set "
                                 "beside profiles_file, whose profiles set it")
    return PipelineConfig(**kwargs)
