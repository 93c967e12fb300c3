"""Pipeline configuration: flat key-value file plus CLI overrides.

Defaults: selection threshold 1.75, batches of 150 rows, 200 training runs,
learn rate 0.005, 80/20 split, 5 trials per target.  The sample rate defaults
to a desk-scale 2000 Hz.  Blocks are exactly one second, so bin i is i Hz at
any rate, but the rate still changes the data: a higher rate raises each
line's spectral SNR, so more bins pass selection (Group1 masks are 77-89 bins
at 2000 Hz and 108-130 at 8000 Hz).
"""

from dataclasses import dataclass, asdict

from .errors import ConfigurationError
from .fusion import FusionWeights, default_max_classes_per_bin
from .synthgen import DEFAULT_LINES_PER_PROFILE, GROUPS, default_roster


@dataclass
class PipelineConfig:
    group: str = "Group2"
    seed: int = 0
    out_dir: str = "out"
    # synthesis
    sample_rate_hz: int = 2000
    duration_s: float = 12.0
    trials: int = 5
    noise_rms: float = 3.5
    jitter_hz: float = 0.5
    min_line_spacing_hz: int = 3
    lines_per_profile: int = 0      # 0 -> per-group default
    profiles_file: str = ""        # empty -> generate profiles from the group table
    # spectra / rows
    blocks_per_recording: int = 0  # 0 -> sized so the row count lands near 1000
    heatmap_blocks: int = 20
    # fusion / selection
    fusion_channels: tuple = ()    # empty -> per-group default subset
    fusion_weights: tuple = ()     # empty -> uniform
    threshold: float = 1.75
    max_classes_per_bin: int = 0   # 0 -> ceil(T/2) - 1 with floor 1
    # training
    train_fraction: float = 0.8
    batch_size: int = 150
    runs: int = 200
    learn_rate: float = 0.005
    normalize_rows: bool = True
    stratified: bool = False

    def __post_init__(self):
        if self.group not in GROUPS:
            raise ConfigurationError(f"unknown group {self.group!r}; expected one of {sorted(GROUPS)}")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        if self.threshold <= 1.0:
            raise ConfigurationError("threshold must be > 1 (1.5 to 2 works well)")
        if not (0 < self.train_fraction < 1):
            raise ConfigurationError("train_fraction must be in (0, 1)")
        if self.runs < 1:
            raise ConfigurationError("runs must be >= 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        known = {ch.id for ch in default_roster()}
        unknown = [cid for cid in self.fusion_channels if cid not in known]
        if unknown:
            raise ConfigurationError(
                f"unknown fusion channels {unknown}; expected ids from {sorted(known)}"
            )

    @property
    def labels(self):
        return list(GROUPS[self.group][0])

    @property
    def fused_channels(self):
        if self.fusion_channels:
            return list(self.fusion_channels)
        return list(GROUPS[self.group][1])

    @property
    def resolved_lines_per_profile(self):
        return self.lines_per_profile or DEFAULT_LINES_PER_PROFILE[self.group]

    @property
    def resolved_blocks_per_recording(self):
        if self.blocks_per_recording:
            return self.blocks_per_recording
        return max(1, round(1000 / (len(self.labels) * self.trials)))

    @property
    def resolved_max_classes_per_bin(self):
        return self.max_classes_per_bin or default_max_classes_per_bin(len(self.labels))

    def fusion(self):
        channels = self.fused_channels
        if self.fusion_weights:
            if len(self.fusion_weights) != len(channels):
                raise ConfigurationError(
                    f"{len(self.fusion_weights)} fusion weights for {len(channels)} channels"
                )
            weights = {cid: float(w) for cid, w in zip(channels, self.fusion_weights)}
            return FusionWeights(weights=weights, selected_channels=channels)
        return FusionWeights.uniform(channels)

    def resolved_dict(self):
        """Fully resolved values, for the run manifests."""
        d = asdict(self)
        d["fusion_channels"] = self.fused_channels
        d["fusion_weights"] = [self.fusion().weights[c] for c in self.fused_channels]
        d["lines_per_profile"] = self.resolved_lines_per_profile
        d["blocks_per_recording"] = self.resolved_blocks_per_recording
        d["max_classes_per_bin"] = self.resolved_max_classes_per_bin
        return d


_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}

_PARSERS = {
    "group": str,
    "seed": int,
    "out_dir": str,
    "sample_rate_hz": int,
    "duration_s": float,
    "trials": int,
    "noise_rms": float,
    "jitter_hz": float,
    "min_line_spacing_hz": int,
    "lines_per_profile": int,
    "profiles_file": str,
    "blocks_per_recording": int,
    "heatmap_blocks": int,
    "fusion_channels": lambda v: tuple(t.strip() for t in v.split(",") if t.strip()),
    "fusion_weights": lambda v: tuple(float(t) for t in v.split(",") if t.strip()),
    "threshold": float,
    "max_classes_per_bin": int,
    "train_fraction": float,
    "batch_size": int,
    "runs": int,
    "learn_rate": float,
    "normalize_rows": None,
    "stratified": None,
}


def _parse_bool(key, value):
    word = value.strip().lower()
    if word not in _BOOL_WORDS:
        raise ConfigurationError(f"config key {key!r}: expected true/false, got {value!r}")
    return _BOOL_WORDS[word]


def read_config_file(path):
    """Parse 'key = value' lines; '#' starts a comment, blank lines are fine."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (t.strip() for t in text.split("=", 1))
            if key not in _PARSERS:
                raise ConfigurationError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = value
    return values


def build_config(file_values=None, **overrides):
    """PipelineConfig from raw string file values plus typed overrides."""
    kwargs = {}
    for key, value in (file_values or {}).items():
        parser = _PARSERS[key]
        try:
            kwargs[key] = _parse_bool(key, value) if parser is None else parser(value)
        except (ValueError, TypeError):
            raise ConfigurationError(f"config key {key!r}: bad value {value!r}") from None
    for key, value in overrides.items():
        if value is not None:
            kwargs[key] = value
    return PipelineConfig(**kwargs)
