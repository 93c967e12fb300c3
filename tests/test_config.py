import re
from dataclasses import asdict, fields
from pathlib import Path

import pytest

from sigclass.config import PipelineConfig, build_config
from sigclass.errors import ConfigurationError
from sigclass.synthgen import GROUPS


def test_pinned_defaults():
    cfg = PipelineConfig()
    assert cfg.threshold == 1.75
    assert 1.5 <= cfg.threshold <= 2.0
    assert cfg.batch_size == 150
    assert cfg.runs == 200
    assert cfg.learn_rate == 0.005
    assert cfg.train_fraction == 0.8
    assert cfg.trials == 5
    assert cfg.sample_rate_hz == 2000
    assert cfg.normalize_rows is True


def test_group_dependent_defaults():
    g1 = PipelineConfig(group="Group1")
    g2 = PipelineConfig(group="Group2")
    assert len(GROUPS[g1.group][0]) == 7 and len(GROUPS[g2.group][0]) == 4
    assert g1.fusion_channels == ("mic_front_10m", "mic_side_10m", "geo_front_10m", "accel_front_10m")
    assert g2.fusion_channels == ("geo_front_10m", "accel_front_5m", "mag_z_side_10m")
    # the selection guard comes from the labels in the rows (see test_fusion), so the config holds none
    assert "max_classes_per_bin" not in {f.name for f in fields(PipelineConfig)}
    # row counts land near 1000 at the default 5 trials
    assert g1.blocks_per_recording * 7 * 5 == pytest.approx(1000, abs=50)
    assert g2.blocks_per_recording * 4 * 5 == 1000


def test_uniform_fusion_weights_by_default():
    cfg = PipelineConfig(group="Group2")
    assert cfg.fusion_channels == ("geo_front_10m", "accel_front_5m", "mag_z_side_10m")
    assert cfg.fusion_weights == (1.0, 1.0, 1.0)


def test_explicit_fusion_weights_must_align():
    with pytest.raises(ConfigurationError):
        PipelineConfig(fusion_channels=("geo_front_10m", "mic_side_10m"), fusion_weights=(1.0,))


def test_config_file_parsing(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(
        "# comment\n"
        "group = Group1\n"
        "seed = 42   # trailing comment\n"
        "threshold = 1.6\n"
        "normalize_rows = false\n"
        "fusion_channels = geo_front_10m, mic_side_10m\n"
        "fusion_weights = 1.0, 2.5\n"
    )
    cfg = build_config(path)
    assert cfg.group == "Group1"
    assert cfg.seed == 42
    assert cfg.threshold == 1.6
    assert cfg.normalize_rows is False
    assert cfg.fusion_channels == ("geo_front_10m", "mic_side_10m")
    assert dict(zip(cfg.fusion_channels, cfg.fusion_weights)) == {"geo_front_10m": 1.0, "mic_side_10m": 2.5}


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("flux_capacitor = 1\n")
    with pytest.raises(ConfigurationError):
        build_config(path)


def test_every_config_key_is_documented():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    undocumented = [f.name for f in fields(PipelineConfig) if not re.search(rf"\b{f.name}\b", readme)]
    assert undocumented == []


def test_key_set_twice_rejected(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("runs = 5\n# the last value must not win silently\nruns = 7\n")
    with pytest.raises(ConfigurationError) as err:
        build_config(path)
    assert str(err.value) == f"{path}:3: config key 'runs' is set twice (first on line 1)"


def test_bad_value_rejected(tmp_path):
    # each bad line is line 3, after a commented line and a blank one, and the error names it
    path = tmp_path / "cfg.txt"
    for line, message in [
        ("runs = many", "config key 'runs': bad value 'many'"),
        ("threshold = high", "config key 'threshold': bad value 'high'"),
        ("fusion_weights = 1, x", "config key 'fusion_weights': bad value '1, x'"),
        ("runs 5", "expected 'key = value'"),
        ("flux_capacitor = 1", "unknown config key 'flux_capacitor'"),
        ("seed = 4", "config key 'seed' is set twice (first on line 1)"),
    ]:
        path.write_text(f"seed = 3  # a comment\n\n{line}\n")
        with pytest.raises(ConfigurationError) as err:
            build_config(path)
        assert str(err.value) == f"{path}:3: {message}"


def test_bad_boolean_rejected(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("normalize_rows = maybe\n")
    with pytest.raises(ConfigurationError) as err:
        build_config(path)
    assert str(err.value) == f"{path}:1: config key 'normalize_rows': bad value 'maybe'"


def test_invalid_group_rejected():
    with pytest.raises(ConfigurationError):
        PipelineConfig(group="Group9")


def test_invalid_threshold_rejected():
    with pytest.raises(ConfigurationError):
        PipelineConfig(threshold=0.9)


@pytest.mark.parametrize("key, value", [("duration_s", "1e308"), ("sample_rate_hz", "9" * 400)],
                         ids=["inf-product", "rate-past-float"])
def test_sample_count_past_float_range_rejected(tmp_path, key, value):
    path = tmp_path / "cfg.txt"
    path.write_text(f"{key} = {value}\n")
    with pytest.raises(ConfigurationError, match="overflows a float sample count"):
        build_config(path)


def test_out_dir_is_an_unknown_key(tmp_path):
    # --out alone names the output directory
    path = tmp_path / "cfg.txt"
    path.write_text("runs = 7\nout_dir = file_out\n")
    with pytest.raises(ConfigurationError) as err:
        build_config(path)
    assert str(err.value) == f"{path}:2: unknown config key 'out_dir'"
    assert "out_dir" not in {f.name for f in fields(PipelineConfig)}


def test_resolution_is_idempotent():
    # resolving resolved values changes nothing, so a manifest's config replays as itself
    explicit = PipelineConfig(
        group="Group1", fusion_channels=("geo_front_10m", "mic_side_10m"), fusion_weights=(1, 2.5),
        blocks_per_recording=7,
    )
    for cfg in (PipelineConfig(group="Group1"), PipelineConfig(group="Group2"), explicit):
        assert PipelineConfig(**asdict(cfg)) == cfg
    assert explicit.fusion_weights == (1.0, 2.5)
    d = asdict(PipelineConfig(group="Group2"))
    assert d["blocks_per_recording"] == 50
    assert d["fusion_channels"] == ("geo_front_10m", "accel_front_5m", "mag_z_side_10m")
    assert d["fusion_weights"] == (1.0, 1.0, 1.0)
