import pytest

from sigclass.config import PipelineConfig, build_config, read_config_file
from sigclass.errors import ConfigurationError


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
    assert len(g1.labels) == 7 and len(g2.labels) == 4
    assert g1.fused_channels == ["mic_front_10m", "mic_side_10m", "geo_front_10m", "accel_front_10m"]
    assert g2.fused_channels == ["geo_front_10m", "accel_front_5m", "mag_z_side_10m"]
    assert g1.resolved_max_classes_per_bin == 3
    assert g2.resolved_max_classes_per_bin == 1
    # row counts land near 1000 at the default 5 trials
    assert g1.resolved_blocks_per_recording * 7 * 5 == pytest.approx(1000, abs=50)
    assert g2.resolved_blocks_per_recording * 4 * 5 == 1000


def test_uniform_fusion_weights_by_default():
    fw = PipelineConfig(group="Group2").fusion()
    assert fw.selected_channels == ["geo_front_10m", "accel_front_5m", "mag_z_side_10m"]
    assert all(w == 1.0 for w in fw.weights.values())


def test_explicit_fusion_weights_must_align():
    cfg = PipelineConfig(fusion_channels=("geo_front_10m", "mic_side_10m"), fusion_weights=(1.0,))
    with pytest.raises(ConfigurationError):
        cfg.fusion()


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
    cfg = build_config(read_config_file(path))
    assert cfg.group == "Group1"
    assert cfg.seed == 42
    assert cfg.threshold == 1.6
    assert cfg.normalize_rows is False
    assert cfg.fusion_channels == ("geo_front_10m", "mic_side_10m")
    assert cfg.fusion().weights == {"geo_front_10m": 1.0, "mic_side_10m": 2.5}


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("flux_capacitor = 1\n")
    with pytest.raises(ConfigurationError):
        read_config_file(path)


def test_bad_value_rejected(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("runs = many\n")
    with pytest.raises(ConfigurationError):
        build_config(read_config_file(path))


def test_bad_boolean_rejected(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("normalize_rows = maybe\n")
    with pytest.raises(ConfigurationError):
        build_config(read_config_file(path))


def test_invalid_group_rejected():
    with pytest.raises(ConfigurationError):
        PipelineConfig(group="Group9")


def test_invalid_threshold_rejected():
    with pytest.raises(ConfigurationError):
        PipelineConfig(threshold=0.9)


def test_overrides_beat_file_values(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("seed = 1\nruns = 7\n")
    cfg = build_config(read_config_file(path), seed=99)
    assert cfg.seed == 99
    assert cfg.runs == 7


def test_resolved_dict_is_complete():
    d = PipelineConfig(group="Group2").resolved_dict()
    assert d["blocks_per_recording"] == 50
    assert d["max_classes_per_bin"] == 1
    assert d["fusion_channels"] == ["geo_front_10m", "accel_front_5m", "mag_z_side_10m"]
    assert d["fusion_weights"] == [1.0, 1.0, 1.0]
