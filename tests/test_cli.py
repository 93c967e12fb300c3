import json

import numpy as np
import pytest

from sigclass import cli, dnn, fusion, trainer
from sigclass.spectral import N_BINS

SMOKE_CONFIG = """
# desk-scale smoke setup
group = Group2
seed = 7
sample_rate_hz = 2000
duration_s = 2.0
trials = 2
blocks_per_recording = 5
batch_size = 16
runs = 3
"""


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One synth+rows run shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("smoke")
    cfg_path = root / "config.txt"
    cfg_path.write_text(SMOKE_CONFIG)
    out = root / "out"
    assert cli.main(["--config", str(cfg_path), "--out", str(out), "synth"]) == 0
    assert cli.main(["--config", str(cfg_path), "--out", str(out), "rows"]) == 0
    return cfg_path, out


def run(cfg_path, out, *argv):
    return cli.main(["--config", str(cfg_path), "--out", str(out), *argv])


def test_synth_writes_recordings_and_manifest(smoke):
    cfg_path, out = smoke
    recs = sorted(p.name for p in (out / "recordings").glob("*.rec"))
    assert len(recs) == 8  # 4 labels x 2 trials
    manifest = json.loads((out / "synth_manifest.json").read_text())
    assert len(manifest["recordings"]) == 8
    labels = {e["label"] for e in manifest["recordings"]}
    assert labels == {"AllQuiet", "HondaGenerator", "FordF150", "Saab83"}
    assert (out / "profiles.txt").exists()
    assert manifest["config"]["sample_rate_hz"] == 2000


def test_rows_csv_arity(smoke):
    _, out = smoke
    lines = [
        l for l in (out / "rows.csv").read_text().splitlines() if not l.startswith("#")
    ]
    assert len(lines) == 40  # 8 recordings x 5 blocks
    assert all(len(l.split(",")) == N_BINS + 1 for l in lines)


def test_train_and_eval_roundtrip(smoke, capsys):
    cfg_path, out = smoke
    assert run(cfg_path, out, "train") == 0
    printed = capsys.readouterr().out
    assert "mask size:" in printed and "accuracy" in printed
    for name in ("mask.txt", "selection_report.csv", "runlog.csv",
                 "confusion.csv", "checkpoint.bin", "train_manifest.json"):
        assert (out / name).exists(), name

    runlog = (out / "runlog.csv").read_text().splitlines()
    assert len(runlog) == 1 + 3  # header + runs

    params, mask_bins, vocab, normalize = dnn.load_checkpoint(out / "checkpoint.bin")
    assert vocab[0] == "AllQuiet" and len(vocab) == 4
    assert params.input_dim == len(mask_bins)
    assert normalize is True

    assert run(cfg_path, out, "eval") == 0
    assert (out / "eval_confusion.csv").exists()
    eval_manifest = json.loads((out / "eval_manifest.json").read_text())
    assert 0.0 <= eval_manifest["accuracy"] <= 1.0


def test_train_runs_override(smoke, tmp_path):
    cfg_path, out = smoke
    scratch = tmp_path / "out2"
    # reuse the rows file; write model artifacts to a scratch dir
    assert cli.main([
        "--config", str(cfg_path), "--out", str(scratch),
        "train", "--runs", "5", "--rows", str(out / "rows.csv"),
    ]) == 0
    runlog = (scratch / "runlog.csv").read_text().splitlines()
    assert len(runlog) == 1 + 5


def test_heatmap_output(smoke):
    cfg_path, out = smoke
    assert run(cfg_path, out, "heatmap", "Saab83") == 0
    pgm = (out / "heatmap_Saab83.pgm").read_text().splitlines()
    assert pgm[0] == "P2"
    width, height = map(int, pgm[1].split())
    assert width == N_BINS
    assert height == 13 * 2 * 20  # channels x trials x heatmap blocks
    assert (out / "heatmap_Saab83.csv").exists()


def test_heatmap_unknown_label_usage_error(smoke, capsys):
    cfg_path, out = smoke
    assert run(cfg_path, out, "heatmap", "NoSuchThing") == 1
    assert "no recordings" in capsys.readouterr().err


def test_rows_before_synth_is_data_error(tmp_path, capsys):
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(SMOKE_CONFIG)
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "fresh"), "rows"]) == 2
    assert "synth" in capsys.readouterr().err


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text("group = Group2\nwarp_drive = on\n")
    assert cli.main(["--config", str(cfg_path), "synth"]) == 1
    assert "warp_drive" in capsys.readouterr().err


def test_bad_config_value_is_usage_error(tmp_path):
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text("seed = notanint\n")
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "o"), "synth"]) == 1


@pytest.mark.parametrize("line, command", [
    ("runs = 0", "train"),
    ("batch_size = 0", "train"),
    ("train_fraction = 1.0", "train"),
    ("fusion_channels = geo_front_10m,bogus", "rows"),
])
def test_config_range_error_is_usage_error(tmp_path, capsys, line, command):
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(f"group = Group2\n{line}\n")
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "o"), command]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        cli.main(["frobnicate"])
    assert err.value.code == 1


def test_selection_failure_exits_three(tmp_path, capsys):
    # two classes with identical spectra: nothing can be selected
    rows = []
    bins = ",".join(["1.0"] * N_BINS)
    for label in ("A", "B"):
        rows.extend(f"{bins},{label}" for _ in range(10))
    rows_path = tmp_path / "rows.csv"
    rows_path.write_text("\n".join(rows) + "\n")
    code = cli.main(["--out", str(tmp_path / "o"), "train", "--rows", str(rows_path)])
    assert code == 3
    assert "threshold" in capsys.readouterr().err


def test_corrupt_rows_is_data_error(tmp_path):
    rows_path = tmp_path / "rows.csv"
    rows_path.write_text("1.0,2.0,oops\n")
    code = cli.main(["--out", str(tmp_path / "o"), "train", "--rows", str(rows_path)])
    assert code == 2


def test_missing_rows_file_is_data_error(tmp_path):
    code = cli.main(["--out", str(tmp_path / "o"), "train", "--rows", str(tmp_path / "absent.csv")])
    assert code == 2


def test_synth_and_rows_rerun_byte_identical(tmp_path):
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(SMOKE_CONFIG)
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert cli.main(["--config", str(cfg_path), "--out", str(out), "synth"]) == 0
        assert cli.main(["--config", str(cfg_path), "--out", str(out), "rows"]) == 0
        outs.append(out)
    a, b = outs
    assert (a / "rows.csv").read_bytes() == (b / "rows.csv").read_bytes()
    # manifests must match except for the differing out_dir path itself
    ma = json.loads((a / "synth_manifest.json").read_text())
    mb = json.loads((b / "synth_manifest.json").read_text())
    ma["config"].pop("out_dir"), mb["config"].pop("out_dir")
    assert ma == mb
    rec = "AllQuiet_t1.rec"
    assert (a / "recordings" / rec).read_bytes() == (b / "recordings" / rec).read_bytes()


def test_single_profile_single_block_yields_one_row(tmp_path):
    profiles = tmp_path / "single.txt"
    profiles.write_text(
        "profile Lonely\nnoise_rms 1.0\nline geo_front_10m 45 1.5 0.0\n"
    )
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(
        f"profiles_file = {profiles}\ntrials = 1\nblocks_per_recording = 1\n"
        "duration_s = 2.0\nseed = 3\n"
    )
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg_path), "--out", str(out), "synth"]) == 0
    assert cli.main(["--config", str(cfg_path), "--out", str(out), "rows"]) == 0
    lines = [
        l for l in (out / "rows.csv").read_text().splitlines() if not l.startswith("#")
    ]
    assert len(lines) == 1
    fields = lines[0].split(",")
    assert len(fields) == N_BINS + 1
    assert fields[-1] == "Lonely"
    # the 45 Hz line dominates the fused spectrum
    bins = np.array([float(v) for v in fields[:-1]])
    assert int(np.argmax(bins)) + 1 == 45


def test_seed_flag_overrides_config(tmp_path):
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(SMOKE_CONFIG)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["--config", str(cfg_path), "--out", str(a), "--seed", "99", "synth"]) == 0
    assert cli.main(["--config", str(cfg_path), "--out", str(b), "synth"]) == 0
    rec = "Saab83_t1.rec"
    assert (a / "recordings" / rec).read_bytes() != (b / "recordings" / rec).read_bytes()
