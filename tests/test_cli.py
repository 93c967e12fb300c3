import json
import shutil

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
    assert params[0].shape[1] == len(mask_bins)
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


def test_heatmap_csv_trial_and_block_columns(smoke, tmp_path):
    _, out = smoke
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(SMOKE_CONFIG + "heatmap_blocks = 3\n")
    assert run(cfg_path, out, "heatmap", "FordF150") == 0
    lines = (out / "heatmap_FordF150.csv").read_text().splitlines()
    assert lines[0].startswith("channel,trial,block,hz_1,")
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 13 * 2 * 3  # channels x trials x heatmap blocks
    first = rows[0][0]
    ids = [(int(r[1]), int(r[2])) for r in rows if r[0] == first]
    assert ids == [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]
    assert all(len(r) == 3 + N_BINS for r in rows)


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
    ("duration_s = 0.5", "synth"),
    ("sample_rate_hz = 500", "synth"),
    ("duration_s = 1.0001", "synth"),
    ("trials = 0", "synth"),
    ("heatmap_blocks = 0", "heatmap AllQuiet"),
    ("blocks_per_recording = -1", "rows"),
    ("duration_s = nan", "synth"),
    ("duration_s = inf", "synth"),
    ("noise_rms = -1", "synth"),
    ("jitter_hz = nan", "synth"),
    ("learn_rate = 0", "train"),
    ("learn_rate = -0.005", "train"),
    ("learn_rate = inf", "train"),
    ("threshold = nan", "train"),
    ("max_classes_per_bin = -1", "train"),
    ("lines_per_profile = -1", "synth"),
    ("lines_per_profile = 2", "synth"),
    ("min_line_spacing_hz = 0", "synth"),
    ("lines_per_profile = -1", "rows"),
    ("lines_per_profile = 2", "rows"),
    ("min_line_spacing_hz = 0", "rows"),
    ("lines_per_profile = 2", "train"),
    ("min_line_spacing_hz = 0", "eval"),
    ("fusion_channels = geo_front_10m,geo_front_10m", "rows"),
    ("fusion_weights = 1, 2", "synth"),
    ("fusion_weights = 0, 0, 0", "synth"),
    ("fusion_weights = -1, 1, 1", "synth"),
    # Group2 needs 3 x 7 line slots; a 100 Hz grid over 5..295 Hz has 3
    ("min_line_spacing_hz = 100", "synth"),
    ("min_line_spacing_hz = 100", "rows"),
    ("min_line_spacing_hz = 100", "train"),
    ("min_line_spacing_hz = 100", "eval"),
])
def test_config_range_error_is_usage_error(tmp_path, capsys, line, command):
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(f"group = Group2\n{line}\n")
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "o"), *command.split()]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "o").exists()  # rejected before any stage writes a file


def _edit_first_entry(edit):
    def corrupt(text):
        manifest = json.loads(text)
        edit(manifest["recordings"][0])
        return json.dumps(manifest)
    return corrupt


@pytest.mark.parametrize("corrupt", [
    pytest.param(lambda text: text[:100], id="cut100"),
    pytest.param(lambda text: json.dumps({"command": "synth"}), id="no-recordings"),
    pytest.param(lambda text: json.dumps({"recordings": 5}), id="recordings-not-list"),
    *[pytest.param(_edit_first_entry(lambda e, key=key: e.pop(key)), id=f"no-{key}")
      for key in ("file", "label", "trial")],
    pytest.param(_edit_first_entry(lambda e: e.update(file=5)), id="file-not-text"),
    pytest.param(_edit_first_entry(lambda e: e.update(trial="1")), id="trial-not-integer"),
    pytest.param(lambda text: json.dumps({"recordings": [5]}), id="entry-not-object"),
    pytest.param(_edit_first_entry(lambda e: e.update(file="../../outside.rec")), id="file-escapes"),
    pytest.param(_edit_first_entry(lambda e: e.update(file="AllQuiet_t2.rec")), id="file-not-entry"),
    pytest.param(_edit_first_entry(lambda e: e.update(label="../x", file=f"../x_t{e['trial']}.rec")),
                 id="label-escapes"),
])
@pytest.mark.parametrize("command", ["rows", "heatmap AllQuiet"])
def test_corrupt_synth_manifest_is_data_error(smoke, tmp_path, capsys, command, corrupt):
    cfg_path, out = smoke
    copy = tmp_path / "out"
    copy.mkdir()
    manifest = copy / "synth_manifest.json"
    manifest.write_text(corrupt((out / "synth_manifest.json").read_text()))
    assert run(cfg_path, copy, *command.split()) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "synth_manifest.json" in err[0]
    assert [p.name for p in copy.iterdir()] == ["synth_manifest.json"]


SMOKE_LABELS = ["AllQuiet", "HondaGenerator", "FordF150", "Saab83"]


def _truncate_at(cut):
    return lambda raw: raw[:cut]


def _hidden_width_off_by_one(raw):
    d = int.from_bytes(raw[8:12], "little")
    return raw[:12] + (d + 1).to_bytes(4, "little") + raw[16:]


def _extra_outputs(k):
    # c grows by k: k zero rows of d = 3 weights after w3, which ends at
    # byte 367, and k zero biases after b3
    def corrupt(raw):
        c = int.from_bytes(raw[16:20], "little")
        body = raw[20:367] + b"\0" * 24 * k + raw[367:] + b"\0" * 8 * k
        return raw[:16] + (c + k).to_bytes(4, "little") + body
    return corrupt


def _huge_widths(raw):
    # d * d overflows a 64-bit integer, so the size must be computed exactly
    return raw[:8] + (2**32 - 1).to_bytes(4, "little") * 2 + raw[16:]


# header: magic 8, sizes 12, mask 4+6, vocab 4+10+16+10+8, flag 1 -> 79 bytes;
# then 40 float64 parameters -> 399 bytes
@pytest.mark.parametrize("corrupt, message", [
    *[pytest.param(_truncate_at(cut), "truncated", id=f"cut{cut}")
      for cut in (12, 22, 30, 50, 78, 79, 200, 398)],
    pytest.param(lambda raw: raw + b"\0", "trailing", id="trailing"),
    pytest.param(_hidden_width_off_by_one, "hidden width", id="hidden"),
    pytest.param(_huge_widths, "truncated", id="huge"),
    # the first byte of the first label
    pytest.param(lambda raw: raw[:36] + b"\xff" + raw[37:], "UTF-8", id="label"),
    pytest.param(_extra_outputs(1), "4 labels for 5 outputs", id="outputs5"),
    pytest.param(_extra_outputs(2), "4 labels for 6 outputs", id="outputs6"),
])
def test_corrupt_checkpoint_is_data_error(smoke, tmp_path, capsys, corrupt, message):
    cfg_path, out = smoke
    ckpt = tmp_path / "model.bin"
    dnn.save_checkpoint(ckpt, dnn.init_network(3, 4, seed=1), [3, 17, 120], SMOKE_LABELS, True)
    assert len(ckpt.read_bytes()) == 399
    argv = ["eval", "--checkpoint", str(ckpt), "--rows", str(out / "rows.csv")]
    assert run(cfg_path, tmp_path / "o", *argv) == 0
    capsys.readouterr()
    ckpt.write_bytes(corrupt(ckpt.read_bytes()))
    assert run(cfg_path, tmp_path / "o", *argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]


def _edit_header(edit):
    def corrupt(raw):
        header, payload = raw.split(b"\n", 1)
        return edit(header) + b"\n" + payload
    return corrupt


@pytest.mark.parametrize("corrupt, message", [
    pytest.param(lambda raw: raw[:-3], "float64", id="cut"),
    pytest.param(_edit_header(lambda h: h.replace(b" duration=2.0", b"")), "duration", id="no-duration"),
    pytest.param(_edit_header(lambda h: h.replace(b"rate=2000", b"rate=fast")), "fast", id="rate"),
    pytest.param(_edit_header(lambda h: h.replace(b"duration=2.0", b"duration=2s")), "2s", id="duration"),
    pytest.param(lambda raw: raw[:-8] + np.array([np.nan], "<f8").tobytes(), "non-finite", id="nan"),
])
def test_corrupt_recording_is_data_error(smoke, tmp_path, capsys, corrupt, message):
    cfg_path, out = smoke
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    rec = copy / "recordings" / "AllQuiet_t1.rec"
    rec.write_bytes(corrupt(rec.read_bytes()))
    assert run(cfg_path, copy, "rows") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "AllQuiet_t1.rec" in err[0] and message in err[0]


@pytest.mark.parametrize("token", ["nan", "inf"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_non_finite_rows_is_data_error(smoke, tmp_path, capsys, command, token):
    cfg_path, out = smoke
    lines = (out / "rows.csv").read_text().splitlines()
    lines[3] = token + lines[3][lines[3].index(","):]
    rows_path = tmp_path / "rows.csv"
    rows_path.write_text("\n".join(lines) + "\n")
    ckpt = tmp_path / "model.bin"
    dnn.save_checkpoint(ckpt, dnn.init_network(3, 4, seed=1), [3, 17, 120], SMOKE_LABELS, True)
    argv = [command, "--rows", str(rows_path)]
    if command == "eval":
        argv += ["--checkpoint", str(ckpt)]
    assert run(cfg_path, tmp_path / "o", *argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: line 4: non-finite")


def test_train_manifest_records_guard_from_rows(tmp_path):
    # Group2 has 4 labels (guard 1); these rows carry 7, so the guard is 3
    labels = [f"L{k}" for k in range(7)]
    rng = np.random.default_rng(5)
    lines = []
    for i in range(10):
        for k, label in enumerate(labels):
            bins = 0.1 + 0.01 * rng.random(N_BINS)
            bins[10 * (k + 1)] = 5.0 + 0.01 * i
            lines.append(",".join(map(repr, bins.tolist())) + f",{label}")
    rows_path = tmp_path / "rows.csv"
    rows_path.write_text("\n".join(lines) + "\n")
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text("group = Group2\nruns = 2\nbatch_size = 16\n")
    assert run(cfg_path, tmp_path / "o", "train", "--rows", str(rows_path)) == 0
    manifest = json.loads((tmp_path / "o" / "train_manifest.json").read_text())
    assert manifest["config"]["max_classes_per_bin"] == fusion.default_max_classes_per_bin(7) == 3
    assert manifest["config"]["group"] == "Group2"


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        cli.main(["frobnicate"])
    assert err.value.code == 1


def test_selection_failure_exits_three(tmp_path, capsys):
    # two classes with identical spectra: nothing can be selected; bin 1 is
    # zero, and its warning still reaches stderr ahead of the error
    rows = []
    bins = ",".join(["0.0"] + ["1.0"] * (N_BINS - 1))
    for label in ("A", "B"):
        rows.extend(f"{bins},{label}" for _ in range(10))
    rows_path = tmp_path / "rows.csv"
    rows_path.write_text("\n".join(rows) + "\n")
    code = cli.main(["--out", str(tmp_path / "o"), "train", "--rows", str(rows_path)])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert err[0] == "warning: 1 bins have zero grand mean and were excluded: [1]"
    assert err[1].startswith("error: ") and "threshold" in err[1]


def test_selection_warnings_go_to_stderr(tmp_path, capsys):
    # bin 50 is zero in one rows file and a constant 1.0 in the other: it is
    # selected in neither, so training and stdout match and only stderr differs
    labels = ["A", "B", "C"]
    rng = np.random.default_rng(6)
    base = []
    for i in range(12):
        for k, label in enumerate(labels):
            bins = 0.1 + 0.01 * rng.random(N_BINS)
            bins[10 * (k + 1)] = 5.0 + 0.01 * i
            base.append((bins, label))
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text("runs = 3\nbatch_size = 16\n")
    results = []
    for fill in (0.0, 1.0):
        lines = []
        for bins, label in base:
            bins = bins.copy()
            bins[49] = fill
            lines.append(",".join(map(repr, bins.tolist())) + f",{label}")
        rows_path = tmp_path / f"rows_{fill}.csv"
        rows_path.write_text("\n".join(lines) + "\n")
        assert run(cfg_path, tmp_path / f"o{fill}", "train", "--rows", str(rows_path)) == 0
        results.append(capsys.readouterr())
    zero, constant = results
    assert zero.err == "warning: 1 bins have zero grand mean and were excluded: [50]\n"
    assert constant.err == ""
    assert zero.out == constant.out and "mask size: 3 bins" in zero.out


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


@pytest.mark.parametrize("text, message", [
    pytest.param("profile A\nnoise_rms nan\nline geo_front_10m 45 1.5 0.0\n",
                 "line 2: noise_rms", id="nan"),
    pytest.param("profile A\nnoise_rms -1\nline geo_front_10m 45 1.5 0.0\n",
                 "line 2: noise_rms", id="-1"),
    pytest.param("profile A\nline geo_front_10m 45 1.5 0.0\nprofile B\nprofile A\n",
                 "line 4: profile 'A' is defined twice", id="repeated"),
    pytest.param("profile A\nline geo_front_10m 45 1.5 0.0\nline mic_front_1m 45 1.5 0.0\n",
                 "line 3: unknown channel 'mic_front_1m'", id="channel"),
    pytest.param("# no profiles\n", "profiles.txt: no profiles", id="empty"),
    pytest.param("profile A\nline geo_front_10m 500 1.5 0.0\n",
                 "line 2: line frequency 500", id="freq"),
    pytest.param("profile A\nline geo_front_10m 45 nan 0.0\n",
                 "line 2: line amplitude nan", id="amp"),
    pytest.param("profile A,B\n", "line 1: label 'A,B'", id="label"),
    pytest.param("profile ../escape\nline geo_front_10m 45 1.5 0.0\n",
                 "line 1: label '../escape'", id="label-dotdot"),
    pytest.param("profile a/b\n", "line 1: label 'a/b'", id="label-slash"),
    pytest.param("profile a\\b\n", "line 1: label 'a\\\\b'", id="label-backslash"),
    pytest.param("profile A\nline geo_front_10m 4.5 1.5 0.0\n",
                 "line 2: bad number", id="number"),
])
def test_profiles_file_bad_noise_rms_is_data_error(tmp_path, capsys, text, message):
    profiles = tmp_path / "profiles.txt"
    profiles.write_text(text)
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(f"profiles_file = {profiles}\ntrials = 1\nduration_s = 2.0\n")
    assert run(cfg_path, tmp_path / "out", "synth") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case, message", [
    pytest.param("train-rows", "rows.csv: not UTF-8 text", id="train-rows"),
    pytest.param("eval-rows", "rows.csv: not UTF-8 text", id="eval-rows"),
    pytest.param("profiles", "profiles.txt: not UTF-8 text", id="profiles"),
    pytest.param("config", "config.txt: not UTF-8 text", id="config"),
    pytest.param("train-rows-dir", "Is a directory", id="train-rows-dir"),
    pytest.param("eval-checkpoint-dir", "Is a directory", id="eval-checkpoint-dir"),
    pytest.param("config-dir", "Is a directory", id="config-dir"),
])
def test_unreadable_input_is_data_error(smoke, tmp_path, capsys, case, message):
    cfg_path, out = smoke
    rows, ckpt, folder = tmp_path / "rows.csv", tmp_path / "model.bin", tmp_path / "folder"
    rows.write_bytes((out / "rows.csv").read_bytes() + b"\xff\n")
    dnn.save_checkpoint(ckpt, dnn.init_network(3, 4, seed=1), [3, 17, 120], SMOKE_LABELS, True)
    folder.mkdir()
    profiles = tmp_path / "profiles.txt"
    profiles.write_bytes(b"profile A\nline geo_front_10m 45 1.5 0.0\n\xff\n")
    profiles_config = tmp_path / "profiles_config.txt"
    profiles_config.write_text(f"profiles_file = {profiles}\ntrials = 1\nduration_s = 2.0\n")
    bad_config = tmp_path / "config.txt"
    bad_config.write_bytes(b"seed = 1\n\xff\n")
    argv = {
        "train-rows": ["--config", cfg_path, "train", "--rows", rows],
        "eval-rows": ["--config", cfg_path, "eval", "--checkpoint", ckpt, "--rows", rows],
        "profiles": ["--config", profiles_config, "synth"],
        "config": ["--config", bad_config, "synth"],
        "train-rows-dir": ["--config", cfg_path, "train", "--rows", folder],
        "eval-checkpoint-dir": ["--config", cfg_path, "eval", "--checkpoint", folder],
        "config-dir": ["--config", folder, "synth"],
    }[case]
    o = tmp_path / "o"
    assert cli.main(["--out", str(o), *map(str, argv)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not o.exists()


def _two_class_rows(path, sizes):
    """A rows file with A hot at bin 10 and B hot at bin 20, sizes[label] rows each."""
    rng = np.random.default_rng(8)
    lines = []
    for i in range(max(sizes.values())):
        for k, label in enumerate(sizes):
            if i < sizes[label]:
                bins = 0.1 + 0.01 * rng.random(N_BINS)
                bins[10 * (k + 1) - 1] = 5.0 + 0.01 * i
                lines.append(",".join(map(repr, bins.tolist())) + f",{label}")
    path.write_text("\n".join(lines) + "\n")


def test_split_warning_goes_to_stderr(tmp_path, capsys):
    # stratified at 4%: round(0.4) = 0 of A's 10 rows train, 8 of B's 200
    rows_path = tmp_path / "rows.csv"
    _two_class_rows(rows_path, {"A": 10, "B": 200})
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text("stratified = true\ntrain_fraction = 0.04\nruns = 2\nbatch_size = 4\n")
    assert run(cfg_path, tmp_path / "o", "train", "--rows", str(rows_path)) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: class 'A' absent from the training split\n"
    assert "final test accuracy" in captured.out and "on 202 rows" in captured.out


def test_empty_test_split_is_data_error(tmp_path, capsys):
    rows_path = tmp_path / "rows.csv"
    _two_class_rows(rows_path, {"A": 10, "B": 10})
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text("train_fraction = 0.99\nruns = 2\nbatch_size = 4\n")
    assert run(cfg_path, tmp_path / "o", "train", "--rows", str(rows_path)) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: the test split is empty; lower train_fraction"]


def test_eval_rows_label_missing_from_checkpoint_is_data_error(smoke, tmp_path, capsys):
    cfg_path, out = smoke
    ckpt = tmp_path / "model.bin"
    dnn.save_checkpoint(ckpt, dnn.init_network(3, 3, seed=1), [3, 17, 120], SMOKE_LABELS[:3], True)
    argv = ["eval", "--checkpoint", str(ckpt), "--rows", str(out / "rows.csv")]
    assert run(cfg_path, tmp_path / "o", *argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: label 'Saab83' not in vocabulary")
