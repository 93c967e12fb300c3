import argparse
import io
import json
import math
import re
import shutil
import zipfile
from pathlib import Path

import numpy as np
import pytest

from sigclass import cli, dnn, fusion, synthgen, trainer
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


def test_rows_store_shape(smoke):
    _, out = smoke
    with np.load(out / "rows.npz", allow_pickle=False) as store:
        assert sorted(store.files) == ["labels", "x"]
        x, labels = store["x"], store["labels"]
    assert x.dtype == np.float64 and x.shape == (40, N_BINS)  # 8 recordings x 5 blocks
    assert labels.dtype.kind == "U" and labels.shape == (40,)
    assert not (out / "rows.csv").exists()


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
    assert params[0].shape[1] == len(mask_bins) + 1  # the bias column
    assert normalize is True

    assert run(cfg_path, out, "eval") == 0
    assert (out / "eval_confusion.csv").exists()
    eval_manifest = json.loads((out / "eval_manifest.json").read_text())
    assert 0.0 <= eval_manifest["accuracy"] <= 1.0


def test_train_runs_override(smoke, tmp_path):
    _, out = smoke
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(SMOKE_CONFIG.replace("runs = 3", "runs = 5"))
    scratch = tmp_path / "out2"
    # reuse the rows file; write model artifacts to a scratch dir
    assert run(cfg_path, scratch, "train", "--rows", str(out / "rows.npz")) == 0
    runlog = (scratch / "runlog.csv").read_text().splitlines()
    assert len(runlog) == 1 + 5


def test_heatmap_output(smoke):
    cfg_path, out = smoke
    assert run(cfg_path, out, "heatmap", "Saab83") == 0
    height = 13 * 2 * 20  # channels x trials x heatmap blocks
    header = f"P5\n{N_BINS} {height}\n255\n".encode("ascii")
    pgm = (out / "heatmap_Saab83.pgm").read_bytes()
    assert pgm.startswith(header) and len(pgm) == len(header) + N_BINS * height
    csv = (out / "heatmap_Saab83.csv").read_text().splitlines()
    assert len(csv) == 1 + height
    # every value has four decimals, and each row's peak is 10
    values = [line.split(",", 3)[3] for line in csv[1:]]
    assert all(re.fullmatch(r"(\d+\.\d{4},){299}\d+\.\d{4}", v) for v in values)
    assert all("10.0000" in v.split(",") for v in values)


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
    assert capsys.readouterr().err.splitlines() == ["error: no recordings for label 'NoSuchThing'"]
    assert not list(out.glob("heatmap_NoSuchThing.*"))


def test_heatmap_recordings_with_other_channels_is_data_error(smoke, tmp_path, capsys):
    # heatmap reads every roster channel, so a recording of only the first
    # five fails as one that lacks a fused channel fails rows
    cfg_path, out = smoke
    copy = tmp_path / "out"
    shutil.copytree(out, copy, ignore=shutil.ignore_patterns("rows.npz", "heatmap_*"))
    rec_path = copy / "recordings" / "AllQuiet_t2.rec"
    synthgen.save_recording(rec_path, synthgen.load_recording(rec_path, synthgen.ROSTER[:5]))
    assert run(cfg_path, copy, "heatmap", "AllQuiet") == 2
    _one_error_line(capsys, rec_path, f"recording 'AllQuiet' has no channel {list(synthgen.ROSTER[5:])}")
    assert not list(copy.glob("heatmap_*"))


def _missing_recording_line(capsys, path):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert err[0].endswith(f"No such file or directory: '{path}'"), err


def test_rows_before_synth_is_data_error(tmp_path, capsys):
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(SMOKE_CONFIG)
    fresh = tmp_path / "fresh"
    assert run(cfg_path, fresh, "rows") == 2
    _missing_recording_line(capsys, fresh / "recordings" / "AllQuiet_t1.rec")
    assert not fresh.exists()


@pytest.mark.parametrize("command", ["rows", "heatmap AllQuiet"])
def test_recording_synth_never_wrote_is_data_error(smoke, tmp_path, capsys, command):
    # the config names the recordings: one trial more than synth wrote names a missing file
    _, out = smoke
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(SMOKE_CONFIG.replace("trials = 2", "trials = 3"))
    copy = tmp_path / "out"
    shutil.copytree(out, copy, ignore=shutil.ignore_patterns("rows.npz", "heatmap_*"))
    assert run(cfg_path, copy, *command.split()) == 2
    _missing_recording_line(capsys, copy / "recordings" / "AllQuiet_t3.rec")
    assert not list(copy.glob("rows.npz")) + list(copy.glob("heatmap_*"))


def test_no_stage_reads_a_manifest(smoke, tmp_path):
    # manifests are records: junk in every one changes no later stage's output
    cfg_path, out = smoke
    untouched, junked = tmp_path / "untouched", tmp_path / "junked"
    for dest in (untouched, junked):
        shutil.copytree(out, dest)
    for stage in ("rows", "heatmap AllQuiet", "train", "eval"):
        for manifest in junked.glob("*_manifest.json"):
            manifest.write_text("junk")
        assert run(cfg_path, untouched, *stage.split()) == 0
        assert run(cfg_path, junked, *stage.split()) == 0
    for name in ("rows.npz", "heatmap_AllQuiet.pgm", "heatmap_AllQuiet.csv", "mask.txt",
                 "checkpoint.bin", "confusion.csv", "eval_confusion.csv"):
        assert (junked / name).read_bytes() == (untouched / name).read_bytes(), name


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text("group = Group2\nwarp_drive = on\n")
    assert cli.main(["--config", str(cfg_path), "synth"]) == 1
    assert "warp_drive" in capsys.readouterr().err


def test_bad_config_value_is_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text("group = Group2\nseed = notanint\n")
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "o"), "synth"]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {cfg_path}:2: config key 'seed': bad value 'notanint'"]


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
    ("threshold = 1.0", "train"),
    ("fusion_channels = geo_front_10m,geo_front_10m", "rows"),
    ("fusion_weights = 1, 2", "synth"),
    ("fusion_weights = 0, 0, 0", "synth"),
    ("fusion_weights = -1, 1, 1", "synth"),
    pytest.param("runs = 5\nruns = 7", "train", id="runs-set-twice-train"),
    ("duration_s = 1e308", "synth"),
    pytest.param("sample_rate_hz = " + "9" * 400, "rows", id="sample_rate_hz-past-float-rows"),
])
def test_config_range_error_is_usage_error(tmp_path, capsys, line, command):
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(f"group = Group2\n{line}\n")
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "o"), *command.split()]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "o").exists()  # rejected before any stage writes a file


SMOKE_LABELS = ["AllQuiet", "HondaGenerator", "FordF150", "Saab83"]


def _save_smoke_checkpoint(path):
    dnn.save_checkpoint(path, dnn.init_network(3, 4, seed=1), [3, 17, 120], SMOKE_LABELS, True)


def _one_error_line(capsys, path, message):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: ") and message in err[0], err


# Corruption cases for the two .npz stores, the rows store and the checkpoint.
# A case maps a genuine store's bytes and its {name: array} members to the
# bytes of a corrupt one.

def _corrupt_file(path, corrupt):
    raw = path.read_bytes()
    with np.load(path, allow_pickle=False) as store:
        members = {name: store[name] for name in store.files}
    path.write_bytes(corrupt(raw, members))


def _archive(save, **arrays):
    buf = io.BytesIO()
    save(buf, **arrays)
    return buf.getvalue()


def _members(**edits):
    """A hand-made archive of the genuine members, where name=f stores f(member)
    in place of that member and name=None leaves it out."""
    def corrupt(raw, members):
        kept = [name for name in members if name not in edits or edits[name] is not None]
        return _archive(np.savez, **{name: edits.get(name, np.asarray)(members[name]) for name in kept})
    return corrupt


def _flip(name):
    """One byte flipped in the middle of a member's payload, which its CRC covers."""
    def corrupt(raw, members):
        payload = members[name].tobytes()
        i = raw.index(payload) + len(payload) // 2
        return raw[:i] + bytes([raw[i] ^ 0xFF]) + raw[i + 1 :]
    return corrupt


def _huge_shape(name, shape, huge):
    """A hand-made archive whose member name's npy header claims the huge shape
    (its CRC matches, so the claim itself is what gets read)."""
    def corrupt(raw, members):
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w") as archive:
            for key, a in members.items():
                npy = _archive(np.save, arr=a)
                if key == name:
                    old, new = repr(shape).encode(), repr(huge).encode()
                    i, end = npy.index(old), npy.index(b"\n")  # keep the header length: drop pad spaces
                    npy = npy[:i] + new + npy[i + len(old) : end - len(new) + len(old)] + npy[end:]
                archive.writestr(f"{key}.npy", npy)
        return buf.getvalue()
    return corrupt


def _npz_cases(what, names, text_name, cuts):
    """The cases that every .npz store fails alike; names are its members, text_name its text one."""
    return [
        *[pytest.param(lambda raw, members, cut=cut: raw[:cut], f"not a {what}", id=f"cut{cut}")
          for cut in cuts],
        pytest.param(_flip(names[0]), f"Bad CRC-32 for file '{names[0]}.npy'", id="crc"),
        pytest.param(lambda raw, members: raw + b"\0", "bytes after the archive's end record", id="trailing"),
        pytest.param(lambda raw, members: _archive(np.save, arr=members[names[0]]),
                     f"a bare array, not a {what}", id="npy"),
        *[pytest.param(_members(**{name: None}), f"{name} is not a file in the archive", id=f"no-{name}")
          for name in names],
        pytest.param(_members(**{text_name: lambda a: a.astype(object)}), "allow_pickle=False",
                     id=f"object-{text_name}"),
    ]


def _npy_header(edit):
    """The first member's .npy header line passed through edit; numpy reads it before any CRC check."""
    def corrupt(raw, members):
        start = raw.index(b"\x93NUMPY")
        end = raw.index(b"\n", start) + 1
        return raw[:start] + edit(raw[start:end]) + raw[end:]
    return corrupt


def _flat_params(d, hidden, c):
    """The float32 weights vector of a d-input network with the given hidden width and c outputs."""
    shapes = [(hidden, d + 1), (hidden, hidden + 1), (c, hidden + 1)]
    return np.zeros(sum(math.prod(s) for s in shapes), np.float32)


def _weight(k, value):
    """A copy of the weights vector with entry k set to value."""
    def edit(weights):
        weights = weights.copy()
        weights[k] = value
        return weights
    return edit


def _old_layout(raw, members):
    """The sigmoid net's checkpoint layout: float64 `params` (w1, b1, w2, b2, w3, b3) in place of `weights`."""
    w1, w2, w3 = dnn.unflatten(members["weights"].astype(float), 3, 4)
    params = np.concatenate([part.ravel() for w in (w1, w2, w3) for part in (w[:, :-1], w[:, -1])])
    return _archive(np.savez, mask=members["mask"], vocab=members["vocab"], normalize=members["normalize"],
                    params=params)


_BAD_MASK = "the mask must hold strictly ascending bins in 1..300, at least one"
_BAD_MEMBERS = "expected mask 1-D int, vocab 1-D text, normalize one bool, weights 1-D float32"


# the smoke checkpoint: d = 3 bins, c = 4 labels, 40 parameters
@pytest.mark.parametrize("corrupt, message", [
    *_npz_cases("model checkpoint", ["weights", "mask", "vocab", "normalize"], "vocab",
                (0, 12, 22, 30, 50, 78, 79, 200, 398, -1)),
    # 2.4e14 bytes, more than a 47-bit address space
    pytest.param(_huge_shape("weights", (40,), (3 * 10**13,)), "Unable to allocate", id="huge"),
    # the hand-packed layout that checkpoints had before, which has no reader now
    pytest.param(lambda raw, members: b"SIGCKPT1" + bytes(391), "not a model checkpoint", id="old-format"),
    # the .npz of the sigmoid net: no `weights`, so it is never read as tanh weights
    pytest.param(_old_layout, "not a model checkpoint (KeyError: 'weights is not a file in the archive')",
                 id="old-layout"),
    *[pytest.param(_members(mask=lambda a, bins=bins: np.array(bins, dtype=int)), _BAD_MASK, id=name)
      for name, bins in [("unsorted", [17, 3, 120]), ("repeated", [3, 3, 120]), ("bin0", [0, 17, 120]),
                         ("bin301", [3, 17, 301]), ("mask-empty", [])]],
    # d comes from the mask and c from the labels, so the parameter count is off
    pytest.param(_members(mask=lambda a: a[:2]), "40 parameters; 2 bins and 4 labels need 24", id="mask-short"),
    pytest.param(_members(weights=lambda a: a[:-1]), "39 parameters; 3 bins and 4 labels need 40",
                 id="params-short"),
    pytest.param(_members(weights=lambda a: np.append(a, np.float32(0.0))), "41 parameters", id="params-long"),
    pytest.param(_members(weights=lambda a: _flat_params(3, 4, 4)), "56 parameters", id="hidden"),
    pytest.param(_members(weights=lambda a: _flat_params(3, 3, 5)), "44 parameters", id="outputs5"),
    pytest.param(_members(weights=lambda a: _flat_params(3, 3, 6)), "48 parameters", id="outputs6"),
    pytest.param(_members(vocab=lambda a: np.array(["AllQuiet", "\ud800", "FordF150", "Saab83"])),
                 "label '\\ud800' must be", id="label"),
    # output 1 would be reported under the label of output 2
    pytest.param(_members(vocab=lambda a: np.array(["AllQuiet", "FordF150", "FordF150", "Saab83"])),
                 "repeat one", id="repeated-label"),
    pytest.param(_members(mask=lambda a: a.astype(float)), _BAD_MEMBERS, id="mask-float"),
    pytest.param(_members(normalize=lambda a: a.reshape(1)), _BAD_MEMBERS, id="normalize-vector"),
    pytest.param(_members(weights=lambda a: a.astype(np.float64)), _BAD_MEMBERS, id="weights-float64"),
    pytest.param(_members(weights=lambda a: a.reshape(-1, 1)), _BAD_MEMBERS, id="params-2d"),
    # the first weight of W1 and the last of W3
    pytest.param(_members(weights=_weight(0, np.nan)), "weights hold a non-finite value (nan or inf)",
                 id="nan-weight"),
    pytest.param(_members(weights=_weight(-1, np.inf)), "weights hold a non-finite value (nan or inf)",
                 id="inf-weight"),
])
def test_corrupt_checkpoint_is_data_error(smoke, tmp_path, capsys, corrupt, message):
    cfg_path, out = smoke
    ckpt = tmp_path / "model.bin"
    _save_smoke_checkpoint(ckpt)
    argv = ["eval", "--checkpoint", str(ckpt), "--rows", str(out / "rows.npz")]
    assert run(cfg_path, tmp_path / "genuine", *argv) == 0
    capsys.readouterr()
    _corrupt_file(ckpt, corrupt)
    assert run(cfg_path, tmp_path / "o", *argv) == 2
    _one_error_line(capsys, ckpt, message)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("scale, message", [
    pytest.param(1e39, "error: a feature magnitude exceeds float32, which the network runs in; "
                 "train with normalize_rows = true", id="past-float32"),
    # every feature fits float32, but the first layer's float32 sums can overflow
    pytest.param(2e38, "error: the feature magnitudes can overflow the float32 network; "
                 "train with normalize_rows = true", id="first-layer"),
])
def test_eval_of_raw_rows_beyond_float32_is_data_error(smoke, tmp_path, capsys, scale, message):
    cfg_path, out = smoke
    ckpt, rows_path = tmp_path / "model.bin", tmp_path / "rows.npz"
    dnn.save_checkpoint(ckpt, dnn.unflatten(dnn.init_network(3, 4, seed=1), 3, 4), [3, 17, 120], SMOKE_LABELS,
                        False)  # raw rows, as normalize_rows = false trains on
    ds = trainer.load_rows(out / "rows.npz")
    trainer.save_rows(rows_path, np.full_like(ds.x, scale), np.array(ds.label_vocab)[ds.y])
    assert run(cfg_path, tmp_path / "o", "eval", "--checkpoint", str(ckpt), "--rows", str(rows_path)) == 2
    assert capsys.readouterr().err.splitlines() == [message]
    assert not (tmp_path / "o").exists()


def _old_csv(raw, members):
    return "".join(",".join(map(repr, r.tolist())) + f",{label}\n"
                   for r, label in zip(members["x"], members["labels"])).encode()


# the smoke rows store: 40 rows; nan and inf magnitudes: test_non_finite_rows_is_data_error
@pytest.mark.parametrize("corrupt, message", [
    *_npz_cases("rows store", ["x", "labels"], "labels", (0, 30, 5000, 60000, -200, -1)),
    pytest.param(_huge_shape("x", (40, 300), (10**11, 300)), "Unable to allocate", id="huge-shape"),
    pytest.param(_old_csv, "not a rows store", id="old-csv"),
    # numpy's refusal spans three lines
    pytest.param(_npy_header(lambda h: h[:8] + (39798).to_bytes(2, "little") + h[10:]),
                 "(ValueError: Header info length (39798) is large and may not be safe to load securely. "
                 "To allow loading", id="header-length"),
    # numpy parses a Python 2 header with a warning before it reads the shape (40, 30)
    pytest.param(_npy_header(lambda h: h.replace(b"300)", b"30L)")),
                 "(UserWarning: Reading `.npy` or `.npz` file required additional header parsing as it "
                 "was created on Python 2", id="python2-header"),
    pytest.param(_members(x=lambda a: a[:, 1:]), "x is float64 (40, 299)", id="299-columns"),
    pytest.param(_members(x=lambda a: a.astype(np.int64)), "x is int64 (40, 300)", id="int"),
    pytest.param(_members(labels=lambda a: np.where(np.arange(40) == 6, "", a)),
                 "row 7: label '' must be", id="empty-label"),
    pytest.param(_members(x=lambda a: a[:0], labels=lambda a: a[:0]), "no data rows", id="zero-rows"),
])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_corrupt_rows_store_is_data_error(smoke, tmp_path, capsys, command, corrupt, message):
    cfg_path, out = smoke
    rows_path, ckpt = tmp_path / "rows.npz", tmp_path / "model.bin"
    shutil.copyfile(out / "rows.npz", rows_path)
    _corrupt_file(rows_path, corrupt)
    _save_smoke_checkpoint(ckpt)
    argv = [command, "--rows", str(rows_path)]
    if command == "eval":
        argv += ["--checkpoint", str(ckpt)]
    assert run(cfg_path, tmp_path / "o", *argv) == 2
    _one_error_line(capsys, rows_path, message)
    assert not (tmp_path / "o").exists()


# a comma split the confusion header and the selection report rows, and a lone
# surrogate failed to encode after mask.txt was written
@pytest.mark.parametrize("label", ["Saab,83", "\ud800"], ids=["comma", "surrogate"])
@pytest.mark.parametrize("command, store", [("train", "rows"), ("eval", "rows"), ("eval", "checkpoint")],
                         ids=["train-rows", "eval-rows", "checkpoint"])
def test_label_breaking_the_rule_is_data_error(smoke, tmp_path, capsys, command, store, label):
    cfg_path, out = smoke
    rows_path, ckpt = tmp_path / "rows.npz", tmp_path / "model.bin"
    shutil.copyfile(out / "rows.npz", rows_path)
    _save_smoke_checkpoint(ckpt)
    bad, name = (rows_path, "labels") if store == "rows" else (ckpt, "vocab")
    _corrupt_file(bad, _members(**{name: lambda a: np.where(a == "Saab83", label, a)}))
    argv = [command, "--rows", str(rows_path)] + (["--checkpoint", str(ckpt)] if command == "eval" else [])
    assert run(cfg_path, tmp_path / "o", *argv) == 2
    _one_error_line(capsys, bad, f"label {label!r} must be a non-empty")
    assert not (tmp_path / "o").exists()


# Corruption cases for the recording format, each run against both stages
# that read recordings.  The smoke recordings have 13 channels of 4000 samples.

def _edit_header(edit):
    def corrupt(raw):
        header, payload = raw.split(b"\n", 1)
        return edit(header) + b"\n" + payload
    return corrupt


def _cut_payload(keep):
    """Keep the header and the first `keep` payload bytes (a negative keep drops bytes from the end)."""
    def corrupt(raw):
        header, payload = raw.split(b"\n", 1)
        return header + b"\n" + payload[:keep]
    return corrupt


def _sample_major(raw):
    """The same recording as an old SIGREC1 file: one row of 13 float64 channels per sample."""
    header, payload = raw.split(b"\n", 1)
    block = np.frombuffer(payload, "<f4").reshape(13, -1)
    return header.replace(b"SIGREC3", b"SIGREC1") + b"\n" + block.T.astype("<f8").tobytes()


def _channel_major_float64(raw):
    """The same recording as an old SIGREC2 file: the same channel-major layout in float64."""
    header, payload = raw.split(b"\n", 1)
    return header.replace(b"SIGREC3", b"SIGREC2") + b"\n" + np.frombuffer(payload, "<f4").astype("<f8").tobytes()


def _set_sample(offset, value):
    """Overwrite the payload's float32 sample at `offset` (counted in samples)."""
    def corrupt(raw):
        header, payload = raw.split(b"\n", 1)
        data = np.frombuffer(payload, "<f4").copy()
        data[offset] = value
        return header + b"\n" + data.tobytes()
    return corrupt


@pytest.mark.parametrize("corrupt, message", [
    pytest.param(lambda raw: raw[:-3], "float32", id="cut"),
    pytest.param(lambda raw: raw[:40], "header line is cut", id="cut-in-header"),
    pytest.param(_cut_payload(0), "payload of 0 bytes", id="cut-at-payload-start"),
    pytest.param(_cut_payload(1), "payload of 1 bytes", id="cut-after-one-byte"),
    pytest.param(_cut_payload(4 * 4000), "13 channels of 4000 float32", id="cut-after-one-channel"),
    pytest.param(_cut_payload(-4), "float32", id="cut-one-sample"),
    pytest.param(lambda raw: raw + b"\0", f"payload of {13 * 4000 * 4 + 1} bytes", id="appended-byte"),
    pytest.param(lambda raw: bytes([raw[0] ^ 1]) + raw[1:], "not a SIGREC3 recording", id="flipped-magic"),
    pytest.param(_sample_major, "an older SIGREC1 float64 recording; run 'synth' again", id="sample-major-sigrec1"),
    pytest.param(_channel_major_float64, "an older SIGREC2 float64 recording; run 'synth' again",
                 id="channel-major-float64-sigrec2"),
    pytest.param(_edit_header(lambda h: h.replace(b",mic_front_5m,", b",mic_front_10m,")),
                 "header repeats channel 'mic_front_10m'", id="repeated-channel"),
    pytest.param(_edit_header(lambda h: h.replace(b"mic_front_10m", b"bogus_id")),
                 "header names channel 'bogus_id', which is not in the roster", id="unknown-channel"),
    pytest.param(_edit_header(lambda h: h.replace(b" duration=2.0", b"")), "duration", id="no-duration"),
    pytest.param(_edit_header(lambda h: h.replace(b"rate=2000", b"rate=fast")), "fast", id="rate"),
    pytest.param(_edit_header(lambda h: h.replace(b"duration=2.0", b"duration=2s")), "2s", id="duration"),
    # headers that parse but cannot give one 1-second block resolving 300 Hz
    pytest.param(_edit_header(lambda h: h.replace(b"rate=2000", b"rate=500")),
                 "rate 500 Hz is below 600", id="rate-below-600"),
    pytest.param(_edit_header(lambda h: h.replace(b"duration=2.0", b"duration=0.5")),
                 "1000 samples at 2000 Hz is shorter than one second", id="under-one-second"),
    # the last channel, mag_z_side_10m, is one that Group2 fuses
    pytest.param(lambda raw: raw[:-4] + np.array([np.nan], "<f4").tobytes(),
                 "channel 'mag_z_side_10m' holds non-finite", id="nan"),
])
def test_corrupt_recording_is_data_error(smoke, tmp_path, capsys, corrupt, message):
    cfg_path, out = smoke
    copy = tmp_path / "out"
    shutil.copytree(out, copy, ignore=shutil.ignore_patterns("rows.npz", "heatmap_AllQuiet.*"))
    rec = copy / "recordings" / "AllQuiet_t1.rec"
    rec.write_bytes(corrupt(rec.read_bytes()))
    assert run(cfg_path, copy, "rows") == 2
    _one_error_line(capsys, rec, message)
    assert run(cfg_path, copy, "heatmap", "AllQuiet") == 2
    _one_error_line(capsys, rec, message)
    assert not list(copy.glob("rows.npz")) + list(copy.glob("heatmap_AllQuiet.*"))


def test_recording_without_a_fused_channel_is_data_error(smoke, tmp_path, capsys):
    # synth writes every roster channel, so a header without a fused one is a damaged file
    cfg_path, out = smoke
    copy = tmp_path / "out"
    shutil.copytree(out, copy, ignore=shutil.ignore_patterns("rows.npz", "heatmap_AllQuiet.*"))
    rec = copy / "recordings" / "AllQuiet_t1.rec"
    rec.write_bytes(_edit_header(lambda h: h.replace(b"mag_z_side_10m", b"mag_z_side_11m"))(rec.read_bytes()))
    assert run(cfg_path, copy, "rows") == 2
    # the new id is outside the roster, which both stages check before the fused channels
    _one_error_line(capsys, rec, "header names channel 'mag_z_side_11m', which is not in the roster")
    assert run(cfg_path, copy, "heatmap", "AllQuiet") == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {rec}: header names channel 'mag_z_side_11m', which is not in the roster"]
    assert not list(copy.glob("rows.npz")) + list(copy.glob("heatmap_AllQuiet.*"))


def _drop_channel(cid):
    """Drop channel `cid` from the header's channel list, its last field, and its samples from the payload."""
    def corrupt(raw):
        header, payload = raw.split(b"\n", 1)
        head, ids = header.rsplit(b"channels=", 1)
        ids = ids.split(b",")
        keep = [k for k, other in enumerate(ids) if other != cid]
        samples = np.frombuffer(payload, "<f4").reshape(len(ids), -1)[keep]
        return head + b"channels=" + b",".join(ids[k] for k in keep) + b"\n" + samples.tobytes()
    return corrupt


def test_recording_that_lacks_a_fused_channel_fails_rows(smoke, tmp_path, capsys):
    # a consistent file of 12 roster channels, without one that Group2 fuses
    cfg_path, out = smoke
    copy = tmp_path / "out"
    shutil.copytree(out, copy, ignore=shutil.ignore_patterns("rows.npz", "heatmap_AllQuiet.*"))
    rec = copy / "recordings" / "AllQuiet_t1.rec"
    rec.write_bytes(_drop_channel(b"mag_z_side_10m")(rec.read_bytes()))
    kept = [cid for cid in synthgen.ROSTER if cid != "mag_z_side_10m"]
    assert len(synthgen.load_recording(rec, kept).channels) == len(synthgen.ROSTER) - 1 == 12
    assert run(cfg_path, copy, "rows") == 2
    _one_error_line(capsys, rec, "recording 'AllQuiet' has no channel ['mag_z_side_10m']")
    assert not (copy / "rows.npz").exists()


def test_non_finite_sample_in_unfused_channel_fails_only_heatmap(smoke, tmp_path, capsys):
    # rows reads only the fused channels, so a nan elsewhere never reaches
    # rows.npz; heatmap reads every channel and rejects it
    cfg_path, out = smoke
    copy = tmp_path / "out"
    shutil.copytree(out, copy, ignore=shutil.ignore_patterns("rows.npz", "heatmap_AllQuiet.*"))
    rec = copy / "recordings" / "AllQuiet_t1.rec"
    rec.write_bytes(_set_sample(5, np.nan)(rec.read_bytes()))  # mic_front_10m, not fused in Group2
    assert run(cfg_path, copy, "rows") == 0
    assert (copy / "rows.npz").read_bytes() == (out / "rows.npz").read_bytes()
    capsys.readouterr()
    assert run(cfg_path, copy, "heatmap", "AllQuiet") == 2
    _one_error_line(capsys, rec, "channel 'mic_front_10m' holds non-finite")
    assert not list(copy.glob("heatmap_AllQuiet.*"))


@pytest.mark.parametrize("token", ["nan", "inf"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_non_finite_rows_is_data_error(smoke, tmp_path, capsys, command, token):
    cfg_path, out = smoke
    ds = trainer.load_rows(out / "rows.npz")
    x = np.stack([r.bins for r in ds.rows])
    x[3, 0] = float(token)
    rows_path = tmp_path / "rows.npz"
    trainer.save_rows(rows_path, x, [r.label for r in ds.rows])
    ckpt = tmp_path / "model.bin"
    _save_smoke_checkpoint(ckpt)
    argv = [command, "--rows", str(rows_path)]
    if command == "eval":
        argv += ["--checkpoint", str(ckpt)]
    assert run(cfg_path, tmp_path / "o", *argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0] == f"error: {rows_path}: row 4: non-finite magnitude (nan or inf)"


def test_train_manifest_records_guard_from_rows(tmp_path):
    # Group2 has 4 labels (guard 1); these rows carry 7, so the guard is 3
    labels = [f"L{k}" for k in range(7)]
    rng = np.random.default_rng(5)
    x, row_labels = [], []
    for i in range(10):
        for k, label in enumerate(labels):
            bins = 0.1 + 0.01 * rng.random(N_BINS)
            bins[10 * (k + 1)] = 5.0 + 0.01 * i
            x.append(bins)
            row_labels.append(label)
    rows_path = tmp_path / "rows.npz"
    trainer.save_rows(rows_path, np.stack(x), row_labels)
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text("group = Group2\nruns = 2\nbatch_size = 16\n")
    assert run(cfg_path, tmp_path / "o", "train", "--rows", str(rows_path)) == 0
    manifest = json.loads((tmp_path / "o" / "train_manifest.json").read_text())
    _, report = fusion.compute_selection(np.stack(x), np.arange(len(x)) % 7, labels, manifest["config"]["threshold"])
    assert manifest["max_classes_per_bin"] == report.max_classes_per_bin == 3
    assert "max_classes_per_bin" not in manifest["config"]
    assert manifest["config"]["group"] == "Group2"


def test_every_cli_option_is_documented():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    named = [opt for a in parser._actions if a is not commands and a.dest != "help" for opt in a.option_strings]
    for command, sub in commands.choices.items():
        for action in sub._actions:
            if action.dest != "help":  # a positional is named by its dest: heatmap <label>
                named += [f"{command} {opt}" for opt in action.option_strings] or [f"{command} <{action.dest}>"]
    assert [name for name in named if not re.search(rf"{re.escape(name)}(?![\w-])", readme)] == []


PAST_NUMPY = "would pass numpy's largest array (9223372036854775807 bytes)"


def size_case(key, value, command, message):
    return pytest.param(key, value, command, message, id=f"{key}-{value}-{command}")


@pytest.mark.parametrize("key, value, command, message", [
    size_case("duration_s", "1e12", "synth", "Unable to allocate"),                   # (13, 2e15) float64 samples
    size_case("blocks_per_recording", "1000000000000", "rows", "Unable to allocate"),  # (8e12, 300) float64 rows
    size_case("heatmap_blocks", "100000000000000", "heatmap AllQuiet",
              "Unable to allocate"),                                     # 1e14 int64 block offsets
    size_case("runs", "100000000000000", "train", "Unable to allocate"),  # a (1e14, 5) float64 run log
    # past 2**63 - 1 bytes numpy raises ValueError, not MemoryError, so these sizes are checked first
    size_case("duration_s", "1e16", "synth", "duration_s = 1e+16 at sample_rate_hz = 2000 is too large: "
              f"a recording of shape (13, 20000000000000000000) {PAST_NUMPY}"),
    size_case("blocks_per_recording", "100000000000000000", "rows",
              "blocks_per_recording = 100000000000000000 is too large: "
              f"the rows of shape (800000000000000000, 300) {PAST_NUMPY}"),
    size_case("heatmap_blocks", "10000000000000000000", "heatmap AllQuiet",
              "heatmap_blocks = 10000000000000000000 is too large: "
              f"a recording's block offsets of shape (10000000000000000000,) {PAST_NUMPY}"),
    size_case("runs", "10000000000000000000", "train", "runs = 10000000000000000000 is too large: "
              f"the run log of shape (10000000000000000000, 5) {PAST_NUMPY}"),
])
def test_size_too_large_to_allocate_is_usage_error(smoke, tmp_path, capsys, key, value, command, message):
    # each first large allocation that numpy accepts is above 2**47 bytes, past the address space,
    # so it fails at once
    _, out = smoke
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    cfg_path = tmp_path / "config.txt"
    lines = [line for line in SMOKE_CONFIG.splitlines() if not line.startswith(f"{key} =")]
    cfg_path.write_text("\n".join([*lines, f"{key} = {value}"]) + "\n")
    assert run(cfg_path, copy, *command.split()) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}")


@pytest.mark.parametrize("profiles, message", [
    pytest.param(1, "Unable to allocate", id="one-profile"),
    pytest.param(2, "blocks_per_recording = 2000000000000000 is too large: "
                 f"the rows of shape (4000000000000000, 300) {PAST_NUMPY}", id="two-profiles"),
])
def test_rows_size_counts_the_profiles(tmp_path, capsys, profiles, message):
    # the rows of one profile (4.8e18 bytes) fit numpy's largest array and fail to allocate; two pass it
    path = tmp_path / "profiles.txt"
    path.write_text("".join(f"profile P{k}\nline geo_front_10m 45 1.5 0.0\n" for k in range(profiles)))
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(f"profiles_file = {path}\ntrials = 1\nblocks_per_recording = 2000000000000000\n")
    assert run(cfg_path, tmp_path / "out", "rows") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["noise_rms", "jitter_hz"])
def test_noise_key_beside_profiles_file_is_usage_error(tmp_path, capsys, key):
    # the profiles file sets each profile's noise floor and line jitter, so the key would do nothing
    path = tmp_path / "profiles.txt"
    path.write_text("profile A\nnoise_rms 2.0\nline geo_front_10m 45 1.5 0.5\n")
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(f"trials = 1\n{key} = 9\nprofiles_file = {path}\n")
    assert run(cfg_path, tmp_path / "out", "synth") == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {cfg_path}:2: config key {key!r} cannot be set beside profiles_file, "
                   "whose profiles set it"]
    assert not (tmp_path / "out").exists()


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        cli.main(["frobnicate"])
    assert err.value.code == 1


def test_selection_failure_exits_three(tmp_path, capsys):
    # two classes with identical spectra: nothing can be selected; bin 1 is
    # zero, and its warning still reaches stderr ahead of the error
    x = np.ones((20, N_BINS))
    x[:, 0] = 0.0
    rows_path = tmp_path / "rows.npz"
    trainer.save_rows(rows_path, x, ["A"] * 10 + ["B"] * 10)
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
        x = np.stack([bins for bins, _ in base])
        x[:, 49] = fill
        rows_path = tmp_path / f"rows_{fill}.npz"
        trainer.save_rows(rows_path, x, [label for _, label in base])
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
        assert cli.main(["--config", str(cfg_path), "--out", str(out), "heatmap", "AllQuiet"]) == 0
        outs.append(out)
    # every file, the manifests included: none records the out dir's path
    assert_same_files(*outs)


def assert_same_files(a, b):
    """The two directories hold the same relative file names with the same bytes."""
    names = sorted(str(p.relative_to(a)) for p in a.rglob("*") if p.is_file())
    assert names == sorted(str(p.relative_to(b)) for p in b.rglob("*") if p.is_file())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_train_and_eval_manifests_name_inputs_as_given(smoke, tmp_path):
    cfg_path, out = smoke
    outs = [tmp_path / "one", tmp_path / "two"]
    for dest in outs:
        dest.mkdir()
        shutil.copy(out / "rows.npz", dest)
        assert run(cfg_path, dest, "train") == 0
        assert run(cfg_path, dest, "eval") == 0
    assert_same_files(*outs)  # the default inputs are recorded by their bare names
    eval_manifest = json.loads((outs[0] / "eval_manifest.json").read_text())
    assert (eval_manifest["checkpoint"], eval_manifest["rows_file"]) == ("checkpoint.bin", "rows.npz")
    assert "out_dir" not in eval_manifest["config"]

    given = str(outs[0] / "rows.npz")
    assert run(cfg_path, tmp_path / "three", "train", "--rows", given) == 0
    assert json.loads((tmp_path / "three" / "train_manifest.json").read_text())["rows_file"] == given


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
    ds = trainer.load_rows(out / "rows.npz")
    assert len(ds.rows) == 1
    assert len(ds.rows[0].bins) == N_BINS
    assert ds.rows[0].label == "Lonely"
    # the 45 Hz line dominates the fused spectrum
    assert int(np.argmax(ds.rows[0].bins)) + 1 == 45


@pytest.mark.parametrize("text, message", [
    pytest.param("profile A\nnoise_rms nan\nline geo_front_10m 45 1.5 0.0\n",
                 ":2: noise_rms", id="nan"),
    pytest.param("profile A\nnoise_rms -1\nline geo_front_10m 45 1.5 0.0\n",
                 ":2: noise_rms", id="-1"),
    pytest.param("profile A\nline geo_front_10m 45 1.5 0.0\nprofile B\nprofile A\n",
                 ":4: profile 'A' is defined twice", id="repeated"),
    pytest.param("profile A\nline geo_front_10m 45 1.5 0.0\nline mic_front_1m 45 1.5 0.0\n",
                 ":3: unknown channel 'mic_front_1m'", id="channel"),
    pytest.param("# no profiles\n", ": no profiles", id="empty"),
    pytest.param("profile A\nline geo_front_10m 500 1.5 0.0\n",
                 ":2: line frequency 500", id="freq"),
    pytest.param("profile A\nline geo_front_10m 45 nan 0.0\n",
                 ":2: line amplitude nan", id="amp"),
    pytest.param("profile A\nline geo_front_10m 0 1.5 0.0\n",
                 ":2: line frequency 0 outside", id="freq-0"),
    pytest.param("profile A\nline geo_front_10m 301 1.5 0.0\n",
                 ":2: line frequency 301 outside", id="freq-301"),
    pytest.param("profile A\nline geo_front_10m 45 -1 0.0\n",
                 ":2: line amplitude -1.0", id="amp-negative"),
    pytest.param("profile A\nline geo_front_10m 45 inf 0.0\n",
                 ":2: line amplitude inf", id="amp-inf"),
    pytest.param("profile A\nline geo_front_10m 45 1.5 -0.5\n",
                 ":2: line jitter -0.5", id="jitter-negative"),
    pytest.param("profile A\nline geo_front_10m 45 1.5 nan\n",
                 ":2: line jitter nan", id="jitter-nan"),
    pytest.param("profile A\nnoise_rms inf\nline geo_front_10m 45 1.5 0.0\n",
                 ":2: noise_rms inf", id="noise-inf"),
    pytest.param("profile has space\n", ":1: expected: profile <label>", id="label-space"),
    pytest.param("profile A,B\n", ":1: label 'A,B'", id="label"),
    pytest.param("profile ../escape\nline geo_front_10m 45 1.5 0.0\n",
                 ":1: label '../escape'", id="label-dotdot"),
    pytest.param("profile a/b\n", ":1: label 'a/b'", id="label-slash"),
    pytest.param("profile a\\b\n", ":1: label 'a\\\\b'", id="label-backslash"),
    pytest.param("profile A\nline geo_front_10m 4.5 1.5 0.0\n",
                 ":2: bad number", id="number"),
])
def test_profiles_file_bad_noise_rms_is_data_error(tmp_path, capsys, text, message):
    profiles = tmp_path / "profiles.txt"
    profiles.write_text(text)
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(f"profiles_file = {profiles}\ntrials = 1\nduration_s = 2.0\n")
    assert run(cfg_path, tmp_path / "out", "synth") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {profiles}{message}")  # error: <path>:<line>: ...
    assert not (tmp_path / "out").exists()


# recordings store float32, so such a sample would be written as inf and fail the next stage
@pytest.mark.parametrize("config, profiles, label, channel", [
    pytest.param("noise_rms = 1e38\n", None, "AllQuiet", "mic_front_10m", id="noise-rms-1e38"),
    pytest.param("noise_rms = 1e308\n", None, "AllQuiet", "mic_front_10m", id="noise-past-float64"),
    pytest.param("", "profile Loud\nline geo_front_10m 45 1e39 0.0\n", "Loud", "geo_front_10m",
                 id="line-amplitude-1e39"),
])
def test_sample_past_float32_range_is_data_error(tmp_path, capsys, config, profiles, label, channel):
    if profiles:
        (tmp_path / "profiles.txt").write_text(profiles)
        config += f"profiles_file = {tmp_path / 'profiles.txt'}\n"
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(config + "trials = 1\nduration_s = 2.0\n")
    out = tmp_path / "out"
    assert run(cfg_path, out, "synth") == 2
    _one_error_line(capsys, out / "recordings" / f"{label}_t1.rec",
                    f"not written: channel {channel!r} holds a sample outside float32's finite range")
    assert not list((out / "recordings").iterdir()) and not (out / "synth_manifest.json").exists()
    assert not (out / "profiles.txt").exists()


def test_failed_synth_leaves_earlier_profiles(tmp_path, capsys):
    # a second synth that fails keeps the profiles.txt that describes the recordings beside it
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(SMOKE_CONFIG)
    out = tmp_path / "out"
    assert run(cfg_path, out, "synth") == 0
    before = {name: (out / name).read_bytes() for name in ("profiles.txt", "synth_manifest.json")}
    cfg_path.write_text(SMOKE_CONFIG.replace("seed = 7", "seed = 8") + "noise_rms = 1e38\n")
    assert run(cfg_path, out, "synth") == 2
    _one_error_line(capsys, out / "recordings" / "AllQuiet_t1.rec", "outside float32's finite range")
    assert {name: (out / name).read_bytes() for name in before} == before


def test_failed_synth_leaves_earlier_recordings(tmp_path, capsys):
    # B's recording fails after A's is written at the new seed: no pair of recordings may mix two seeds
    profiles = tmp_path / "profiles.txt"
    profiles.write_text("profile A\nline geo_front_10m 45 1.5 0.0\nprofile B\nline geo_front_10m 90 1.5 0.0\n")
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(f"profiles_file = {profiles}\ntrials = 1\nduration_s = 2.0\nseed = 0\n")
    out = tmp_path / "out"
    assert run(cfg_path, out, "synth") == 0
    before = {p.name: p.read_bytes() for p in (out / "recordings").iterdir()}
    profiles.write_text(profiles.read_text().replace("90 1.5", "90 1e39"))
    cfg_path.write_text(cfg_path.read_text().replace("seed = 0", "seed = 5"))
    assert run(cfg_path, out, "synth") == 2
    _one_error_line(capsys, out / "recordings" / "B_t1.rec", "outside float32's finite range")
    assert {p.name: p.read_bytes() for p in (out / "recordings").iterdir()} == before
    assert sorted(before) == ["A_t1.rec", "B_t1.rec"]
    assert sorted(p.name for p in out.iterdir()) == ["profiles.txt", "recordings", "synth_manifest.json"]


def test_synth_leaves_only_its_own_recordings(tmp_path):
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(SMOKE_CONFIG)
    out = tmp_path / "out"
    assert run(cfg_path, out, "synth") == 0
    cfg_path.write_text(SMOKE_CONFIG.replace("trials = 2", "trials = 1"))
    assert run(cfg_path, out, "synth") == 0
    assert sorted(p.name for p in (out / "recordings").iterdir()) == [f"{label}_t1.rec" for label in sorted(SMOKE_LABELS)]
    assert sorted(p.name for p in out.iterdir()) == ["profiles.txt", "recordings", "synth_manifest.json"]


@pytest.mark.parametrize("case, message", [
    pytest.param("train-rows", "rows.csv: not a rows store", id="train-rows"),
    pytest.param("eval-rows", "rows.csv: not a rows store", id="eval-rows"),
    pytest.param("profiles", "profiles.txt: not UTF-8 text", id="profiles"),
    pytest.param("config", "config.txt: not UTF-8 text", id="config"),
    pytest.param("train-rows-dir", "Is a directory", id="train-rows-dir"),
    pytest.param("eval-checkpoint-dir", "Is a directory", id="eval-checkpoint-dir"),
    pytest.param("config-dir", "Is a directory", id="config-dir"),
])
def test_unreadable_input_is_data_error(smoke, tmp_path, capsys, case, message):
    cfg_path, out = smoke
    rows, ckpt, folder = tmp_path / "rows.csv", tmp_path / "model.bin", tmp_path / "folder"
    rows.write_bytes(b"1.0,2.0,A\n\xff\n")
    _save_smoke_checkpoint(ckpt)
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
    x, labels = [], []
    for i in range(max(sizes.values())):
        for k, label in enumerate(sizes):
            if i < sizes[label]:
                bins = 0.1 + 0.01 * rng.random(N_BINS)
                bins[10 * (k + 1) - 1] = 5.0 + 0.01 * i
                x.append(bins)
                labels.append(label)
    trainer.save_rows(path, np.stack(x), labels)


def test_split_warning_goes_to_stderr(tmp_path, capsys):
    # at 4%, round(8.4) = 8 of the 210 rows train; at seed 0 none of them is one of A's 10
    rows_path = tmp_path / "rows.npz"
    _two_class_rows(rows_path, {"A": 10, "B": 200})
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text("train_fraction = 0.04\nruns = 2\nbatch_size = 4\n")
    assert run(cfg_path, tmp_path / "o", "train", "--rows", str(rows_path)) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: class 'A' absent from the training split\n"
    assert "final test accuracy" in captured.out and "on 202 rows" in captured.out


def test_empty_test_split_is_data_error(tmp_path, capsys):
    rows_path = tmp_path / "rows.npz"
    _two_class_rows(rows_path, {"A": 10, "B": 10})
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text("train_fraction = 0.99\nruns = 2\nbatch_size = 4\n")
    assert run(cfg_path, tmp_path / "o", "train", "--rows", str(rows_path)) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: the test split is empty; lower train_fraction"]


@pytest.mark.parametrize("config, error", [
    pytest.param("batch_size = 400\n", "batch_size 400 exceeds the 16 training rows", id="batch"),
    pytest.param("train_fraction = 0.99\nbatch_size = 4\n", "the test split is empty; lower train_fraction",
                 id="split"),
])
def test_rejected_training_writes_no_mask(tmp_path, capsys, config, error):
    rows_path = tmp_path / "rows.npz"
    _two_class_rows(rows_path, {"A": 10, "B": 10})
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(config + "runs = 2\n")
    assert run(cfg_path, tmp_path / "o", "train", "--rows", str(rows_path)) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
    assert not (tmp_path / "o" / "mask.txt").exists()
    assert not (tmp_path / "o" / "selection_report.csv").exists()


def test_eval_rows_label_missing_from_checkpoint_is_data_error(smoke, tmp_path, capsys):
    cfg_path, out = smoke
    ckpt = tmp_path / "model.bin"
    dnn.save_checkpoint(ckpt, dnn.init_network(3, 3, seed=1), [3, 17, 120], SMOKE_LABELS[:3], True)
    argv = ["eval", "--checkpoint", str(ckpt), "--rows", str(out / "rows.npz")]
    assert run(cfg_path, tmp_path / "o", *argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: label 'Saab83' not in vocabulary")


def test_eval_maps_rows_into_a_checkpoint_vocabulary_of_another_order(smoke, tmp_path):
    # the same model with its outputs and labels reordered scores the same rows the same way
    _, out = smoke
    rows = str(out / "rows.npz")
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(SMOKE_CONFIG.replace("runs = 3", "runs = 200"))
    assert run(cfg_path, tmp_path / "a", "train", "--rows", rows) == 0
    params, mask_bins, vocab, normalize = dnn.load_checkpoint(tmp_path / "a" / "checkpoint.bin")
    assert vocab == SMOKE_LABELS  # the rows' first-appearance order
    order = [2, 0, 3, 1]
    dnn.save_checkpoint(tmp_path / "reordered.bin", [*params[:2], params[2][order]], mask_bins,
                        [vocab[k] for k in order], normalize)
    assert run(cfg_path, tmp_path / "a", "eval", "--rows", rows) == 0
    assert run(cfg_path, tmp_path / "b", "eval", "--checkpoint", str(tmp_path / "reordered.bin"),
               "--rows", rows) == 0
    counts = [np.loadtxt(tmp_path / d / "eval_confusion.csv", delimiter=",", skiprows=1,
                         usecols=range(1, 6), dtype=int) for d in "ab"]
    assert len(np.flatnonzero(counts[0][:, :4].sum(axis=0))) > 1  # more than one class predicted
    assert np.array_equal(counts[1], counts[0][order][:, order + [4]])
