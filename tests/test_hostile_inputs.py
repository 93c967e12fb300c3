"""Seeded damage to each file a stage reads, the `--config` file among them:
the stage either succeeds or exits with exactly one `error:` line, and never
raises.

Each damaged copy is made from a genuine file of one small pipeline run by one
of five edits at a seeded position: a bit flip, a cut, appended bytes, one byte
overwritten, or bytes inserted.  A third of the positions fall in the file's
first 256 bytes and a third in its last 256, where the headers and the zip
directory lie.  Every case runs in-process through `cli.main`, so an exception
that escapes is caught here and reported, and so is a Python warning, which
pytest turns into an error.  A damaged file may still be read as data (a
flipped payload bit of a `.rec` file is just another sample), so exit 0 is
allowed, with no `error:` line.
"""

import shutil

import numpy as np
import pytest

from sigclass import cli
from test_cli import SMOKE_CONFIG

CASES_PER_FILE = 40

# a copy of the run's profiles.txt, which the config names as its profiles_file
PROFILES = "profiles_file.txt"

# the run's config plus that profiles_file, named relative to the out dir, the
# working directory of each case, so the file's bytes and damage are the same in any checkout
CONFIG = "config.txt"

# each file under the out dir, and the commands that read it
READERS = {
    "recordings/AllQuiet_t1.rec": ["rows", "heatmap AllQuiet"],
    PROFILES: ["synth", "rows", "heatmap AllQuiet"],
    "rows.npz": ["train", "eval"],
    "checkpoint.bin": ["eval"],
    CONFIG: ["synth", "rows", "heatmap AllQuiet", "train", "eval"],
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """The genuine files: one synth, rows and train run, a copy of its profiles and its config."""
    root = tmp_path_factory.mktemp("hostile")
    cfg_path = root / "config.txt"
    cfg_path.write_text(SMOKE_CONFIG)
    out = root / "out"
    for command in ("synth", "rows", "train"):
        assert cli.main(["--config", str(cfg_path), "--out", str(out), command]) == 0
    shutil.copyfile(out / "profiles.txt", out / PROFILES)
    (out / CONFIG).write_text(SMOKE_CONFIG + f"profiles_file = {PROFILES}\n")
    return out


def _damage(raw, rng):
    """raw with one seeded edit; returns (description, damaged bytes)."""
    zone = rng.integers(3)
    if zone == 0:
        i = int(rng.integers(min(len(raw), 256)))
    elif zone == 1:
        i = len(raw) - 1 - int(rng.integers(min(len(raw), 256)))
    else:
        i = int(rng.integers(len(raw)))
    extra = rng.bytes(int(rng.integers(1, 17)))
    kind = ["flip", "cut", "append", "overwrite", "insert"][rng.integers(5)]
    damaged = {
        "flip": lambda: raw[:i] + bytes([raw[i] ^ 1 << int(rng.integers(8))]) + raw[i + 1 :],
        "cut": lambda: raw[:i],
        "append": lambda: raw + extra,
        "overwrite": lambda: raw[:i] + extra[:1] + raw[i + 1 :],
        "insert": lambda: raw[:i] + extra + raw[i:],
    }[kind]()
    return f"{kind} at {i}", damaged


def _argv(command, work, scratch):
    """rows and heatmap read the out dir; synth, train and eval write elsewhere."""
    if command == "synth":
        return ["--out", str(scratch), command]
    if command in ("train", "eval"):
        inputs = ["--rows", str(work / "rows.npz")]
        if command == "eval":
            inputs += ["--checkpoint", str(work / "checkpoint.bin")]
        return ["--out", str(scratch), command, *inputs]
    return ["--out", str(work), *command.split()]


@pytest.mark.parametrize("name", list(READERS))
def test_damaged_file_fails_with_one_line(pipeline, tmp_path, capsys, monkeypatch, name):
    work = tmp_path / "out"
    shutil.copytree(pipeline, work)
    monkeypatch.chdir(work)
    cfg_path = work / CONFIG
    target = work / name
    genuine = target.read_bytes()
    rng = np.random.default_rng([2018, list(READERS).index(name)])
    failures = []
    for _ in range(CASES_PER_FILE):
        what, damaged = _damage(genuine, rng)
        target.write_bytes(damaged)
        for command in READERS[name]:
            try:
                code = cli.main(["--config", str(cfg_path), *_argv(command, work, tmp_path / "o")])
            except Exception as exc:
                failures.append(f"{command} on {what}: raised {type(exc).__name__}: {exc}")
                continue
            finally:
                err = capsys.readouterr().err.splitlines()
            errors = [line for line in err if line.startswith("error: ")]
            if len(errors) != (code != 0) or any(not line.startswith(("error: ", "warning: ")) for line in err):
                failures.append(f"{command} on {what}: exit {code}, stderr {err}")
    assert not failures, "\n".join(failures)
