"""Byte identity of the five stages against a committed digest table.

Runs synth, rows, heatmap AllQuiet, train and eval in-process on a tiny
Group2 and a tiny Group1 config and compares the sha256 of every output file,
each stage's stdout and stderr, and each exit code with golden_digests.json.
A change that alters output bytes on purpose regenerates the table with
`PYTHONPATH=src python tests/test_golden.py` in the same commit and names
each changed file; the script prints every entry (group, stage or `files`,
and name) whose digest changed.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from sigclass import cli

TABLE = Path(__file__).with_name("golden_digests.json")
TINY = "seed = 11\nduration_s = 3.0\ntrials = 2\nblocks_per_recording = 10\nbatch_size = 32\nruns = 20\n"
CONFIGS = {"Group2": f"group = Group2\n{TINY}", "Group1": f"group = Group1\n{TINY}"}
STAGES = ("synth", "rows", "heatmap AllQuiet", "train", "eval")


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def digests(root, config_text):
    """Run the five stages under root; the digests of their files, streams and exit codes."""
    cfg = root / "config.txt"
    cfg.write_text(config_text)
    out = root / "out"
    table = {}
    for stage in STAGES:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(["--config", str(cfg), "--out", str(out), *stage.split()])
        # stdout names the files it wrote; the table must not depend on where they are
        table[stage] = {"exit": code, **{name: _sha(s.getvalue().replace(str(out), "<out>").encode())
                                         for name, s in (("stdout", stdout), ("stderr", stderr))}}
    table["files"] = {p.relative_to(out).as_posix(): _sha(p.read_bytes())
                      for p in sorted(out.rglob("*")) if p.is_file()}
    return table


@pytest.mark.parametrize("group", CONFIGS)
def test_stage_outputs_match_golden_digests(tmp_path, group):
    golden = json.loads(TABLE.read_text(encoding="utf-8"))[group]
    assert digests(tmp_path, CONFIGS[group]) == golden


def changed_entries(old, new):
    """The '<group> <stage or files> <entry>' names whose value differs between two tables, or is in one only."""
    def flat(table):
        return {f"{group} {part} {name}": value for group, parts in table.items()
                for part, entries in parts.items() for name, value in entries.items()}
    old, new = flat(old), flat(new)
    return sorted(key for key in old.keys() | new.keys() if old.get(key) != new.get(key))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {}
        for group, text in CONFIGS.items():
            (Path(tmp) / group).mkdir()
            table[group] = digests(Path(tmp) / group, text)
    before = json.loads(TABLE.read_text(encoding="utf-8")) if TABLE.exists() else {}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    changed = changed_entries(before, table)
    print(f"wrote {TABLE}; {len(changed)} entries changed" + "".join(f"\n  {key}" for key in changed))
