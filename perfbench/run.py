"""sigclass benchmark: the five-stage CLI pipeline on two workloads.

    python3 perfbench/run.py --workload g1_overtrain --seed 0 --seconds 55 --trace 0

Run from the root of a source checkout (the program is imported from `src/`).
A run makes two passes, each in a fresh worker interpreter (see worker.py)
and each owning half of `--seconds`: synth -> rows -> heatmap AllQuiet ->
train -> eval, then stage re-runs until the half is used.  Outputs go to
`.perfbench_work/` inside the checkout, which is removed at the end.  Every
pass is checked: each stage exits 0, the held-out accuracy and mask size meet
the README gates, the row count matches the config, and every output file is
byte-identical to the first pass (the documented determinism; with tracing
on this also checks that tracing changes no output).

With `--trace 0` the end-to-end metrics of BENCHMARK.json are reported; with
`--trace 1` the second pass is traced and the per-layer metrics plus the
tracing overhead are reported.  `--workload all` runs every workload in turn.
Times are medians over the run's samples, each corrected for the host's speed
at the time (see hostspeed.py); workers run with one BLAS thread.

Standard output ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
preceded by a readable table and a `# env` line stamping the environment.
The exit code is 0 only if every check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import SpeedSampler, corrected
from tracer import STAGES

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

WORKLOADS = {
    # paper's overtraining experiment: the training loop dominates
    "g1_overtrain": {"group": "Group1", "runs": 1000},
    # 5000 fused rows: rows CSV text I/O and batch inference
    "g2_bigrows": {"group": "Group2", "blocks_per_recording": 250},
}
ACCURACY_FLOOR = {"Group1": 0.80, "Group2": 0.90}
MASK_BINS = (20, 125)
PASSES = 2
SETUP_SAMPLES_PER_PASS = 5
WORKER_GRACE_S = 60  # a worker past its budget by this much is killed
# Times corrected for host speed (hostspeed.py); samples are (wall, slowdown) pairs.
CORRECTED = tuple(f"{stage}_s" for stage in STAGES) + ("setup_s",)
# One BLAS thread: the workers run on one CPU, where the probes run too.
BENCH_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                 MKL_NUM_THREADS="1")
SETUP_CODE = "import sys; sys.path.insert(0, 'src'); import sigclass.cli as c; c.build_parser()"


class Checks:
    """Tally of attempted and failed output checks; failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def measure_setup(checks):
    """(wall seconds, host slowdown) for a fresh interpreter to import
    sigclass.cli and build the parser.

    The probes run in this process, which waits meanwhile, so it follows the
    host's speed but not necessarily that of the interpreter's CPU.
    """
    with SpeedSampler() as sampler:
        started = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=BENCH_ENV,
                              timeout=60)
        elapsed = time.perf_counter() - started
    checks.check(proc.returncode == 0, f"setup interpreter exited {proc.returncode}")
    return elapsed, sampler.estimate()


def digest_outputs(out):
    """{relative path: sha256} of every file under `out`, and their total bytes."""
    digests, total = {}, 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        with open(path, "rb") as fh:
            digests[str(path.relative_to(out))] = hashlib.file_digest(fh, "sha256").hexdigest()
        total += path.stat().st_size
    return digests, total


def check_outputs(out, workload, checks):
    """README gates on one pass's outputs; returns (test_accuracy, eval_accuracy)."""
    group = WORKLOADS[workload]["group"]
    read = lambda name: json.loads((out / f"{name}_manifest.json").read_text())
    train, rows, evaluation = read("train"), read("rows"), read("eval")
    cfg = rows["config"]
    expected_rows = len(set(e["label"] for e in read("synth")["recordings"])) \
        * cfg["trials"] * cfg["blocks_per_recording"]
    checks.check(rows["row_count"] == expected_rows,
                 f"rows.csv has {rows['row_count']} rows, expected {expected_rows}")
    checks.check(train["test_accuracy"] >= ACCURACY_FLOOR[group],
                 f"test accuracy {train['test_accuracy']} below {ACCURACY_FLOOR[group]}")
    lo, hi = MASK_BINS
    checks.check(lo <= train["mask_size"] <= hi, f"mask size {train['mask_size']} outside {lo}..{hi}")
    return train["test_accuracy"], evaluation["accuracy"]


def run_pass(config_path, out, trace, budget_s, checks):
    """One worker pass; returns its record, or None if the worker failed."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
           "--config", str(config_path), "--out", str(out), "--budget-s", f"{budget_s:.3f}"]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=BENCH_ENV, stdout=subprocess.PIPE, text=True,
                              timeout=max(budget_s, 0) + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        checks.check(False, f"worker ran {WORKER_GRACE_S} s past its budget and was killed")
        return None
    if not checks.check(proc.returncode == 0, f"worker exited {proc.returncode}"):
        return None
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    for stage, codes in record["codes"].items():
        for code in codes:
            checks.check(code == 0, f"stage {stage} exited {code}")
    if not checks.check(len(record["codes"]) == len(STAGES), "pipeline stopped early"):
        return None
    return record


def run_workload(workload, seed, seconds, trace):
    """All passes of one workload; returns (checks, {metric: [samples]})."""
    checks = Checks()
    work = WORK / workload
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    config_path = work / "bench.cfg"
    settings = dict(WORKLOADS[workload], seed=seed)
    config_path.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    out = work / "out"

    measure_setup(checks)  # warm-up: compiles bytecode caches, not timed
    setup, passes = [], []
    reference = None
    started = time.perf_counter()
    try:
        # Each pass owns an equal share of the run.  With tracing on, the
        # second pass is traced and compared byte for byte with the first.
        for k in range(PASSES):
            traced = trace and k == 1
            if not trace:
                setup += [measure_setup(checks) for _ in range(SETUP_SAMPLES_PER_PASS)]
            budget_s = started + seconds * (k + 1) / PASSES - time.perf_counter()
            record = run_pass(config_path, out, traced, budget_s, checks)
            if record is None:
                break
            record["traced"] = traced
            record["accuracy"] = check_outputs(out, workload, checks)
            digests, record["disk_bytes"] = digest_outputs(out)
            if reference is None:
                reference = digests
            checks.check(digests == reference,
                         f"pass {k + 1} outputs differ from pass 1: "
                         f"{sorted(n for n in reference if reference[n] != digests.get(n))}")
            passes.append(record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if not plain or not checks.check(traced or not trace, "no traced pass ran"):
        return checks, {}
    if trace:
        samples = {k: [p["layers"][k] for p in traced] for k in traced[0]["layers"]}
        samples["trace.overhead_s"] = [statistics.median(p["pipeline_s"] for p in traced)
                                       - statistics.median(p["pipeline_s"] for p in plain)]
        return checks, samples
    samples = {}
    for stage in STAGES:
        samples[f"{stage}_s"] = [pair for p in plain
                                 for pair in zip(p["samples"][stage], p["slowdown"][stage])]
    samples["setup_s"] = setup
    samples["peak_rss_mb"] = [p["peak_rss_mb"] for p in plain]
    samples["disk_mb"] = [p["disk_bytes"] / 1e6 for p in plain]
    samples["test_accuracy"] = [p["accuracy"][0] for p in plain]
    samples["eval_accuracy"] = [p["accuracy"][1] for p in plain]
    samples["ok_fraction"] = [1.0 - checks.failed / checks.attempted]
    return checks, samples


def summarize(samples):
    """{metric: value}: medians, times speed-corrected; pipeline_s sums the stages."""
    values = {}
    for name, v in samples.items():
        if name in CORRECTED:
            v = [corrected(wall, slowdown) for wall, slowdown in v]
        values[name] = statistics.median(v)
    stages = [f"{stage}_s" for stage in STAGES]
    if all(name in values for name in stages):
        values["pipeline_s"] = sum(values[name] for name in stages)
    return values


def environment():
    """Versions, BLAS build, threads, CPUs, commit and source size, for every result."""
    import numpy

    def git(*args):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            proc = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=30)
        except OSError:
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: v for k, v in BENCH_ENV.items() if "THREAD" in k},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "git_dirty": None if dirty is None else bool(dirty),
        "src_lines": sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sigclass" / "cli.py").is_file():
        print(f"error: no sigclass sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("# env " + json.dumps(environment(), sort_keys=True))
    correct, attempted, failed, report = True, 0, 0, {}
    for workload in workloads:
        checks, samples = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        values = summarize(samples)
        missing = [m["name"] for m in declared if m["name"] not in values]
        extra = sorted(set(values) - {m["name"] for m in declared})
        checks.check(not missing and not extra,
                     f"{workload}: metrics missing {missing}, undeclared {extra}")
        print(f"# {workload} seed={args.seed} trace={args.trace}")
        for m in declared:
            if m["name"] in values:
                v = samples.get(m["name"], ())
                if m["name"] in CORRECTED:
                    walls = [wall for wall, _ in v]
                    slowdowns = [slowdown for _, slowdown in v]
                    spread = (f" n={len(v)} raw median={statistics.median(walls):.6g}"
                              f" max={max(walls):.6g}"
                              f" slowdown median={statistics.median(slowdowns):.4g}")
                elif len(v) > 1:
                    spread = f" n={len(v)} median={statistics.median(v):.6g} max={max(v):.6g}"
                else:
                    spread = ""
                print(f"{workload:14s} {m['name']:44s} {values[m['name']]:12.6g} {m['unit']:6s}"
                      + spread)
        prefix = f"{workload}." if len(workloads) > 1 else ""
        report.update({prefix + m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in declared if m["name"] in values})
        correct = correct and checks.failed == 0
        attempted += checks.attempted
        failed += checks.failed
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
