"""One benchmark pass: the five CLI stages, in-process, in a fresh interpreter.

    python3 perfbench/worker.py --config CFG --out DIR [--trace] [--budget-s S]

Runs `sigclass.cli.main` for synth, rows, `heatmap AllQuiet`, train and eval
in order and times each stage.  If the pipeline ends before `--budget-s`
seconds have passed, the rest of the budget goes to stage re-runs: first until
every stage has `MIN_SAMPLES` samples, then to the stage with the least time
measured so far (only stages that still fit), so long stages get more than one
sample and short stages get many; every stage is deterministic, so a re-run
rewrites its outputs byte for byte.  With
`--trace` the layers are wrapped by `tracer.Tracer`, the per-layer metrics are
returned and nothing is re-run.

Untraced stages run under `hostspeed.SpeedSampler`; each stage sample is
returned with the host's slowdown during it, from the speed probes.

The last line of standard output is one JSON object; the CLI's own output is
captured and dropped.
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
from hostspeed import SpeedSampler  # noqa: E402
from sigclass import cli  # noqa: E402  (import cost is setup_s, not synth_s)

STAGE_ARGS = {
    "synth": ["synth"],
    "rows": ["rows"],
    "heatmap": ["heatmap", "AllQuiet"],
    "train": ["train"],
    "eval": ["eval"],
}
MIN_SAMPLES = 2  # per pass, before re-runs go to the stage with least time


def _run_stage(base_args, stage, tr):
    """(exit code, wall seconds, host slowdown or None) of one CLI stage.

    An exception counts as code -1.  Traced stages are not probed.
    """
    if tr is not None:
        tr.stage = stage
    sampler = SpeedSampler() if tr is None else contextlib.nullcontext()
    with sampler:
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(base_args + STAGE_ARGS[stage])
        except Exception:
            traceback.print_exc()
            code = -1
        elapsed = time.perf_counter() - started
    return code, elapsed, (sampler.estimate() if tr is None else None)


def run_pass(config_path, out_dir, trace=False, budget_s=0.0):
    """Run the pipeline once (plus re-runs); returns the pass record."""
    deadline = time.perf_counter() + budget_s
    tr = tracer.Tracer() if trace else None
    if tr is not None:
        tr.install()
    base_args = ["--config", str(config_path), "--out", str(out_dir)]
    record = {"codes": {}, "samples": {s: [] for s in tracer.STAGES},
              "slowdown": {s: [] for s in tracer.STAGES}}
    try:
        started = time.perf_counter()
        for stage in tracer.STAGES:
            code, dt, slowdown = _run_stage(base_args, stage, tr)
            record["codes"][stage] = [code]
            record["samples"][stage].append(dt)
            record["slowdown"][stage].append(slowdown)
            if code != 0:
                break
        record["pipeline_s"] = time.perf_counter() - started
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ok = len(record["codes"]) == len(tracer.STAGES) and all(
            c == [0] for c in record["codes"].values())
        if tr is not None and ok:
            record["layers"] = tr.layer_metrics(record["pipeline_s"])
    finally:
        if tr is not None:
            tr.uninstall()

    samples = record["samples"]
    while ok and tr is None:
        left = deadline - time.perf_counter()
        fits = [s for s in tracer.STAGES if samples[s][-1] <= left]
        if not fits:
            break
        stage = min(fits, key=lambda s: (len(samples[s]) >= MIN_SAMPLES, sum(samples[s])))
        code, dt, slowdown = _run_stage(base_args, stage, None)
        record["codes"][stage].append(code)
        samples[stage].append(dt)
        record["slowdown"][stage].append(slowdown)
        if code != 0:
            break
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--budget-s", type=float, default=0.0)
    args = parser.parse_args(argv)
    record = run_pass(args.config, args.out, args.trace, args.budget_s)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
