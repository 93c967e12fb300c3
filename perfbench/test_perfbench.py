"""Checks that the benchmark's outside-in tracing sees every layer and changes nothing.

    python3 -m pytest perfbench
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import run
import tracer
import worker  # puts src/ on sys.path

from sigclass import fusion, trainer

# A seconds-long pipeline that still reaches every traced function.
TINY = {
    "group": "Group2", "trials": 2, "duration_s": 4, "blocks_per_recording": 20,
    "heatmap_blocks": 4, "runs": 5, "batch_size": 50,
}


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """(record, output digests) of one untraced and one traced pass, same out dir."""
    root = tmp_path_factory.mktemp("bench")
    config = root / "bench.cfg"
    config.write_text("".join(f"{k} = {v}\n" for k, v in TINY.items()))
    out = root / "out"
    results = []
    for trace in (False, True):
        out.mkdir()
        record = worker.run_pass(config, out, trace=trace)
        results.append((record, run.digest_outputs(out)[0]))
        shutil.rmtree(out)
    return results


def test_wrappers_replace_every_binding():
    tr = tracer.Tracer()
    tr.install()
    try:
        originals = list(tr._originals.values())
        assert trainer.apply_mask is fusion.apply_mask  # from-import rebound too
        assert fusion.apply_mask.__wrapped__ is tr._originals["fusion.apply_mask"]
        for module in tr._package_modules():
            for obj in vars(module).values():
                assert all(obj is not fn for fn in originals), obj
    finally:
        tr.uninstall()
    assert not hasattr(fusion.apply_mask, "__wrapped__")
    assert trainer.apply_mask is fusion.apply_mask


def test_self_time_excludes_child_spans():
    rows = [fusion.SpectrumRow(bins=np.arange(1.0, 301.0) * k, label="a") for k in range(1, 9)]
    mask = fusion.FeatureMask(kept=[3, 7, 100])
    tr = tracer.Tracer()
    tr.install()
    try:
        trainer.features_matrix(rows, mask, True)
    finally:
        tr.uninstall()
    parent, child = "trainer.features_matrix", "fusion.apply_mask"
    assert tr.calls[child] == len(rows)
    assert tr.self_s[parent] + tr.self_s[child] == pytest.approx(tr.total_s[parent])
    assert 0 < tr.self_s[parent] < tr.total_s[parent]


def test_traced_outputs_match_untraced(passes):
    (_, plain), (_, traced) = passes
    assert plain and traced == plain


def test_every_declared_per_layer_metric_is_produced(passes):
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    traced_record = passes[1][0]
    assert set(traced_record["layers"]) | {"trace.overhead_s"} == declared


def test_stage_samples_carry_host_slowdowns(passes):
    plain_record, traced_record = passes[0][0], passes[1][0]
    for stage in tracer.STAGES:
        assert len(plain_record["slowdown"][stage]) == len(plain_record["samples"][stage])
        assert all(slowdown > 0 for slowdown in plain_record["slowdown"][stage])
        assert traced_record["slowdown"][stage] == [None]


def test_stage_times_are_speed_corrected_medians():
    walls = {"synth": [1.0, 3.0, 2.0], "rows": [2.0], "heatmap": [1.0], "train": [4.0], "eval": [0.5]}
    samples = {f"{stage}_s": [(wall, 1.0) for wall in v] for stage, v in walls.items()}
    samples["synth_s"][1] = (3.0, 2.0)  # a sample on a host at half speed
    samples["setup_s"] = [(0.3, 1.0), (0.1, 1.0), (0.4, 2.0)]
    values = run.summarize(samples)
    assert values["synth_s"] == pytest.approx(1.5)  # median of 1.0, 1.5, 2.0
    assert values["setup_s"] == pytest.approx(0.2)  # median of 0.3, 0.1, 0.2
    assert values["pipeline_s"] == pytest.approx(1.5 + 2.0 + 1.0 + 4.0 + 0.5)


def test_renamed_function_fails_loudly():
    tr = tracer.Tracer()
    with pytest.raises(KeyError, match="never ran"):
        tr.layer_metrics(pipeline_s=1.0)
