"""Outside-in tracing of the sigclass layers.

`Tracer.install()` replaces every public module-level function of the traced
modules with a wrapper that records a span: wall time, call count, and the
time of the child spans that ran inside it (so self time = span time minus
child time).  The wrapper is bound wherever the original was bound in any
`sigclass` module, which covers from-imports such as `trainer.apply_mask`;
calls through module globals (`dnn.forward` -> `sigmoid`) see it as well.
A few functions also feed work counters (bytes, rows, blocks, elements).

Nothing under `src/` is changed; `uninstall()` restores the originals.
"""

import inspect
import os
import sys
import time
from collections import defaultdict

MODULES = ("synthgen", "spectral", "fusion", "dnn", "trainer", "config", "cli")
STAGES = ("synth", "rows", "heatmap", "train", "eval")


def _path_size(args, kwargs):
    return os.path.getsize(kwargs.get("path", args[0]))


def _count_synthesize(tr, args, kwargs, rec):
    tr.count("synthgen.synthesize_recording.channel_s", len(rec.samples) * rec.duration_s)


def _count_blocks(tr, args, kwargs, blocks):
    tr.count(f"spectral.extract_blocks.blocks.{tr.stage}", sum(len(b) for b in blocks.values()))


def _count_fft(tr, args, kwargs, spectrum):
    tr.count(f"spectral.magnitude_spectrum.calls.{tr.stage}", 1)


def _count_sigmoid(tr, args, kwargs, out):
    tr.count("dnn.sigmoid.elements", out.size)


def _count_forward(tr, args, kwargs, result):
    rows = result[0].shape[0]
    tr.count("dnn.forward.rows", rows)
    if tr.active["trainer.train"]:
        tr.count("dnn.forward.train_rows", rows)


def _count_train(tr, args, kwargs, result):
    tr.count("trainer.train.runs", len(result[1].records))


def _count_load_rows(tr, args, kwargs, ds):
    tr.count("trainer.load_rows.rows", len(ds.rows))
    tr.count("trainer.load_rows.bytes", _path_size(args, kwargs))


def _count_bytes(name):
    def hook(tr, args, kwargs, result):
        tr.count(f"{name}.bytes", _path_size(args, kwargs))
    return hook


COUNTERS = {
    "synthgen.synthesize_recording": _count_synthesize,
    "synthgen.save_recording": _count_bytes("synthgen.save_recording"),
    "synthgen.load_recording": _count_bytes("synthgen.load_recording"),
    "spectral.extract_blocks": _count_blocks,
    "spectral.magnitude_spectrum": _count_fft,
    "spectral.write_heatmap_csv": _count_bytes("spectral.write_heatmap_csv"),
    "dnn.sigmoid": _count_sigmoid,
    "dnn.forward": _count_forward,
    "trainer.train": _count_train,
    "trainer.save_rows": _count_bytes("trainer.save_rows"),
    "trainer.load_rows": _count_load_rows,
}


class Tracer:
    """Span and counter store for one traced pipeline pass."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.active = defaultdict(int)
        self.stage = None
        self._child_s = []  # per open span: time covered by its child spans
        self._originals = {}  # qualified name -> original function

    def count(self, key, amount):
        self.counters[key] += amount

    def _wrap(self, name, fn):
        hook = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            self.active[name] += 1
            self._child_s.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = self._child_s.pop()
                self.active[name] -= 1
                self.total_s[name] += dt
                self.self_s[name] += dt - child
                self.calls[name] += 1
                if self._child_s:
                    self._child_s[-1] += dt
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        """Wrap the public functions of MODULES at every binding in sigclass."""
        import sigclass.cli  # noqa: F401  (imports every traced module)

        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"sigclass.{short}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    name = f"{short}.{attr}"
                    self._originals[name] = obj
                    wrappers[obj] = self._wrap(name, obj)
        for module in self._package_modules():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])

    def uninstall(self):
        for module in self._package_modules():
            for attr, obj in list(vars(module).items()):
                original = getattr(obj, "__wrapped__", None)
                if original is not None and original in self._originals.values():
                    setattr(module, attr, original)

    @staticmethod
    def _package_modules():
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == "sigclass" or n.startswith("sigclass."))]

    def layer_metrics(self, pipeline_s):
        """Per-layer metrics, keyed `<module>.<function>.<quantity>`.

        A function that a metric names but that never ran raises KeyError,
        so a renamed or bypassed function fails loudly instead of reading 0.
        """
        calls = self.calls
        counters = self.counters

        def need(name):
            if not calls.get(name):
                raise KeyError(f"traced function {name} never ran")
            return name

        def self_s(name):
            return self.self_s[need(name)]

        def stage_ratio(stage):
            blocks = counters[f"spectral.extract_blocks.blocks.{stage}"]
            return counters[f"spectral.magnitude_spectrum.calls.{stage}"] / blocks

        m = {}
        for name in (
            "synthgen.synthesize_recording", "synthgen.save_recording",
            "synthgen.load_recording", "spectral.extract_blocks",
            "spectral.magnitude_spectrum", "spectral.build_heatmap",
            "spectral.write_heatmap_pgm", "spectral.write_heatmap_csv",
            "fusion.fuse", "fusion.apply_mask", "fusion.compute_selection",
            "fusion.write_selection_report_csv", "dnn.sigmoid", "dnn.forward",
            "dnn.backward", "dnn.adam_update", "dnn.loss", "dnn.predict_batch",
            "dnn.save_checkpoint", "dnn.load_checkpoint", "trainer.save_rows",
            "trainer.load_rows", "trainer.split", "trainer.features_matrix",
            "trainer.train", "trainer.evaluate", "trainer.write_runlog_csv",
            "config.build_config",
        ) + tuple(f"cli.cmd_{stage}" for stage in STAGES):
            m[f"{name}.self_s"] = self_s(name)
        for name in ("synthgen.synthesize_recording", "spectral.magnitude_spectrum",
                     "fusion.fuse", "fusion.apply_mask", "dnn.sigmoid", "dnn.forward"):
            m[f"{name}.calls"] = calls[name]
        for key in ("synthgen.synthesize_recording.channel_s", "synthgen.save_recording.bytes",
                    "synthgen.load_recording.bytes", "spectral.write_heatmap_csv.bytes",
                    "dnn.sigmoid.elements", "dnn.forward.rows", "trainer.save_rows.bytes",
                    "trainer.load_rows.rows", "trainer.load_rows.bytes"):
            m[key] = counters[key]
        m["spectral.extract_blocks.blocks"] = sum(
            counters[f"spectral.extract_blocks.blocks.{s}"] for s in ("rows", "heatmap"))
        m["spectral.block_use_ratio.rows"] = stage_ratio("rows")
        m["spectral.block_use_ratio.heatmap"] = stage_ratio("heatmap")
        m["dnn.forward.rows_per_run"] = counters["dnn.forward.train_rows"] / counters["trainer.train.runs"]
        for short in MODULES:
            layer_s = sum(v for k, v in self.self_s.items() if k.startswith(short + "."))
            m[f"{short}.self_s"] = layer_s
            m[f"{short}.share"] = layer_s / pipeline_s
        m["trace.pipeline_s"] = pipeline_s
        return m
