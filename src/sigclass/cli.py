"""Command-line pipeline: synth -> rows -> heatmap -> train -> eval.

`main` builds the config once and runs one stage in the --out directory.  A
stage reads the config and the data files that earlier stages wrote: the
recordings (the config names them: each profile's label times trials
1..trials), the rows store and the checkpoint.  Each stage writes a manifest
of the resolved configuration, so a run can be replayed exactly; manifests
and profiles.txt are records that no stage reads.  Exit codes: 0 success,
1 usage/config error, 2 data error, 3 training/selection failure.
"""

import argparse
import dataclasses
import json
import math
import os
import shutil
import sys
import threading
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import dnn, fusion, spectral, synthgen, trainer
from .errors import ConfigurationError, NumericalError, ParseError, SelectionError, SigclassError, ValidationError
from .rng import derive_seed

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRAINING = 3


class _Parser(argparse.ArgumentParser):
    """argparse that exits with the documented usage code, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _write_manifest(out, command, cfg, extra):
    payload = {"command": command, "config": dataclasses.asdict(cfg)}
    payload.update(extra)
    path = out / f"{command}_manifest.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _profiles(cfg):
    """The target profiles: the config's profiles_file, else the group table's."""
    return synthgen.load_profiles(cfg.profiles_file) if cfg.profiles_file else synthgen.build_group_profiles(cfg)


def _recordings(cfg, profiles):
    """The (profile, trial) of each recording in the order synth writes them, lazily: a huge trials is never listed."""
    return ((profile, trial) for profile in profiles for trial in range(1, cfg.trials + 1))


def _recording_path(out, label, trial):
    return out / "recordings" / f"{label}_t{trial}.rec"


def _synthesize_all(cfg, out, profiles, workers):
    """Render and write every recording on `workers` threads, the calling thread one of them.

    The threads take recordings in synth order from one lazy walk.  Each has one
    samples buffer and one payload buffer, reused for every recording it renders.
    A failure stops the taking, and once every thread has stopped, the first
    failure in synth order is raised; a KeyboardInterrupt in the calling thread
    stops the others and propagates.
    """
    walk, lock, stop, failures = enumerate(_recordings(cfg, profiles)), threading.Lock(), threading.Event(), {}
    shape = (len(synthgen.ROSTER), math.ceil(cfg.duration_s) * cfg.sample_rate_hz)
    n = round(cfg.duration_s * cfg.sample_rate_hz)

    def work():
        samples = payload = None
        while True:
            with lock:  # a recording taken is rendered, so none before a failure is skipped
                item = None if stop.is_set() else next(walk, None)
            if item is None:
                return
            index, (profile, trial) = item
            try:
                if samples is None:
                    samples, payload = np.empty(shape), np.empty((shape[0], n), "<f4")
                seed = derive_seed(cfg.seed, "synth", profile.label, trial)
                rec = synthgen.synthesize_recording(profile, synthgen.ROSTER, cfg.duration_s,
                                                    cfg.sample_rate_hz, seed, out=samples)
                synthgen.save_recording(_recording_path(out, profile.label, trial), rec, payload=payload)
            except Exception as exc:  # the calling thread raises it, so none escapes a helper
                failures[index] = exc
                stop.set()
                return

    helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        stop.set()
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[min(failures)]


def cmd_synth(cfg, out, args):
    profiles = _profiles(cfg)
    need = len(profiles) * cfg.trials * len(synthgen.ROSTER) * round(cfg.duration_s * cfg.sample_rate_hz) * 4
    out.mkdir(parents=True, exist_ok=True)
    if need > (free := shutil.disk_usage(out).free):  # refused before recordings/ is touched
        raise ConfigurationError(f"synth would write {need} bytes of samples, more than the {free} free in {out}")
    folder, aside = out / "recordings", out / "recordings.old"
    shutil.rmtree(aside, ignore_errors=True)  # left only by a synth that was killed
    folder.mkdir(exist_ok=True)
    folder.rename(aside)  # a synth that fails puts it back, so it never mixes old and new recordings
    folder.mkdir()
    # the CPUs this process may run on, where the platform tells them
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    try:
        _synthesize_all(cfg, out, profiles, min(cpus, len(profiles) * cfg.trials))
    except BaseException:
        shutil.rmtree(folder)
        aside.rename(folder)
        raise
    shutil.rmtree(aside)
    entries = [{"label": profile.label, "trial": trial, "file": _recording_path(out, profile.label, trial).name,
                "seed": derive_seed(cfg.seed, "synth", profile.label, trial)}
               for profile, trial in _recordings(cfg, profiles)]
    # written only now, so a synth that fails leaves no profiles beside older recordings
    synthgen.save_profiles(out / "profiles.txt", profiles)
    _write_manifest(out, "synth", cfg, {"recordings": entries})
    print(f"wrote {len(entries)} recordings to {folder}")


def _entry_spectra(cfg, out, label, trial, stream, count, channels, chunk_bytes=None):
    """Yield one recording's spectra a chunk of blocks at a time, offsets seeded by `stream`.

    Each chunk is the (len(channels), k, 300) spectra of the next k of the
    `count` blocks, row i being channels[i].  It holds about `chunk_bytes` of
    float64 block samples, at least one block; None makes the recording one chunk.
    """
    path = _recording_path(out, label, trial)
    rec = synthgen.load_recording(path, channels)
    if rec.label != label:
        raise ParseError(f"{path}: header label {rec.label!r}, expected {label!r}")
    offsets = spectral.block_offsets(rec, count, derive_seed(cfg.seed, stream, label, trial))
    step = count if chunk_bytes is None else max(1, chunk_bytes // (8 * len(channels) * rec.sample_rate_hz))
    for lo in range(0, count, step):
        blocks = spectral.extract_blocks(rec, offsets[lo : lo + step])
        yield np.stack([spectral.magnitude_spectrum(b) for b in blocks.values()])


def cmd_rows(cfg, out, args):
    profiles, n = _profiles(cfg), cfg.blocks_per_recording
    count = len(profiles) * cfg.trials  # the recordings, counted: a huge trials is never listed
    config_mod.check_array_size(f"blocks_per_recording = {n}", "the rows", (count * n, spectral.N_BINS))

    x = np.empty((count * n, spectral.N_BINS))
    channels, lo = cfg.fusion_channels, 0
    for profile, trial in _recordings(cfg, profiles):
        for spectra in _entry_spectra(cfg, out, profile.label, trial, "blocks", n, channels, spectral.CHUNK_BYTES):
            x[lo : lo + spectra.shape[1]] = fusion.fuse(spectra, cfg.fusion_weights)  # a chunk's rows, in place
            lo += spectra.shape[1]
    labels = np.repeat([profile.label for profile in profiles], cfg.trials * n)
    rows_path = out / "rows.npz"
    trainer.save_rows(rows_path, x, labels)
    _write_manifest(out, "rows", cfg, {"rows_file": rows_path.name, "row_count": len(labels)})
    print(f"wrote {len(labels)} fused rows to {rows_path}")


def cmd_heatmap(cfg, out, args):
    if args.label not in [profile.label for profile in _profiles(cfg)]:
        raise ConfigurationError(f"no recordings for label {args.label!r}")
    trials, blocks = range(1, cfg.trials + 1), cfg.heatmap_blocks  # a range: a huge trials is never listed
    config_mod.check_array_size(f"heatmap_blocks = {blocks} at trials = {cfg.trials}", "the heat map",
                                (len(synthgen.ROSTER), cfg.trials * blocks, spectral.N_BINS))

    spectra = [s for t in trials for s in _entry_spectra(cfg, out, args.label, t, "heatmap", blocks, synthgen.ROSTER)]
    heatmap = spectral.build_heatmap(np.concatenate(spectra, axis=1))
    del spectra  # the writers' whole-map temporaries then reuse the per-recording arrays' memory
    n_rows = heatmap.shape[0] * heatmap.shape[1]
    pgm = out / f"heatmap_{args.label}.pgm"
    csv = out / f"heatmap_{args.label}.csv"
    spectral.write_heatmap_csv(csv, heatmap, synthgen.ROSTER, trials)
    spectral.write_heatmap_pgm(pgm, heatmap)
    _write_manifest(out, "heatmap", cfg, {"label": args.label, "rows": n_rows})
    print(f"wrote {pgm} and {csv} ({n_rows} rows)")


def _print_warnings(warnings):
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)


def cmd_train(cfg, out, args):
    rows_path = Path(args.rows) if args.rows else out / "rows.npz"
    ds = trainer.load_rows(rows_path)
    vocab, y = ds.label_vocab, ds.y

    try:
        mask, report = fusion.compute_selection(ds.x, y, vocab, cfg.threshold)
    except SelectionError as exc:
        _print_warnings(exc.report.warnings)
        raise
    _print_warnings(report.warnings)

    x = trainer.features_matrix(ds.rows, mask, cfg.normalize_rows)
    del ds  # frees the (n, 300) rows and their views before training
    train_idx, test_idx = trainer.split(y, cfg)
    missing = np.flatnonzero(np.bincount(y[train_idx], minlength=len(vocab)) == 0)
    _print_warnings(f"class {vocab[k]!r} absent from the training split" for k in missing)
    x_test, y_test = x[test_idx], y[test_idx]
    params, log = trainer.train(x[train_idx], y[train_idx], x_test, y_test, len(vocab), cfg)
    # written only now, so a rejected split leaves no mask beside an older checkpoint
    out.mkdir(parents=True, exist_ok=True)
    fusion.write_mask(out / "mask.txt", mask)
    fusion.write_selection_report_csv(out / "selection_report.csv", report)
    trainer.write_runlog_csv(out / "runlog.csv", log)
    dnn.save_checkpoint(out / "checkpoint.bin", params, mask.kept, vocab, cfg.normalize_rows)

    accuracy, counts = trainer.evaluate(params, x_test, y_test)
    trainer.write_confusion_csv(out / "confusion.csv", vocab, counts)
    _write_manifest(out, "train", cfg, {
        "rows_file": args.rows or rows_path.name,
        "max_classes_per_bin": report.max_classes_per_bin,
        "mask_size": len(mask),
        "test_rows": len(test_idx),
        "test_accuracy": accuracy,
    })
    print(f"mask size: {len(mask)} bins")
    print(f"final test accuracy: {accuracy:.4f} on {len(test_idx)} rows")
    print(trainer.format_confusion(vocab, counts))


def cmd_eval(cfg, out, args):
    ckpt_path = Path(args.checkpoint) if args.checkpoint else out / "checkpoint.bin"
    rows_path = Path(args.rows) if args.rows else out / "rows.npz"
    params, mask_bins, vocab, normalize = dnn.load_checkpoint(ckpt_path)
    ds = trainer.load_rows(rows_path)
    missing = [label for label in ds.label_vocab if label not in vocab]
    if missing:
        raise ValidationError(f"label {missing[0]!r} not in vocabulary {vocab}")
    y = np.array([vocab.index(label) for label in ds.label_vocab])[ds.y]  # the checkpoint's indices
    x = trainer.features_matrix(ds.rows, fusion.FeatureMask(kept=mask_bins), normalize)
    del ds  # frees the (n, 300) rows and their views before scoring
    accuracy, counts = trainer.evaluate(params, x, y)
    out.mkdir(parents=True, exist_ok=True)
    trainer.write_confusion_csv(out / "eval_confusion.csv", vocab, counts)
    _write_manifest(out, "eval", cfg, {
        "checkpoint": args.checkpoint or ckpt_path.name,
        "rows_file": args.rows or rows_path.name,
        "accuracy": accuracy,
    })
    print(f"accuracy: {accuracy:.4f} on {len(y)} rows")
    print(trainer.format_confusion(vocab, counts))


def build_parser():
    parser = _Parser(prog="sigclass", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="flat key-value config file")
    parser.add_argument("--out", type=Path, default="out", help="the output directory (default: out)")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="synthesize target recordings")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("rows", help="extract blocks, fuse spectra, write the rows store")
    p.set_defaults(func=cmd_rows)

    p = sub.add_parser("heatmap", help="render one label's per-channel heat map")
    p.add_argument("label")
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("train", help="select frequencies, train, and evaluate")
    p.add_argument("--rows", help="rows store path (default: <out>/rows.npz)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint against a rows store")
    p.add_argument("--checkpoint", help="model checkpoint (default: <out>/checkpoint.bin)")
    p.add_argument("--rows", help="rows store path (default: <out>/rows.npz)")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(config_mod.build_config(args.config), args.out, args)
    except (SigclassError, OSError, MemoryError) as exc:  # MemoryError: a config size too large to allocate
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)  # MemoryError() has no message
        if isinstance(exc, (ConfigurationError, MemoryError)):
            return EXIT_USAGE
        return EXIT_TRAINING if isinstance(exc, (SelectionError, NumericalError)) else EXIT_DATA
    return EXIT_OK


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
