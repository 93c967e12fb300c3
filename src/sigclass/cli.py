"""Command-line pipeline: synth -> rows -> heatmap -> train -> eval.

A stage reads the config and the data files that earlier stages wrote: the
recordings (the config names them: each profile's label times trials
1..trials), the rows store and the checkpoint.  Each stage writes a manifest
of the resolved configuration, so a run can be replayed exactly; manifests
and profiles.txt are records that no stage reads.  Exit codes: 0 success,
1 usage/config error, 2 data error, 3 training/selection failure.
"""

import argparse
import dataclasses
import json
import shutil
import sys
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import dnn, fusion, spectral, synthgen, trainer
from .errors import (
    ConfigurationError,
    NumericalError,
    SelectionError,
    SigclassError,
    ValidationError,
)
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


def _write_manifest(command, cfg, extra):
    config = dataclasses.asdict(cfg)
    del config["out_dir"]  # the manifest lies in it; a path would tie the bytes to the checkout
    payload = {"command": command, "config": config}
    payload.update(extra)
    path = Path(cfg.out_dir) / f"{command}_manifest.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _profiles(cfg):
    """The target profiles: the config's profiles_file, else the group table's."""
    return synthgen.load_profiles(cfg.profiles_file) if cfg.profiles_file else synthgen.build_group_profiles(cfg)


def _recordings(cfg, profiles):
    """The (profile, trial) of each recording, in the order synth writes them."""
    return [(profile, trial) for profile in profiles for trial in range(1, cfg.trials + 1)]


def _recording_path(cfg, label, trial):
    return Path(cfg.out_dir) / "recordings" / f"{label}_t{trial}.rec"


def cmd_synth(args):
    cfg = config_mod.build_config(args.config, args.out)
    out = Path(cfg.out_dir)
    profiles = _profiles(cfg)
    folder, aside = out / "recordings", out / "recordings.old"
    shutil.rmtree(aside, ignore_errors=True)  # left only by a synth that was killed
    folder.mkdir(parents=True, exist_ok=True)
    folder.rename(aside)  # a synth that fails puts it back, so it never mixes old and new recordings
    folder.mkdir()

    entries = []
    try:
        for profile, trial in _recordings(cfg, profiles):
            seed = derive_seed(cfg.seed, "synth", profile.label, trial)
            rec = synthgen.synthesize_recording(
                profile, synthgen.ROSTER, cfg.duration_s, cfg.sample_rate_hz, seed
            )
            path = _recording_path(cfg, profile.label, trial)
            synthgen.save_recording(path, rec)
            entries.append({"label": profile.label, "trial": trial, "file": path.name, "seed": seed})
    except BaseException:
        shutil.rmtree(folder)
        aside.rename(folder)
        raise
    shutil.rmtree(aside)
    # written only now, so a synth that fails leaves no profiles beside older recordings
    synthgen.save_profiles(out / "profiles.txt", profiles)
    _write_manifest("synth", cfg, {"recordings": entries})
    print(f"wrote {len(entries)} recordings to {folder}")
    return EXIT_OK


def _entry_spectra(cfg, label, trial, stream, count, channels):
    """One recording's (len(channels), count, 300) spectra, row i being channels[i], offsets seeded by `stream`."""
    rec = synthgen.load_recording(_recording_path(cfg, label, trial), channels)
    seed = derive_seed(cfg.seed, stream, label, trial)
    blocks = spectral.extract_blocks(rec, count, seed)
    return np.stack([spectral.magnitude_spectrum(b) for b in blocks.values()])


def cmd_rows(args):
    cfg = config_mod.build_config(args.config, args.out)
    recordings = _recordings(cfg, _profiles(cfg))
    n = cfg.blocks_per_recording

    x = np.empty((len(recordings) * n, spectral.N_BINS))
    for i, (profile, trial) in enumerate(recordings):
        spectra = _entry_spectra(cfg, profile.label, trial, "blocks", n, cfg.fusion_channels)
        x[i * n : (i + 1) * n] = fusion.fuse(spectra, cfg.fusion_weights)
    labels = np.repeat([profile.label for profile, _ in recordings], n)
    rows_path = Path(cfg.out_dir) / "rows.npz"
    trainer.save_rows(rows_path, x, labels)
    _write_manifest("rows", cfg, {"rows_file": rows_path.name, "row_count": len(labels)})
    print(f"wrote {len(labels)} fused rows to {rows_path}")
    return EXIT_OK


def cmd_heatmap(args):
    cfg = config_mod.build_config(args.config, args.out)
    trials = [trial for profile, trial in _recordings(cfg, _profiles(cfg)) if profile.label == args.label]
    if not trials:
        raise ConfigurationError(f"no recordings for label {args.label!r}")

    spectra = [_entry_spectra(cfg, args.label, t, "heatmap", cfg.heatmap_blocks, synthgen.ROSTER) for t in trials]
    heatmap = spectral.build_heatmap(np.concatenate(spectra, axis=1))
    del spectra  # the writers' whole-map temporaries then reuse the per-recording arrays' memory
    n_rows = heatmap.shape[0] * heatmap.shape[1]
    pgm = Path(cfg.out_dir) / f"heatmap_{args.label}.pgm"
    csv = Path(cfg.out_dir) / f"heatmap_{args.label}.csv"
    spectral.write_heatmap_csv(csv, heatmap, synthgen.ROSTER, trials)
    spectral.write_heatmap_pgm(pgm, heatmap)
    _write_manifest("heatmap", cfg, {"label": args.label, "rows": n_rows})
    print(f"wrote {pgm} and {csv} ({n_rows} rows)")
    return EXIT_OK


def _print_warnings(warnings):
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)


def cmd_train(args):
    cfg = config_mod.build_config(args.config, args.out)
    rows_path = Path(args.rows) if args.rows else Path(cfg.out_dir) / "rows.npz"
    ds = trainer.load_rows(rows_path)
    vocab, y = ds.label_vocab, ds.y

    guard = fusion.default_max_classes_per_bin(len(vocab))  # from the labels in the rows, not the group's
    try:
        mask, report = fusion.compute_selection(ds.x, y, vocab, cfg.threshold, guard)
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
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fusion.write_mask(out / "mask.txt", mask)
    fusion.write_selection_report_csv(out / "selection_report.csv", report)
    trainer.write_runlog_csv(out / "runlog.csv", log)
    dnn.save_checkpoint(out / "checkpoint.bin", params, mask.kept, vocab, cfg.normalize_rows)

    accuracy, counts = trainer.evaluate(params, x_test, y_test, vocab)
    trainer.write_confusion_csv(out / "confusion.csv", vocab, counts)
    _write_manifest("train", cfg, {
        "rows_file": args.rows or rows_path.name,
        "max_classes_per_bin": guard,
        "mask_size": len(mask),
        "test_rows": len(test_idx),
        "test_accuracy": accuracy,
    })
    print(f"mask size: {len(mask)} bins")
    print(f"final test accuracy: {accuracy:.4f} on {len(test_idx)} rows")
    print(trainer.format_confusion(vocab, counts))
    return EXIT_OK


def cmd_eval(args):
    cfg = config_mod.build_config(args.config, args.out)
    ckpt_path = Path(args.checkpoint) if args.checkpoint else Path(cfg.out_dir) / "checkpoint.bin"
    rows_path = Path(args.rows) if args.rows else Path(cfg.out_dir) / "rows.npz"
    params, mask_bins, vocab, normalize = dnn.load_checkpoint(ckpt_path)
    ds = trainer.load_rows(rows_path)
    missing = [label for label in ds.label_vocab if label not in vocab]
    if missing:
        raise ValidationError(f"label {missing[0]!r} not in vocabulary {vocab}")
    y = np.array([vocab.index(label) for label in ds.label_vocab])[ds.y]  # the checkpoint's indices
    x = trainer.features_matrix(ds.rows, fusion.FeatureMask(kept=mask_bins), normalize)
    del ds  # frees the (n, 300) rows and their views before scoring
    accuracy, counts = trainer.evaluate(params, x, y, vocab)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trainer.write_confusion_csv(out / "eval_confusion.csv", vocab, counts)
    _write_manifest("eval", cfg, {
        "checkpoint": args.checkpoint or ckpt_path.name,
        "rows_file": args.rows or rows_path.name,
        "accuracy": accuracy,
    })
    print(f"accuracy: {accuracy:.4f} on {len(y)} rows")
    print(trainer.format_confusion(vocab, counts))
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="sigclass", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="flat key-value config file")
    parser.add_argument("--out", help="override the output directory")
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
        return args.func(args)
    except (SigclassError, OSError, MemoryError) as exc:  # MemoryError: a config size too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (ConfigurationError, MemoryError)):
            return EXIT_USAGE
        return EXIT_TRAINING if isinstance(exc, (SelectionError, NumericalError)) else EXIT_DATA


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
