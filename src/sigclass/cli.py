"""Command-line pipeline: synth -> rows -> heatmap -> train -> eval.

Each stage reads the previous stage's files from the output directory and
writes a manifest of the resolved configuration, so a run can be replayed
exactly.  Exit codes: 0 success, 1 usage/config error, 2 data error,
3 training/selection failure.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import dnn, fusion, spectral, synthgen, trainer
from .errors import (
    ConfigurationError,
    NumericalError,
    ParseError,
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


def _load_config(args, **overrides):
    file_values = config_mod.read_config_file(args.config) if args.config else {}
    return config_mod.build_config(file_values, seed=args.seed, out_dir=args.out, **overrides)


def cmd_synth(args):
    cfg = _load_config(args)
    out = Path(cfg.out_dir)
    if cfg.profiles_file:
        profiles = synthgen.load_profiles(cfg.profiles_file)
    else:
        profiles = synthgen.build_group_profiles(cfg)
    (out / "recordings").mkdir(parents=True, exist_ok=True)
    synthgen.save_profiles(out / "profiles.txt", profiles)

    entries = []
    for profile in profiles:
        for trial in range(1, cfg.trials + 1):
            seed = derive_seed(cfg.seed, "synth", profile.label, trial)
            rec = synthgen.synthesize_recording(
                profile, synthgen.ROSTER, cfg.duration_s, cfg.sample_rate_hz, seed
            )
            path = out / "recordings" / f"{profile.label}_t{trial}.rec"
            synthgen.save_recording(path, rec)
            entries.append(
                {"label": profile.label, "trial": trial, "file": path.name, "seed": seed}
            )
    _write_manifest("synth", cfg, {"recordings": entries})
    print(f"wrote {len(entries)} recordings to {out / 'recordings'}")
    return EXIT_OK


# what rows and heatmap read from each synth manifest entry; exact types, as a bool is an int
_ENTRY_KEYS = {"file": str, "label": str, "trial": int}


def _read_synth_manifest(cfg):
    """The synth manifest's recording entries; a missing or malformed one raises ParseError."""
    path = Path(cfg.out_dir) / "synth_manifest.json"
    if not path.exists():
        raise ParseError(f"{path}: not found; run 'synth' first")
    try:
        entries = json.loads(path.read_text(encoding="utf-8"))["recordings"]
        bad = [e for e in entries
               if not all(type(e.get(k)) is t for k, t in _ENTRY_KEYS.items()) or e["trial"] < 1]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ParseError(f"{path}: not a synth manifest ({type(exc).__name__}: {exc})") from None
    if bad:
        raise ParseError(f"{path}: recording entry {bad[0]} needs text file and label, integer trial >= 1")
    if not entries:
        raise ParseError(f"{path}: lists no recordings")
    # rows and heatmap open recordings/<file>, so it must be the bare name synth writes
    bad = [e for e in entries if not e["file"] == Path(e["file"]).name == f"{e['label']}_t{e['trial']}.rec"]
    if bad:
        raise ParseError(f"{path}: recording entry {bad[0]} needs file <label>_t<trial>.rec")
    # a repeat would write its rows twice, maybe into both splits; a file names one label and trial
    first = {}  # file -> the index of its first entry
    repeated = [e for k, e in enumerate(entries) if first.setdefault(e["file"], k) != k]
    if repeated:
        raise ParseError(f"{path}: recording entry {repeated[0]} repeats an earlier label and trial")
    return entries


def _entry_spectra(cfg, entry, stream, count, channels):
    """One entry's (len(channels), count, 300) spectra, row i being channels[i], offsets seeded by `stream`."""
    rec = synthgen.load_recording(Path(cfg.out_dir) / "recordings" / entry["file"], channels)
    seed = derive_seed(cfg.seed, stream, entry["label"], entry["trial"])
    blocks = spectral.extract_blocks(rec, count, seed)
    return np.stack([spectral.magnitude_spectrum(b) for b in blocks.values()])


def cmd_rows(args):
    cfg = _load_config(args)
    entries = _read_synth_manifest(cfg)
    n = cfg.blocks_per_recording

    x = np.empty((len(entries) * n, spectral.N_BINS))
    for i, entry in enumerate(entries):
        spectra = _entry_spectra(cfg, entry, "blocks", n, cfg.fusion_channels)
        x[i * n : (i + 1) * n] = fusion.fuse(spectra, cfg.fusion_weights)
    labels = np.repeat([e["label"] for e in entries], n)
    rows_path = Path(cfg.out_dir) / "rows.npz"
    trainer.save_rows(rows_path, x, labels)
    _write_manifest("rows", cfg, {"rows_file": rows_path.name, "row_count": len(labels)})
    print(f"wrote {len(labels)} fused rows to {rows_path}")
    return EXIT_OK


def cmd_heatmap(args):
    cfg = _load_config(args)
    entries = [e for e in _read_synth_manifest(cfg) if e["label"] == args.label]
    if not entries:
        raise ConfigurationError(f"no recordings for label {args.label!r}")

    spectra = [_entry_spectra(cfg, e, "heatmap", cfg.heatmap_blocks, synthgen.ROSTER) for e in entries]
    heatmap = spectral.build_heatmap(np.concatenate(spectra, axis=1))
    del spectra  # the writers' whole-map temporaries then reuse the per-recording arrays' memory
    n_rows = heatmap.shape[0] * heatmap.shape[1]
    pgm = Path(cfg.out_dir) / f"heatmap_{args.label}.pgm"
    csv = Path(cfg.out_dir) / f"heatmap_{args.label}.csv"
    # the CSV first: it rejects a value outside 0..10 before either file exists
    spectral.write_heatmap_csv(csv, heatmap, synthgen.ROSTER, [e["trial"] for e in entries])
    spectral.write_heatmap_pgm(pgm, heatmap)
    _write_manifest("heatmap", cfg, {"label": args.label, "rows": n_rows})
    print(f"wrote {pgm} and {csv} ({n_rows} rows)")
    return EXIT_OK


def _print_warnings(warnings):
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)


def cmd_train(args):
    cfg = _load_config(args, runs=args.runs)
    rows_path = Path(args.rows) if args.rows else Path(cfg.out_dir) / "rows.npz"
    ds = trainer.load_rows(rows_path)
    vocab, y = ds.label_vocab, ds.y

    guard = cfg.max_classes_per_bin or fusion.default_max_classes_per_bin(len(vocab))
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
    # the guard comes from the labels in the rows, which need not be the group's
    _write_manifest("train", dataclasses.replace(cfg, max_classes_per_bin=guard), {
        "rows_file": args.rows or rows_path.name,
        "mask_size": len(mask),
        "test_rows": len(test_idx),
        "test_accuracy": accuracy,
    })
    print(f"mask size: {len(mask)} bins")
    print(f"final test accuracy: {accuracy:.4f} on {len(test_idx)} rows")
    print(trainer.format_confusion(vocab, counts))
    return EXIT_OK


def cmd_eval(args):
    cfg = _load_config(args)
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
    parser.add_argument("--seed", type=int, help="override the config seed")
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
    p.add_argument("--runs", type=int, help="override the training run count")
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
    except (SigclassError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ConfigurationError):
            return EXIT_USAGE
        return EXIT_TRAINING if isinstance(exc, (SelectionError, NumericalError)) else EXIT_DATA


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
