"""Command-line pipeline: synth -> rows -> heatmap -> train -> eval.

Each stage reads the previous stage's files from the output directory and
writes a manifest of the resolved configuration, so a run can be replayed
exactly.  Exit codes: 0 success, 1 usage/config error, 2 data error,
3 training/selection failure.
"""

import argparse
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


def _write_manifest(out_dir, command, cfg, extra):
    payload = {"command": command, "config": cfg.resolved_dict()}
    payload.update(extra)
    path = Path(out_dir) / f"{command}_manifest.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _load_config(args, **overrides):
    file_values = config_mod.read_config_file(args.config) if args.config else {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        overrides["out_dir"] = args.out
    return config_mod.build_config(file_values, **overrides)


def _recording_path(out_dir, label, trial):
    return Path(out_dir) / "recordings" / f"{label}_t{trial}.rec"


def cmd_synth(args):
    cfg = _load_config(args)
    out = Path(cfg.out_dir)
    (out / "recordings").mkdir(parents=True, exist_ok=True)

    if cfg.profiles_file:
        profiles = synthgen.load_profiles(cfg.profiles_file)
    else:
        profiles = synthgen.build_group_profiles(
            cfg.group,
            seed=cfg.seed,
            lines_per_profile=cfg.resolved_lines_per_profile,
            min_line_spacing_hz=cfg.min_line_spacing_hz,
            noise_rms=cfg.noise_rms,
            jitter_hz=cfg.jitter_hz,
        )
    synthgen.save_profiles(out / "profiles.txt", profiles)

    roster = synthgen.default_roster()
    entries = []
    for profile in profiles:
        for trial in range(1, cfg.trials + 1):
            seed = derive_seed(cfg.seed, "synth", profile.label, trial)
            rec = synthgen.synthesize_recording(
                profile, roster, cfg.duration_s, cfg.sample_rate_hz, seed
            )
            path = _recording_path(cfg.out_dir, profile.label, trial)
            synthgen.save_recording(path, rec)
            entries.append(
                {"label": profile.label, "trial": trial, "file": path.name, "seed": seed}
            )
    _write_manifest(cfg.out_dir, "synth", cfg, {"recordings": entries})
    print(f"wrote {len(entries)} recordings to {out / 'recordings'}")
    return EXIT_OK


def _read_synth_manifest(cfg):
    path = Path(cfg.out_dir) / "synth_manifest.json"
    if not path.exists():
        raise ParseError(f"{path}: not found; run 'synth' first")
    return json.loads(path.read_text(encoding="utf-8"))


def cmd_rows(args):
    cfg = _load_config(args)
    manifest = _read_synth_manifest(cfg)
    weights = cfg.fusion()
    blocks_per_rec = cfg.resolved_blocks_per_recording

    rows = []
    for entry in manifest["recordings"]:
        rec = synthgen.load_recording(
            Path(cfg.out_dir) / "recordings" / entry["file"]
        )
        seed = derive_seed(cfg.seed, "blocks", entry["label"], entry["trial"])
        blocks = spectral.extract_blocks(rec, blocks_per_rec, seed)
        spectra = {
            cid: spectral.magnitude_spectrum(blocks[cid])
            for cid in weights.selected_channels
        }
        fused = fusion.fuse(spectra, weights)
        rows.extend(fusion.SpectrumRow(bins=bins, label=entry["label"]) for bins in fused)
    rows_path = Path(cfg.out_dir) / "rows.csv"
    trainer.save_rows(rows_path, rows)
    _write_manifest(cfg.out_dir, "rows", cfg, {"rows_file": rows_path.name, "row_count": len(rows)})
    print(f"wrote {len(rows)} fused rows to {rows_path}")
    return EXIT_OK


def cmd_heatmap(args):
    cfg = _load_config(args)
    manifest = _read_synth_manifest(cfg)
    entries = [e for e in manifest["recordings"] if e["label"] == args.label]
    if not entries:
        raise ConfigurationError(f"no recordings for label {args.label!r}")

    spectra_by_channel = {}
    for entry in entries:
        rec = synthgen.load_recording(Path(cfg.out_dir) / "recordings" / entry["file"])
        seed = derive_seed(cfg.seed, "heatmap", entry["label"], entry["trial"])
        blocks = spectral.extract_blocks(rec, cfg.heatmap_blocks, seed)
        for cid, channel_blocks in blocks.items():
            spectra_by_channel.setdefault(cid, []).append(
                spectral.magnitude_spectrum(channel_blocks)
            )
    heatmap = spectral.build_heatmap(
        {cid: np.concatenate(specs) for cid, specs in spectra_by_channel.items()}
    )
    n_rows = sum(len(rows) for rows in heatmap.values())
    pgm = Path(cfg.out_dir) / f"heatmap_{args.label}.pgm"
    csv = Path(cfg.out_dir) / f"heatmap_{args.label}.csv"
    spectral.write_heatmap_pgm(pgm, heatmap)
    spectral.write_heatmap_csv(csv, heatmap)
    _write_manifest(cfg.out_dir, "heatmap", cfg, {"label": args.label, "rows": n_rows})
    print(f"wrote {pgm} and {csv} ({n_rows} rows)")
    return EXIT_OK


def cmd_train(args):
    cfg = _load_config(args, runs=getattr(args, "runs", None))
    rows_path = Path(args.rows) if args.rows else Path(cfg.out_dir) / "rows.csv"
    ds = trainer.load_rows(rows_path)

    guard = cfg.max_classes_per_bin or fusion.default_max_classes_per_bin(len(ds.label_vocab))
    mask, report = fusion.compute_selection(ds.rows, cfg.threshold, guard)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fusion.write_mask(out / "mask.txt", mask)
    fusion.write_selection_report_csv(out / "selection_report.csv", report)

    params, log = trainer.train(ds, mask, cfg)
    trainer.write_runlog_csv(out / "runlog.csv", log)
    dnn.save_checkpoint(out / "checkpoint.bin", params, mask.kept, ds.label_vocab, cfg.normalize_rows)

    # score the held-out side of the same deterministic split
    _, test_ds = trainer.split(ds, cfg)
    accuracy, cm = trainer.evaluate(params, test_ds.rows, mask, ds.label_vocab, cfg.normalize_rows)
    trainer.write_confusion_csv(out / "confusion.csv", cm)
    _write_manifest(cfg.out_dir, "train", cfg, {
        "rows_file": str(rows_path),
        "mask_size": len(mask),
        "test_rows": len(test_ds.rows),
        "test_accuracy": accuracy,
    })
    print(f"mask size: {len(mask)} bins")
    print(f"final test accuracy: {accuracy:.4f} on {len(test_ds.rows)} rows")
    print(trainer.format_confusion(cm))
    return EXIT_OK


def cmd_eval(args):
    cfg = _load_config(args)
    ckpt_path = Path(args.checkpoint) if args.checkpoint else Path(cfg.out_dir) / "checkpoint.bin"
    rows_path = Path(args.rows) if args.rows else Path(cfg.out_dir) / "rows.csv"
    params, mask_bins, vocab, normalize = dnn.load_checkpoint(ckpt_path)
    ds = trainer.load_rows(rows_path)
    mask = fusion.FeatureMask(kept=mask_bins)
    accuracy, cm = trainer.evaluate(params, ds.rows, mask, vocab, normalize)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trainer.write_confusion_csv(out / "eval_confusion.csv", cm)
    _write_manifest(cfg.out_dir, "eval", cfg, {
        "checkpoint": str(ckpt_path),
        "rows_file": str(rows_path),
        "accuracy": accuracy,
    })
    print(f"accuracy: {accuracy:.4f} on {len(ds.rows)} rows")
    print(trainer.format_confusion(cm))
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="sigclass", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="flat key-value config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="override the output directory")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="synthesize target recordings")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("rows", help="extract blocks, fuse spectra, write the rows CSV")
    p.set_defaults(func=cmd_rows)

    p = sub.add_parser("heatmap", help="render one label's per-channel heat map")
    p.add_argument("label")
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("train", help="select frequencies, train, and evaluate")
    p.add_argument("--runs", type=int, help="override the training run count")
    p.add_argument("--rows", help="rows CSV path (default: <out>/rows.csv)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint against a rows CSV")
    p.add_argument("--checkpoint", help="model checkpoint (default: <out>/checkpoint.bin)")
    p.add_argument("--rows", help="rows CSV path (default: <out>/rows.csv)")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, ValidationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (SelectionError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRAINING


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
