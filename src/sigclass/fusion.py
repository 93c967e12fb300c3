"""Weighted sensor fusion and discriminative frequency selection.

Fusion collapses the per-channel spectra of each time block into a single
300-bin row via a normalized weighted average.  Selection then keeps the bins
where some class's mean response stands out against the grand mean across all
classes, while dropping bins that are hot for too many classes at once (those
cannot identify anything).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, SelectionError, ValidationError
from .spectral import N_BINS


@dataclass
class SpectrumRow:
    """One fused 300-bin magnitude row plus its class label."""

    bins: np.ndarray
    label: str


@dataclass
class FeatureMask:
    """Sorted distinct 1-based bin indices retained for the classifier.

    `index` holds the same bins 0-based, for indexing a row's bins.
    """

    kept: list
    index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kept = sorted(set(int(b) for b in self.kept))
        if not kept or kept[0] < 1 or kept[-1] > N_BINS:
            raise ValidationError("mask must keep between 1 and 300 bins inside [1, 300]")
        self.kept = kept
        self.index = np.array(kept) - 1

    def __len__(self):
        return len(self.kept)


@dataclass
class SelectionReport:
    """All selection intermediates, for inspection and the report CSV."""

    class_means: dict
    global_mean: np.ndarray
    ratios: dict
    per_bin_class_counts: np.ndarray
    warnings: list = field(default_factory=list)


def fuse(spectra, weights):
    """Weighted average of per-channel magnitudes at each frequency.

    `spectra` maps channel ids to equally shaped arrays, e.g. (blocks, 300)
    with row k of every channel from the same time block.  `weights` is an
    ordered {channel id: w_j} dict.  Returns
    bins[..., i] = sum_j w_j * |S_ij| / sum_j w_j, summed in `weights` order.
    """
    total = 0.0
    acc = None
    for cid, w in weights.items():
        spec = spectra.get(cid)
        if spec is None:
            raise ConfigurationError(f"fusion needs channel {cid!r} but it is missing")
        if acc is None:
            acc = np.zeros(spec.shape)
        elif spec.shape != acc.shape:
            raise ValidationError(
                f"channel {cid!r} spectra have shape {spec.shape}, expected {acc.shape}"
            )
        acc += w * spec
        total += w
    if total <= 0:
        raise ValidationError("total fusion weight must be > 0")
    return acc / total


def default_max_classes_per_bin(n_classes):
    """Guard default: ceil(T/2) - 1 super-threshold classes per bin, floor 1."""
    return max(1, math.ceil(n_classes / 2) - 1)


def compute_selection(rows, threshold, max_classes_per_bin):
    """Pick the discriminative frequency bins from labeled fused rows.

    Per class, the mean response at each bin is divided by the grand mean over
    all rows; a bin is kept when at least one class ratio strictly exceeds
    `threshold`, unless more than `max_classes_per_bin` classes exceed it
    there (such bins identify nothing).  Bins whose grand mean is zero have
    undefined ratios and are excluded with a warning.

    Returns (FeatureMask, SelectionReport); raises SelectionError (with the
    report attached) when nothing survives.
    """
    if threshold <= 1:
        raise ValidationError("threshold must be > 1")
    labels = np.array([row.label for row in rows])
    vocab = list(dict.fromkeys(labels.tolist()))
    if len(vocab) < 2:
        raise ValidationError("selection needs at least 2 distinct labels")
    x = np.stack([row.bins for row in rows])
    class_means = {}
    for label in vocab:
        members = x[labels == label]
        if len(members) < 10:
            raise ValidationError(f"label {label!r} has {len(members)} rows; need >= 10")
        class_means[label] = members.mean(axis=0)
    global_mean = x.mean(axis=0)

    warnings = []
    zero = global_mean == 0
    if np.any(zero):
        bins = [int(i) + 1 for i in np.flatnonzero(zero)]
        warnings.append(f"{len(bins)} bins have zero grand mean and were excluded: {bins[:10]}")

    ratios = {}
    counts = np.zeros(N_BINS, dtype=int)
    for label, mean in class_means.items():
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(zero, np.nan, mean / np.where(zero, 1.0, global_mean))
        ratios[label] = ratio
        counts += ratio > threshold  # False where the ratio is nan

    keep = (counts >= 1) & (counts <= max_classes_per_bin)
    report = SelectionReport(
        class_means=class_means,
        global_mean=global_mean,
        ratios=ratios,
        per_bin_class_counts=counts,
        warnings=warnings,
    )
    kept = [int(i) + 1 for i in np.flatnonzero(keep)]
    if not kept:
        best = max(float(np.nanmax(r)) for r in ratios.values())
        raise SelectionError(
            f"no frequency bin exceeded threshold {threshold} for <= "
            f"{max_classes_per_bin} classes (best ratio {best:.3f})",
            report=report,
        )
    return FeatureMask(kept=kept), report


def apply_mask(row, mask):
    """Project one fused row onto the kept bins, in ascending bin order."""
    return row.bins[mask.index].astype(float, copy=False)


def write_selection_report_csv(path, report):
    """Class x bin table of means and ratios, plus the super-threshold counts."""
    bins_header = ",".join(f"hz_{i}" for i in range(1, N_BINS + 1))
    lines = [f"row,{bins_header}"]

    def fmt(arr):
        return ",".join(map(repr, np.asarray(arr, dtype=float).tolist()))

    lines.append("global_mean," + fmt(report.global_mean))
    for label in report.class_means:
        lines.append(f"mean:{label}," + fmt(report.class_means[label]))
    for label in report.ratios:
        lines.append(f"ratio:{label}," + fmt(report.ratios[label]))
    lines.append("superthreshold_classes," + ",".join(str(int(c)) for c in report.per_bin_class_counts))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_mask(path, mask):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(str(b) for b in mask.kept) + "\n")
