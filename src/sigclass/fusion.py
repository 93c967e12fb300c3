"""Weighted sensor fusion and discriminative frequency selection.

Fusion collapses a recording's (channels, blocks, 300) spectra into one
300-bin row per time block via a normalized weighted average, one weight per
channel row.  Selection then takes the (n, 300) matrix of fused rows and each
row's class index, and keeps the bins where some class's mean response stands
out against the grand mean across all classes, while dropping bins that are
hot for too many classes at once (those cannot identify anything).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SelectionError, ValidationError
from .spectral import N_BINS

# the widest mask selection keeps; up to this width dnn.init_network's
# initialisation stays out of saturation
MAX_MASK_BINS = 125


@dataclass
class SpectrumRow:
    """One fused 300-bin magnitude row plus its class label, for `apply_mask`."""

    bins: np.ndarray
    label: str


@dataclass
class FeatureMask:
    """Strictly ascending 1-based bin indices retained for the classifier.

    `index` holds the same bins 0-based, for indexing a row's bins.
    compute_selection and load_checkpoint make only ascending bins in 1..300, at least one.
    """

    kept: list
    index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.index = np.array(self.kept) - 1

    def __len__(self):
        return len(self.kept)


@dataclass
class SelectionReport:
    """All selection intermediates, for inspection and the report CSV; row k of the arrays is labels[k]."""

    labels: list
    class_means: np.ndarray
    global_mean: np.ndarray
    ratios: np.ndarray
    per_bin_class_counts: np.ndarray
    warnings: list = field(default_factory=list)


def fuse(spectra, weights):
    """Weighted average of per-channel magnitudes at each frequency.

    `spectra` is a (channels, ...) array, e.g. (channels, blocks, 300) with
    block k of every channel from the same time span; `weights` holds one w_j
    per row.  Returns bins[..., i] = sum_j w_j * |S_ij| / sum_j w_j, in row order.
    The config checks one weight per fused channel, none negative and not all zero.
    """
    acc = np.zeros(spectra.shape[1:])
    for w, spec in zip(weights, spectra):
        acc += w * spec  # in place: a fresh sum per channel fragments the heap and raises peak RSS
    return acc / sum(weights)


def default_max_classes_per_bin(n_classes):
    """Guard default: ceil(T/2) - 1 super-threshold classes per bin, floor 1."""
    return max(1, math.ceil(n_classes / 2) - 1)


def compute_selection(x, y, vocab, threshold, max_classes_per_bin):
    """Pick the discriminative frequency bins from fused rows x with class indices y.

    y indexes vocab.  Per class, the mean response at each bin is divided by
    the grand mean over all rows; a bin is kept when at least one class ratio
    strictly exceeds `threshold`, unless more than `max_classes_per_bin`
    classes exceed it there (such bins identify nothing).  Bins whose grand
    mean is zero have undefined ratios and are excluded with a warning.  Of
    more than MAX_MASK_BINS such bins, the MAX_MASK_BINS with the highest
    class ratio are kept (the lower bin on a tie), with a warning.

    Returns (FeatureMask, SelectionReport); raises SelectionError (with the
    report attached) when nothing survives.  The config checks threshold > 1.
    """
    if len(vocab) < 2:
        raise ValidationError("selection needs at least 2 distinct labels")
    sizes = np.bincount(y, minlength=len(vocab))
    if sizes.min() < 10:
        k = int(np.argmax(sizes < 10))  # the first class in vocab order
        raise ValidationError(f"label {vocab[k]!r} has {sizes[k]} rows; need >= 10")
    class_means = np.stack([x[y == k].mean(axis=0) for k in range(len(vocab))])
    global_mean = x.mean(axis=0)

    warnings = []
    zero = global_mean == 0
    if np.any(zero):
        bins = [int(i) + 1 for i in np.flatnonzero(zero)]
        warnings.append(f"{len(bins)} bins have zero grand mean and were excluded: {bins[:10]}")

    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(zero, np.nan, class_means / np.where(zero, 1.0, global_mean))
    counts = np.count_nonzero(ratios > threshold, axis=0)  # False where the ratio is nan

    kept = np.flatnonzero((counts >= 1) & (counts <= max_classes_per_bin))
    if len(kept) > MAX_MASK_BINS:
        top = np.argsort(-ratios[:, kept].max(axis=0), kind="stable")[:MAX_MASK_BINS]
        warnings.append(f"{len(kept)} bins passed the threshold; kept the {MAX_MASK_BINS} "
                        f"with the highest class ratio")
        kept = np.sort(kept[top])
    report = SelectionReport(
        labels=list(vocab),
        class_means=class_means,
        global_mean=global_mean,
        ratios=ratios,
        per_bin_class_counts=counts,
        warnings=warnings,
    )
    if not kept.size:
        raise SelectionError(
            f"no frequency bin exceeded threshold {threshold} for <= "
            f"{max_classes_per_bin} classes (best ratio {float(np.nanmax(ratios)):.3f})",
            report=report,
        )
    return FeatureMask(kept=(kept + 1).tolist()), report


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
    lines += [f"mean:{label}," + fmt(mean) for label, mean in zip(report.labels, report.class_means)]
    lines += [f"ratio:{label}," + fmt(ratio) for label, ratio in zip(report.labels, report.ratios)]
    lines.append("superthreshold_classes," + ",".join(str(int(c)) for c in report.per_bin_class_counts))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_mask(path, mask):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(str(b) for b in mask.kept) + "\n")
