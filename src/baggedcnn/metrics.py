"""Confusion matrices, accuracy, and micro/macro precision-recall-F1.

Micro-averaging pools per-class one-vs-rest TP/FP/FN totals before the
ratios; macro averages per-class metrics with equal weight.  0/0 ratios
are reported as 0.
"""

import numpy as np

from .errors import InputError, LabelError, MetricError


def check_labels(labels, n_classes, what="label"):
    """Labels as int64, or LabelError naming the first one outside [0, n_classes)
    or, for a non-integer dtype, the first that is not a whole number.

    Both checks come before the cast, so a fractional label such as -0.5 or
    1.9 is refused rather than truncated, and so is NaN.
    """
    labels = np.asarray(labels)
    bad = np.nonzero((labels < 0) | (labels >= n_classes))[0]
    if bad.size:
        raise LabelError(f"{what} {labels[bad[0]]} out of range [0, {n_classes}) at index {bad[0]}")
    if labels.dtype.kind not in "biu":
        bad = np.nonzero(labels != np.trunc(labels))[0]
        if bad.size:
            raise LabelError(f"{what} {labels[bad[0]]} is not a whole number at index {bad[0]}")
    return labels.astype(np.int64)


def confusion(preds, truths, n_classes):
    """C x C counts, rows = true class, columns = predicted class."""
    if np.shape(preds) != np.shape(truths):
        raise InputError("preds and truths disagree in length")
    preds = check_labels(preds, n_classes, "pred label")
    truths = check_labels(truths, n_classes, "truth label")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (truths, preds), 1)
    return cm


def _per_class_counts(cm):
    tp = np.diag(cm).astype(np.float64)
    fp = cm.sum(axis=0) - tp
    fn = cm.sum(axis=1) - tp
    return tp, fp, fn


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def micro_metrics(cm, excluded_classes=()):
    """(precision, recall, f1) from TP/FP/FN totals pooled over the
    non-excluded classes."""
    cm = np.asarray(cm)
    keep = np.array([k for k in range(cm.shape[0]) if k not in set(excluded_classes)])
    if keep.size == 0:
        raise InputError("all classes excluded")
    tp, fp, fn = _per_class_counts(cm)
    tp_t, fp_t, fn_t = tp[keep].sum(), fp[keep].sum(), fn[keep].sum()
    if tp_t + fp_t + fn_t == 0:
        raise MetricError("micro metrics undefined: all pooled totals are zero")
    p = _ratio(tp_t, tp_t + fp_t)
    r = _ratio(tp_t, tp_t + fn_t)
    f1 = _ratio(2 * p * r, p + r)
    return p, r, f1


def macro_metrics(cm):
    """Unweighted mean of per-class one-vs-rest precision/recall/F1."""
    cm = np.asarray(cm)
    if cm.shape[0] == 0:
        raise InputError("empty confusion matrix")
    tp, fp, fn = _per_class_counts(cm)
    ps, rs, f1s = [], [], []
    for k in range(cm.shape[0]):
        p = _ratio(tp[k], tp[k] + fp[k])
        r = _ratio(tp[k], tp[k] + fn[k])
        ps.append(p)
        rs.append(r)
        f1s.append(_ratio(2 * p * r, p + r))
    return float(np.mean(ps)), float(np.mean(rs)), float(np.mean(f1s))


def accuracy(cm):
    cm = np.asarray(cm)
    total = cm.sum()
    if total == 0:
        raise InputError("empty confusion matrix")
    return float(np.trace(cm) / total)


def binarize_labels(labels):
    """Multi-class {0..4} -> binary: 0 stays 0 (negative), 1-4 become 1."""
    return (check_labels(labels, 5) > 0).astype(np.int64)


def confusion_text(cm):
    """Aligned text rendering, rows = true class."""
    cm = np.asarray(cm)
    width = max(len(str(int(cm.max()))) if cm.size else 1, 5)
    lines = ["true\\pred " + " ".join(f"{j:>{width}}" for j in range(cm.shape[1]))]
    for i, row in enumerate(cm):
        lines.append(f"{i:>9} " + " ".join(f"{int(v):>{width}}" for v in row))
    return "\n".join(lines)


def metrics_report(cm, excluded_classes=()):
    """Flat dict of every scalar metric for one confusion matrix."""
    p, r, f1 = micro_metrics(cm, excluded_classes)
    mp, mr, mf1 = macro_metrics(cm)
    return {
        "accuracy": accuracy(cm),
        "micro_precision": p,
        "micro_recall": r,
        "micro_f1": f1,
        "macro_precision": mp,
        "macro_recall": mr,
        "macro_f1": mf1,
    }
