"""Task metrics: average precision, segmentation OA/mIoU, detection P/R/F1.

All metrics reduce integer counts and divide once at the end, so they
match exact rational-arithmetic oracles to within one final rounding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .schema import to_doc


@dataclass
class MetricsReport:
    task: str
    values: dict[str, float]
    per_class: dict[str, dict[str, float]] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(to_doc(self, omit=("extras",)), sort_keys=True)


def average_precision(scores, labels) -> float:
    """Step-interpolated AP over the descending-score ranking.

    AP = sum_k (recall_k - recall_{k-1}) * precision_k, which reduces to
    the mean of precision@k over positive positions. Ties keep original
    order (stable sort), so the value is deterministic on ties.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise DataError(f"scores {scores.shape} and labels {labels.shape} must be equal 1-D")
    if not np.isin(labels, (0, 1)).all():
        raise DataError("labels must be binary")
    positives = int(labels.sum())
    if positives == 0:
        raise DataError("average precision undefined without positive labels")
    order = np.argsort(-scores, kind="stable")
    ranked = labels[order]
    hits = np.cumsum(ranked)
    ks = np.arange(1, len(ranked) + 1)
    precision_at = hits / ks
    return float(precision_at[ranked == 1].sum() / positives)


def macro_map(scores: np.ndarray, labels: np.ndarray) -> tuple[float, list[int]]:
    """Mean per-class AP; classes without positives are skipped and reported."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 2:
        raise DataError("macro mAP expects matching (samples, classes) arrays")
    aps, skipped = [], []
    for c in range(scores.shape[1]):
        if labels[:, c].sum() == 0:
            skipped.append(c)
            continue
        aps.append(average_precision(scores[:, c], labels[:, c]))
    if not aps:
        raise DataError("no class has a positive label")
    return float(np.mean(aps)), skipped


def micro_map(scores: np.ndarray, labels: np.ndarray) -> float:
    """AP over the flattened (score, label) multiset across all classes."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    return average_precision(scores.reshape(-1), labels.reshape(-1))


def confusion_matrix(pred, true, n_classes: int) -> np.ndarray:
    pred = np.asarray(pred, dtype=np.int64).reshape(-1)
    true = np.asarray(true, dtype=np.int64).reshape(-1)
    if pred.shape != true.shape:
        raise DataError(f"prediction count {pred.size} vs truth count {true.size}")
    if pred.size and (true.min() < 0 or true.max() >= n_classes):
        raise DataError(f"class id outside [0, {n_classes}) in ground truth")
    if pred.size and (pred.min() < 0 or pred.max() >= n_classes):
        raise DataError(f"class id outside [0, {n_classes}) in prediction")
    idx = true * n_classes + pred
    counts = np.bincount(idx, minlength=n_classes * n_classes)
    return counts.reshape(n_classes, n_classes)


def overall_accuracy(cm: np.ndarray) -> float:
    total = cm.sum()
    return float(np.trace(cm) / total) if total else 0.0


def iou_per_class(cm: np.ndarray) -> list[float | None]:
    """TP / (TP + FP + FN); None when the class is absent from pred and truth."""
    out = []
    for c in range(cm.shape[0]):
        tp = int(cm[c, c])
        fp = int(cm[:, c].sum()) - tp
        fn = int(cm[c, :].sum()) - tp
        union = tp + fp + fn
        out.append(None if union == 0 else tp / union)
    return out


def mean_iou(cm: np.ndarray) -> float:
    present = [v for v in iou_per_class(cm) if v is not None]
    if not present:
        raise DataError("mIoU undefined: every class absent")
    return float(np.mean(present))


def prf_from_counts(tp: int, fp: int, fn: int) -> tuple[float, float, float, list[str]]:
    """P/R/F1 from true-positive, false-positive and false-negative counts."""
    notes: list[str] = []
    if tp + fp == 0:
        precision = 0.0
        notes.append("precision undefined: no positive predictions")
    else:
        precision = tp / (tp + fp)
    if tp + fn == 0:
        recall = 0.0
        notes.append("recall undefined: no positive ground truth")
    else:
        recall = tp / (tp + fn)
    if precision + recall == 0.0:
        f1 = 0.0
        if not notes:
            notes.append("f1 undefined: precision and recall both zero")
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return precision, recall, f1, notes
