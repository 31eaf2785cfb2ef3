from fractions import Fraction

import numpy as np
import pytest

from spectralmae.errors import DataError
from spectralmae.metrics import (average_precision, confusion_matrix, iou_per_class,
                                 macro_map, mean_iou, micro_map, overall_accuracy,
                                 precision_recall_f1, prf_from_counts)
from spectralmae.rng import CounterRng


def _ap_oracle(scores, labels):
    """Exact rational AP over the stable descending ranking."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    total = Fraction(0)
    positives = sum(labels)
    for rank, i in enumerate(order, start=1):
        if labels[i] == 1:
            hits += 1
            total += Fraction(hits, rank)
    return total / positives


def test_ap_perfect_ranking():
    assert average_precision([0.9, 0.1], [1, 0]) == 1.0


def test_ap_hand_ranked_case():
    assert average_precision([0.9, 0.8, 0.1], [0, 1, 1]) == pytest.approx(7 / 12, abs=1e-12)


def test_ap_all_positive_is_one():
    assert average_precision([0.2, 0.9, 0.5], [1, 1, 1]) == 1.0


def test_ap_requires_positive():
    with pytest.raises(DataError):
        average_precision([0.5, 0.1], [0, 0])


def test_ap_matches_rational_oracle_random():
    rng = CounterRng(0)
    for trial in range(100):
        n = 3 + rng.randbelow(20)
        scores = [round(rng.uniform(), 3) for _ in range(n)]  # rounded: forces ties
        labels = [rng.randbelow(2) for _ in range(n)]
        if sum(labels) == 0:
            labels[rng.randbelow(n)] = 1
        got = average_precision(scores, labels)
        assert abs(got - float(_ap_oracle(scores, labels))) <= 1e-9


def test_ap_score_monotone_invariance():
    rng = CounterRng(1)
    scores = [rng.uniform() for _ in range(25)]
    labels = [rng.randbelow(2) for _ in range(25)]
    labels[0] = 1
    base = average_precision(scores, labels)
    for f in (lambda s: 3 * s + 2, lambda s: np.exp(s), lambda s: s ** 3 + s):
        assert average_precision([f(s) for s in scores], labels) == pytest.approx(base, abs=1e-12)


def test_macro_map_skips_empty_classes():
    scores = np.array([[0.9, 0.4], [0.1, 0.6]])
    labels = np.array([[1, 0], [0, 0]])
    value, skipped = macro_map(scores, labels)
    assert skipped == [1]
    assert value == 1.0


def test_micro_map_is_flattened_ap():
    rng = CounterRng(2)
    scores = rng.uniform_array((6, 4))
    labels = (rng.uniform_array((6, 4)) > 0.5).astype(int)
    labels[0, 0] = 1
    assert micro_map(scores, labels) == pytest.approx(
        average_precision(scores.reshape(-1), labels.reshape(-1)), abs=1e-12)


# ---------------------------------------------------------------- segmentation

def test_confusion_matrix_hand_case():
    cm = confusion_matrix([0, 1, 1, 0], [0, 1, 0, 1], 2)
    assert cm.tolist() == [[1, 1], [1, 1]]


def test_perfect_prediction_metrics():
    truth = np.array([0, 1, 2, 1, 0])
    cm = confusion_matrix(truth, truth, 3)
    assert overall_accuracy(cm) == 1.0
    assert mean_iou(cm) == 1.0


def test_iou_two_class_four_pixel_hand_counts():
    # pred [0,1,1,1], true [0,0,1,1]: class0 TP=1 FP=0 FN=1; class1 TP=2 FP=1 FN=0
    cm = confusion_matrix([0, 1, 1, 1], [0, 0, 1, 1], 2)
    ious = iou_per_class(cm)
    assert ious[0] == pytest.approx(1 / 2)
    assert ious[1] == pytest.approx(2 / 3)


def test_absent_class_excluded_from_miou():
    cm = confusion_matrix([0, 0, 1], [0, 0, 1], 3)  # class 2 never appears
    assert iou_per_class(cm)[2] is None
    assert mean_iou(cm) == 1.0


def test_miou_matches_confusion_oracle_random():
    rng = CounterRng(3)
    for trial in range(100):
        n_classes = 2 + rng.randbelow(4)
        n = 20 + rng.randbelow(40)
        pred = [rng.randbelow(n_classes) for _ in range(n)]
        true = [rng.randbelow(n_classes) for _ in range(n)]
        cm = confusion_matrix(pred, true, n_classes)
        # exact rational oracle
        fractions = []
        for c in range(n_classes):
            tp = sum(1 for p, t in zip(pred, true) if p == c and t == c)
            fp = sum(1 for p, t in zip(pred, true) if p == c and t != c)
            fn = sum(1 for p, t in zip(pred, true) if p != c and t == c)
            if tp + fp + fn:
                fractions.append(Fraction(tp, tp + fp + fn))
        want = sum(fractions, Fraction(0)) / len(fractions)
        assert abs(mean_iou(cm) - float(want)) <= 1e-9
        correct = sum(1 for p, t in zip(pred, true) if p == t)
        assert abs(overall_accuracy(cm) - correct / n) <= 1e-12


def test_confusion_rejects_out_of_range():
    with pytest.raises(DataError):
        confusion_matrix([0, 3], [0, 1], 2)


# ---------------------------------------------------------------- detection

def test_prf_definition_oracle():
    # TP=2, FP=1, FN=1
    pred = [1, 1, 1, 0, 0]
    true = [1, 1, 0, 1, 0]
    p, r, f1, notes = precision_recall_f1(pred, true)
    assert p == pytest.approx(2 / 3)
    assert r == pytest.approx(2 / 3)
    assert f1 == pytest.approx(2 / 3)
    assert notes == []


def test_prf_degenerate_all_negative():
    p, r, f1, notes = precision_recall_f1([0, 0], [0, 0])
    assert any("recall undefined" in n for n in notes)
    assert r == 0.0 and f1 == 0.0
    assert prf_from_counts(0, 0, 0) == (p, r, f1, notes)


def test_prf_random_against_count_oracle():
    rng = CounterRng(4)
    for trial in range(100):
        n = 10 + rng.randbelow(30)
        pred = [rng.randbelow(2) for _ in range(n)]
        true = [rng.randbelow(2) for _ in range(n)]
        p, r, f1, notes = precision_recall_f1(pred, true)
        tp = sum(1 for a, b in zip(pred, true) if a == 1 and b == 1)
        fp = sum(1 for a, b in zip(pred, true) if a == 1 and b == 0)
        fn = sum(1 for a, b in zip(pred, true) if a == 0 and b == 1)
        assert prf_from_counts(tp, fp, fn) == (p, r, f1, notes)
        want_p = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
        want_r = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
        assert abs(p - float(want_p)) <= 1e-9
        assert abs(r - float(want_r)) <= 1e-9
        if want_p + want_r:
            assert abs(f1 - float(2 * want_p * want_r / (want_p + want_r))) <= 1e-9
