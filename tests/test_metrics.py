import numpy as np
import pytest

from baggedcnn import metrics, training
from baggedcnn.errors import InputError, LabelError, MetricError


class TestConfusion:
    def test_all_correct_is_diagonal(self):
        cm = metrics.confusion([0, 1, 2, 1], [0, 1, 2, 1], 3)
        assert np.array_equal(cm, np.diag([1, 2, 1]))

    def test_two_sample_hand_count(self):
        cm = metrics.confusion([0, 1], [1, 1], 2)
        assert cm[1, 0] == 1 and cm[1, 1] == 1
        assert cm[0].sum() == 0

    def test_cell_sum_equals_samples(self, rng):
        preds = rng.integers(0, 4, size=50)
        truths = rng.integers(0, 4, size=50)
        assert metrics.confusion(preds, truths, 4).sum() == 50

    def test_out_of_range(self):
        with pytest.raises(LabelError, match="index"):
            metrics.confusion([0, 5], [0, 1], 3)


class TestMicro:
    def test_perfect_diagonal(self):
        assert metrics.micro_metrics(np.diag([3, 4, 5])) == (1.0, 1.0, 1.0)

    def test_identity_with_accuracy(self, rng):
        cm = rng.integers(0, 20, size=(4, 4))
        p, r, f1 = metrics.micro_metrics(cm)
        acc = metrics.accuracy(cm)
        assert p == pytest.approx(acc, abs=1e-12)
        assert r == pytest.approx(acc, abs=1e-12)
        assert f1 == pytest.approx(acc, abs=1e-12)

    def test_hand_exclusion_case(self):
        cm = np.array([[2, 1, 0], [0, 3, 0], [1, 0, 3]])
        p, r, f1 = metrics.micro_metrics(cm, excluded_classes={0})
        assert p == pytest.approx(6 / 7)
        assert r == pytest.approx(6 / 7)
        assert f1 == pytest.approx(6 / 7)

    def test_all_excluded(self):
        with pytest.raises(InputError):
            metrics.micro_metrics(np.diag([1, 1]), excluded_classes={0, 1})

    def test_all_zero_totals(self):
        cm = np.zeros((3, 3), dtype=int)
        cm[0, 0] = 5  # only class 0 occupied; exclude it
        with pytest.raises(MetricError):
            metrics.micro_metrics(cm, excluded_classes={0})


class TestMacro:
    def test_perfect_diagonal(self):
        assert metrics.macro_metrics(np.diag([2, 2])) == (1.0, 1.0, 1.0)

    def test_symmetric_errors_match_micro(self):
        cm = np.array([[8, 2], [2, 8]])
        assert metrics.macro_metrics(cm)[0] == pytest.approx(metrics.micro_metrics(cm)[0])

    def test_hand_macro_precision(self):
        cm = np.array([[1, 1], [0, 2]])
        p, r, _ = metrics.macro_metrics(cm)
        assert p == pytest.approx(5 / 6)
        assert r == pytest.approx((0.5 + 1.0) / 2)

    def test_class_relabeling_invariance(self, rng):
        cm = rng.integers(0, 10, size=(4, 4))
        perm = rng.permutation(4)
        permuted = cm[np.ix_(perm, perm)]
        assert metrics.macro_metrics(cm) == pytest.approx(metrics.macro_metrics(permuted))
        assert metrics.micro_metrics(cm) == pytest.approx(metrics.micro_metrics(permuted))


class TestAccuracy:
    def test_diagonal(self):
        assert metrics.accuracy(np.diag([1, 2, 3])) == 1.0

    def test_all_off_diagonal(self):
        assert metrics.accuracy(np.array([[0, 3], [2, 0]])) == 0.0

    def test_hand_value(self):
        assert metrics.accuracy(np.array([[2, 1], [1, 2]])) == pytest.approx(4 / 6)

    def test_empty(self):
        with pytest.raises(InputError):
            metrics.accuracy(np.zeros((2, 2), dtype=int))


class TestBinarize:
    def test_negative_stays_zero(self):
        assert metrics.binarize_labels([0]).tolist() == [0]

    def test_malignant_calcification_positive(self):
        assert metrics.binarize_labels([3]).tolist() == [1]

    def test_vector(self):
        assert metrics.binarize_labels([0, 2, 4]).tolist() == [0, 1, 1]

    def test_out_of_range(self):
        with pytest.raises(LabelError):
            metrics.binarize_labels([5])


class TestF1Law:
    def test_harmonic_mean_identity(self, rng):
        for _ in range(200):
            cm = rng.integers(0, 15, size=(3, 3))
            if cm.sum() == 0:
                continue
            for excl in ((), (0,)):
                try:
                    p, r, f1 = metrics.micro_metrics(cm, excl)
                except MetricError:
                    continue
                if p + r > 0:
                    assert f1 == pytest.approx(2 * p * r / (p + r), abs=1e-12)
                else:
                    assert f1 == 0.0


class TestRendering:
    def test_text_table(self):
        text = metrics.confusion_text(np.array([[1, 2], [3, 4]]))
        assert "true\\pred" in text
        assert len(text.splitlines()) == 3


def test_fractional_negative_label_refused():
    # the range is checked before the int64 cast, which would read -0.5 as 0
    with pytest.raises(LabelError, match=r"label -0\.5 out of range \[0, 5\) at index 1"):
        training.sparse_cce(np.full((2, 5), 0.2), [0, -0.5])
    with pytest.raises(LabelError, match=r"^pred label -0\.5 .* at index 1"):
        metrics.confusion([0, -0.5], [0, 0], 5)
    with pytest.raises(LabelError, match=r"^truth label -0\.5 .* at index 1"):
        metrics.confusion([0, 0], [0, -0.5], 5)
    with pytest.raises(LabelError, match=r"^label -0\.5 out of range \[0, 5\) at index 1"):
        metrics.binarize_labels([0, -0.5])


# a fraction inside the range used to be truncated into a valid class
def test_confusion_refuses_fractional_labels():
    with pytest.raises(LabelError, match=r"^pred label 0\.5 is not a whole number at index 0"):
        metrics.confusion([0.5, 1.9], [0, 1], 5)
    with pytest.raises(LabelError, match=r"^truth label 1\.9 is not a whole number at index 1"):
        metrics.confusion([0, 1], [0.0, 1.9], 5)
    with pytest.raises(LabelError, match="nan"):
        metrics.confusion([0, np.nan], [0, 1], 5)
    # whole numbers in a float array are still labels
    assert metrics.confusion([0.0, 1.0], [0, 1], 5).trace() == 2


def test_binarize_refuses_fractional_labels():
    with pytest.raises(LabelError, match=r"^label 0\.4 is not a whole number at index 0"):
        metrics.binarize_labels([0.4])
    assert metrics.binarize_labels(np.array([0.0, 3.0])).tolist() == [0, 1]


def test_sparse_cce_refuses_fractional_labels():
    with pytest.raises(LabelError, match=r"^label 2\.7 is not a whole number at index 1"):
        training.sparse_cce(np.full((2, 5), 0.2), [0, 2.7])
    assert training.sparse_cce(np.full((2, 5), 0.2), [0.0, 2.0]) == pytest.approx(-np.log(0.2))
