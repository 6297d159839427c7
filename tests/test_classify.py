"""Winner-takes-all decisions, majority voting, confusion matrix, score."""

import csv

import numpy as np
import pytest

from photonrc.classify import (
    classify_frames,
    classify_sequence,
    classify_stream,
    confusion,
    score_line,
    write_confusion,
    write_sequence_results,
)
from photonrc.errors import DimensionError


def _decisions(classes):
    return np.asarray(classes, dtype=np.int64)


# ---------------------------------------------------------------------------
# Frame decisions

def test_argmax_decision():
    assert classify_frames([[0.1, 0.9, 0.2, 0.0, 0.0, 0.0]]).tolist() == [1]


def test_ties_break_toward_lowest_index():
    decisions = classify_frames([[0.5] * 6, [0.0, 0.3, 0.3, 0.0, 0.0, 0.0]])
    assert decisions.tolist() == [0, 1]


def test_decisions_invariant_under_monotone_maps(rng):
    outputs = rng.standard_normal((50, 6))
    base = classify_frames(outputs).tolist()
    for fn in (np.exp, lambda v: 2.0 * v + 1.0, np.arctan, lambda v: v**3):
        assert classify_frames(fn(outputs)).tolist() == base


def test_decisions_invariant_under_uniform_shift(rng):
    outputs = rng.standard_normal((40, 6))
    base = classify_frames(outputs).tolist()
    for c in (-3.0, 0.25, 100.0):
        assert classify_frames(outputs + c).tolist() == base


def test_wrong_column_count_rejected(rng):
    with pytest.raises(DimensionError):
        classify_frames(rng.standard_normal((4, 5)))


# ---------------------------------------------------------------------------
# Sequence decisions

def test_majority_vote_fractions():
    classes = [5] * 745 + [3] * 236 + [0] * 19
    decision = classify_sequence(_decisions(classes), sequence_id="seq")
    assert decision.class_index == 5
    np.testing.assert_allclose(
        decision.frame_fractions, [0.019, 0.0, 0.0, 0.236, 0.0, 0.745]
    )
    assert decision.frame_fractions.sum() == pytest.approx(1.0)


def test_unanimous_sequence():
    decision = classify_sequence(_decisions([2] * 30))
    assert decision.class_index == 2
    assert decision.frame_fractions[2] == 1.0


def test_sequence_tie_breaks_low():
    decision = classify_sequence(_decisions([3] * 10 + [4] * 10))
    assert decision.class_index == 3


def test_empty_sequence_rejected():
    with pytest.raises(DimensionError):
        classify_sequence([])


def test_stream_classification_segments_spans(rng):
    outputs = np.zeros((7, 6))
    outputs[:4, 2] = 1.0   # first sequence votes class 2
    outputs[4:, 5] = 1.0   # second votes class 5
    spans = [("a", 0, 4, 2), ("b", 4, 7, 4)]
    decisions, truths = classify_stream(outputs, spans)
    assert [d.sequence_id for d in decisions] == ["a", "b"]
    assert [d.class_index for d in decisions] == [2, 5]
    assert truths == [2, 4]


# ---------------------------------------------------------------------------
# Confusion matrix and score

def test_single_correct_sequence():
    decisions = [classify_sequence(_decisions([1] * 5), "x")]
    matrix = confusion(decisions, [1])
    assert matrix.score == 100.0
    assert matrix.percentages[1, 1] == 100.0
    assert matrix.counts.sum() == 1
    assert matrix.populated_rows == 1
    empty_rows = [i for i in range(6) if i != 1]
    assert np.all(matrix.percentages[empty_rows] == 0.0)


def test_perfect_balanced_classification_scores_600():
    decisions = []
    truths = []
    for c in range(6):
        for _ in range(25):
            decisions.append(classify_sequence(_decisions([c] * 9), f"s{c}"))
            truths.append(c)
    matrix = confusion(decisions, truths)
    assert matrix.score == 600.0
    assert matrix.populated_rows == 6
    np.testing.assert_array_equal(matrix.counts, 25 * np.eye(6, dtype=np.int64))


def test_rows_are_stochastic(rng):
    decisions = [
        classify_sequence(_decisions([int(rng.integers(0, 6))] * 4), str(i))
        for i in range(60)
    ]
    truths = [int(rng.integers(0, 6)) for _ in range(60)]
    matrix = confusion(decisions, truths)
    sums = matrix.percentages.sum(axis=1)
    occupied = matrix.counts.sum(axis=1) > 0
    np.testing.assert_allclose(sums[occupied], 100.0, atol=1e-9)
    assert np.all(sums[~occupied] == 0.0)
    assert 0.0 <= matrix.score <= 600.0


def test_score_600_requires_diagonal_counts():
    decisions = [classify_sequence(_decisions([0] * 3), "a"),
                 classify_sequence(_decisions([2] * 3), "b")]
    matrix = confusion(decisions, [0, 1])  # second sequence is wrong
    assert matrix.score < 600.0
    assert matrix.counts[1, 2] == 1


def test_permuting_classes_permutes_the_matrix(rng):
    truths = [int(rng.integers(0, 6)) for _ in range(120)]
    guesses = [int(rng.integers(0, 6)) for _ in range(120)]
    matrix = confusion(
        [classify_sequence(_decisions([g] * 3), str(i)) for i, g in enumerate(guesses)],
        truths,
    )
    perm = rng.permutation(6)
    permuted = confusion(
        [
            classify_sequence(_decisions([int(perm[g])] * 3), str(i))
            for i, g in enumerate(guesses)
        ],
        [int(perm[t]) for t in truths],
    )
    np.testing.assert_allclose(
        permuted.percentages[np.ix_(perm, perm)], matrix.percentages, atol=1e-12
    )
    assert permuted.score == pytest.approx(matrix.score, abs=1e-9)


def test_confusion_validation():
    with pytest.raises(DimensionError):
        confusion([classify_sequence(_decisions([0]), "a")], [0, 1])
    with pytest.raises(DimensionError):
        confusion([classify_sequence(_decisions([0]), "a")], [7])


# ---------------------------------------------------------------------------
# Result files

def test_sequence_results_csv(tmp_path):
    decisions = [
        classify_sequence(_decisions([5] * 3 + [3] * 1), "s01_walking_r1"),
    ]
    path = tmp_path / "sequence_results.csv"
    write_sequence_results(path, decisions, [5])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "sequence_id", "truth", "decision",
        "fraction_boxing", "fraction_handclapping", "fraction_handwaving",
        "fraction_jogging", "fraction_running", "fraction_walking",
    ]
    assert rows[1][:3] == ["s01_walking_r1", "walking", "walking"]
    assert float(rows[1][6]) == 0.25
    assert float(rows[1][8]) == 0.75


def test_confusion_csv_and_score_line(tmp_path):
    decisions = [classify_sequence(_decisions([0] * 4), "a")]
    matrix = confusion(decisions, [0])
    path = tmp_path / "confusion.csv"
    write_confusion(path, matrix)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "true_class"
    assert rows[1][0] == "boxing"
    assert float(rows[1][1]) == 100.0
    assert len(rows) == 7
    line = score_line(matrix)
    assert line == "score 100 / 100 (1 of 6 classes populated)"
