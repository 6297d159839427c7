"""Winner-takes-all decisions, majority voting, confusion matrix, score."""

import csv

import numpy as np
import pytest

from photonrc.classify import (
    _classify_frames,
    classify_stream,
    confusion,
    score_line,
    write_confusion,
    write_sequence_results,
)
from photonrc.errors import DimensionError


def _votes(*guesses):
    """One vote row per guess, each all of its frames' votes for that class."""
    return np.eye(6, dtype=np.int64)[list(guesses)]


def _sequence_votes(classes, sequence_id="seq"):
    """The vote row of one span whose frames decide ``classes``."""
    outputs = np.eye(6)[np.asarray(classes, dtype=np.int64)]
    return classify_stream(outputs, [(sequence_id, 0, len(outputs), 0)])[0]


# ---------------------------------------------------------------------------
# Frame decisions

def test_argmax_decision():
    assert _classify_frames([[0.1, 0.9, 0.2, 0.0, 0.0, 0.0]]).tolist() == [1]


def test_ties_break_toward_lowest_index():
    decisions = _classify_frames([[0.5] * 6, [0.0, 0.3, 0.3, 0.0, 0.0, 0.0]])
    assert decisions.tolist() == [0, 1]


def test_decisions_invariant_under_monotone_maps(rng):
    outputs = rng.standard_normal((50, 6))
    base = _classify_frames(outputs).tolist()
    for fn in (np.exp, lambda v: 2.0 * v + 1.0, np.arctan, lambda v: v**3):
        assert _classify_frames(fn(outputs)).tolist() == base


def test_decisions_invariant_under_uniform_shift(rng):
    outputs = rng.standard_normal((40, 6))
    base = _classify_frames(outputs).tolist()
    for c in (-3.0, 0.25, 100.0):
        assert _classify_frames(outputs + c).tolist() == base


def test_wrong_column_count_rejected(rng):
    with pytest.raises(DimensionError):
        _classify_frames(rng.standard_normal((4, 5)))


# ---------------------------------------------------------------------------
# Sequence decisions

def test_majority_vote_fractions():
    classes = [5] * 745 + [3] * 236 + [0] * 19
    votes = _sequence_votes(classes)
    assert np.argmax(votes) == 5
    fractions = votes / votes.sum()
    np.testing.assert_allclose(fractions, [0.019, 0.0, 0.0, 0.236, 0.0, 0.745])
    assert fractions.sum() == pytest.approx(1.0)


def test_unanimous_sequence():
    votes = _sequence_votes([2] * 30)
    assert np.argmax(votes) == 2
    assert votes[2] / votes.sum() == 1.0


def test_sequence_tie_breaks_low():
    votes = _sequence_votes([3] * 10 + [4] * 10)
    assert confusion([votes], [3]).counts[3, 3] == 1


def test_empty_sequence_rejected():
    with pytest.raises(DimensionError, match="'b'"):
        classify_stream(np.eye(6)[[0]], [("a", 0, 1, 0), ("b", 1, 1, 0)])


def test_stream_classification_segments_spans(rng):
    outputs = np.zeros((7, 6))
    outputs[:4, 2] = 1.0   # first sequence votes class 2
    outputs[4:, 5] = 1.0   # second votes class 5
    spans = [("a", 0, 4, 2), ("b", 4, 7, 4)]
    votes = classify_stream(outputs, spans)
    assert votes.dtype == np.int64
    np.testing.assert_array_equal(votes, [[0, 0, 4, 0, 0, 0], [0, 0, 0, 0, 0, 3]])
    assert confusion(votes, [span[3] for span in spans]).counts[4, 5] == 1


# ---------------------------------------------------------------------------
# Confusion matrix and score

def test_single_correct_sequence():
    matrix = confusion(_votes(1), [1])
    assert matrix.score == 100.0
    assert matrix.percentages[1, 1] == 100.0
    assert matrix.counts.sum() == 1
    assert matrix.populated_rows == 1
    empty_rows = [i for i in range(6) if i != 1]
    assert np.all(matrix.percentages[empty_rows] == 0.0)


def test_perfect_balanced_classification_scores_600():
    truths = [c for c in range(6) for _ in range(25)]
    matrix = confusion(9 * _votes(*truths), truths)
    assert matrix.score == 600.0
    assert matrix.populated_rows == 6
    np.testing.assert_array_equal(matrix.counts, 25 * np.eye(6, dtype=np.int64))


def test_rows_are_stochastic(rng):
    votes = 4 * _votes(*(int(rng.integers(0, 6)) for _ in range(60)))
    truths = [int(rng.integers(0, 6)) for _ in range(60)]
    matrix = confusion(votes, truths)
    sums = matrix.percentages.sum(axis=1)
    occupied = matrix.counts.sum(axis=1) > 0
    np.testing.assert_allclose(sums[occupied], 100.0, atol=1e-9)
    assert np.all(sums[~occupied] == 0.0)
    assert 0.0 <= matrix.score <= 600.0


def test_score_600_requires_diagonal_counts():
    matrix = confusion(3 * _votes(0, 2), [0, 1])  # second sequence is wrong
    assert matrix.score < 600.0
    assert matrix.counts[1, 2] == 1


def test_permuting_classes_permutes_the_matrix(rng):
    truths = [int(rng.integers(0, 6)) for _ in range(120)]
    guesses = [int(rng.integers(0, 6)) for _ in range(120)]
    matrix = confusion(3 * _votes(*guesses), truths)
    perm = rng.permutation(6)
    permuted = confusion(
        3 * _votes(*(int(perm[g]) for g in guesses)), [int(perm[t]) for t in truths]
    )
    np.testing.assert_allclose(
        permuted.percentages[np.ix_(perm, perm)], matrix.percentages, atol=1e-12
    )
    assert permuted.score == pytest.approx(matrix.score, abs=1e-9)


def test_counts_match_a_loop_over_the_rows(rng):
    votes = rng.integers(0, 3, size=(200, 6))  # few votes, so many rows tie
    truths = rng.integers(0, 6, size=200)
    expected = np.zeros((6, 6), dtype=np.int64)
    for row, truth in zip(votes, truths):
        winner = max(range(6), key=lambda c: (row[c], -c))  # the lowest most-voted class
        expected[truth, winner] += 1
    np.testing.assert_array_equal(confusion(votes, truths).counts, expected)


def test_confusion_validation():
    with pytest.raises(DimensionError):
        confusion(_votes(0), [0, 1])
    with pytest.raises(DimensionError, match=r"truth class 7 outside \[0, 6\)"):
        confusion(_votes(0), [7])


# ---------------------------------------------------------------------------
# Result files

def test_sequence_results_csv(tmp_path):
    spans = [("s01_walking_r1", 0, 4, 5)]
    votes = [_sequence_votes([5] * 3 + [3] * 1, "s01_walking_r1")]
    path = tmp_path / "sequence_results.csv"
    write_sequence_results(path, spans, votes)
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
    matrix = confusion(4 * _votes(0), [0])
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
