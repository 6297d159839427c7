"""Winner-takes-all decisions, majority votes, and the confusion score.

Each frame is assigned the class of its strongest readout output, and an
output that is not finite is a numerical error; a sequence takes the class
attributed to the most of its frames.  Ties break
toward the lowest class index at both levels, which keeps every decision
deterministic.  Aggregating sequence decisions against the ground truth
gives a 6x6 confusion matrix whose rows are percentages; the score is its
trace, 600 for perfect classification and about 100 for uniform guessing
over balanced classes.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .dataset import ACTIONS, Action
from .errors import DimensionError, NumericalError

N_CLASSES = len(ACTIONS)


@dataclass(frozen=True)
class SequenceDecision:
    sequence_id: str
    class_index: int
    frame_fractions: np.ndarray  # fraction of frames voting for each class


@dataclass(frozen=True)
class ConfusionMatrix:
    percentages: np.ndarray  # (6, 6), rows sum to 100 (or 0 if class absent)
    counts: np.ndarray       # (6, 6) integer sequence counts
    score: float             # trace of the percentage matrix

    @property
    def populated_rows(self):
        """Number of classes with at least one sequence; 6 on a full dataset."""
        return int(np.count_nonzero(self.counts.sum(axis=1)))


def classify_frames(outputs, sequence_id=""):
    """Per-row argmax class indices (lowest index wins ties).

    A row that is not finite raises NumericalError naming ``sequence_id``,
    where np.argmax would take its first NaN for the maximum.
    """
    Y = np.atleast_2d(np.asarray(outputs, dtype=np.float64))
    if Y.shape[1] != N_CLASSES:
        raise DimensionError(f"expected {N_CLASSES} output columns, got {Y.shape[1]}")
    finite = np.isfinite(Y).all(axis=1)
    if not finite.all():
        raise NumericalError(
            f"readout output of sequence {sequence_id!r} is not finite "
            f"at frame {int(np.argmin(finite))}"
        )
    return np.argmax(Y, axis=1)  # np.argmax returns the first maximum


def classify_sequence(frame_classes, sequence_id=""):
    """Majority vote over one sequence's frame class indices."""
    if len(frame_classes) == 0:
        raise DimensionError("cannot classify an empty sequence")
    votes = np.bincount(frame_classes, minlength=N_CLASSES)
    fractions = votes / votes.sum()
    return SequenceDecision(
        sequence_id=sequence_id,
        class_index=int(np.argmax(votes)),
        frame_fractions=fractions,
    )


def classify_stream(outputs, spans):
    """Sequence decisions for a concatenated output stream.

    ``spans`` is a list of (sequence_id, start, stop, action) tuples as
    produced by the frame index; returns (decisions, truth class indices).
    """
    Y = np.asarray(outputs, dtype=np.float64)
    decisions = [
        classify_sequence(classify_frames(Y[start:stop], sequence_id), sequence_id)
        for sequence_id, start, stop, _ in spans
    ]
    return decisions, [int(action) for *_, action in spans]


def confusion(decisions, truths):
    """Accumulate sequence decisions into the percentage confusion matrix."""
    if len(decisions) != len(truths):
        raise DimensionError("decisions and truths must align")
    counts = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    for decision, truth in zip(decisions, truths):
        truth = int(truth)
        if not 0 <= truth < N_CLASSES:
            raise DimensionError(f"truth class {truth} outside [0, {N_CLASSES})")
        counts[truth, decision.class_index] += 1
    row_totals = counts.sum(axis=1)
    percentages = np.zeros((N_CLASSES, N_CLASSES))
    occupied = row_totals > 0
    percentages[occupied] = 100.0 * counts[occupied] / row_totals[occupied, None]
    return ConfusionMatrix(
        percentages=percentages,
        counts=counts,
        score=float(np.trace(percentages)),
    )


# ---------------------------------------------------------------------------
# Result files

def write_sequence_results(path, decisions, truths):
    """Per-sequence CSV: id, truth, decision, and the six frame fractions."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["sequence_id", "truth", "decision"]
            + [f"fraction_{a.label}" for a in ACTIONS]
        )
        for decision, truth in zip(decisions, truths):
            writer.writerow(
                [
                    decision.sequence_id,
                    Action(int(truth)).label,
                    Action(decision.class_index).label,
                ]
                + [f"{v:.10g}" for v in decision.frame_fractions]
            )


def write_confusion(path, matrix):
    """Confusion CSV: one percentage row per true class."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["true_class"] + [a.label for a in ACTIONS])
        for i, action in enumerate(ACTIONS):
            writer.writerow([action.label] + [f"{v:.10g}" for v in matrix.percentages[i]])


def score_line(matrix):
    return (
        f"score {matrix.score:.10g} / {100 * matrix.populated_rows} "
        f"({matrix.populated_rows} of {N_CLASSES} classes populated)"
    )
