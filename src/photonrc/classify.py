"""Winner-takes-all decisions, majority votes, and the confusion score.

Each frame is assigned the class of its strongest readout output, and an
output that is not finite is a numerical error.  :func:`classify_stream`
counts each sequence's frame votes into one row of an (S, 6) int64 vote
matrix, one row per span of the frame index, in span order; the span is
the sequence's one record, so its id and truth are read from it and
nowhere else.  A sequence takes the class attributed to the most of its
frames, the argmax of its row.  Ties break toward the lowest class index
at both levels, which keeps every decision deterministic.  Counting the
rows' decisions against the ground truth gives a 6x6 confusion matrix
whose rows are percentages; the score is its trace, 600 for perfect
classification and about 100 for uniform guessing over balanced classes.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .cache import replaced
from .dataset import ACTIONS, Action
from .errors import DimensionError, NumericalError

N_CLASSES = len(ACTIONS)


@dataclass(frozen=True)
class ConfusionMatrix:
    percentages: np.ndarray  # (6, 6), rows sum to 100 (or 0 if class absent)
    counts: np.ndarray       # (6, 6) integer sequence counts
    score: float             # trace of the percentage matrix

    @property
    def populated_rows(self):
        """Number of classes with at least one sequence; 6 on a full dataset."""
        return int(np.count_nonzero(self.counts.sum(axis=1)))


def _classify_frames(outputs, sequence_id=""):
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


def classify_stream(outputs, spans):
    """The (S, 6) int64 vote matrix of a concatenated output stream: row i
    counts, per class, the frames of span i that :func:`_classify_frames`
    assigns to it.

    ``spans`` lists (sequence_id, start, stop, action) tuples as produced
    by the frame index; an empty span raises DimensionError naming its
    sequence.
    """
    votes = np.empty((len(spans), N_CLASSES), dtype=np.int64)
    for row, (sequence_id, start, stop, _) in zip(votes, spans):
        if stop <= start:
            raise DimensionError(f"cannot classify the empty sequence {sequence_id!r}")
        row[:] = np.bincount(_classify_frames(outputs[start:stop], sequence_id), minlength=N_CLASSES)
    return votes


def confusion(votes, truths):
    """The percentage confusion matrix of vote rows against their truth
    class indices; each row decides for its most-voted class, the lowest on
    a tie."""
    truths = np.asarray(truths, dtype=np.int64)
    if len(votes) != len(truths):
        raise DimensionError("vote rows and truths must align")
    outside = truths[(truths < 0) | (truths >= N_CLASSES)]
    if outside.size:
        raise DimensionError(f"truth class {outside[0]} outside [0, {N_CLASSES})")
    counts = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    # np.argmax returns the first maximum, so a tied row decides for its lowest class
    np.add.at(counts, (truths, np.argmax(votes, axis=1)), 1)
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

def write_sequence_results(path, spans, votes):
    """Per-sequence CSV: id, truth, decision, and the six frame fractions;
    each span gives its sequence's id and truth, each vote row the rest."""
    with replaced(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["sequence_id", "truth", "decision"]
            + [f"fraction_{a.label}" for a in ACTIONS]
        )
        for (sequence_id, _, _, action), row in zip(spans, votes):
            writer.writerow(
                [sequence_id, Action(action).label, Action(np.argmax(row)).label]
                + [f"{v:.10g}" for v in row / row.sum()]
            )


def write_confusion(path, matrix):
    """Confusion CSV: one percentage row per true class."""
    with replaced(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["true_class"] + [a.label for a in ACTIONS])
        for i, action in enumerate(ACTIONS):
            writer.writerow([action.label] + [f"{v:.10g}" for v in matrix.percentages[i]])


def score_line(matrix):
    return (
        f"score {matrix.score:.10g} / {100 * matrix.populated_rows} "
        f"({matrix.populated_rows} of {N_CLASSES} classes populated)"
    )
