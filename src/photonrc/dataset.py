"""Frame-sequence ingestion: manifest files, PGM frames, splits, streaming.

A dataset is described by a JSON manifest:

    {
      "resolution": {"height": 120, "width": 160},
      "frame_store_root": "frames",          // absolute, or relative to the manifest
      "split_seed": 42,
      "sequences": [
        {"sequence_id": "p01_boxing_r1",
         "subject": 1,
         "action": "boxing",                 // one of the six class names below
         "repetition": 1,
         "frame_count": 36,
         "split": "train",                   // "train" | "test"
         "frame_filename_pattern": "p01_boxing_r1/frame_%05d.pgm"}
      ]
    }

Frames are stored one per file as binary 8-bit grayscale PGM (P5).  The
``frame_filename_pattern`` must contain exactly one zero-padded ``%0Nd``
conversion and no other (``%%`` stands for a literal ``%``), filled with
the 0-based frame index and resolved against ``frame_store_root``; a
pattern that breaks this rule is a SchemaError naming the sequence.  Only
:func:`stream_frames`, which the HOG stage calls, opens frame files, and it
names a missing one when it reaches it; every stage after HOG needs only
the manifest and the caches.

Every sequence is streamed, in manifest order, as one concatenated video
stream; the splits are sets of its rows, not separate streams.  One type
keeps that bookkeeping, :class:`FrameIndex`: each row's action, each
split's rows and each sequence's row span.  :func:`index_frames` builds it
from the manifest's splits and :func:`validation_index` with a validation
split carved out of the train split; this module is the only one that
turns a sequence into its id, rows and action.  :func:`stream_frames`
yields each frame's pixels alone, and a span, (sequence_id, start, stop,
action), is each sequence's one record past this module: a reset reads
its start, and scoring its id and truth.

The manifest is read by :func:`photonrc.cache.read_json`, and each of its
fields through :func:`photonrc.cache.json_typed`, as every JSON loader reads
its fields; a malformed manifest, or a field of another JSON type (such as
``"frame_count": 3.9``), raises ParseError or SchemaError naming the file.
:func:`save_manifest` keeps its own unsorted writer: the manifest's bytes
feed every stage digest.

Sequences are identified by (subject, action, repetition) and by
``sequence_id``, each unique across the manifest.  ``frame_count`` outside
[24, 239] is legal but triggers a warning, since conforming recordings stay
inside that window.
"""

import enum
import json
import os
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .cache import json_field, json_typed, read_json, replaced
from .errors import MissingFrameError, ParseError, SchemaError

KTH_FRAME_COUNT_RANGE = (24, 239)


class Action(enum.IntEnum):
    """The six action classes, in canonical output-node order."""

    BOXING = 0
    HANDCLAPPING = 1
    HANDWAVING = 2
    JOGGING = 3
    RUNNING = 4
    WALKING = 5

    @classmethod
    def from_name(cls, name):
        try:
            return cls[name.strip().upper()]
        except KeyError:
            raise SchemaError(f"unknown action {name!r}") from None

    @property
    def label(self):
        return self.name.lower()


ACTIONS = tuple(Action)


class Split(enum.Enum):
    TRAIN = "train"
    TEST = "test"

    @classmethod
    def from_name(cls, name):
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise SchemaError(f"unknown split {name!r}") from None


@dataclass(frozen=True)
class SequenceMeta:
    sequence_id: str
    subject: int
    action: Action
    repetition: int
    frame_count: int
    split: Split
    frame_filename_pattern: str

    def __post_init__(self):
        if self.subject < 1:
            raise SchemaError(f"{self.sequence_id}: subject must be >= 1")
        if self.repetition < 1:
            raise SchemaError(f"{self.sequence_id}: repetition must be >= 1")
        if self.frame_count < 0:
            raise SchemaError(f"{self.sequence_id}: negative frame_count")
        lo, hi = KTH_FRAME_COUNT_RANGE
        if not lo <= self.frame_count <= hi:
            warnings.warn(
                f"{self.sequence_id}: frame_count {self.frame_count} outside "
                f"the conforming range [{lo}, {hi}]",
                stacklevel=2,
            )
        if not _PATTERN_RE.fullmatch(self.frame_filename_pattern.replace("%%", "")):
            raise SchemaError(
                f"{self.sequence_id}: frame_filename_pattern needs one %0Nd conversion and no other"
            )

    def frame_path(self, root, index):
        return os.path.join(root, self.frame_filename_pattern % index)


# a pattern once its literal "%%" are taken out, as the % operator reads them
# from the left: one zero-padded integer conversion and no other "%"
_PATTERN_RE = re.compile(r"[^%]*%0\d+d[^%]*")


@dataclass(frozen=True)
class Manifest:
    sequences: tuple
    resolution: tuple  # (height, width)
    frame_store_root: str
    split_seed: int


# ---------------------------------------------------------------------------
# PGM (P5) reading and writing

def read_pgm(path):
    """Read a binary 8-bit grayscale PGM file into a (height, width) uint8 array."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = []
    pos = 0
    while len(tokens) < 4:
        match = re.match(rb"(?:\s|#[^\n]*\n)*(\S+)", data[pos:])
        if not match:
            raise ParseError(f"{path}: truncated PGM header")
        tokens.append(match.group(1))
        pos += match.end()
    if tokens[0] != b"P5":
        raise ParseError(f"{path}: not a binary PGM (P5) file")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        raise ParseError(f"{path}: non-numeric PGM header field") from None
    if width < 1 or height < 1:
        raise ParseError(f"{path}: PGM dimensions must be positive, got {width} x {height}")
    if not 0 < maxval <= 255:
        raise ParseError(f"{path}: only 8-bit PGM supported (maxval={maxval})")
    pos += 1  # single whitespace byte after maxval
    if len(data) - pos < height * width:
        raise ParseError(f"{path}: truncated PGM pixel data")
    pixels = np.frombuffer(data, dtype=np.uint8, count=height * width, offset=pos)
    return pixels.reshape(height, width).copy()


def write_pgm(path, pixels):
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.ndim != 2:
        raise ValueError("PGM pixels must be a 2-D array")
    height, width = pixels.shape
    with replaced(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


# ---------------------------------------------------------------------------
# Manifest I/O

def load_manifest(path):
    """Parse and validate a manifest file; no frame file is opened or checked."""
    return read_json(path, lambda raw: _build_manifest(raw, path))


def _build_manifest(raw, path):
    res = json_field(raw, "resolution", dict)
    resolution = tuple(json_field(res, k, int, "resolution.") for k in ("height", "width"))
    if resolution[0] < 1 or resolution[1] < 1:
        raise SchemaError("resolution must be positive")

    root = json_field(raw, "frame_store_root", str)
    if not os.path.isabs(root):
        root = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(path)), root))
    split_seed = json_field(raw, "split_seed", int)

    sequences = []
    seen = set()
    seen_ids = set()
    for i, entry in enumerate(json_field(raw, "sequences", list)):
        ctx = f"sequences[{i}]"
        entry = json_typed(entry, dict, ctx)

        def field(name, kind):
            return json_field(entry, name, kind, f"{ctx}.")

        seq = SequenceMeta(
            sequence_id=field("sequence_id", str),
            subject=field("subject", int),
            action=Action.from_name(field("action", str)),
            repetition=field("repetition", int),
            frame_count=field("frame_count", int),
            split=Split.from_name(field("split", str)),
            frame_filename_pattern=field("frame_filename_pattern", str),
        )
        key = (seq.subject, seq.action, seq.repetition)
        if key in seen:
            raise SchemaError(f"{ctx}: duplicate (subject, action, repetition) {key}")
        if seq.sequence_id in seen_ids:
            raise SchemaError(f"{ctx}.sequence_id must be unique, found {seq.sequence_id!r}")
        seen.add(key)
        seen_ids.add(seq.sequence_id)
        sequences.append(seq)

    return Manifest(
        sequences=tuple(sequences),
        resolution=resolution,
        frame_store_root=root,
        split_seed=split_seed,
    )


def save_manifest(manifest, path):
    doc = {
        "resolution": {"height": manifest.resolution[0], "width": manifest.resolution[1]},
        "frame_store_root": manifest.frame_store_root,
        "split_seed": manifest.split_seed,
        "sequences": [
            {
                "sequence_id": seq.sequence_id,
                "subject": seq.subject,
                "action": seq.action.label,
                "repetition": seq.repetition,
                "frame_count": seq.frame_count,
                "split": seq.split.value,
                "frame_filename_pattern": seq.frame_filename_pattern,
            }
            for seq in manifest.sequences
        ],
    }
    with replaced(path) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Splitting and streaming

def make_split(actions, train_fraction, seed):
    """Assign train/test splits to sequences of the given ``actions``,
    stratified by action class; returns each sequence's :class:`Split`, in
    input order.

    Within each class, a seeded shuffle sends ``floor(train_fraction * n)``
    sequences (clamped so both splits keep at least one sequence when the
    class has two or more) to the train split.  Deterministic in
    (actions, train_fraction, seed).
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    actions = list(actions)
    rng = np.random.default_rng(seed)
    assignment = {}
    for action in ACTIONS:
        idx = [i for i, a in enumerate(actions) if a == action]
        if not idx:
            continue
        n = len(idx)
        n_train = int(np.floor(train_fraction * n))
        if n >= 2:
            n_train = min(max(n_train, 1), n - 1)
        else:
            n_train = 1
        order = rng.permutation(n)
        for rank, j in enumerate(order):
            assignment[idx[j]] = Split.TRAIN if rank < n_train else Split.TEST
    return [assignment[i] for i in range(len(actions))]


def stream_frames(manifest):
    """Yield the (height, width) uint8 pixels of every frame, sequence by
    sequence in manifest order, each sequence's in temporal order: the one
    concatenated video stream the rest of the pipeline consumes, whose rows
    :func:`index_frames` assigns to the splits and sequences.  An absent
    frame file raises :class:`MissingFrameError` when the stream reaches it.
    """
    height, width = manifest.resolution
    for seq in manifest.sequences:
        for idx in range(seq.frame_count):
            path = seq.frame_path(manifest.frame_store_root, idx)
            try:
                pixels = read_pgm(path)
            except FileNotFoundError:
                raise MissingFrameError(
                    f"{seq.sequence_id}[{idx}]: missing frame file {path}"
                ) from None
            if pixels.shape != (height, width):
                raise SchemaError(
                    f"{seq.sequence_id}[{idx}]: frame is {pixels.shape}, "
                    f"manifest declares {(height, width)}"
                )
            yield pixels


@dataclass(frozen=True)
class FrameIndex:
    """The concatenated stream's row bookkeeping, optionally bound to its rows.

    Row ``t`` is frame ``t`` of :func:`stream_frames`.  ``features`` holds
    the rows' values, (T, K): a float32 array or a
    :class:`~photonrc.cache.CacheRows`, or None when no rows are bound
    (:func:`index_frames`).  ``actions`` holds each row's class index,
    ``train_rows`` and ``test_rows`` the ascending rows of each split, and
    ``all_spans`` every sequence's (sequence_id, start, stop, action), in
    manifest order, of which ``test_spans`` are the test split's.
    """

    features: object
    actions: np.ndarray
    train_rows: np.ndarray
    test_rows: np.ndarray
    all_spans: tuple
    test_spans: tuple

    @property
    def total_frames(self):
        return self.actions.size

    @property
    def input_dim(self):
        return self.features.shape[1]


def index_frames(manifest):
    """The stream index of ``manifest``'s splits, with no rows bound."""
    return _index(manifest.sequences, [seq.split for seq in manifest.sequences])


def validation_index(manifest, validation_fraction, seed):
    """The stream index with a validation split carved out of the train split.

    ``make_split(train sequences' actions, 1 - validation_fraction, seed)``
    relabels the train sequences; the ones it sends to TEST are the
    validation split, which takes the test split's place.  The real test
    sequences fall in neither split, and ``all_spans`` still lists every
    sequence.
    """
    sequences = manifest.sequences
    train = [seq.action for seq in sequences if seq.split is Split.TRAIN]
    relabeled = iter(make_split(train, 1.0 - validation_fraction, seed))  # in input order
    splits = [next(relabeled) if seq.split is Split.TRAIN else None for seq in sequences]
    return _index(sequences, splits)


def _index(sequences, splits):
    """The index of ``sequences`` streamed in order, sequence i in split ``splits[i]``."""
    counts = np.array([seq.frame_count for seq in sequences], dtype=np.int64)
    stops = np.cumsum(counts)
    spans = tuple(
        (seq.sequence_id, int(stop - count), int(stop), seq.action)
        for seq, count, stop in zip(sequences, counts, stops)
    )
    sequence = np.repeat(np.arange(len(sequences)), counts)  # each row's

    def rows(split):
        return np.flatnonzero(np.array([s is split for s in splits], dtype=bool)[sequence])

    return FrameIndex(
        features=None,
        actions=np.repeat(np.array([seq.action for seq in sequences], dtype=np.int64), counts),
        train_rows=rows(Split.TRAIN),
        test_rows=rows(Split.TEST),
        all_spans=spans,
        test_spans=tuple(span for span, split in zip(spans, splits) if split is Split.TEST),
    )
