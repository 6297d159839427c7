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
conversion, filled with the 0-based frame index and resolved against
``frame_store_root``.  Only :func:`stream_frames`, which the HOG stage
calls, opens frame files, and it names a missing one when it reaches it;
every stage after HOG needs only the manifest and the caches.

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
from dataclasses import dataclass, replace

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
        if not _PATTERN_RE.search(self.frame_filename_pattern):
            raise SchemaError(
                f"{self.sequence_id}: frame_filename_pattern needs one %0Nd conversion"
            )

    def frame_path(self, root, index):
        return os.path.join(root, self.frame_filename_pattern % index)


_PATTERN_RE = re.compile(r"%0\d+d")


@dataclass(frozen=True)
class Frame:
    """One grayscale frame: ``pixels`` is a (height, width) uint8 array."""

    pixels: np.ndarray
    sequence_id: str
    index_in_sequence: int


@dataclass(frozen=True)
class Manifest:
    sequences: tuple
    resolution: tuple  # (height, width)
    frame_store_root: str
    split_seed: int

    def counts(self):
        """Return {split: number of sequences}."""
        out = {Split.TRAIN: 0, Split.TEST: 0}
        for seq in self.sequences:
            out[seq.split] += 1
        return out


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

def make_split(sequences, train_fraction, seed):
    """Assign train/test splits, stratified by action class.

    Within each class, a seeded shuffle sends ``floor(train_fraction * n)``
    sequences (clamped so both splits keep at least one sequence when the
    class has two or more) to the train split.  Deterministic in
    (sequences, train_fraction, seed); the returned list preserves the input
    order with only the ``split`` field reassigned.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    sequences = list(sequences)
    rng = np.random.default_rng(seed)
    assignment = {}
    for action in ACTIONS:
        idx = [i for i, s in enumerate(sequences) if s.action == action]
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
    return [replace(seq, split=assignment[i]) for i, seq in enumerate(sequences)]


def sequences_for(manifest, split=None):
    if split is None:
        return list(manifest.sequences)
    return [s for s in manifest.sequences if s.split == split]


def stream_frames(manifest, split=None):
    """Yield frames sequence-by-sequence in manifest order.

    Frames within a sequence come in temporal order; ``split`` limits the
    stream to one split, ``None`` streams every sequence (the concatenated
    video stream the rest of the pipeline consumes).  An absent frame file
    raises :class:`MissingFrameError` when the stream reaches it.
    """
    height, width = manifest.resolution
    for seq in sequences_for(manifest, split):
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
            yield Frame(pixels=pixels, sequence_id=seq.sequence_id, index_in_sequence=idx)


@dataclass(frozen=True)
class FrameIndex:
    """Row bookkeeping for the concatenated all-sequences frame stream.

    ``starts[i]:stops[i]`` is the row span of sequence i in manifest order.
    """

    sequence_ids: tuple
    actions: tuple
    splits: tuple
    starts: np.ndarray
    stops: np.ndarray

    @property
    def total_frames(self):
        return int(self.stops[-1]) if len(self.stops) else 0

    def rows_for(self, split):
        """Row indices (into the all-frames stream) belonging to one split."""
        chunks = [
            np.arange(self.starts[i], self.stops[i])
            for i in range(len(self.sequence_ids))
            if self.splits[i] == split
        ]
        if not chunks:
            return np.empty(0, dtype=np.intp)
        return np.concatenate(chunks)

    def spans_for(self, split=None):
        """(sequence_id, start, stop, action) tuples, optionally one split."""
        return [
            (self.sequence_ids[i], int(self.starts[i]), int(self.stops[i]), self.actions[i])
            for i in range(len(self.sequence_ids))
            if split is None or self.splits[i] == split
        ]

    def frame_actions(self, split=None):
        """Per-frame action labels, aligned with the stream rows."""
        parts = [
            np.full(int(self.stops[i] - self.starts[i]), int(self.actions[i]), dtype=np.int64)
            for i in range(len(self.sequence_ids))
            if split is None or self.splits[i] == split
        ]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)


def index_frames(manifest):
    counts = np.array([s.frame_count for s in manifest.sequences], dtype=np.int64)
    stops = np.cumsum(counts)
    starts = stops - counts
    return FrameIndex(
        sequence_ids=tuple(s.sequence_id for s in manifest.sequences),
        actions=tuple(s.action for s in manifest.sequences),
        splits=tuple(s.split for s in manifest.sequences),
        starts=starts,
        stops=stops,
    )
