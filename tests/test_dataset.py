"""Manifest loading, PGM I/O, split assignment, and frame streaming."""

import json
import re
import warnings

import numpy as np
import pytest

from photonrc.dataset import (
    Action,
    Manifest,
    SequenceMeta,
    Split,
    index_frames,
    load_manifest,
    make_split,
    read_pgm,
    save_manifest,
    stream_frames,
    validation_index,
    write_pgm,
)
from photonrc.errors import MissingFrameError, ParseError, SchemaError


def _meta(subject=1, action=Action.BOXING, rep=1, count=30, split=Split.TRAIN):
    return SequenceMeta(
        sequence_id=f"s{subject:02d}_{action.label}_r{rep}",
        subject=subject,
        action=action,
        repetition=rep,
        frame_count=count,
        split=split,
        frame_filename_pattern=f"s{subject:02d}_{action.label}_r{rep}/frame_%05d.pgm",
    )


# ---------------------------------------------------------------------------
# Actions and splits

def test_action_order_and_labels():
    labels = [a.label for a in Action]
    assert labels == ["boxing", "handclapping", "handwaving", "jogging", "running", "walking"]
    assert [int(a) for a in Action] == [0, 1, 2, 3, 4, 5]


def test_action_from_name_is_case_insensitive():
    assert Action.from_name("Walking") is Action.WALKING
    assert Action.from_name("  BOXING ") is Action.BOXING
    with pytest.raises(SchemaError):
        Action.from_name("moonwalking")


def test_split_from_name():
    assert Split.from_name("Train") is Split.TRAIN
    with pytest.raises(SchemaError):
        Split.from_name("validation")


# ---------------------------------------------------------------------------
# SequenceMeta validation

def test_sequence_meta_rejects_bad_fields():
    with pytest.raises(SchemaError):
        _meta(subject=0)
    with pytest.raises(SchemaError):
        _meta(rep=0)
    with pytest.raises(SchemaError):
        _meta(count=-1)


def test_sequence_meta_warns_on_out_of_range_frame_count():
    with pytest.warns(UserWarning):
        _meta(count=23)
    with pytest.warns(UserWarning):
        _meta(count=240)
    with pytest.warns(UserWarning):
        _meta(count=0)


def test_sequence_meta_requires_index_conversion():
    with pytest.raises(SchemaError):
        SequenceMeta(
            sequence_id="x",
            subject=1,
            action=Action.BOXING,
            repetition=1,
            frame_count=30,
            split=Split.TRAIN,
            frame_filename_pattern="x/frame.pgm",
        )


@pytest.mark.parametrize(
    "pattern", ["%s_%05d.pgm", "frame_%05d_%05d.pgm", "frame_%05d%.pgm", "frame_%05d_100%%.pgm"]
)
def test_pattern_must_format_exactly_one_integer(tmp_path, pattern):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "resolution": {"height": 4, "width": 4},
        "frame_store_root": ".",
        "split_seed": 0,
        "sequences": [{
            "sequence_id": "s01_boxing_r1", "subject": 1, "action": "boxing",
            "repetition": 1, "frame_count": 30, "split": "train",
            "frame_filename_pattern": pattern,
        }],
    }))
    if "%%" in pattern:  # a literal percent sign
        (seq,) = load_manifest(path).sequences
        assert seq.frame_path("/data", 7) == "/data/frame_00007_100%.pgm"
    else:
        message = re.escape(f"{path}: s01_boxing_r1: frame_filename_pattern needs one %0Nd")
        with pytest.raises(SchemaError, match=message):
            load_manifest(path)


def test_frame_path_zero_pads():
    meta = _meta()
    assert meta.frame_path("/data", 7).endswith("frame_00007.pgm")


# ---------------------------------------------------------------------------
# PGM files

def test_pgm_round_trip(tmp_path, rng):
    pixels = rng.integers(0, 256, size=(17, 23), dtype=np.uint8)
    path = tmp_path / "frame.pgm"
    write_pgm(path, pixels)
    back = read_pgm(path)
    assert back.dtype == np.uint8
    np.testing.assert_array_equal(back, pixels)


def test_pgm_reads_comments(tmp_path):
    pixels = np.arange(12, dtype=np.uint8).reshape(3, 4)
    path = tmp_path / "c.pgm"
    with open(path, "wb") as fh:
        fh.write(b"P5\n# a comment\n4 # trailing\n3\n255\n")
        fh.write(pixels.tobytes())
    np.testing.assert_array_equal(read_pgm(path), pixels)


def test_pgm_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(ParseError):
        read_pgm(path)


def test_pgm_rejects_truncation_and_deep_maxval(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(ParseError):
        read_pgm(path)
    path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(ParseError):
        read_pgm(path)


@pytest.mark.parametrize("dims", ["-5 4", "4 -5", "-1 -1", "0 4", "4 0", "0 0"])
def test_pgm_rejects_dimensions_below_one(tmp_path, dims):
    path = tmp_path / "dims.pgm"
    path.write_bytes(f"P5\n{dims}\n255\n".encode("ascii") + bytes(64))
    with pytest.raises(ParseError, match="dimensions must be positive"):
        read_pgm(path)


# ---------------------------------------------------------------------------
# Manifest I/O

def test_manifest_round_trip(tmp_path, tiny_manifest):
    path = tmp_path / "copy.json"
    save_manifest(tiny_manifest, path)
    again = load_manifest(path)
    assert again == tiny_manifest


def test_empty_sequence_list_is_legal(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({
        "resolution": {"height": 120, "width": 160},
        "frame_store_root": str(tmp_path),
        "split_seed": 0,
        "sequences": [],
    }))
    manifest = load_manifest(path)
    assert manifest.sequences == ()
    index = index_frames(manifest)
    assert index.total_frames == 0
    assert index.train_rows.size == index.test_rows.size == 0
    assert index.all_spans == index.test_spans == ()


def test_missing_frame_file_is_named(tmp_path):
    frames = tmp_path / "frames"
    frames.mkdir()
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "resolution": {"height": 4, "width": 4},
        "frame_store_root": "frames",
        "split_seed": 0,
        "sequences": [{
            "sequence_id": "s01_boxing_r1", "subject": 1, "action": "boxing",
            "repetition": 1, "frame_count": 2, "split": "train",
            "frame_filename_pattern": "s01_boxing_r1/frame_%05d.pgm",
        }],
    }))
    # the manifest loads without its frames; the stream names the missing one
    manifest = load_manifest(path)
    # relative roots resolve against the manifest's own directory
    assert manifest.frame_store_root == str(frames)
    with pytest.raises(MissingFrameError, match=r"s01_boxing_r1\[0\]: .*frame_00000.pgm"):
        next(stream_frames(manifest))


def test_duplicate_identity_rejected(tmp_path):
    entry = {
        "sequence_id": "a", "subject": 1, "action": "boxing", "repetition": 1,
        "frame_count": 30, "split": "train",
        "frame_filename_pattern": "a/frame_%05d.pgm",
    }
    second = dict(entry, sequence_id="b")
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({
        "resolution": {"height": 4, "width": 4},
        "frame_store_root": ".",
        "split_seed": 0,
        "sequences": [entry, second],
    }))
    with pytest.raises(SchemaError, match="duplicate"):
        load_manifest(path)


def test_malformed_manifest_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    with pytest.raises(ParseError):
        load_manifest(path)
    path.write_text(json.dumps({"resolution": {"height": 1, "width": 1}}))
    with pytest.raises(SchemaError, match="frame_store_root"):
        load_manifest(path)
    path.write_text(json.dumps({
        "resolution": {"height": 4, "width": 4},
        "frame_store_root": ".",
        "split_seed": 0,
        "sequences": [{
            "sequence_id": "a", "subject": 1, "action": "flying", "repetition": 1,
            "frame_count": 30, "split": "train",
            "frame_filename_pattern": "a/frame_%05d.pgm",
        }],
    }))
    with pytest.raises(SchemaError, match="flying"):
        load_manifest(path)


# ---------------------------------------------------------------------------
# Split assignment

def _class_counts(actions, splits, split):
    out = {a: 0 for a in Action}
    for action, label in zip(actions, splits):
        if label is split:
            out[action] += 1
    return out


def test_split_600_sequences_into_450_150():
    actions = [a for a in Action for s in range(1, 26) for r in range(1, 5)]
    assert len(actions) == 600
    out = make_split(actions, 0.75, seed=42)
    train = _class_counts(actions, out, Split.TRAIN)
    test = _class_counts(actions, out, Split.TEST)
    assert sum(train.values()) == 450 and sum(test.values()) == 150
    assert all(v == 75 for v in train.values())
    assert all(v == 25 for v in test.values())


def test_split_four_sequences_three_one():
    splits = make_split([Action.RUNNING] * 4, 0.75, seed=0)
    assert splits.count(Split.TRAIN) == 3
    assert splits.count(Split.TEST) == 1


def test_split_is_deterministic_and_order_preserving():
    actions = [a for a in Action for s in range(1, 9)]
    once = make_split(actions, 0.6, seed=99)
    twice = make_split(actions, 0.6, seed=99)
    assert once == twice
    # each label lands at its own sequence's position: interleaving the
    # classes leaves every class's labels, in order, as they were
    interleaved = [a for s in range(1, 9) for a in Action]
    mixed = make_split(interleaved, 0.6, seed=99)
    for action in Action:
        assert [label for a, label in zip(interleaved, mixed) if a == action] == [
            label for a, label in zip(actions, once) if a == action
        ]


def test_split_counts_floor_or_floor_plus_one(rng):
    for _ in range(50):
        n = int(rng.integers(1, 40))
        fraction = float(rng.uniform(0.05, 0.95))
        out = make_split([Action.BOXING] * n, fraction, seed=int(rng.integers(0, 1 << 30)))
        n_train = out.count(Split.TRAIN)
        floor = int(np.floor(fraction * n))
        assert n_train in (floor, floor + 1)
        if n >= 2:  # both splits stay populated whenever possible
            assert 1 <= n_train <= n - 1


def test_split_rejects_degenerate_fractions():
    with pytest.raises(ValueError):
        make_split([Action.BOXING], 0.0, seed=0)
    with pytest.raises(ValueError):
        make_split([Action.BOXING], 1.0, seed=0)


def test_a_validation_carve_repeats_no_frame_count_warning():
    # each sequence is too short for the conforming range, so each drew its
    # warning once, when it was made
    sequences = tuple(
        _meta(subject=s, action=a, count=10) for a in Action for s in range(1, 5)
    )
    manifest = Manifest(
        sequences=sequences, resolution=(8, 8), frame_store_root=".", split_seed=0
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        validation_index(manifest, 0.5, seed=0)
    assert caught == []


# ---------------------------------------------------------------------------
# Streaming and indexing

def test_stream_counts_match_manifest(tiny_manifest):
    expected = sum(s.frame_count for s in tiny_manifest.sequences)
    assert sum(1 for _ in stream_frames(tiny_manifest)) == expected


def test_stream_order_and_content(tiny_manifest):
    stream = stream_frames(tiny_manifest)
    for seq in tiny_manifest.sequences:
        for idx in range(seq.frame_count):
            pixels = next(stream)
            assert pixels.dtype == np.uint8
            assert pixels.shape == tiny_manifest.resolution
            np.testing.assert_array_equal(
                pixels, read_pgm(seq.frame_path(tiny_manifest.frame_store_root, idx))
            )
    with pytest.raises(StopIteration):
        next(stream)


def test_stream_rejects_resolution_mismatch(tmp_path, tiny_manifest):
    wrong = Manifest(
        sequences=tiny_manifest.sequences[:1],
        resolution=(64, 64),
        frame_store_root=tiny_manifest.frame_store_root,
        split_seed=tiny_manifest.split_seed,
    )
    with pytest.raises(SchemaError, match="declares"):
        next(stream_frames(wrong))


def test_frame_index_bookkeeping(tiny_manifest):
    index = index_frames(tiny_manifest)
    assert index.features is None
    counts = [s.frame_count for s in tiny_manifest.sequences]
    assert index.total_frames == sum(counts)
    starts = [start for _, start, _, _ in index.all_spans]
    stops = [stop for _, _, stop, _ in index.all_spans]
    assert [b - a for a, b in zip(starts, stops)] == counts
    assert starts[0] == 0
    assert starts[1:] == stops[:-1]
    assert [sid for sid, *_ in index.all_spans] == [s.sequence_id for s in tiny_manifest.sequences]

    together = np.sort(np.concatenate([index.train_rows, index.test_rows]))
    np.testing.assert_array_equal(together, np.arange(index.total_frames))
    for seq, (_, start, stop, _) in zip(tiny_manifest.sequences, index.all_spans):
        rows = index.train_rows if seq.split is Split.TRAIN else index.test_rows
        assert np.isin(np.arange(start, stop), rows).all()

    assert index.actions.shape == (index.total_frames,)
    for seq_id, start, stop, action in index.all_spans:
        assert np.all(index.actions[start:stop] == int(action))
    test_ids = [s.sequence_id for s in tiny_manifest.sequences if s.split is Split.TEST]
    assert [sid for sid, *_ in index.test_spans] == test_ids
