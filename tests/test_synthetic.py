"""Synthetic PGM corpus generation used by the demos and tests."""

import json
from pathlib import Path

import numpy as np

from photonrc.dataset import Action, Split, load_manifest, read_pgm
from photonrc import synthetic
from photonrc.synthetic import generate_corpus


def _frame(manifest, seq, idx):
    return Path(seq.frame_path(manifest.frame_store_root, idx))


def test_corpus_shape_and_split(tmp_path):
    manifest_path = generate_corpus(
        tmp_path / "corpus", n_subjects=2, n_repetitions=2,
        resolution=(40, 48), frames_range=(10, 12), seed=3,
    )
    manifest = load_manifest(manifest_path)
    assert len(manifest.sequences) == 2 * 6 * 2
    assert manifest.resolution == (40, 48)
    for seq in manifest.sequences:
        assert 10 <= seq.frame_count <= 12
    # split is stratified: same train share in every class
    for action in Action:
        seqs = [s for s in manifest.sequences if s.action is action]
        n_train = sum(1 for s in seqs if s.split is Split.TRAIN)
        assert n_train == 3  # floor(0.75 * 4)


def test_corpus_is_deterministic(tmp_path):
    path_a = generate_corpus(tmp_path / "a", n_subjects=1, n_repetitions=1,
                             resolution=(24, 24), frames_range=(8, 9), seed=5)
    path_b = generate_corpus(tmp_path / "b", n_subjects=1, n_repetitions=1,
                             resolution=(24, 24), frames_range=(8, 9), seed=5)
    doc_a = json.loads(Path(path_a).read_text())
    doc_b = json.loads(Path(path_b).read_text())
    assert doc_a["sequences"] == doc_b["sequences"]
    man_a = load_manifest(path_a)
    man_b = load_manifest(path_b)
    bytes_a = _frame(man_a, man_a.sequences[0], 0).read_bytes()
    bytes_b = _frame(man_b, man_b.sequences[0], 0).read_bytes()
    assert bytes_a == bytes_b


def test_frames_are_loadable_and_vary(tmp_path):
    manifest_path = generate_corpus(
        tmp_path / "corpus", n_subjects=2, n_repetitions=1,
        resolution=(32, 40), frames_range=(6, 7), seed=9,
    )
    manifest = load_manifest(manifest_path)
    by_action = {seq.action: seq for seq in manifest.sequences
                 if seq.subject == 1}
    frames = {}
    for action, seq in by_action.items():
        pixels = read_pgm(_frame(manifest, seq, 0))
        assert pixels.shape == (32, 40)
        assert pixels.dtype == np.uint8
        frames[action] = pixels
    # different actions render different frames
    boxing = frames[Action.BOXING]
    assert any(not np.array_equal(boxing, frames[a])
               for a in Action if a is not Action.BOXING)
    # motion: consecutive frames within one sequence differ
    seq = by_action[Action.WALKING]
    first = read_pgm(_frame(manifest, seq, 0))
    later = read_pgm(_frame(manifest, seq, 3))
    assert not np.array_equal(first, later)


def test_subjects_differ(tmp_path):
    manifest_path = generate_corpus(
        tmp_path / "corpus", n_subjects=2, n_repetitions=1,
        resolution=(32, 40), frames_range=(6, 7), seed=9,
    )
    manifest = load_manifest(manifest_path)
    walks = [s for s in manifest.sequences if s.action is Action.WALKING]
    assert len(walks) == 2
    frame_1 = read_pgm(_frame(manifest, walks[0], 0))
    frame_2 = read_pgm(_frame(manifest, walks[1], 0))
    assert not np.array_equal(frame_1, frame_2)


def _full_frame(region_mask, height, width):
    region, mask = region_mask
    frame = np.zeros((height, width), dtype=bool)
    frame[region] = mask
    return frame


def _ellipse_reference(yy, xx, cy, cx, ry, rx):
    return ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2 <= 1.0


def _bar_reference(yy, xx, p0, p1, halfwidth):
    y0, x0 = p0
    y1, x1 = p1
    dy, dx = y1 - y0, x1 - x0
    length2 = dy * dy + dx * dx
    if length2 == 0:
        return (yy - y0) ** 2 + (xx - x0) ** 2 <= halfwidth**2
    t = np.clip(((yy - y0) * dy + (xx - x0) * dx) / length2, 0.0, 1.0)
    return (yy - (y0 + t * dy)) ** 2 + (xx - (x0 + t * dx)) ** 2 <= halfwidth**2


def test_shapes_in_their_boxes_equal_the_whole_frame_formulas():
    # each shape is evaluated only in its bounding box; over the whole frame
    # the masks equal the formulas evaluated at every pixel, for shapes
    # inside, across and beyond the frame's edges, and degenerate bars
    height, width = 30, 44
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    grid = synthetic._grid(height, width)
    rng = np.random.default_rng(17)
    for _ in range(400):
        cy, cx = rng.uniform(-15.0, 45.0), rng.uniform(-15.0, 60.0)
        ry, rx = rng.uniform(0.5, 9.0, size=2)
        got = _full_frame(synthetic._ellipse(grid, cy, cx, ry, rx), height, width)
        assert np.array_equal(got, _ellipse_reference(yy, xx, cy, cx, ry, rx))
        p0 = (cy, cx)
        p1 = p0 if rng.random() < 0.1 else (rng.uniform(-15.0, 45.0), rng.uniform(-15.0, 60.0))
        halfwidth = rng.uniform(0.5, 7.0)
        got = _full_frame(synthetic._bar(grid, p0, p1, halfwidth), height, width)
        assert np.array_equal(got, _bar_reference(yy, xx, p0, p1, halfwidth))
