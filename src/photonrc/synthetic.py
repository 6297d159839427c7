"""Deterministic synthetic action corpus for tests and desk-scale runs.

Draws little stick-figure style clips, one PGM file per frame, with six
motion patterns matching the six action classes.  The three stationary
actions differ in geometry (a punching arm bar, two converging palm blobs,
two rotating overhead bars); the three gaits share one translating figure
and differ mainly in stride, lean, and speed, so they are deliberately the
confusable group, as in real footage.

Per-subject scale, brightness, speed, and noise jitter plus per-repetition
phase offsets keep sequences distinct while leaving classes separable.
Everything derives from one seed, so a corpus can be regenerated bit for
bit.
"""

import functools
import math
import os

import numpy as np

from .dataset import (
    ACTIONS,
    Action,
    Manifest,
    SequenceMeta,
    make_split,
    save_manifest,
    write_pgm,
)

BACKGROUND = 30
FIGURE_GRAY = 190


@functools.lru_cache(maxsize=4)
def _grid(height, width):
    """Read-only float64 row and column coordinates of every pixel of a frame."""
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    yy.setflags(write=False)
    xx.setflags(write=False)
    return yy, xx


def _box(grid, y_lo, y_hi, x_lo, x_hi):
    """(region, yy, xx) of the pixels in rows [y_lo, y_hi] and columns
    [x_lo, x_hi] of ``grid``, widened by a pixel, far more than rounding can
    move a shape's edge, and clipped to the frame."""
    yy, xx = grid
    height, width = yy.shape
    rows = slice(max(0, math.floor(y_lo) - 1), max(0, min(height, math.ceil(y_hi) + 2)))
    cols = slice(max(0, math.floor(x_lo) - 1), max(0, min(width, math.ceil(x_hi) + 2)))
    return (rows, cols), yy[rows, cols], xx[rows, cols]


def _ellipse(grid, cy, cx, ry, rx):
    region, yy, xx = _box(grid, cy - abs(ry), cy + abs(ry), cx - abs(rx), cx + abs(rx))
    return region, ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2 <= 1.0


def _bar(grid, p0, p1, halfwidth):
    # distance from each pixel to the segment p0-p1
    y0, x0 = p0
    y1, x1 = p1
    reach = abs(halfwidth)
    region, yy, xx = _box(
        grid, min(y0, y1) - reach, max(y0, y1) + reach, min(x0, x1) - reach, max(x0, x1) + reach
    )
    dy, dx = y1 - y0, x1 - x0
    length2 = dy * dy + dx * dx
    if length2 == 0:
        return region, (yy - y0) ** 2 + (xx - x0) ** 2 <= halfwidth**2
    t = np.clip(((yy - y0) * dy + (xx - x0) * dx) / length2, 0.0, 1.0)
    py = y0 + t * dy
    px = x0 + t * dx
    return region, (yy - py) ** 2 + (xx - px) ** 2 <= halfwidth**2


def _figure_masks(action, t, height, width, style):
    """(region, mask) pairs of the moving figure at frame t: each shape's
    mask over the box of the frame that holds it."""
    grid = _grid(height, width)
    scale = style["scale"]
    phase = style["phase"]
    masks = []

    if action in (Action.JOGGING, Action.RUNNING, Action.WALKING):
        speed = style["speed"]
        bounce = style["bounce"]
        stride = style["stride"]
        cx = (style["x0"] + speed * t) % (width + 40.0) - 20.0
        cy = height * 0.5 + bounce * np.sin(2 * np.pi * 0.2 * t + phase)
        lean = style["lean"]
        torso_top = (cy - 22 * scale, cx - lean * 8)
        torso_bot = (cy + 6 * scale, cx)
        masks.append(_bar(grid, torso_top, torso_bot, 6 * scale))
        masks.append(_ellipse(grid, cy - 28 * scale, cx - lean * 10, 6 * scale, 5 * scale))
        swing = stride * np.sin(2 * np.pi * 0.2 * t + phase)
        hip = (cy + 4 * scale, cx)
        masks.append(_bar(grid, hip, (cy + 26 * scale, cx + swing), 3 * scale))
        masks.append(_bar(grid, hip, (cy + 26 * scale, cx - swing), 3 * scale))
        return masks

    cx = width * 0.5 + style["x0"] * 0.2
    cy = height * 0.55
    masks.append(_bar(grid, (cy - 20 * scale, cx), (cy + 24 * scale, cx), 7 * scale))
    masks.append(_ellipse(grid, cy - 28 * scale, cx, 6 * scale, 5 * scale))

    if action == Action.BOXING:
        # one arm bar pumping horizontally from the shoulder
        reach = (10 + 16 * (0.5 + 0.5 * np.sin(2 * np.pi * 0.25 * t + phase))) * scale
        shoulder = (cy - 14 * scale, cx + 6 * scale)
        masks.append(_bar(grid, shoulder, (shoulder[0], shoulder[1] + reach), 3 * scale))
    elif action == Action.HANDCLAPPING:
        gap = (6 + 14 * (0.5 + 0.5 * np.cos(2 * np.pi * 0.25 * t + phase))) * scale
        hand_y = cy - 12 * scale
        masks.append(_ellipse(grid, hand_y, cx - gap, 4 * scale, 4 * scale))
        masks.append(_ellipse(grid, hand_y, cx + gap, 4 * scale, 4 * scale))
    elif action == Action.HANDWAVING:
        angle = 0.9 * np.sin(2 * np.pi * 0.15 * t + phase)
        for side in (-1.0, 1.0):
            shoulder = (cy - 16 * scale, cx + side * 7 * scale)
            tip = (
                shoulder[0] - 24 * scale * np.cos(angle * side),
                shoulder[1] + side * 24 * scale * np.sin(abs(angle) + 0.3),
            )
            masks.append(_bar(grid, shoulder, tip, 3 * scale))
    return masks


def render_frame(action, t, resolution, style, rng):
    height, width = resolution
    frame = np.full((height, width), BACKGROUND, dtype=np.float64)
    frame += rng.uniform(0.0, style["noise"], size=(height, width))
    figure = np.zeros((height, width), dtype=bool)
    for region, mask in _figure_masks(action, t, height, width, style):
        figure[region] |= mask
    frame[figure] = style["gray"]
    return np.clip(frame, 0, 255).astype(np.uint8)


def _style_for(rng, action):
    base_speed = {Action.WALKING: 1.4, Action.JOGGING: 2.8, Action.RUNNING: 4.6}
    base_stride = {Action.WALKING: 6.0, Action.JOGGING: 10.0, Action.RUNNING: 14.0}
    base_lean = {Action.WALKING: 0.1, Action.JOGGING: 0.45, Action.RUNNING: 0.9}
    base_bounce = {Action.WALKING: 1.5, Action.JOGGING: 3.5, Action.RUNNING: 5.5}
    style = {
        "scale": rng.uniform(0.85, 1.15),
        "gray": FIGURE_GRAY + rng.uniform(-25.0, 25.0),
        "noise": rng.uniform(8.0, 18.0),
        "phase": rng.uniform(0.0, 2 * np.pi),
        "x0": rng.uniform(-30.0, 30.0),
        "speed": 0.0,
        "stride": 0.0,
        "lean": 0.0,
        "bounce": 0.0,
    }
    if action in base_speed:
        jitter = rng.uniform(0.85, 1.15)
        style["speed"] = base_speed[action] * jitter
        style["stride"] = base_stride[action] * jitter
        style["lean"] = base_lean[action]
        style["bounce"] = base_bounce[action] * jitter
    return style


def generate_corpus(
    root,
    n_subjects=5,
    n_repetitions=4,
    resolution=(120, 160),
    frames_range=(36, 44),
    train_fraction=0.75,
    seed=0,
):
    """Write a synthetic corpus under ``root``; returns the manifest path.

    Produces ``n_subjects * 6 * n_repetitions`` sequences with stratified
    train/test splits and a manifest at ``root/manifest.json``.
    """
    root = os.fspath(root)
    frame_root = os.path.join(root, "frames")
    os.makedirs(frame_root, exist_ok=True)
    height, width = resolution

    rendered = []  # each sequence's SequenceMeta fields but its split
    for subject in range(1, n_subjects + 1):
        for action in ACTIONS:
            for rep in range(1, n_repetitions + 1):
                rng = np.random.default_rng([seed, subject, int(action), rep])
                seq_id = f"s{subject:02d}_{action.label}_r{rep}"
                n_frames = int(rng.integers(frames_range[0], frames_range[1] + 1))
                style = _style_for(rng, action)
                seq_dir = os.path.join(frame_root, seq_id)
                os.makedirs(seq_dir, exist_ok=True)
                for t in range(n_frames):
                    pixels = render_frame(action, t, resolution, style, rng)
                    write_pgm(os.path.join(seq_dir, f"frame_{t:05d}.pgm"), pixels)
                rendered.append(
                    dict(
                        sequence_id=seq_id,
                        subject=subject,
                        action=action,
                        repetition=rep,
                        frame_count=n_frames,
                        frame_filename_pattern=f"{seq_id}/frame_%05d.pgm",
                    )
                )

    splits = make_split([meta["action"] for meta in rendered], train_fraction, seed)
    sequences = tuple(SequenceMeta(**meta, split=split) for meta, split in zip(rendered, splits))
    # store the root relative to the manifest so the corpus can move
    manifest = Manifest(
        sequences=sequences,
        resolution=(height, width),
        frame_store_root="frames",
        split_seed=seed,
    )
    manifest_path = os.path.join(root, "manifest.json")
    save_manifest(manifest, manifest_path)
    return manifest_path
