#!/usr/bin/env python3

# Frame ingestion: synthetic PGM corpus, manifest bookkeeping, split logic.
#
# The package reads grayscale video as directories of binary PGM (P5)
# frames described by a JSON manifest.  Real recordings are drop-in, but
# everything here runs on the bundled synthetic corpus generator so the
# demo is self-contained.

import tempfile
from pathlib import Path

import numpy as np

from photonrc.dataset import (
    Action,
    Split,
    index_frames,
    load_manifest,
    read_pgm,
    stream_frames,
)
from photonrc.synthetic import generate_corpus

with tempfile.TemporaryDirectory(prefix="photonrc_demo_") as tmp:
    work = Path(tmp)

    # Five subjects, six action classes, two repetitions each.
    manifest_path = generate_corpus(
        work / "corpus",
        n_subjects=5,
        n_repetitions=2,
        resolution=(60, 80),
        frames_range=(24, 30),
        seed=42,
    )
    print(f"manifest written to {manifest_path}")

    manifest = load_manifest(manifest_path)
    n_train = sum(seq.split is Split.TRAIN for seq in manifest.sequences)
    print(f"{len(manifest.sequences)} sequences at {manifest.resolution} "
          f"(train {n_train}, test {len(manifest.sequences) - n_train})")

    # The split is stratified: every class keeps the same train share.
    for action in Action:
        seqs = [s for s in manifest.sequences if s.action is action]
        n_train = sum(1 for s in seqs if s.split is Split.TRAIN)
        print(f"  {action.label:<13} {n_train} train / {len(seqs) - n_train} test")

    # Single frames decode to uint8 arrays.
    seq = manifest.sequences[0]
    pixels = read_pgm(seq.frame_path(manifest.frame_store_root, 0))
    print(f"\nfirst frame of {seq.sequence_id}: shape {pixels.shape}, "
          f"dtype {pixels.dtype}, mean {pixels.mean():.1f}")

    # The pipeline consumes one concatenated stream over all sequences, in
    # manifest order; the frame index records where each sequence lives.
    index = index_frames(manifest)
    print(f"\nconcatenated stream: {index.total_frames} frames")
    for seq_id, start, stop, action in index.all_spans[:4]:
        print(f"  rows {start:>4}..{stop:<4} {seq_id} ({Action(action).label})")
    print("  ...")

    # Streaming yields the pixels of every frame, in manifest order; row t
    # of the stream belongs to the sequence whose span holds t.
    first = next(stream_frames(manifest))
    print(f"\nthe stream starts at {index.all_spans[0][0]} frame 0: "
          f"{first.shape} {first.dtype}")

    mean_all = np.mean([pixels.mean() for pixels in stream_frames(manifest)])
    print(f"corpus mean intensity {mean_all:.2f} (deterministic for seed 42)")
