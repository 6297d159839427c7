#!/usr/bin/env python3

"""Ridge readout and the confusion-matrix score.

Only the linear readout is ever trained; the reservoir stays fixed.  The
demo drives reservoir states from a synthetic corpus, fits the readout on
one-hot targets, then turns per-frame outputs into sequence decisions and
the 6x6 confusion score.
"""

import tempfile
from pathlib import Path

from photonrc.classify import classify_stream, confusion, score_line, write_confusion, write_sequence_results
from photonrc.cache import read_cache
from photonrc.dataset import ACTIONS, index_frames, load_manifest
from photonrc.pca import fit_pca, transform
from photonrc.pipeline import extract_hog
from photonrc.readout import apply_readout, encode_targets, nmse_per_output, train_ridge
from photonrc.reservoir import HyperParams, generate_matrices, run_reservoir
from photonrc.synthetic import generate_corpus

with tempfile.TemporaryDirectory(prefix="photonrc_demo_") as tmp:
    work = Path(tmp)
    manifest = load_manifest(generate_corpus(
        work / "corpus", n_subjects=3, n_repetitions=2,
        resolution=(60, 80), frames_range=(24, 28), seed=5,
    ))
    index = index_frames(manifest)
    train_rows = index.train_rows

    # Features: the HOG stage's cache of every frame, PCA fitted on the train
    # split only.
    extract_hog(manifest, work / "hog.rcf")
    values, _ = read_cache(work / "hog.rcf")
    pca, _ = fit_pca(values[train_rows], 24)
    feats = transform(pca, values)

    # One fixed reservoir over the whole concatenated stream (no resets, the
    # default: state carries across sequence boundaries like the hardware).
    mats = generate_matrices(n_nodes=64, input_dim=24,
                             params=HyperParams(0.8, 0.01, 0.1, 0.05), seed=0)
    states = run_reservoir(mats, feats)
    print(f"reservoir states: {states.shape}")

    # Train on one-hot targets over train rows; lambda defaults to a
    # scale-adaptive value when not given.
    targets = encode_targets(index.actions[train_rows])
    model = train_ridge(states[train_rows], targets)
    print(f"readout weights {model.weights.shape}, "
          f"ridge lambda {model.ridge_lambda:.4g} (auto)")

    # Per-output NMSE on the training rows (0 is perfect, 1 is the mean).
    errs = nmse_per_output(apply_readout(model, states[train_rows]), targets)
    print("train NMSE per class:")
    for action, e in zip(ACTIONS, errs):
        print(f"  {action.label:<13} {e:.3f}")

    # Per-frame winner-takes-all, then a majority vote per test sequence.
    outputs = apply_readout(model, states)
    votes = classify_stream(outputs, index.test_spans)
    print(f"\n{len(votes)} test sequences:")
    for (seq_id, _, _, truth), row in zip(index.test_spans[:4], votes):
        guess = int(row.argmax())
        mark = "ok " if guess == truth else "MISS"
        print(f"  {mark} {seq_id:<22} -> {ACTIONS[guess].label:<13} "
              f"(top frame share {row.max() / row.sum():.2f})")
    print("  ...")

    cm = confusion(votes, [truth for *_, truth in index.test_spans])
    print(f"\nconfusion percentages (rows = truth):")
    for action, row in zip(ACTIONS, cm.percentages):
        print(f"  {action.label:<13} " + " ".join(f"{v:5.1f}" for v in row))
    print(score_line(cm))

    # Both result tables serialize to CSV.
    write_sequence_results(work / "sequence_results.csv", index.test_spans, votes)
    write_confusion(work / "confusion.csv", cm)
    head = (work / "sequence_results.csv").read_text().splitlines()
    print(f"\nsequence_results.csv ({len(head)} lines):")
    for line in head[:3]:
        print(f"  {line}")
