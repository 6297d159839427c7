#!/usr/bin/env python3

"""Covariance-method PCA over HOG descriptors.

The 9,576-dimensional HOG vectors are highly redundant; a few hundred
principal components carry almost all of the variance.  This demo fits
the model on a synthetic corpus and inspects spectrum, projection, and
reconstruction.
"""

import tempfile
from pathlib import Path

import numpy as np

from photonrc.cache import read_cache
from photonrc.dataset import index_frames, load_manifest
from photonrc.pca import fit_pca, transform
from photonrc.pipeline import extract_hog
from photonrc.synthetic import generate_corpus

with tempfile.TemporaryDirectory(prefix="photonrc_demo_") as tmp:
    work = Path(tmp)
    manifest_path = generate_corpus(
        work / "corpus", n_subjects=3, n_repetitions=2,
        resolution=(60, 80), frames_range=(24, 28), seed=1,
    )
    manifest = load_manifest(manifest_path)
    index = index_frames(manifest)

    # The HOG stage writes one float32 row per frame to a cache file, which
    # the PCA stage reads back.
    extract_hog(manifest, work / "hog.rcf")
    values, layout = read_cache(work / "hog.rcf")
    print(f"HOG matrix: {values.shape[0]} frames x {values.shape[1]} features "
          f"(layout {layout})")

    # Fit on the train split only, exactly as the pipeline does.
    train = values[index.train_rows]
    model, _ = fit_pca(train, 40)
    print(f"fit on {train.shape[0]} train rows, kept {model.n_components} components")

    explained = np.cumsum(model.eigenvalues) / model.total_variance
    print("\ncumulative explained variance:")
    for k in (1, 2, 5, 10, 20, 40):
        print(f"  K = {k:>3}: {100 * explained[k - 1]:6.2f}%")

    # Projection compresses every frame; reconstruction comes back close.
    features = transform(model, values)
    print(f"\nprojected features: {features.shape}")
    approx = features @ model.components + model.mean  # back to feature space
    err = np.linalg.norm(values - approx) / np.linalg.norm(values)
    print(f"relative reconstruction error at K=40: {err:.4f}")

    # Components are orthonormal and the training projection is decorrelated
    # with variances equal to the eigenvalues.
    gram = model.components @ model.components.T
    print(f"component orthonormality: max |C C' - I| = "
          f"{np.max(np.abs(gram - np.eye(model.n_components))):.2e}")
    train_proj = transform(model, train)
    sample_var = train_proj.var(axis=0, ddof=1)
    print(f"projected train variance vs eigenvalues: max rel diff = "
          f"{np.max(np.abs(sample_var - model.eigenvalues) / model.eigenvalues):.2e}")

    # The mean frame projects to the origin.
    print(f"|transform(mean)| = {np.linalg.norm(transform(model, model.mean)):.2e}")
