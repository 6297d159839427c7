import numpy as np
import pytest

from photonrc import generate_corpus
from photonrc.dataset import load_manifest
from photonrc.pipeline import extract_hog, fit_pca_model, pca_fit_rows, prepare_data, project


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """A 24-sequence corpus (2 subjects x 6 actions x 2 repetitions)."""
    root = tmp_path_factory.mktemp("tiny_corpus")
    return generate_corpus(
        root, n_subjects=2, n_repetitions=2, frames_range=(24, 26), seed=7
    )


@pytest.fixture(scope="session")
def tiny_manifest(tiny_corpus):
    return load_manifest(tiny_corpus)


@pytest.fixture(scope="session")
def tiny_features(tmp_path_factory, tiny_corpus, tiny_manifest):
    """HOG cache plus a 24-component projected feature cache for the corpus."""
    out = tmp_path_factory.mktemp("tiny_features")
    hog_path = out / "hog.rcf"
    extract_hog(tiny_manifest, hog_path)
    hog = prepare_data(tiny_manifest, hog_path)
    model = fit_pca_model(hog.features, pca_fit_rows(hog, "train"), 24, out / "pca.bin")
    feat_path = out / "features.rcf"
    project(model, hog.features, feat_path)
    return {
        "manifest_path": tiny_corpus,
        "hog": str(hog_path),
        "features": str(feat_path),
        "n_frames": hog.features.shape[0],
    }


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
