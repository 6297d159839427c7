"""Acceptance gate: ten end-to-end criteria at their stated tolerances.

Every test prints one PASS/FAIL verdict line.  Criteria 3b and 9 need the
real benchmark corpus and skip unless RC_KTH_MANIFEST names its manifest.
"""

import os
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from photonrc.classify import confusion
from photonrc.dataset import load_manifest
from photonrc.hog import feature_count, hog_descriptor
from photonrc.pca import fit_pca
from photonrc.pipeline import (
    PipelineConfig,
    extract_hog,
    pca_fit_rows,
    pca_stage,
    prepare_data,
    run_pipeline,
)
from photonrc.readout import train_ridge
from photonrc.reservoir import (
    PHASE_STEP,
    HyperParams,
    ReservoirMatrices,
    generate_matrices,
    quantize_intensity,
    quantize_phase,
    run_reservoir,
    step_intensity,
    step_phase,
)
from photonrc.synthetic import generate_corpus
from photonrc.tuning import GridSpec, best_trial, run_grid

from _oracles import first_coincidence, hog_oracle, ridge_oracle

KTH_MANIFEST = os.environ.get("RC_KTH_MANIFEST", "")

OPTIMAL = HyperParams(
    feedback_gain=0.8, input_gain=0.01, coupling_gain=0.1, coupling_density=0.01
)


def _verdict(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_hog_layout():
    values, layout = hog_descriptor(np.zeros((120, 160), dtype=np.uint8))
    ok = values.shape == (9576,) and layout == (19, 14, 4, 9)
    ok = ok and feature_count((120, 160)) == 9576
    _verdict(1, ok, f"{values.shape[0]} values, layout {layout}")


def test_criterion_02_hog_oracle_equivalence():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        frame = rng.integers(0, 256, size=(32, 32), dtype=np.uint8)
        got, _ = hog_descriptor(frame)
        expected = np.asarray(hog_oracle(frame))
        worst = max(worst, float(np.max(np.abs(got - expected))))
    _verdict(2, worst <= 1e-6, f"max abs deviation {worst:.3g} over 100 frames")


def test_criterion_03_pca_eigenvalue_recovery():
    rng = np.random.default_rng(99)
    variances = np.array([9.0, 4.0, 1.0, 0.25, 0.01])
    n = 300
    raw = rng.standard_normal((n, variances.size))
    raw -= raw.mean(axis=0)
    q, _ = np.linalg.qr(raw)
    data = q * np.sqrt((n - 1) * variances)  # sample covariance == diag(variances)
    model, _ = fit_pca(data, variances.size)
    rel = float(np.max(np.abs(model.eigenvalues - variances) / variances))
    _verdict(3, rel <= 1e-6, f"eigenvalue relative error {rel:.3g}")


@pytest.fixture(scope="module")
def kth_pca(tmp_path_factory):
    """The 2,000-component PCA model of the RC_KTH_MANIFEST corpus, fitted
    on its train rows, and the feature cache ``pca_stage`` writes with it;
    criteria 3b and 9 share them, so each is made once."""
    out = tmp_path_factory.mktemp("kth")
    hog_path = out / "hog.rcf"
    extract_hog(load_manifest(KTH_MANIFEST), hog_path)
    rows = pca_fit_rows(prepare_data(KTH_MANIFEST, None), "train")
    features_path = out / "features.rcf"
    return pca_stage(hog_path, rows, 2000, out / "pca.bin", features_path), features_path


@pytest.mark.skipif(not KTH_MANIFEST, reason="RC_KTH_MANIFEST not set")
def test_criterion_03_kth_explained_variance(kth_pca):
    model, _ = kth_pca
    fraction = model.explained_fraction()
    ok = abs(fraction - 0.916) <= 0.02
    _verdict(3, ok, f"first 2000 components explain {100 * fraction:.2f}%")


def test_criterion_04_ridge_oracle_equivalence():
    rng = np.random.default_rng(7)
    lambdas = (0.0, 0.01, 1.0)
    worst = 0.0
    for trial in range(200):
        lam = lambdas[trial % 3]
        n = int(rng.integers(2, 51))
        # zero regularization needs a clearly overdetermined, full-rank system
        t_min = n + 10 if lam == 0.0 else 2
        t = int(rng.integers(t_min, 101))
        X = rng.standard_normal((t, n))
        D = rng.standard_normal((t, 6))
        model = train_ridge(X, D, ridge_lambda=lam)
        expected = ridge_oracle(X, D, lam)
        worst = max(worst, float(np.max(np.abs(model.weights.T - expected))))
    _verdict(4, worst <= 1e-8, f"max abs deviation {worst:.3g} over 200 systems")


def test_criterion_05_quantizers_and_single_node_steps():
    rng = np.random.default_rng(5)
    z = rng.uniform(-50.0, 50.0, 4096)
    qp = quantize_phase(z)
    phase_grid = np.arange(256) * PHASE_STEP
    ok = bool(np.all(np.isin(qp, phase_grid)))
    ok = ok and np.array_equal(quantize_phase(qp), qp)

    y = rng.uniform(-0.5, 1.5, 4096)
    qi = quantize_intensity(y)
    intensity_grid = np.arange(1024) / 1023
    ok = ok and bool(np.all(np.isin(qi, intensity_grid)))
    ok = ok and np.array_equal(quantize_intensity(qi), qi)

    # hand-evaluated single-node steps
    m = ReservoirMatrices(sparse.csr_array(np.array([[0.0]])), np.array([[1.0]]))
    intensity = step_intensity(m, np.zeros(1), np.array([np.pi / 2]))
    ok = ok and intensity[0] == 1.0
    m = ReservoirMatrices(sparse.csr_array(np.array([[1.0]])), np.array([[0.0]]))
    phase = step_phase(m, np.array([np.pi / 2]), np.zeros(1))
    ok = ok and phase[0] == 40 * PHASE_STEP
    _verdict(
        5, ok,
        f"grids/idempotence hold, pi/2 -> {intensity[0]}, "
        f"phase level {phase[0] / PHASE_STEP:.0f}",
    )


def test_criterion_06_fading_memory():
    coincided = 0
    latest = 0
    for trial in range(20):
        matrices = generate_matrices(1024, 50, OPTIMAL, seed=2000 + trial)
        rng = np.random.default_rng(1000 + trial)
        inputs = rng.uniform(-1.0, 1.0, (200, 50))
        a = run_reservoir(
            matrices, inputs, initial_state=quantize_intensity(rng.uniform(0.0, 1.0, 1024))
        )
        b = run_reservoir(
            matrices, inputs, initial_state=quantize_intensity(rng.uniform(0.0, 1.0, 1024))
        )
        step = first_coincidence(a, b)
        if step is not None:
            coincided += 1
            latest = max(latest, step)
    _verdict(
        6, coincided >= 19,
        f"{coincided}/20 trials coincide within 200 steps (latest at step {latest})",
    )


def test_criterion_07_score_metric():
    rows = np.eye(6)
    truths = [c for c in range(6) for _ in range(4)]
    perfect = confusion(rows[truths], truths).score
    ok = perfect == 600.0

    rng = np.random.default_rng(2026)
    n_draws = 10_000
    total = 0.0
    for _ in range(n_draws):
        guesses = rng.integers(0, 6, size=24)
        total += confusion(rows[guesses], truths).score
    mean = total / n_draws
    ok = ok and 95.0 <= mean <= 105.0
    _verdict(7, ok, f"perfect = {perfect:g}, random mean = {mean:.2f}")


def test_criterion_08_desk_scale_end_to_end(tmp_path):
    manifest_path = generate_corpus(
        tmp_path / "corpus", n_subjects=5, n_repetitions=4, seed=11
    )
    hog_path = tmp_path / "hog.rcf"
    extract_hog(load_manifest(manifest_path), hog_path)
    rows = pca_fit_rows(prepare_data(manifest_path, None), "train")
    pca_stage(hog_path, rows, 2000, tmp_path / "pca.bin", tmp_path / "features.rcf")

    data = prepare_data(manifest_path, tmp_path / "features.rcf")
    spec = GridSpec(
        feedback_gain=(0.6, 0.8, 1.0),
        input_gain=(0.005, 0.01, 0.02),
        coupling_gain=(0.1,),
        coupling_density=(0.01,),
        n_nodes=1024,
    )
    results = run_grid(spec, data)
    best = best_trial(results)
    ok = best is not None and best.score >= 300.0
    detail = "no successful trial" if best is None else (
        f"best score {best.score:g} at feedback {best.params.feedback_gain:g}, "
        f"input {best.params.input_gain:g} over {len(results)} trials"
    )
    _verdict(8, ok, detail)


@pytest.mark.skipif(not KTH_MANIFEST, reason="RC_KTH_MANIFEST not set")
def test_criterion_09_full_scale_reproduction(kth_pca):
    _, features_path = kth_pca
    data = prepare_data(KTH_MANIFEST, features_path)

    def best_score(n_nodes, seed):
        spec = GridSpec(
            feedback_gain=(0.6, 0.8),
            input_gain=(0.01, 0.1, 0.16),
            coupling_gain=(0.1,),
            coupling_density=(0.01,),
            n_nodes=n_nodes,
            seeds=(seed,),
        )
        return best_trial(run_grid(spec, data)).score

    seeds = (0, 1, 2)
    small = [best_score(1024, s) for s in seeds]
    large = [best_score(4096, s) for s in seeds]
    mean_large = float(np.mean(large))
    rises = sum(1 for s, l in zip(small, large) if l > s)
    ok = abs(mean_large - 548.0) <= 0.05 * 548.0 and np.mean(large) > np.mean(small)
    _verdict(
        9, ok,
        f"N=4096 mean {mean_large:.1f} (target 548 +/- 27.4), "
        f"rise from N=1024 in {rises}/3 seeds",
    )


def test_criterion_10_determinism_audit(tiny_corpus, tmp_path):
    def run(out_dir):
        return run_pipeline(
            PipelineConfig(
                manifest_path=str(tiny_corpus),
                out_dir=str(out_dir),
                pca_components=24,
                n_nodes=64,
                params=HyperParams(
                    feedback_gain=0.8, input_gain=0.01,
                    coupling_gain=0.1, coupling_density=0.05,
                ),
                seed=0,
            )
        )

    report_a = run(tmp_path / "a")
    report_b = run(tmp_path / "b")
    assert report_a.artifacts == report_b.artifacts
    identical = []
    compared = list(report_a.artifacts.values()) + ["pipeline.json"]
    for name in compared:
        bytes_a = (Path(report_a.out_dir) / name).read_bytes()
        bytes_b = (Path(report_b.out_dir) / name).read_bytes()
        identical.append(bytes_a == bytes_b)
    ok = all(identical)
    _verdict(
        10, ok,
        f"{sum(identical)}/{len(compared)} files byte-identical across cold runs",
    )
