#!/usr/bin/env python3

# End-to-end pipeline: frames -> HOG -> PCA -> reservoir -> readout -> score.
#
# One call wires all six stages together, writes every intermediate as a
# content-addressed artifact, and records digests so later runs can prove
# what they reused.

import dataclasses
import tempfile
import time
from pathlib import Path

from photonrc.pipeline import PipelineConfig, describe_artifacts, run_pipeline
from photonrc.reservoir import HyperParams
from photonrc.synthetic import generate_corpus

with tempfile.TemporaryDirectory(prefix="photonrc_demo_") as tmp:
    work = Path(tmp)
    manifest_path = generate_corpus(
        work / "corpus", n_subjects=3, n_repetitions=2,
        resolution=(60, 80), frames_range=(24, 28), seed=5,
    )

    config = PipelineConfig(
        manifest_path=str(manifest_path),
        out_dir=str(work / "run"),
        pca_components=24,
        n_nodes=64,
        params=HyperParams(0.8, 0.01, 0.1, 0.05),
        seed=0,
    )
    t0 = time.perf_counter()
    report = run_pipeline(config)
    print(f"cold run: {time.perf_counter() - t0:.2f}s, score {report.score:.10g}")
    print(f"resolved ridge lambda: {report.resolved_lambda:.4g}")

    print("\nartifacts (name embeds the stage digest):")
    for name, filename in sorted(report.artifacts.items()):
        size = (Path(report.out_dir) / filename).stat().st_size
        print(f"  {name:<12} {filename} ({size} bytes)")
    print("stage digests:")
    for stage, digest in report.digests.items():
        print(f"  {stage:<10} {digest}")

    # A second run over the same directory finds every artifact digest intact
    # and skips the work; results come out byte for byte identical.
    hog_file = Path(report.out_dir) / report.artifacts["hog"]
    before = hog_file.stat().st_mtime_ns
    t0 = time.perf_counter()
    warm = run_pipeline(config)
    print(f"\nwarm run: {time.perf_counter() - t0:.2f}s, score {warm.score:.10g}, "
          f"hog cache untouched: {hog_file.stat().st_mtime_ns == before}")

    # Changing any upstream knob changes that stage's digest, so stale caches
    # can never be mistaken for current ones.
    other = dataclasses.replace(config, seed=1, out_dir=str(work / "run_seed1"))
    report2 = run_pipeline(other)
    same = [s for s in report.digests if report.digests[s] == report2.digests[s]]
    changed = [s for s in report.digests if report.digests[s] != report2.digests[s]]
    print(f"seed 0 -> 1 keeps digests {same}, changes {changed}")

    print("\ndescribe_artifacts:")
    for line in describe_artifacts(report.out_dir).splitlines():
        print(f"  {line}")
