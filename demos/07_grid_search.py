#!/usr/bin/env python3

# Hyperparameter grid search with a checkpoint log and resume.
#
# Every (feedback, input, coupling, density, lambda, seed) cell runs one
# reservoir trial; finished cells land in a CSV immediately, so an
# interrupted sweep restarts where it stopped instead of from scratch.

import tempfile
from pathlib import Path

from photonrc.dataset import Split, index_frames, load_manifest, stream_frames
from photonrc.hog import hog_stack
from photonrc.pca import fit_pca, transform
from photonrc.pipeline import prepare_data
from photonrc.synthetic import generate_corpus
from photonrc.tuning import GridSpec, best_trial, run_grid

work = Path(tempfile.mkdtemp(prefix="photonrc_demo_"))
manifest_path = generate_corpus(
    work / "corpus", n_subjects=3, n_repetitions=2,
    resolution=(60, 80), frames_range=(24, 28), seed=5,
)
manifest = load_manifest(manifest_path)

# Features once, shared by every trial (the expensive part is upstream of
# the grid, so sweeping hyperparameters is cheap).
values, _ = hog_stack(f.pixels for f in stream_frames(manifest))
pca = fit_pca(values[index_frames(manifest).rows_for(Split.TRAIN)], 24)
data = prepare_data(manifest, transform(pca, values))
print(f"prepared {data.features.shape[0]} frames, "
      f"{len(data.train_rows)} train / {len(data.test_rows)} test rows")

spec = GridSpec(
    feedback_gain=(0.6, 0.8),
    input_gain=(0.005, 0.02),
    coupling_gain=(0.1,),
    coupling_density=(0.05,),
    n_nodes=32,
    seeds=(0,),
)
print(f"grid: {len(spec.cells())} cells")

log = work / "grid_log.csv"
results = run_grid(spec, data, log_path=str(log))
print("\nresults (canonical order: best first):")
for r in results:
    print(f"  feedback {r.params.feedback_gain:.1f}  input {r.params.input_gain:.3f}"
          f"  -> score {r.score:6.1f}  ({r.wall_time * 1000:.0f} ms)")
best = best_trial(results)
print(f"best: score {best.score:.10g} at feedback {best.params.feedback_gain}, "
      f"input {best.params.input_gain}")

lines = log.read_text().splitlines()
print(f"\ncheckpoint log has {len(lines)} lines (header + one per trial)")
print(f"  {lines[0]}")
print(f"  {lines[1]}")

# Resume with a superset grid: the four logged cells are read back, only
# the two new input gains actually run.
wider = GridSpec(
    feedback_gain=(0.6, 0.8),
    input_gain=(0.005, 0.02, 0.05),
    coupling_gain=(0.1,),
    coupling_density=(0.05,),
    n_nodes=32,
    seeds=(0,),
)
results = run_grid(wider, data, log_path=str(log), resume=True)
lines = log.read_text().splitlines()
print(f"\nafter resume over {len(wider.cells())} cells: log has {len(lines) - 1} "
      f"trial rows (2 new)")
best = best_trial(results)
print(f"best after widening: score {best.score:.10g} at "
      f"feedback {best.params.feedback_gain}, input {best.params.input_gain}")

# A held-out validation split carved from the train half keeps model
# selection away from the test sequences.
val = prepare_data(manifest, data.features, validation_fraction=0.25, seed=0)
val_ids = {s[0] for s in val.test_spans}
test_ids = {s[0] for s in data.test_spans}
print(f"\nvalidation carve: {len(val_ids)} sequences scored, "
      f"overlap with the real test split: {len(val_ids & test_ids)}")
