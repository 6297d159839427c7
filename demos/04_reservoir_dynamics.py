#!/usr/bin/env python3

# Quantized reservoir dynamics: the 8-bit phase / 10-bit intensity loop.
#
# Node states live on hardware grids.  An 8-bit modulator quantizes
# phases (truncation, period 2 pi) and a 10-bit detector quantizes the
# sin^2 intensity response (round half up to 1023 levels).  The demo
# walks the quantizers, the sparse weight structure, the one recurrence
# and its phase form, and the fading-memory property the quantization
# buys.

import numpy as np
from scipy import sparse

from photonrc.reservoir import (
    PHASE_STEP,
    RESPONSE,
    HyperParams,
    ReservoirMatrices,
    detect,
    generate_matrices,
    phase_code,
    quantize_intensity,
    quantize_phase,
    run_reservoir,
    step_intensity,
    step_phase,
)

rng = np.random.default_rng(0)

# --- quantizer staircases --------------------------------------------------
xs = np.array([0.0, 0.3, np.pi / 2, 1.0, 2 * np.pi + 0.3])
print("phase quantizer (truncating, step 2 pi / 256):")
for x in xs:
    q = quantize_phase(x)
    print(f"  q8({x:8.5f}) = {q:8.5f} = level {round(q / PHASE_STEP):>3}")
print(f"  pi/2 sits exactly on the grid: {quantize_phase(np.pi / 2) == np.pi / 2}")
print(f"  q8(1.0) lands on level 40: {quantize_phase(1.0) == 40 * PHASE_STEP}")

ys = np.array([0.0, 0.25, 0.5, 0.625, 1.0])
print("\nintensity quantizer (round half up, 1023 steps):")
for y in ys:
    print(f"  q10({y:5.3f}) = {quantize_intensity(y):.6f}")
print(f"  q10(0.5) rounds up to 512/1023: {quantize_intensity(0.5) == 512 / 1023}")

draws = rng.uniform(0, 2 * np.pi, 1000)
once = quantize_phase(draws)
print(f"  idempotent: {np.array_equal(quantize_phase(once), once)}")

# --- single-node steps, exact by hand --------------------------------------
# Intensity node, no feedback, unit input weight, drive pi/2: the phase
# quantizer passes pi/2 through exactly, sin^2 gives 1.0, and the
# intensity quantizer keeps it.
node = ReservoirMatrices(
    weights=sparse.csr_array(np.array([[0.0]])),
    input_weights=np.array([[1.0]]),
)
out = step_intensity(node, np.zeros(1), np.array([np.pi / 2]))
print(f"\nintensity node driven at pi/2: state = {out[0]} (exactly 1.0)")

# Phase node, unit feedback, no input, state pi/2: the fed-back intensity
# is exactly 1.0 and truncation drops it to phase level 40.
node = ReservoirMatrices(
    weights=sparse.csr_array(np.array([[1.0]])),
    input_weights=np.array([[0.0]]),
)
out = step_phase(node, np.array([np.pi / 2]), np.zeros(1))
print(f"phase node fed back from pi/2: state = {out[0]:.6f} "
      f"= level {round(out[0] / PHASE_STEP)}")

# --- weight structure -------------------------------------------------------
params = HyperParams(feedback_gain=0.8, input_gain=0.01,
                     coupling_gain=0.1, coupling_density=0.05)
mats = generate_matrices(n_nodes=64, input_dim=8, params=params, seed=7)
W = mats.weights.toarray()
off = W.copy()
np.fill_diagonal(off, 0.0)
print(f"\nW is 64 x 64: diagonal all {np.unique(np.diag(W))}, "
      f"{np.count_nonzero(off)} couplings (round(0.05 * 64^2) = 205), "
      f"coupling range [{off[off != 0].min():.4f}, {off[off != 0].max():.4f}]")
print(f"B is {mats.input_weights.shape}, entries within "
      f"[-{params.input_gain}, {params.input_gain}]: "
      f"{np.max(np.abs(mats.input_weights)) <= params.input_gain}")

# --- trajectories ------------------------------------------------------------
# Feature inputs are PCA projections, far larger than unit scale.
inputs = rng.uniform(-100.0, 100.0, size=(50, 8))
states_i = run_reservoir(mats, inputs)
print(f"\nintensity states in [0, 1]: min {states_i.min():.4f}, "
      f"max {states_i.max():.4f}")
# Stepping the node phases instead, phi' = q8(W f(phi) + B u) with
# f = q10(sin^2), reads what the loop reads: x = f(phi) turns it into the
# run's recurrence over the readings.
phi = np.zeros(mats.n_nodes)
read = []
for u in inputs:
    phi = step_phase(mats, phi, mats.input_weights @ u)
    read.append(detect(phi))
print(f"phase-form steps read what the loop reads: "
      f"{np.array_equal(np.float32(read), states_i)}")

# Spans, a frame index's (sequence_id, start, stop, action) tuples, restart
# the state, cutting memory at sequence boundaries.
spans = [("a", 0, 25, 0), ("b", 25, 50, 0)]
reset = run_reservoir(mats, inputs, spans=spans)
print(f"free-running and reset runs agree before the cut: "
      f"{np.array_equal(reset[:25], states_i[:25])}, "
      f"diverge after: {not np.array_equal(reset[25:], states_i[25:])}")

# --- fading memory -----------------------------------------------------------
# Finite state grids erase initial conditions: two trajectories started
# from different random states collapse onto each other within a few steps.
big = generate_matrices(256, 20, HyperParams(0.8, 0.01, 0.1, 0.01), seed=3)
drive = rng.uniform(-1.0, 1.0, size=(100, 20))
a = run_reservoir(big, drive, initial_state=quantize_intensity(rng.uniform(size=256)))
b = run_reservoir(big, drive, initial_state=quantize_intensity(rng.uniform(size=256)))
differ = np.flatnonzero(np.any(a != b, axis=1))  # the steps where they differ
step = int(differ[-1]) + 1 if differ.size else 0
print(f"\n256-node reservoir, two random initial states: trajectories "
      f"coincide exactly from step {step} on")
print(f"response map check: RESPONSE[phase_code(pi/2)] = "
      f"{RESPONSE[phase_code(np.pi / 2)]}")
