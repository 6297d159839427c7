"""Quantized opto-electronic reservoir dynamics.

The reservoir is a network of N nodes driven by an input vector each step.
Node activations pass through a sin^2 intensity response and through the
two quantizers of the hardware loop: an 8-bit truncating phase quantizer
(period 2 pi, step 2 pi / 256) on the way into the interferometer and a
10-bit rounding intensity quantizer (1024 levels on [0, 1]) on the way out
of the detector.

Two update variants share the same coupling matrices:

    intensity:  x(n+1) = q10( sin^2( q8( W x(n) + B u(n) ) ) )
    phase:      x(n+1) = q8( W f(x(n)) + B u(n) ),   f(x) = q10( sin^2 x )

In the intensity variant the state lives on the 10-bit intensity grid, in
the phase variant on the 8-bit phase grid.

W has the feedback gain on its diagonal and round(density * N^2) coupling
entries scattered off the diagonal, each drawn from a uniform distribution
scaled by the coupling gain; B is dense with entries uniform in [-1, 1]
scaled by the input gain.  All randomness comes from one numpy PCG64
generator, consumed in a fixed order (B, then coupling positions, then
coupling values) so a seed pins the reservoir down exactly.
"""

import json
from dataclasses import asdict, dataclass

import numpy as np
from scipy import sparse

from .errors import ParseError, SchemaError

TWO_PI = 2.0 * np.pi
PHASE_LEVELS = 256  # 8-bit modulator
PHASE_STEP = TWO_PI / PHASE_LEVELS  # exact: division by a power of two
INTENSITY_LEVELS = 1024  # 10-bit detector
PRNG_FAMILY = "numpy-pcg64"

VARIANTS = ("intensity", "phase")


def quantize_phase(x, levels=PHASE_LEVELS):
    """Truncate phases to the grid k * 2pi/levels, k in [0, levels).

    Values are wrapped into [0, 2pi) first.  Truncation uses floor with a
    one-step correction so every representable grid point maps to itself
    despite floating-point division error.
    """
    step = TWO_PI / levels
    y = np.mod(np.asarray(x, dtype=np.float64), TWO_PI)
    k = np.floor(y / step)
    k = np.where((k + 1.0) * step <= y, k + 1.0, k)
    k = np.where(k * step > y, k - 1.0, k)
    k = np.where(k >= levels, k - levels, k)  # mod can return 2pi itself; 2pi wraps to 0
    k = np.where(k < 0.0, 0.0, k)
    return k * step


def quantize_intensity(y, levels=INTENSITY_LEVELS):
    """Round intensities (clipped to [0, 1]) to the nearest of ``levels`` values.

    Rounding is half-up: floor((levels - 1) y + 0.5) / (levels - 1).
    """
    max_code = levels - 1
    z = np.clip(np.asarray(y, dtype=np.float64), 0.0, 1.0)
    return np.floor(z * max_code + 0.5) / max_code


def intensity_response(phase):
    """Detector reading for a given interferometer phase: q10(sin^2(q8(phase)))."""
    s = np.sin(quantize_phase(phase))
    return quantize_intensity(s * s)


@dataclass(frozen=True)
class HyperParams:
    """Gains and coupling density of one reservoir configuration."""

    feedback_gain: float
    input_gain: float
    coupling_gain: float
    coupling_density: float

    def __post_init__(self):
        for name in ("feedback_gain", "input_gain", "coupling_gain"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if not 0.0 <= self.coupling_density <= 1.0:
            raise ValueError("coupling_density must lie in [0, 1]")

    def as_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        try:
            return cls(
                feedback_gain=float(d["feedback_gain"]),
                input_gain=float(d["input_gain"]),
                coupling_gain=float(d["coupling_gain"]),
                coupling_density=float(d["coupling_density"]),
            )
        except (KeyError, TypeError, ValueError):
            raise SchemaError(f"bad hyperparameter mapping: {d!r}") from None


def coupling_count(n_nodes, density):
    """Number of off-diagonal coupling entries: round(density * N^2)."""
    return int(round(density * n_nodes * n_nodes))


def sample_offdiagonal(rng, n_nodes, count):
    """Sample ``count`` distinct off-diagonal positions of an N x N matrix.

    Floyd's algorithm over the linearized off-diagonal index space; positions
    come out sorted ascending, which fixes both the set and the order in
    which value draws attach to positions.  Returns (rows, cols).
    """
    n = int(n_nodes)
    space = n * n - n
    if count > space:
        raise OverflowError(
            f"cannot place {count} couplings in the {space} off-diagonal slots"
        )
    chosen = set()
    for j in range(space - count, space):
        t = int(rng.integers(0, j + 1))
        if t in chosen:
            chosen.add(j)
        else:
            chosen.add(t)
    pos = np.sort(np.fromiter(chosen, dtype=np.int64, count=count))
    rows = pos // (n - 1)
    offsets = pos % (n - 1)
    cols = np.where(offsets >= rows, offsets + 1, offsets)  # skip the diagonal slot
    return rows, cols


@dataclass(frozen=True)
class ReservoirMatrices:
    weights: sparse.csr_array  # (N, N): feedback diagonal + couplings
    input_weights: np.ndarray  # (N, K)

    @property
    def n_nodes(self):
        return self.input_weights.shape[0]

    @property
    def input_dim(self):
        return self.input_weights.shape[1]


def generate_matrices(n_nodes, input_dim, params, seed):
    """Build (W, B) for a seed; one PCG64 stream, B drawn before W."""
    n = int(n_nodes)
    k_in = int(input_dim)
    if n < 1 or k_in < 1:
        raise ValueError("n_nodes and input_dim must be positive")
    count = coupling_count(n, params.coupling_density)
    if count > n * n - n:
        raise OverflowError(
            f"density {params.coupling_density} asks for {count} couplings, "
            f"only {n * n - n} off-diagonal slots exist"
        )
    rng = np.random.default_rng(seed)
    input_weights = params.input_gain * rng.uniform(-1.0, 1.0, size=(n, k_in))
    rows, cols = sample_offdiagonal(rng, n, count)
    values = params.coupling_gain * rng.uniform(-1.0, 1.0, size=count)
    rows = np.concatenate([rows, np.arange(n, dtype=np.int64)])
    cols = np.concatenate([cols, np.arange(n, dtype=np.int64)])
    values = np.concatenate([values, np.full(n, params.feedback_gain)])
    weights = sparse.coo_array((values, (rows, cols)), shape=(n, n)).tocsr()
    return ReservoirMatrices(weights=weights, input_weights=input_weights)


def step_intensity(matrices, state, drive):
    """One intensity-variant update; ``drive`` is B u(n), precomputed."""
    return intensity_response(matrices.weights @ state + drive)


def step_phase(matrices, state, drive):
    """One phase-variant update; feedback passes through f(x) = q10(sin^2 x)."""
    s = np.sin(state)
    fed = quantize_intensity(s * s)
    return quantize_phase(matrices.weights @ fed + drive)


_STEPPERS = {"intensity": step_intensity, "phase": step_phase}


def run_reservoir(matrices, inputs, variant="intensity", initial_state=None, spans=None):
    """Drive the reservoir with ``inputs`` (T, K); returns states (T, N).

    ``states[t]`` is the node state after consuming ``inputs[t]``.  ``spans``
    is an optional list of (start, stop) row ranges; the state resets to
    ``initial_state`` at the start of each span, which cuts memory across
    sequence boundaries.
    """
    if variant not in _STEPPERS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    step = _STEPPERS[variant]
    U = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if U.shape[1] != matrices.input_dim:
        raise SchemaError(
            f"inputs have {U.shape[1]} columns, reservoir expects {matrices.input_dim}"
        )
    n_steps = U.shape[0]
    n = matrices.n_nodes
    if initial_state is None:
        x0 = np.zeros(n)
    else:
        x0 = np.asarray(initial_state, dtype=np.float64)
        if x0.shape != (n,):
            raise SchemaError(f"initial_state must have shape ({n},)")
    drive = U @ matrices.input_weights.T  # (T, N), the one dense GEMM
    if spans is None:
        spans = [(0, n_steps)]
    states = np.empty((n_steps, n))
    for start, stop in spans:
        x = x0.copy()
        for t in range(start, stop):
            x = step(matrices, x, drive[t])
            states[t] = x
    return states


def first_coincidence(states_a, states_b):
    """First step from which two trajectories agree exactly forever after.

    Returns None if they still differ at the last step.
    """
    diff = np.any(states_a != states_b, axis=1)
    hits = np.nonzero(diff)[0]
    if hits.size == 0:
        return 0
    last = int(hits[-1])
    return None if last == states_a.shape[0] - 1 else last + 1


# ---------------------------------------------------------------------------
# Reservoir spec files

@dataclass(frozen=True)
class ReservoirSpec:
    n_nodes: int
    input_dim: int
    variant: str
    params: HyperParams
    seed: int
    prng_family: str = PRNG_FAMILY

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise SchemaError(f"unknown variant {self.variant!r}")
        if self.prng_family != PRNG_FAMILY:
            raise SchemaError(
                f"unsupported prng_family {self.prng_family!r}; "
                f"only {PRNG_FAMILY!r} reproduces these matrices"
            )

    def build(self):
        return generate_matrices(self.n_nodes, self.input_dim, self.params, self.seed)


def save_reservoir_spec(spec, path):
    doc = {
        "n_nodes": spec.n_nodes,
        "input_dim": spec.input_dim,
        "variant": spec.variant,
        "seed": spec.seed,
        "prng_family": spec.prng_family,
        "hyperparameters": spec.params.as_dict(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_reservoir_spec(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        return ReservoirSpec(
            n_nodes=int(doc["n_nodes"]),
            input_dim=int(doc["input_dim"]),
            variant=str(doc["variant"]),
            params=HyperParams.from_dict(doc["hyperparameters"]),
            seed=int(doc["seed"]),
            prng_family=str(doc.get("prng_family", PRNG_FAMILY)),
        )
    except (KeyError, TypeError, ValueError):
        raise SchemaError(f"{path}: malformed reservoir spec") from None
