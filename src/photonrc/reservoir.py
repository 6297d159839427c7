"""Quantized opto-electronic reservoir dynamics.

The reservoir is a network of N nodes driven by an input vector each step.
Node activations pass through a sin^2 intensity response and through the
two quantizers of the hardware loop: an 8-bit truncating phase quantizer
(period 2 pi, step 2 pi / 256) on the way into the interferometer and a
10-bit rounding intensity quantizer (1024 levels on [0, 1]) on the way out
of the detector.  With f(phi) = q10(sin^2 phi) the machine's one recurrence
is

    x(n+1) = f( q8( W x(n) + B u(n) ) )

over the detector readings x.  Written over the node phases instead, it is
phi(n+1) = q8( W f(phi(n)) + B u(n) ) (:func:`step_phase`), and the change
of variable x = f(phi) turns that into the recurrence above, step for step
and byte for byte: the "intensity" and "phase" forms of the machine read
the same values.  Every quantized phase is one of 256 codes
(:func:`phase_code`), so the loop steps on integer codes and reads f from
the 256-entry table :data:`RESPONSE`.  Both bit depths are the hardware's
and fixed: :func:`quantize_phase` and :func:`quantize_intensity` take no
level count.

W has the feedback gain on its diagonal and round(density * N^2) coupling
entries scattered off the diagonal, each drawn from a uniform distribution
scaled by the coupling gain; B is dense with entries uniform in [-1, 1]
scaled by the input gain.  All randomness comes from one numpy PCG64
generator, consumed in a fixed order (B, then coupling positions, then
coupling values) so a seed pins the reservoir down exactly.  A spec file
records that family (:data:`PRNG_FAMILY`), and one that names another does
not load.
"""

from dataclasses import asdict, dataclass, fields

import numpy as np
from scipy import sparse

from .cache import CacheRows, json_field, json_typed, read_json, row_chunks, write_json
from .errors import NumericalError, SchemaError

TWO_PI = 2.0 * np.pi
PHASE_LEVELS = 256  # 8-bit modulator
PHASE_STEP = TWO_PI / PHASE_LEVELS  # exact: division by a power of two
INTENSITY_LEVELS = 1024  # 10-bit detector
PRNG_FAMILY = "numpy-pcg64"

# the two forms of the recurrence a configuration may name; they read the same
VARIANTS = ("intensity", "phase")


# the grid values k * 2pi/256 as float products, for k in [0, 257]: the two
# past the last code are what the truncation's one-step corrections compare against
_PHASE_GRID = np.arange(PHASE_LEVELS + 2) * PHASE_STEP


def phase_code(x):
    """Truncation codes k in [0, 256) of phases on the grid k * 2pi/256.

    Values are wrapped into [0, 2pi] with ``np.mod`` first.  Truncation
    divides and floors, then corrects by one step up and one step down
    against the grid values themselves, so every representable grid point
    maps to its own code despite floating-point division error.  ``np.mod``
    can return 2pi itself, whose code wraps to 0.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size and np.abs(x).max() < TWO_PI:  # false for nan
        # np.mod of |x| < 2pi is x, or the sum x + 2pi for x < 0: the same
        # float operation without np.mod's costly fmod
        y = np.where(x < 0, x + TWO_PI, x)
    else:
        with np.errstate(invalid="ignore"):  # the infinities named below
            y = np.mod(x, TWO_PI)
        if np.isnan(y).any():  # np.mod maps infinities to nan as well
            raise NumericalError("phases must be finite")
    k = np.asarray(y / PHASE_STEP).astype(np.intp)  # floor, as y >= 0
    k += _PHASE_GRID[1:][k] <= y
    k -= _PHASE_GRID[k] > y
    np.putmask(k, k == PHASE_LEVELS, 0)
    return k


def quantize_phase(x):
    """Truncate phases to the 8-bit grid k * 2pi/256, k in [0, 256); see :func:`phase_code`."""
    return _PHASE_GRID[phase_code(x)]


def quantize_intensity(y):
    """Round intensities (clipped to [0, 1]) to the nearest of the 10-bit
    detector's 1024 values.

    Rounding is half-up: floor(1023 y + 0.5) / 1023.
    """
    max_code = INTENSITY_LEVELS - 1
    z = np.clip(np.asarray(y, dtype=np.float64), 0.0, 1.0)
    return np.floor(z * max_code + 0.5) / max_code


def detect(phase):
    """Detector reading q10(sin^2(phase)) of an unquantized phase."""
    s = np.sin(phase)
    return quantize_intensity(s * s)


# detector reading of every phase code: q10(sin^2(k * 2pi/256))
RESPONSE = detect(_PHASE_GRID[:PHASE_LEVELS])


@dataclass(frozen=True)
class HyperParams:
    """Gains and coupling density of one reservoir configuration.

    The defaults are those of a pipeline run and of the CLI flags.
    """

    feedback_gain: float = 0.8
    input_gain: float = 0.01
    coupling_gain: float = 0.1
    coupling_density: float = 0.01

    def __post_init__(self):
        for name in ("feedback_gain", "input_gain", "coupling_gain"):
            if not 0 <= getattr(self, name) < np.inf:  # false for nan
                raise ValueError(f"{name} must be finite and nonnegative")
        if not 0.0 <= self.coupling_density <= 1.0:
            raise ValueError("coupling_density must lie in [0, 1]")

    def as_dict(self):
        return asdict(self)


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
    # draw t_j uniform in [0, j] for every j at once, in the order the walk uses them
    draws = rng.integers(0, np.arange(space - count, space) + 1)
    chosen = set()
    for j, t in zip(range(space - count, space), draws.tolist()):
        chosen.add(j if t in chosen else t)
    pos = np.sort(np.fromiter(chosen, dtype=np.int64, count=count))
    rows = pos // (n - 1)
    offsets = pos % (n - 1)
    cols = np.where(offsets >= rows, offsets + 1, offsets)  # skip the diagonal slot
    return rows, cols


@dataclass(frozen=True)
class ReservoirMatrices:
    weights: sparse.csr_array  # (N, N): feedback diagonal + couplings, int32 indices
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
    if count > n * n - n:  # a configuration no reservoir of n nodes can hold
        raise ValueError(
            f"density {params.coupling_density} asks for {count} couplings, "
            f"only {n * n - n} off-diagonal slots exist"
        )
    rng = np.random.default_rng(seed)
    input_weights = params.input_gain * rng.uniform(-1.0, 1.0, size=(n, k_in))
    rows, cols = sample_offdiagonal(rng, n, count)
    values = params.coupling_gain * rng.uniform(-1.0, 1.0, size=count)
    # int32 indices: each step's spmv streams 12 bytes per nonzero, not 16
    diagonal = np.arange(n, dtype=np.int32)
    rows = np.concatenate([rows, diagonal], dtype=np.int32)
    cols = np.concatenate([cols, diagonal], dtype=np.int32)
    values = np.concatenate([values, np.full(n, params.feedback_gain)])
    weights = sparse.coo_array((values, (rows, cols)), shape=(n, n)).tocsr()
    return ReservoirMatrices(weights=weights, input_weights=input_weights)


def step_intensity(matrices, state, drive):
    """One update of the readings ``state``; ``drive`` is B u(n), precomputed."""
    return RESPONSE[phase_code(matrices.weights @ state + drive)]


def step_phase(matrices, state, drive):
    """One update of the node phases ``state``; feedback passes through f(x) = q10(sin^2 x).

    ``detect(step_phase(m, phi, d)) == step_intensity(m, detect(phi), d)``.
    """
    return _PHASE_GRID[phase_code(matrices.weights @ detect(state) + drive)]


def stack_matrices(matrices):
    """One block-diagonal reservoir made of several, to step them in lockstep.

    Node i of the j-th reservoir becomes node i + (nodes before it) of the
    stack, and every row keeps its coupling entries in their order.  So a
    stacked step does, row by row, the float operations of the separate
    steps, and the stack's states are the separate states side by side.
    """
    if len(matrices) == 1:
        return matrices[0]
    return ReservoirMatrices(
        weights=sparse.block_diag([m.weights for m in matrices], format="csr"),
        input_weights=np.vstack([m.input_weights for m in matrices]),
    )


# input rows per drive block, whose drive B u(n) one GEMM computes.  A row's
# drive bytes depend on the block's size: a 1-row block (numpy's GEMV path)
# rounds otherwise than the same row inside a 383-row GEMM, and at K = 50,
# N = 64 so did blocks of up to 18 rows; blocks of 44 rows and more matched
# at each of five shapes from K = 8, N = 256 to K = 2,000, N = 1,024.  The
# join of cache.chunk_stops keeps every block at DRIVE_ROWS // 2 rows or
# more, or the whole stream, so the drive is that of one GEMM over it
DRIVE_ROWS = 256

# the reading of every phase code as the state cache stores it
_RESPONSE32 = RESPONSE.astype(np.float32)


# a drive or phase too large for float64 overflows to inf or nan, which
# phase_code names in a NumericalError, so numpy need not warn of it first
@np.errstate(over="ignore", invalid="ignore")
def run_reservoir(matrices, inputs, initial_state=None, spans=None, out=None):
    """Drive the reservoir with ``inputs`` (T, K); returns float32 readings (T, N).

    ``readings[t]`` is the detector reading q10(sin^2) of every node after
    consuming ``inputs[t]``.  ``inputs`` is an array or a
    :class:`~photonrc.cache.CacheRows`.  ``initial_state`` is the reading
    the couplings start from (zeros by default).  ``spans`` lists a
    :class:`~photonrc.dataset.FrameIndex`'s (sequence_id, start, stop,
    action) spans, which tile the rows in order; the state resets to
    ``initial_state`` at the start of each, which cuts memory across
    sequence boundaries.  None runs one unbroken stream.  With ``out`` set,
    the readings go to ``out.append`` (a :class:`~photonrc.cache.CacheWriter`)
    a block at a time as they are made, and None is returned.  Several
    reservoirs step in lockstep as one :func:`stack_matrices` reservoir.

    The run walks ``inputs`` in :data:`DRIVE_ROWS` blocks
    (:func:`~photonrc.cache.row_chunks`), reading a cache's rows in the
    block it computes on.  Each block's drive is one GEMM; every node phase
    is one of the 256 codes of :func:`phase_code`, so each reading is a
    lookup in :data:`RESPONSE`.  The float64 reading carries from step to
    step, block edges included, and a block holds its inputs, their drive
    and one uint8 code per node and step, which it turns into float32
    readings, as the state cache stores them, when the block is done.
    """
    if not isinstance(inputs, CacheRows):
        inputs = np.atleast_2d(np.asarray(inputs))
    if inputs.shape[1] != matrices.input_dim:
        raise SchemaError(
            f"inputs have {inputs.shape[1]} columns, reservoir expects {matrices.input_dim}"
        )
    n = matrices.n_nodes
    if initial_state is None:
        x0 = np.zeros(n)
    else:
        x0 = np.asarray(initial_state, dtype=np.float64)
        if x0.shape != (n,):
            raise SchemaError(f"initial_state must have shape ({n},)")
    resets = {start for _, start, _, _ in spans or ()}
    weights = matrices.weights
    input_weights = matrices.input_weights
    readings = np.empty((inputs.shape[0], n), dtype=np.float32) if out is None else None
    x = x0
    for first, block in row_chunks(inputs, DRIVE_ROWS):
        drive = np.asarray(block, dtype=np.float64) @ input_weights.T
        codes = np.empty(drive.shape, dtype=np.uint8)
        for i, row in enumerate(drive):
            if first + i in resets:
                x = x0
            k = phase_code(weights @ x + row)
            x = RESPONSE[k]
            codes[i] = k
        if out is None:
            readings[first : first + len(codes)] = _RESPONSE32[codes]
        else:
            out.append(_RESPONSE32[codes])
    return readings


# ---------------------------------------------------------------------------
# Reservoir spec files

@dataclass(frozen=True)
class ReservoirSpec:
    n_nodes: int
    input_dim: int
    params: HyperParams
    seed: int

    def __post_init__(self):
        for name in ("n_nodes", "input_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")

    def build(self):
        return generate_matrices(self.n_nodes, self.input_dim, self.params, self.seed)


def save_reservoir_spec(spec, path):
    doc = {
        "n_nodes": spec.n_nodes,
        "input_dim": spec.input_dim,
        "seed": spec.seed,
        "prng_family": PRNG_FAMILY,
        "hyperparameters": spec.params.as_dict(),
    }
    write_json(path, doc)


def load_reservoir_spec(path):
    """The spec a JSON file holds; SchemaError naming the file if it names a
    PRNG family other than :data:`PRNG_FAMILY`, the one that reproduces the
    matrices.  A file without the key is read as that family."""
    def build(doc):
        gains = json_field(doc, "hyperparameters", dict)
        spec = ReservoirSpec(
            n_nodes=json_field(doc, "n_nodes", int),
            input_dim=json_field(doc, "input_dim", int),
            params=HyperParams(**{
                f.name: json_field(gains, f.name, float, "hyperparameters.")
                for f in fields(HyperParams)
            }),
            seed=json_field(doc, "seed", int),
        )
        family = json_typed(doc.get("prng_family", PRNG_FAMILY), str, "prng_family")
        if family != PRNG_FAMILY:
            raise SchemaError(
                f"unsupported prng_family {family!r}; "
                f"only {PRNG_FAMILY!r} reproduces these matrices"
            )
        return spec

    return read_json(path, build)
