"""photonrc: a simulated opto-electronic reservoir computer.

The package covers the full human-action-classification pipeline: PGM
frame ingestion, HOG descriptors, PCA (through the covariance or, with
fewer samples than features, the Gram matrix), one quantized
sin^2 reservoir recurrence (its intensity and phase forms read the same
values), ridge-trained linear readout, winner-takes-all scoring, and
exhaustive hyperparameter search.
The top level re-exports the entry points; everything else lives in the
submodules (``photonrc.pipeline``, ``photonrc.reservoir``, ...).
"""

from .cache import read_cache
from .dataset import index_frames, load_manifest, stream_frames
from .errors import PhotonRcError
from .hog import feature_count
from .pipeline import PipelineConfig, derive_stream_seed, prepare_data, run_pipeline
from .reservoir import generate_matrices, quantize_phase, step_intensity, step_phase
from .synthetic import generate_corpus
from .tuning import GridSpec, run_grid

__version__ = "0.1.0"
