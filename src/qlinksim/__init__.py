"""Link-level simulator for qubit communication channels.

Classical symbols are mapped to qubit density matrices, pushed through a
configurable channel model, detected with the square-root (pretty-good)
measurement, and scored by symbol and bit error rate.  See the README
for the JSON config schema and CLI usage.
"""

from .channels import (
    BosonicConfig,
    Channel,
    ChannelConfig,
    DephasingConfig,
    DepolarizingConfig,
    ErasureConfig,
    PMDConfig,
    TurbulenceConfig,
)
from .detection import (
    POVM,
    argmax_labels,
    build_pgm,
    decide,
    embed_povm_with_erasure,
    measurement_scores,
    sample_labels,
    score_states,
)
from .metrics import (
    confusion_matrix,
    error_counts,
    hamming_table,
)
from .modulation import (
    DetectorCodebook,
    embed_amplitudes,
    qam_codebook,
    qam_constellation,
    qpsk_codebook,
)
from .pipeline import VERSION as __version__
from .pipeline import (
    ChannelRunResult,
    SimulationConfig,
    SimulationReport,
    default_config_path,
    derive_rng,
    load_config,
    run_comparison,
    run_simulation,
)
from .states import (
    DegenerateStateError,
    DensityMatrix,
    InvalidStateError,
    bloch_xyz,
    make_pure_states,
)
from .visualization import (
    project_states,
    render_bloch_svg,
    render_constellation_svg,
    write_states_csv,
)

__all__ = [
    "__version__",
    "BosonicConfig",
    "Channel",
    "ChannelConfig",
    "ChannelRunResult",
    "DegenerateStateError",
    "DensityMatrix",
    "DephasingConfig",
    "DepolarizingConfig",
    "DetectorCodebook",
    "ErasureConfig",
    "InvalidStateError",
    "PMDConfig",
    "POVM",
    "SimulationConfig",
    "SimulationReport",
    "TurbulenceConfig",
    "argmax_labels",
    "bloch_xyz",
    "build_pgm",
    "confusion_matrix",
    "decide",
    "default_config_path",
    "derive_rng",
    "embed_amplitudes",
    "embed_povm_with_erasure",
    "error_counts",
    "hamming_table",
    "load_config",
    "make_pure_states",
    "measurement_scores",
    "project_states",
    "qam_codebook",
    "qam_constellation",
    "qpsk_codebook",
    "render_bloch_svg",
    "render_constellation_svg",
    "run_comparison",
    "run_simulation",
    "sample_labels",
    "score_states",
    "write_states_csv",
]
