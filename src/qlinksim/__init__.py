"""Link-level simulator for qubit communication channels.

Classical symbols are mapped to qubit density matrices, pushed through a
configurable channel model, detected with the square-root (pretty-good)
measurement, and scored by symbol and bit error rate.  Every batch
operation takes (n, 4) Pauli rows, and codebooks and POVMs hold rows; a
complex stack of states enters through ``state_rows`` and leaves through
``qlinksim.states.from_rows``.  See the README
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
    argmax_rows,
    build_pgm,
    decide,
    embed_povm_with_erasure,
    measurement_scores,
    sample_rows,
    score_rows,
)
from .metrics import error_counts
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
    DensityMatrix,
    InvalidStateError,
    state_rows,
)
from .visualization import (
    project_rows,
    write_states_csv,
)

__all__ = [
    "__version__",
    "BosonicConfig",
    "Channel",
    "ChannelConfig",
    "ChannelRunResult",
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
    "argmax_rows",
    "build_pgm",
    "decide",
    "default_config_path",
    "derive_rng",
    "embed_amplitudes",
    "embed_povm_with_erasure",
    "error_counts",
    "load_config",
    "measurement_scores",
    "project_rows",
    "qam_codebook",
    "qam_constellation",
    "qpsk_codebook",
    "run_comparison",
    "run_simulation",
    "sample_rows",
    "score_rows",
    "state_rows",
    "write_states_csv",
]
