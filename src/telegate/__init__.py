"""telegate: a desk-scale simulator of a linear-optics controlled-phase
Bell-state analyzer running quantum teleportation and entanglement swapping,
with synthetic coincidence counting, tomography, and the usual figures of
merit (fidelity, logarithmic negativity, CHSH values).
"""

from ._version import __version__
from .states import (
    ATOL,
    DensityMatrix,
    PureState,
    kron,
    trace_norm,
)
from .gate import (
    FockState,
    GateChannel,
    PdbsSpec,
    ZeroSuccessError,
    coincidence_block,
    coincidence_distribution,
    fock_input,
    gate_channel,
    output_attenuators,
    pdbs_apply,
    propagate_gate,
)
from .sources import (
    InputSpec,
    PairSpec,
    bell_state,
    make_input,
    make_pair,
    single_qubit_state,
)
from .protocols import (
    BsaOutcome,
    ProtocolResult,
    TELEPORT_PAIR_TARGET,
    bsa,
    swap,
    teleport,
    tilde_bell,
)
from .tomography import (
    FitError,
    MeasurementSetting,
    ProcessMatrix,
    linear_inversion,
    mle_fit,
    process_tomo,
    settings_1q,
    settings_2q,
)
from .metrics import (
    ChshSpec,
    chsh,
    chsh_best,
    fidelity_pure,
    log_negativity,
    partial_transpose,
)
from .experiment import (
    CalibrationResult,
    ConfigError,
    CountTable,
    ExperimentConfig,
    PAPER_TELEPORT_TARGETS,
    Report,
    calibrate,
    config_from_mapping,
    load_config,
    run_experiment,
    simulate_counts,
    swap_summary,
    teleport_summary,
)

__all__ = [name for name in dir() if not name.startswith("_")]
