"""Digital simulation of a PT-symmetric two-level system on a single qutrit.

Layers: `linalg` (dense 2x2/3x3 complex algebra), `model` (closed-form
dynamics across the unbroken/broken phases), `gates` (qutrit rotation IR and
the two native-gate-set transpilers), `dilation` (block encodings and general
unitary completion), `experiment` (finite-shot noisy emulation), `cli`.
"""

from .dilation import (
    Dilation,
    DilationError,
    NormTooLarge,
    RankTooLarge,
    ShiftTooSmall,
    embed_check,
    general_dilation,
    hamiltonian_shift_equivalence,
    qutrit_circuit,
    qutrit_unitary,
)
from .experiment import (
    BackendConfig,
    BackendKind,
    ConfusionMatrix,
    ExperimentPoint,
    SweepGrid,
    SweepResult,
    default_backend,
    estimate_confusion,
    exact_probabilities,
    identity_confusion,
    load_confusion,
    miscalibrate,
    postselect_ratios,
    run_point,
    sample_counts,
    sweep,
    synthetic_confusion,
)
from .gates import (
    Circuit,
    CircuitStats,
    Gate,
    GateKind,
    GateSet,
    UnsupportedGate,
    circuit_unitary,
    equivalent,
    format_circuit,
    gate_matrix,
    parse_circuit,
    rion,
    rx,
    rz,
    stats,
    transpile_ion,
    transpile_transmon,
)
from .linalg import (
    Svd2,
    expm_taylor,
    is_unitary,
    populations,
    svd2,
)
from .model import (
    Angles,
    Kernel,
    LambdaTooSmall,
    PTParams,
    SingularPair,
    angles,
    evolution,
    hamiltonian,
    kernel,
    postselected_population,
    qutrit_populations,
    rescaled_evolution,
    return_probability,
    singular_values,
)

__version__ = "0.1.0"
