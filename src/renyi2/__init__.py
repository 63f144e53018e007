"""Two-copy interference toolkit.

Simulates the direct measurement of Renyi-2 entropy of bipartite polarization
states: two-copy collision probabilities, an entropic entanglement witness, a
CHSH baseline, a bosonic model of the four-photon source, and a stochastic
experiment emulator with curve fitting.
"""

from renyi2.chsh import (
    KERNEL_BACKEND,
    CorrelationMatrix,
    correlation_matrix,
    max_chsh,
    max_chsh_settings,
)
from renyi2.experiment import (
    CountRecord,
    FitResult,
    RunConfig,
    estimate_probabilities,
    fit_interference,
    simulate_counts,
    witness_from_run,
)
from renyi2.fock import (
    CoincidenceRecord,
    FockState,
    ModeIndex,
    OutcomeClass,
    Polarization,
    apply_creation,
    beam_splitter,
    classify_outcome,
    coincidence_curves,
    coincidence_probabilities,
    conditional_state_after_anticoalescence,
    hamiltonian_expansion,
    hamiltonian_four_photon_term,
    outcome_curves,
    phase_gram,
    spdc_four_photon_state,
    vacuum,
)
from renyi2.qstate import (
    DensityOperator,
    make_density,
    partial_trace,
    ppt_min_eigenvalue,
    purity,
    random_density,
    singlet,
    tensor,
    werner,
)
from renyi2.two_copy import (
    CollisionProbabilities,
    ProjectorPair,
    WitnessVerdict,
    collision_probabilities,
    entropic_witness,
    projectors,
    purities_from_probabilities,
)

__version__ = "0.1.0"

__all__ = [
    "DensityOperator",
    "make_density",
    "partial_trace",
    "ppt_min_eigenvalue",
    "purity",
    "random_density",
    "singlet",
    "tensor",
    "werner",
    "CollisionProbabilities",
    "ProjectorPair",
    "WitnessVerdict",
    "collision_probabilities",
    "entropic_witness",
    "projectors",
    "purities_from_probabilities",
    "CorrelationMatrix",
    "KERNEL_BACKEND",
    "correlation_matrix",
    "max_chsh",
    "max_chsh_settings",
    "CoincidenceRecord",
    "FockState",
    "ModeIndex",
    "OutcomeClass",
    "Polarization",
    "apply_creation",
    "beam_splitter",
    "classify_outcome",
    "coincidence_curves",
    "coincidence_probabilities",
    "conditional_state_after_anticoalescence",
    "hamiltonian_expansion",
    "hamiltonian_four_photon_term",
    "outcome_curves",
    "phase_gram",
    "spdc_four_photon_state",
    "vacuum",
    "CountRecord",
    "FitResult",
    "RunConfig",
    "estimate_probabilities",
    "fit_interference",
    "simulate_counts",
    "witness_from_run",
    "__version__",
]
