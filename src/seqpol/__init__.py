"""Sequential variable-strength polarization measurement toolkit.

Simulates a tunable-strength PM measurement followed by a projective HV
readout on a single polarization qubit, evaluates operator-based measurement
errors and weak-value-optimal outcome assignments, and reconstructs the
underlying quasi-probabilities whose negativity marks non-classical
correlations.
"""

from .algebra import (
    DichotomicObservable,
    IDENTITY,
    PovmElement,
    PovmSet,
    QubitState,
    TAU_ALG,
    as_operator,
    born_probability,
    expectation,
    hermitian_eigenvalues,
    make_linear_polarization,
    make_stokes,
    real_cross_correlation,
    validate_povm,
)
from .analysis import (
    EstimateTable,
    ErrorReport,
    P_FLOOR,
    QuasiProbabilityTable,
    ReconstructionConfig,
    conditional_average,
    optimal_error,
    ozawa_error,
    quasi_probability,
    reconstruct_correlation,
    symmetric_error_probability,
    two_level_conditional_average,
    two_level_optimal_error,
    two_level_ozawa_error,
    variation_states,
)
from .exceptions import (
    DegenerateBranchError,
    InvalidInputError,
    SeqpolError,
    UnresolvableOutcomeError,
)
from .harness import (
    CountRecord,
    Crossing,
    SweepConfig,
    bootstrap_standard_errors,
    default_theta_grid,
    estimate_from_counts,
    find_crossings,
    monte_carlo_counts,
    run_sweep,
)
from .instrument import (
    OUTCOMES,
    OutcomeDistribution,
    SetupParams,
    THETA_MAX_DEG,
    V_HV_DEFAULT,
    V_PM_DEFAULT,
    outcome_probabilities,
    pm_error_probability,
    pm_marginal_povm,
    sequential_povm,
)

__version__ = "0.1.0"
