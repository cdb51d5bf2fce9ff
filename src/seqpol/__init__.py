"""Sequential variable-strength polarization measurement toolkit.

Simulates a tunable-strength PM measurement followed by a projective HV
readout on a single polarization qubit, evaluates operator-based measurement
errors and weak-value-optimal outcome assignments, and reconstructs the
underlying quasi-probabilities whose negativity marks non-classical
correlations.

This package namespace holds the documented library and nothing else: states
and observables, the instrument model, the error functionals and estimates,
reconstruction, quasi-probabilities, the sweep and count routes, and the
exceptions they raise.  Every other name has one home, its module, and is
imported from there: the scalar operator oracle and tolerances from
``seqpol.algebra``, the array steps (``effect_stack``, ``stack_terms``,
``error_columns``) and result types from ``seqpol.instrument`` and
``seqpol.analysis``, and the command tables from ``seqpol.harness``.
"""

from .algebra import (
    DichotomicObservable,
    QubitState,
    make_linear_polarization,
    make_stokes,
)
from .analysis import (
    EstimateTable,
    ReconstructionConfig,
    optimal_error,
    ozawa_error,
    quasi_probability,
    reconstruct_correlation,
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
    SweepConfig,
    bootstrap_standard_errors,
    estimate_from_counts,
    find_crossings,
    monte_carlo_counts,
    run_sweep,
)
from .instrument import (
    SetupParams,
    outcome_probabilities,
    pm_marginal_povm,
    sequential_povm,
)

__version__ = "0.1.0"
