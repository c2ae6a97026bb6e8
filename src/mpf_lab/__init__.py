"""mpf-lab: product formulas, multi-product mixtures, rigorous Trotter-error
bounds, and robust time-dependent coefficient tracking at desk scale."""

from .pauli import (
    PauliString,
    PauliSumOp,
    commutator_minus_i,
    parse_op,
    pauli_from_sites,
    to_dense,
)
from .heisenberg import build_heisenberg_chain, fragment_decomposition_s2
from .statesim import (
    FragmentEvolver,
    SpectralOracle,
    mixture_frobenius_sq,
    mixture_trace_norm,
    neel_state,
)
from .formulas import ProductFormula, rho_k_state, second_order, suzuki
from .static_mpf import (
    MpfScheme,
    rank_of_tuple,
    search_steps,
    solve_coefficients,
)
from .bounds import (
    MixtureBoundEvaluator,
    formula_commutator_sum,
    formula_conjugated_sum,
    product_formula_error_bound,
    spectral_norm_dense,
)
from .dynamic_mpf import (
    MinimaxRun,
    NoisyOverlaps,
    ProjectionResult,
    TrackingBoundStep,
    dynamic_project,
    gram_matrix,
    inject_noise,
    l_exact,
    minimax_run,
    minimax_step,
    tracking_error_bound,
    trotter_states,
)
from .errors import NumericalDegeneracyError, ResourceLimitError, SolverError

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
