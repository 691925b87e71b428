"""Phase-space simulator for a two-level atom coupled dispersively to a field mode.

Quantum (sphere) and classical (plane) subsystems are both represented by
Wigner-type distributions; the coupled dynamics is a flow on the product
phase space, so marginals, moments and quasi-probability densities follow
from deterministic quadrature.
"""

__version__ = "0.1.0"

from .quadrature import (
    BlochPoint,
    ConvergenceError,
    DEFAULT_SPEC,
    IntegrationResult,
    IntegrationSpec,
    integrate_interval,
    integrate_plane,
    integrate_sphere,
)
from .su2_wigner import (
    SphereFunction,
    SpinHalfState,
    clebsch_gordan,
    spherical_harmonic,
    spin_half_kernel,
    spin_wigner,
    su2_kernel,
    su2_traciality,
    wigner_to_spin,
)
from .cartesian_wigner import (
    MarginalDistribution,
    NonclassicalReport,
    NonquantumReport,
    PhaseSpaceFunction,
    fock_diag_element,
    fock_wigner,
    gaussian_wigner,
    nonclassical_check,
    nonquantum_check,
    overlap_trace,
    plane_grid,
    quadrature_marginal,
)
from .hybrid_model import (
    AnalyticPathRequiredError,
    DeltaAmplitude,
    FieldState,
    GaussianAmplitude,
    HybridState,
    ObservableSymbol,
    PhaseDistribution,
    SIGMA_MINUS_SCALE,
    atom_marginal,
    atomic_pfunction,
    closed_moments,
    expectation_quadrature,
    field_marginal,
    flow_map,
    joint_wigner,
    moment_correlation,
    phase_distribution_delta,
    phase_distribution_gaussian,
    phase_moments,
    quadrature_distribution,
    semiclassical_moments,
    semiclassical_standard,
)
from .quantum_reference import (
    AtomFieldVector,
    TruncationError,
    coherent_overlap,
    default_truncation,
    evolve_quantum,
    quantum_moments,
)
from .oscillator_hybrid import (
    CouplingParams,
    OscillatorPair,
    alpha_marginal,
    beta_marginal,
    evolve_pair_wigner,
    flow_matrix,
    nonclassical_transfer_check,
    nonquantum_transfer_check,
    pair_flow,
)
