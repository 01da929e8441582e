"""Two distant wells, one shared continuum: dark states and their dynamics."""

import importlib

from .model import (
    DegenerateSystemError,
    DerivedParams,
    NoBoundStateError,
    ParallelWellPair,
    WellPair,
    WidthOverflowError,
    derive,
    wide_band_self_energy,
)
from .rotation import (
    NullResultError,
    RotatedBasis,
    bright_state,
    check_constant_ratio,
    dark_state,
    dot_from_rotated,
    dot_to_rotated,
    null_measurement_project,
    rotate,
)
from .dynamics import (
    InfiniteDwellTimeError,
    SingleParticleState,
    Trajectory,
    amplitude_trajectory,
    analytic_sigma_symmetric,
    asymptotic_probs,
    asymptotic_sigma_left_start,
    dwell_time,
    effective_hamiltonian,
    evolve_amplitudes,
    evolve_master,
    fit_decay_rate,
    master_rhs,
    master_trajectory,
    slow_decay_rate,
)
from .fermions import (
    EffectiveSingleParticle,
    FermionAsymptoticState,
    branch_rdm,
    branches_to_json,
    creation_product,
    is_product_state,
    parallel_map,
    three_electron_asymptotic,
    two_electron_asymptotic,
    two_electron_parallel_asymptotic,
)
from .bosons import (
    BosonFockState,
    FockDistribution,
    SurdAmplitude,
    emission_distribution,
    equal_fill_even_distribution,
    flat_approximation,
    gaussian_approximation,
    one_well_distribution,
    retained_state_split,
    rotate_fock,
)

__version__ = "0.1.0"

# The brute-force oracle loads scipy.sparse; its names are imported on first
# use (PEP 562) so the analytic tiers start without it.
_ORACLE_EXPORTS = frozenset((
    "DiscretizedReservoir",
    "FockSpace",
    "OracleRun",
    "ReducedQuantities",
    "build_fock_hamiltonian",
    "build_single_particle_hamiltonian",
    "chebyshev_propagate",
    "convergence_report",
    "default_cutoff",
    "evolve_exact",
    "evolve_fock",
    "fock_basis_state",
    "reduced_quantities",
    "reservoir_couplings",
    "single_particle_trajectory",
    "slater_dot_rdm",
    "slater_reservoir_distribution",
))


def __getattr__(name):
    if name in _ORACLE_EXPORTS:
        return getattr(importlib.import_module(".oracle", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
