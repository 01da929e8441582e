"""Two distant wells, one shared continuum: dark states and their dynamics."""

import importlib

from .model import (
    DegenerateSystemError,
    NoBoundStateError,
    ParallelWellPair,
    WellPair,
    WidthOverflowError,
)
from .rotation import dark_state
from .dynamics import (
    InfiniteDwellTimeError,
    PropagatorOverflowError,
    Trajectory,
    asymptotic_probs,
    dwell_time,
    effective_hamiltonian,
    evolve_master,
    fit_decay_rate,
    master_trajectory,
)
from .fermions import (
    FermionAsymptoticState,
    branches_to_json,
    creation_product,
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
    one_well_distribution,
    retained_state_split,
    rotate_fock,
)

__version__ = "0.1.0"

# The brute-force oracle loads scipy.sparse; its names (every name of its
# __all__) are imported on first use (PEP 562) so the analytic tiers start
# without it.
_ORACLE_EXPORTS = frozenset((
    "DiscretizedReservoir",
    "FockSpace",
    "OracleRequestError",
    "OracleRun",
    "Projection",
    "ReducedQuantities",
    "build_fock_hamiltonian",
    "build_single_particle_hamiltonian",
    "chebyshev_propagate",
    "convergence_report",
    "default_cutoff",
    "dot_mode_count",
    "evolve_exact",
    "evolve_fock",
    "fock_basis_state",
    "fock_spectral_bounds",
    "reduced_quantities",
    "reservoir_couplings",
    "single_particle_bounds",
    "single_particle_method",
    "single_particle_trajectory",
    "slater_dot_rdm",
    "slater_reservoir_distribution",
))


def __getattr__(name):
    if name in _ORACLE_EXPORTS:
        return getattr(importlib.import_module(".oracle", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
