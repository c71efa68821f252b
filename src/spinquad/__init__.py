"""spinquad: spin-3/2 color-center kinetics, ODMR spectra, and spin multipoles."""

__version__ = "0.1.0"

from .hamiltonian import CenterParams, build_hamiltonian, crossover_fields, transition_table
from .kinetics import (
    RateParams,
    SpinState,
    build_generator,
    pl_intensity,
    steady_state,
    steady_state_at,
)
from .multipoles import dipole_x, extract_from_peak_areas, husimi, quadrupole
from .odmr import DriveParams, OdmrResult, mw_response, odmr_map, odmr_spectrum
from .rate_model import (
    large_field_signals,
    small_field_crossover,
    small_field_x,
    solve_population_variations,
    transfer_matrices,
)
from .spin_algebra import SpinOperators, hermitian_eig, make_spin_operators, rotation_operator

__all__ = [
    "CenterParams",
    "DriveParams",
    "OdmrResult",
    "RateParams",
    "SpinOperators",
    "SpinState",
    "build_generator",
    "build_hamiltonian",
    "crossover_fields",
    "dipole_x",
    "extract_from_peak_areas",
    "hermitian_eig",
    "husimi",
    "large_field_signals",
    "make_spin_operators",
    "mw_response",
    "odmr_map",
    "odmr_spectrum",
    "pl_intensity",
    "quadrupole",
    "rotation_operator",
    "small_field_crossover",
    "small_field_x",
    "solve_population_variations",
    "steady_state",
    "steady_state_at",
    "transfer_matrices",
    "transition_table",
]
