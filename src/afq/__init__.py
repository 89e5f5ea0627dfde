"""Design and analysis toolkit for atomic-force nanomechanical qubits.

A silicon cantilever biased near a tip picks up a strong single-phonon
nonlinearity from surface (Lennard-Jones) forces. This package computes
the resulting anharmonic spectrum from surface-force perturbation
theory, cross-checks it with brute-force eigensolvers, models the
electromechanical readout chain, and sweeps the design space.
"""

__version__ = "0.1.0"

from .cantilever import (BiasState, CantileverGeometry, CantileverModal,
                         MaterialParams, bias_state, modal_params,
                         snap_in_threshold)
from .config import RunConfig, load_config, parse_config_text
from .cqad import (CqadConfig, EffectiveReadout, ResponseSpectrum,
                   adiabatic_elimination, bus_coupling, cooling_estimate,
                   dispersive_shift, electromech_coupling, frequency_response,
                   parametric_coupling, response_linewidth)
from .errors import AfqError
from .explorer import (DesignConstraints, SweepResult, SweepSpec,
                       design_point, feasible_designs, optimize_length, sweep)
from .oracle import (GridSpec, OracleResult, fock_eigensolve,
                     fock_matrix_element, grid_eigensolve,
                     jc_dispersive_oracle, total_potential,
                     two_qubit_bus_oracle)
from .potential import (LennardJones, TaylorCoefficients, find_bias_point,
                        taylor_coefficients)
from .spectrum import (QubitSpectrum, perturbative_energies,
                       relative_frequency_shift, thermal_occupancy)

__all__ = [
    "__version__", "AfqError",
    "LennardJones", "TaylorCoefficients", "find_bias_point",
    "taylor_coefficients",
    "MaterialParams", "CantileverGeometry", "CantileverModal", "BiasState",
    "modal_params", "bias_state", "snap_in_threshold",
    "QubitSpectrum", "perturbative_energies", "relative_frequency_shift",
    "thermal_occupancy",
    "GridSpec", "OracleResult", "total_potential", "grid_eigensolve",
    "fock_matrix_element", "fock_eigensolve", "jc_dispersive_oracle",
    "two_qubit_bus_oracle",
    "CqadConfig", "EffectiveReadout", "ResponseSpectrum",
    "electromech_coupling", "parametric_coupling", "adiabatic_elimination",
    "frequency_response", "response_linewidth", "dispersive_shift",
    "bus_coupling", "cooling_estimate",
    "SweepSpec", "SweepResult", "DesignConstraints", "sweep",
    "feasible_designs", "design_point", "optimize_length",
    "RunConfig", "load_config", "parse_config_text",
]
