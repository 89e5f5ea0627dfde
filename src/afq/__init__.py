"""Design and analysis toolkit for atomic-force nanomechanical qubits.

A silicon cantilever biased near a tip picks up a strong single-phonon
nonlinearity from surface (Lennard-Jones) forces. This package computes
the resulting anharmonic spectrum from surface-force perturbation
theory, cross-checks it with brute-force eigensolvers, models the
electromechanical readout chain, and sweeps the design space.
"""

__version__ = "0.1.0"


def _keep_freed_memory():
    """Have glibc keep freed memory in the process, so that a sweep's
    columns reuse pages already mapped instead of page-faulting fresh ones.

    By default glibc serves a block above 128 KiB by ``mmap`` and returns
    freed memory at the top of the heap to the OS, so each sweep faults
    its new columns in again. The mmap threshold is raised to 32 MiB,
    glibc's 64-bit maximum, so that every column up to 4 M float64 comes
    from the heap, and the trim threshold to 1 GiB, so that freed heap is
    kept (mallopt(3), ``M_MMAP_THRESHOLD`` = -3, ``M_TRIM_THRESHOLD`` = -1).
    The process's RSS then stays at its high-water mark. Nothing is set
    where the C library has no ``mallopt``, or where the environment
    already sets glibc's malloc policy (``GLIBC_TUNABLES`` or a
    ``MALLOC_*`` variable). Outputs do not depend on it.
    """
    import ctypes     # numpy imports ctypes anyway
    import os
    if any(key == "GLIBC_TUNABLES" or key.startswith("MALLOC_")
           for key in os.environ):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 32 << 20)
    mallopt(-1, 1 << 30)


_keep_freed_memory()

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
