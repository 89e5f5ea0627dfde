"""Physical constants and display-unit conversions.

Internal computations are strict SI (J, m, kg, rad/s). Display units
(meV, angstrom, nm, MHz, mK, GPa) are converted only at the I/O
boundary; the multipliers below define those conversions in one place.

The constants are the exact SI-2019 defining values: the elementary
charge e, the Boltzmann constant k_B and the Planck constant h, with
hbar = h / 2 pi. They equal ``scipy.constants.e``, ``k`` and ``hbar``
bit for bit, without importing scipy.
"""

TWO_PI = 6.283185307179586

_e_charge = 1.602176634e-19     # C, exact
k_B = 1.380649e-23              # J/K, exact
hbar = 6.62607015e-34 / TWO_PI  # J s, h exact

# multipliers: value_in_display_unit * UNIT == value in SI
MEV = 1e-3 * _e_charge      # meV -> J
ANGSTROM = 1e-10            # angstrom -> m
NM = 1e-9                   # nm -> m
PM = 1e-12                  # pm -> m
FM = 1e-15                  # fm -> m
GPA = 1e9                   # GPa -> Pa
MK = 1e-3                   # mK -> K

# frequencies: display units are ordinary (Hz-like), internal are angular
MHZ = TWO_PI * 1e6          # MHz -> rad/s
GHZ = TWO_PI * 1e9


def cycles(omega):
    """Angular frequency in rad/s to ordinary frequency in Hz."""
    return omega / TWO_PI
