"""Walk through the headline silicon design, end to end.

Reproduces the design card of the 495 x 10 x 12 nm silicon cantilever
biased at the curvature-free gap of the silicon-silicon Lennard-Jones
potential: modal constants, bias-point diagnostics, the anharmonic
spectrum, and thermal occupancy at 8 mK.

Run:  python demos/headline_design.py
"""

import math

import numpy as np

from afq import relative_frequency_shift, snap_in_threshold, thermal_occupancy
from afq.config import default_config
from afq.units import MEV, ANGSTROM, NM, PM, cycles, hbar

design = default_config()          # the bundled paper.cfg
# potential, lateral mode, bias gap, biased state and first-order spectrum
lj, modal, x0, state, spectrum = design.design()

print("== Surface potential ==")
print(f"well depth        : {lj.epsilon / MEV:.1f} meV")
print(f"offset distance   : {lj.sigma / ANGSTROM:.3f} A")
print(f"bias point x0     : {x0 / ANGSTROM:.4f} A  ({x0 / lj.sigma:.5f} sigma)")
print(f"V(x0)             : {lj.value(x0) / MEV:.2f} meV")
print(f"V''''(x0)         : {lj.derivative(x0, 4):.3e} J/m^4")

print("\n== Cantilever lateral mode ==")
print(f"spring constant k : {modal.spring_constant * 1e3:.3f} mN/m")
print(f"effective mass    : {modal.effective_mass * 1e18:.2f} ag")
print(f"f_c = w_c / 2pi   : {cycles(modal.omega_c) / 1e6:.2f} MHz")

print("\n== Biased operating state ==")
print(f"static deflection : {state.equilibrium_offset / NM:.2f} nm")
print(f"k_eff             : {state.effective_stiffness * 1e3:.3f} mN/m "
      "(= k, curvature-free)")
print(f"x_zpf             : {state.x_zpf / PM:.3f} pm")
x_snap = snap_in_threshold(modal, lj, (1.15 * lj.sigma, 2.0 * lj.sigma))
print(f"snap-in boundary  : {x_snap / ANGSTROM:.4f} A "
      f"({(x_snap - x0) / PM:.2f} pm past the bias point -- note this is "
      "inside the zero-point spread)")

print("\n== Anharmonic spectrum (quartic + sextic perturbation theory) ==")
print(f"f_10              : {cycles(spectrum.omega_10) / 1e6:.3f} MHz")
print(f"f_21              : {cycles(spectrum.omega_21) / 1e6:.3f} MHz")
print(f"anharmonicity     : {cycles(spectrum.eta) / 1e6:.3f} MHz")
print(f"relative          : {spectrum.eta_r * 100:.2f} %")
pull = relative_frequency_shift(spectrum.omega_10, modal.omega_c)
print(f"frequency pull    : {pull:.4f}")
# the paper's closed form, from q4 = lam4 xz^4 and q6 = lam6 xz^6, with
# the Taylor coefficients lam_n = V^(n)(x0) / n!
q4 = lj.derivative(x0, 4) / math.factorial(4) * state.x_zpf**4
q6 = lj.derivative(x0, 6) / math.factorial(6) * state.x_zpf**6
r0 = hbar * state.omega_eff / (12.0 * q4)
r1 = 7.5 * q6 / q4
eta_r = (1.0 + 2.0 * r1) / (1.0 + r1 + r0)
print(f"closed form       : eta_r = (1 + 2 r1)/(1 + r1 + r0) = {eta_r:.4f} "
      f"with r0 = {r0:.2f}, r1 = {r1:.2e}")

spacings = np.diff(spectrum.energies) / hbar
print("level spacings    : "
      + "  ".join(f"{cycles(d) / 1e6:.2f}" for d in spacings)
      + "  MHz (spacing grows with n: hardening ladder)")

print("\n== Thermal occupancy ==")
for t_mk in (8.0, 20.0, 50.0):
    n = thermal_occupancy(spectrum.omega_10, t_mk * 1e-3)
    print(f"n_th({t_mk:4.0f} mK)     : {n:.2f}")
