"""What brute-force diagonalization says about the headline bias point.

The perturbative ladder keeps only even Taylor orders of the surface
potential (odd orders vanish in first-order perturbation theory). This
script shows, quantitatively, why that step is not innocent at the
headline design:

1. the exact effective potential V_q(dx) = k(x_c+dx)^2/2 + V(x-dx) has
   a cubic coefficient lam3 x_zpf^3 ~ -0.32 hbar w_eff, so the bias
   point is only metastable: a ~0.02 hbar w_eff barrier at ~0.5 x_zpf
   separates the well from a runaway toward larger gaps;
2. the grid eigensolver on the full potential therefore returns
   wall-dominated states, nothing like the perturbative ladder;
3. even restricted to its even Taylor orders (the potential the
   perturbative treatment describes), exact diagonalization differs from
   the first-order ladder: f_10 by about 1.3 %, eta by about 26 %
   (3.97 against 5.37 MHz). The quoted anharmonicity is a first-order
   figure, not a converged one.

Run:  python demos/exact_vs_perturbative.py
"""

import math

import numpy as np

from afq import GridSpec, fock_eigensolve, grid_eigensolve, total_potential
from afq.config import default_config
from afq.units import PM, cycles, hbar

design = default_config()          # the bundled paper.cfg
# biased at the curvature-free gap x0, with the first-order spectrum there
lj, modal, x0, state, spectrum = design.design()
hw = hbar * state.omega_eff


def lam(n):
    """Taylor coefficient lam_n = V^(n)(x0) / n! of the surface potential."""
    return lj.derivative(x0, n) / math.factorial(n)


print("== Taylor anatomy at the bias point (units of hbar w_eff) ==")
for n in range(3, 7):
    term = lam(n) * state.x_zpf**n / hw
    print(f"lam_{n} x_zpf^{n}: {term:+.3e}")
print("(the cubic dominates; only even orders enter the perturbative ladder)")

print("\n== exact effective potential along the oscillation coordinate ==")
v_q = total_potential(modal, lj, x0)
v0 = v_q(0.0)
for dx_pm in (-33, -20, -10, -5, -2, -1.13, -0.5, 0.5, 1, 2, 5):
    value = (v_q(dx_pm * PM) - v0) / hw
    print(f"V_q({dx_pm:+7.2f} pm) - V_q(0) = {value:+10.3f} hbar w_eff")
dxs = np.linspace(-2.5 * PM, -0.2 * PM, 2001)
barrier = (v_q(dxs) - v0).max() / hw
print(f"escape barrier: {barrier:.3f} hbar w_eff at "
      f"{dxs[np.argmax(v_q(dxs) - v0)] / PM:.2f} pm "
      f"(x_zpf = {state.x_zpf / PM:.2f} pm)")

print("\n== grid eigensolver on the full potential ==")
res = grid_eigensolve(v_q, modal.effective_mass, GridSpec(), 3,
                      x_zpf=state.x_zpf, gap=x0, check_convergence=False)
print(f"f_10: {cycles(res.omega_10) / 1e6:10.2f} MHz   "
      f"(perturbative {cycles(spectrum.omega_10) / 1e6:.2f} MHz)")
print(f"eta : {cycles(res.eta) / 1e6:10.2f} MHz   "
      f"(perturbative {cycles(spectrum.eta) / 1e6:.2f} MHz)")
print("the low eigenstates live against the escaping side of the box, so")
print("the exact ladder bears no relation to the perturbative one")

print("\n== even-order truncation (the potential perturbation theory expands) ==")
even_poly = {2: 0.5 * state.effective_stiffness,
             4: lam(4), 6: lam(6)}
ev_even = fock_eigensolve(modal.effective_mass, state.omega_eff, even_poly,
                          dim=120, n_levels=3)
f10_even = cycles((ev_even[1] - ev_even[0]) / hbar) / 1e6
eta_even = cycles((ev_even[2] - 2 * ev_even[1] + ev_even[0]) / hbar) / 1e6
print(f"f_10: {f10_even:10.3f} MHz   "
      f"(perturbative {cycles(spectrum.omega_10) / 1e6:.3f} MHz, "
      f"{abs(f10_even / (cycles(spectrum.omega_10) / 1e6) - 1) * 100:.2f}% apart)")
print(f"eta : {eta_even:10.3f} MHz   "
      f"(perturbative {cycles(spectrum.eta) / 1e6:.3f} MHz, "
      f"{abs(eta_even / (cycles(spectrum.eta) / 1e6) - 1) * 100:.2f}% apart)")
print("\nfirst order is close for f_10 but not for eta, even before the")
print("odd-order escape channel, which it leaves out, is counted")
