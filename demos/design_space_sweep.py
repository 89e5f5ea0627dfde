"""Map the (gap, length) design space and pick operating points.

Scans relative anharmonicity, qubit frequency and thermal occupancy on
the bundled design's 100 x 100 ``sweep.*`` grid, saves the table (through
``afq sweep``) and a heat map, then applies the occupancy constraints
that define the three design families: the headline 495 nm beam, the
sub-unity-occupancy 345 nm beam, and the fabrication-friendly (18, 24) nm
cross-section at 457 nm.

Run:  python demos/design_space_sweep.py
"""

import numpy as np

from afq import (DesignConstraints, design_point, feasible_designs,
                 optimize_length, sweep)
from afq import cli
from afq.config import default_config
from afq.units import NM, cycles

# the bundled design's material, potential, temperature and sweep grid
spec = default_config().sweep_spec()
silicon, lj, temp = spec.material, spec.potential, spec.temperature
result = sweep(spec)
flagged = int(np.count_nonzero(result.flag))
print(f"swept {len(result)} design points; {flagged} flagged "
      "(snap-in past the stability edge)")

cli.main(["sweep", "--out", "sweep_map.csv", "--quiet"])
print("wrote sweep_map.csv")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    eta_map = result.eta_r.reshape(len(spec.lengths), -1)
    fig, ax = plt.subplots(figsize=(6, 4.2))
    gaps = np.asarray(spec.gaps_over_sigma)
    lengths = np.asarray(spec.lengths) / NM
    mesh = ax.pcolormesh(gaps, lengths, np.log10(np.abs(eta_map) + 1e-12),
                         shading="nearest", cmap="viridis")
    ax.axvline(lj.inflection / lj.sigma, color="w", ls="--", lw=0.8)
    ax.set_xlabel("gap x / sigma")
    ax.set_ylabel("length L (nm)")
    ax.set_title("log10 |relative anharmonicity|")
    fig.colorbar(mesh, ax=ax)
    fig.tight_layout()
    fig.savefig("sweep_map.png", dpi=160)
    print("wrote sweep_map.png")
except ImportError:
    print("matplotlib not available; skipped the heat map")

print("\n== occupancy-constrained design families (x = x0, 8 mK) ==")
for label, (w, t, n_max) in {
        "headline (n_th <= 2.3)": (10 * NM, 12 * NM, 2.3),
        "sub-unity occupancy    ": (10 * NM, 12 * NM, 1.0),
        "fabrication friendly   ": (18 * NM, 24 * NM, 1.0)}.items():
    length, row = optimize_length(w, t, silicon, lj, temp,
                                  DesignConstraints(max_occupancy=n_max))
    print(f"{label}: L* = {length / NM:.0f} nm, "
          f"f_10 = {cycles(row['omega_10_rad_s']) / 1e6:6.1f} MHz, "
          f"eta_r = {row['eta_r'] * 100:6.3f} %, "
          f"n_th = {row['n_thermal']:.3f}")

print("\n== top feasible rows of the sweep (n_th <= 1.5) ==")
feas = feasible_designs(result, DesignConstraints(max_occupancy=1.5))
for i in range(min(5, len(feas))):
    print(f"L = {feas.length[i] / NM:5.1f} nm, x = "
          f"{feas.gap[i] / lj.sigma:.3f} sigma, eta_r = "
          f"{feas.eta_r[i] * 100:.3f} %, n_th = {feas.n_thermal[i]:.3f}")
print("(rows hugging the snap-in edge carry formula anharmonicities far")
print(" beyond the perturbative model's validity; screen with delta_omega)")

# the trade-off the length choice pins down
print("\n== anharmonicity vs occupancy along L at x = x0 ==")
for length in (300, 400, 495, 600, 700):
    row = design_point(length * NM, 10 * NM, 12 * NM, silicon, lj, temp)
    print(f"L = {length} nm: eta_r = {row['eta_r'] * 100:5.2f} %, "
          f"n_th = {row['n_thermal']:.2f}")
