"""Design-space sweep, feasibility filtering, length optimization."""

import os
import resource
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from afq import (CantileverGeometry, DesignConstraints, LennardJones,
                 MaterialParams, SweepSpec, bias_state, design_point,
                 feasible_designs, modal_params, optimize_length,
                 perturbative_energies, sweep, taylor_coefficients)
from afq.errors import DomainError, SnapInError
from afq import explorer
from afq.explorer import (CONTACT_GUARD, FLAG_BREAKDOWN, FLAG_OK, FLAG_SNAP_IN,
                          SWEEP_COLUMNS, _figures)
from afq.units import MEV, ANGSTROM, cycles, hbar

SILICON = MaterialParams(young_modulus=160e9, density=2329.0)
LJ = LennardJones(epsilon=17.4 * MEV, sigma=3.826 * ANGSTROM)


def make_spec(n_l=20, n_x=20, temperature=8e-3):
    return SweepSpec(lengths=tuple(np.linspace(200e-9, 800e-9, n_l)),
                     gaps_over_sigma=tuple(np.linspace(1.15, 2.0, n_x)),
                     width=10e-9, thickness=12e-9, material=SILICON,
                     potential=LJ, temperature=temperature)


def test_row_count_and_order():
    result = sweep(make_spec(12, 9))
    assert len(result) == 108
    # lexicographic (L, x): lengths outer, gaps inner
    assert np.all(np.diff(result.length) >= 0)
    for i in range(12):
        block = result.gap[i * 9:(i + 1) * 9]
        assert np.all(np.diff(block) > 0)


def test_flagged_rows_kept_not_dropped():
    result = sweep(make_spec(25, 40))
    snap = result.flag == FLAG_SNAP_IN
    assert snap.any()  # soft long beams go unstable past x0
    assert len(result) == 1000
    assert np.all(np.isnan(result.eta_r[snap]))
    assert np.all(result.k_eff[snap] <= 0)
    ok = result.flag == FLAG_OK
    assert np.all(np.isfinite(result.eta_r[ok]))
    assert np.all(result.k_eff[ok] > 0)


def test_breakdown_rows_flagged_not_raised():
    # default ranges at 200 x 200: four stable rows next to snap-in have a
    # first-order omega_10 <= 0
    result = sweep(make_spec(200, 200))
    broken = result.flag == FLAG_BREAKDOWN
    assert np.count_nonzero(broken) == 4
    for name in ("omega_10", "eta", "eta_r", "delta_omega", "n_thermal"):
        assert np.all(np.isnan(getattr(result, name)[broken])), name
    assert np.all(np.isfinite(result.x_zpf[broken]))
    assert np.all(result.k_eff[broken] > 0)


@settings(max_examples=50, deadline=None)
@given(l_min=st.floats(50.0, 1000.0), l_span=st.floats(1.0, 1000.0),
       n_l=st.integers(1, 200),
       x_min=st.floats(CONTACT_GUARD, 2.5, exclude_min=True),
       x_span=st.floats(1e-3, 1.5), n_x=st.integers(1, 200))
@example(l_min=200.0, l_span=600.0, n_l=200, x_min=1.15, x_span=0.85,
         n_x=200)
def test_sweep_never_raises_and_ok_rows_are_finite(l_min, l_span, n_l, x_min,
                                                   x_span, n_x):
    spec = SweepSpec(
        lengths=tuple(np.linspace(l_min, l_min + l_span, n_l) * 1e-9),
        gaps_over_sigma=tuple(np.linspace(x_min, x_min + x_span, n_x)),
        width=10e-9, thickness=12e-9, material=SILICON, potential=LJ,
        temperature=8e-3)
    result = sweep(spec)
    assert len(result) == n_l * n_x
    ok = result.flag == FLAG_OK
    assert set(np.unique(result.flag)) <= {FLAG_OK, FLAG_SNAP_IN,
                                           FLAG_BREAKDOWN}
    assert np.all(np.isfinite(result.omega_10[ok]) & (result.omega_10[ok] > 0))
    assert np.all(np.isfinite(result.n_thermal[ok]))


def test_sweep_matches_design_point():
    # the middle gap column is x0 / sigma, so its sigma multiple is the
    # bias gap design_point evaluates, to the bit
    spec = SweepSpec(lengths=tuple(np.linspace(200e-9, 800e-9, 5)),
                     gaps_over_sigma=(1.2, (26 / 7) ** (1 / 6), 1.5),
                     width=10e-9, thickness=12e-9, material=SILICON,
                     potential=LJ, temperature=8e-3)
    result = sweep(spec)
    i = 7  # L index 2, x index 1
    L = spec.lengths[2]
    row = design_point(L, spec.width, spec.thickness, SILICON, LJ,
                       spec.temperature)
    assert result.length[i] == L and result.gap[i] == LJ.inflection
    assert row["gap_m"] == LJ.inflection
    assert row["eta_r"] == pytest.approx(result.eta_r[i], rel=1e-14)
    assert row["n_thermal"] == pytest.approx(result.n_thermal[i], rel=1e-14)

    # the sweep kernel and the scalar chain share their arithmetic: every
    # stable row agrees to the bit, every snap-in row raises SnapInError
    ls = np.linspace(200e-9, 800e-9, 7)
    xs = np.linspace(1.15, 2.0, 20) * LJ.sigma
    figures = _figures(ls, xs, 10e-9, 12e-9, SILICON, LJ, 8e-3)
    omega_10, eta, flag = figures["omega_10"], figures["eta"], figures["flag"]
    x_zpf, k_eff = figures["x_zpf"], figures["k_eff"]
    assert set(flag) == {FLAG_OK, FLAG_SNAP_IN}
    i = np.arange(ls.size * xs.size)
    np.testing.assert_array_equal(figures["length"], ls[i // xs.size])
    np.testing.assert_array_equal(figures["gap"], xs[i % xs.size])
    scalar = []
    for L, x, f in zip(figures["length"], figures["gap"], flag):
        modal = modal_params(CantileverGeometry(L, 10e-9, 12e-9), SILICON)
        if f != FLAG_OK:
            with pytest.raises(SnapInError):
                bias_state(modal, LJ, x)
            continue
        state = bias_state(modal, LJ, x)
        ladder = perturbative_energies(state, taylor_coefficients(LJ, x))
        scalar.append((ladder.omega_10, ladder.eta, state.x_zpf,
                       state.effective_stiffness))
    ok = flag == FLAG_OK
    np.testing.assert_array_equal(
        np.array(scalar).T, [omega_10[ok], eta[ok], x_zpf[ok], k_eff[ok]])


def test_sweep_evaluates_each_stage_on_its_axis(monkeypatch):
    # beam constants depend on L only and V'', lambda_4, lambda_6 on x
    # only: a 40 x 25 sweep takes them on 40 lengths and 25 gaps, never
    # on the 1000 grid points
    derivative_sizes, modal_sizes = [], []

    class RecordingLJ(LennardJones):
        def derivative(self, x, n):
            derivative_sizes.append(np.size(x))
            return super().derivative(x, n)

    modal_constants = explorer._modal_constants

    def recording_modal_constants(length, *args):
        modal_sizes.append(np.size(length))
        return modal_constants(length, *args)

    monkeypatch.setattr(explorer, "_modal_constants", recording_modal_constants)
    result = sweep(replace(make_spec(40, 25),
                           potential=RecordingLJ(LJ.epsilon, LJ.sigma)))
    assert len(result) == 1000
    assert derivative_sizes and set(derivative_sizes) == {25}
    assert modal_sizes == [40]


def _box_spec(l_nm, x_over_sigma, temperature=8e-3):
    """A 20 x 20 sweep over the (L, x) box ``l_nm`` x ``x_over_sigma``."""
    return replace(make_spec(temperature=temperature),
                   lengths=tuple(np.linspace(*l_nm, 20) * 1e-9),
                   gaps_over_sigma=tuple(np.linspace(*x_over_sigma, 20)))


def _whole_grid_ladder(spec):
    """omega_10, eta and n_thermal with the ladder and the occupancy run on
    every grid point, snap-in NaN lanes included, then masked to NaN."""
    length = np.asarray(spec.lengths)[:, None]
    gap = np.asarray(spec.gaps_over_sigma)[None, :] * LJ.sigma
    k, _, m_eff = explorer._modal_constants(length, spec.width,
                                            spec.thickness, SILICON)
    k_eff = k + LJ.derivative(gap, 2)
    stable = ~(k_eff <= 0)
    omega_eff = np.sqrt(np.where(stable, k_eff, np.nan) / m_eff)
    x_zpf = np.sqrt(hbar / (2.0 * m_eff * omega_eff))
    _, omega_10, eta = explorer._first_order_ladder(
        omega_eff, x_zpf, explorer._taylor_term(LJ, gap, 4),
        explorer._taylor_term(LJ, gap, 6))
    valid = stable & ~(omega_10 <= 0)
    omega_10, eta = np.where(valid, [omega_10, eta], np.nan)
    n_th = np.where(valid, explorer.thermal_occupancy(omega_10,
                                                      spec.temperature),
                    np.nan)
    return {"omega_10": omega_10.ravel(), "eta": eta.ravel(),
            "n_thermal": n_th.ravel()}


def test_operating_state_returns_stable_elements_only():
    # the 200 x 200 default box mixes snap-in and stable rows; omega_eff and
    # x_zpf come back for the stable elements alone, at their flat C-order
    # index, and as the whole grid gives them there
    spec = make_spec(200, 200)
    length = np.asarray(spec.lengths)[:, None]
    gap = np.asarray(spec.gaps_over_sigma)[None, :] * LJ.sigma
    k, _, m_eff = explorer._modal_constants(length, spec.width,
                                            spec.thickness, SILICON)
    _, k_eff, idx, omega_eff, x_zpf = explorer._operating_state(
        k, m_eff, LJ, gap)
    assert k_eff.shape == (200, 200)
    assert 0 < idx.size < k_eff.size
    np.testing.assert_array_equal(idx, np.flatnonzero(k_eff > 0))
    assert omega_eff.shape == x_zpf.shape == idx.shape
    assert np.all(np.isfinite(omega_eff)) and np.all(np.isfinite(x_zpf))
    with np.errstate(invalid="ignore"):
        whole = np.sqrt(k_eff / m_eff).ravel()
    np.testing.assert_array_equal(omega_eff, whole[idx])


@pytest.mark.parametrize("box", [
    ((200, 800), (1.15, 1.24)),     # every row stable
    ((200, 800), (1.15, 2.0)),      # 83 % snap-in
    ((200, 800), (1.15, 1.35)),     # 51 % snap-in
])
def test_sweep_transient_memory_is_at_most_one_grid_array(box):
    # every full-grid array of the kernel is an output column plus at most
    # one transient: peak allocation past the result, in grid float64 arrays
    # (a kernel that keeps a whole-grid omega_eff or x_zpf exceeds it)
    l_nm, x_over_sigma = box
    spec = replace(make_spec(), lengths=tuple(np.linspace(*l_nm, 300) * 1e-9),
                   gaps_over_sigma=tuple(np.linspace(*x_over_sigma, 300)))
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = sweep(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for a in result.arrays.values())
    assert (peak - before - kept) / (len(result) * 8) <= 1.0


def minor_faults_per_sweep(spec, warm=3, runs=5):
    """Mean minor page faults of ``runs`` sweeps of ``spec`` after ``warm``
    sweeps, each sweep dropping the result before it."""
    for _ in range(warm):
        result = None
        result = sweep(spec)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(runs):
        result = None
        result = sweep(spec)
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / runs


def _glibc():
    try:
        return os.confstr("CS_GNU_LIBC_VERSION") is not None
    except (AttributeError, ValueError, OSError):
        return False


# afq tunes glibc's allocator at import, unless the environment already does
glibc_malloc_tuned = pytest.mark.skipif(
    not _glibc() or any(key == "GLIBC_TUNABLES" or key.startswith("MALLOC_")
                        for key in os.environ),
    reason="afq tunes glibc's malloc only where the environment does not")


@glibc_malloc_tuned
def test_repeated_sweeps_reuse_freed_memory():
    # a 178 x 178 sweep's columns are 253 KB each; with glibc's default
    # policy their memory goes back to the OS and every sweep faults it in
    # again (about 400 times)
    assert minor_faults_per_sweep(make_spec(178, 178)) <= 5


@glibc_malloc_tuned
def test_malloc_policy_of_the_environment_is_left_alone():
    # the same loop with the user's own trim threshold faults as glibc's
    # default does, so afq did not override it
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from test_explorer import make_spec, minor_faults_per_sweep\n"
            "print(minor_faults_per_sweep(make_spec(178, 178)))\n")
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(tests.parent / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, str(tests)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path,
                               "MALLOC_TRIM_THRESHOLD_": "131072"})
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) > 100


def test_ladder_and_occupancy_see_only_stable_rows(monkeypatch):
    # the 200 x 200 default box mixes all three flags; the ladder runs on
    # the stable rows (FLAG_OK or FLAG_BREAKDOWN), the occupancy on the
    # FLAG_OK rows, and both give what they give on the whole grid
    ladder_sizes, occupancy_sizes = [], []
    ladder, occupancy = explorer._first_order_ladder, explorer.thermal_occupancy

    def recording_ladder(*args):
        ladder_sizes.append([np.size(a) for a in args])
        return ladder(*args)

    def recording_occupancy(omega, temperature):
        occupancy_sizes.append(np.size(omega))
        return occupancy(omega, temperature)

    monkeypatch.setattr(explorer, "_first_order_ladder", recording_ladder)
    monkeypatch.setattr(explorer, "thermal_occupancy", recording_occupancy)
    spec = make_spec(200, 200)
    result = sweep(spec)
    counts = {f: np.count_nonzero(result.flag == f)
              for f in (FLAG_OK, FLAG_SNAP_IN, FLAG_BREAKDOWN)}
    assert counts == {FLAG_OK: 6888, FLAG_SNAP_IN: 33108, FLAG_BREAKDOWN: 4}
    assert ladder_sizes == [[6888 + 4] * 4]
    assert occupancy_sizes == [6888]
    monkeypatch.undo()
    for name, column in _whole_grid_ladder(spec).items():
        np.testing.assert_array_equal(getattr(result, name), column, name)


@pytest.mark.parametrize("temperature", [8e-3, 0.0, 0.3])
def test_box_without_snap_in_matches_whole_grid(temperature):
    # gaps below x0 = 1.2445 sigma stiffen the beam: no row snaps in
    spec = _box_spec((200, 800), (1.15, 1.24), temperature)
    result = sweep(spec)
    assert np.all(result.flag == FLAG_OK)
    for column in result.columns():
        assert np.all(np.isfinite(column))
    for name, column in _whole_grid_ladder(spec).items():
        np.testing.assert_array_equal(getattr(result, name), column, name)


def test_all_snap_in_box_has_nan_ladder_columns():
    # soft long beams past x0: every row snaps in, and an empty ladder
    # raises nothing and warns nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = sweep(_box_spec((600, 800), (1.6, 2.0)))
    assert np.all(result.flag == FLAG_SNAP_IN)
    for name in ("omega_10", "eta_r", "eta", "delta_omega", "n_thermal",
                 "x_zpf"):
        assert np.all(np.isnan(getattr(result, name))), name
    assert np.all(np.isfinite(result.k_eff) & (result.k_eff <= 0))


def test_design_point_and_optimize_length_pinned_to_the_bit():
    # every figure to the bit: running the ladder on the stable rows alone
    # must move no value
    assert design_point(495e-9, 10e-9, 12e-9, SILICON, LJ, 8e-3) == {
        "length_m": 4.95e-07, "gap_m": 4.761285060554025e-10,
        "gap_over_sigma": 1.244455060259808,
        "omega_c_rad_s": 343345129.7568749,
        "omega_10_rad_s": 377000397.80091596, "eta_r": 0.08943144665581262,
        "eta_rad_s": 33715690.965152755, "delta_omega": 0.09802168467591943,
        "n_thermal": 2.3080789335364558, "x_zpf_m": 2.138827247496344e-12,
        "k_eff_n_m": 0.003957542984173094}
    assert optimize_length(10e-9, 12e-9, SILICON, LJ, 8e-3,
                           DesignConstraints(max_occupancy=2.3)) == (
        4.94e-07, {
            "length_m": 4.94e-07, "gap_m": 4.761285060554025e-10,
            "gap_over_sigma": 1.244455060259808,
            "omega_c_rad_s": 344736597.9555406,
            "omega_10_rad_s": 378255900.89921343,
            "eta_r": 0.08877418785730636, "eta_rad_s": 33579360.40456143,
            "delta_omega": 0.09723163465225038,
            "n_thermal": 2.2989569829498078,
            "x_zpf_m": 2.1366657237026225e-12,
            "k_eff_n_m": 0.00398162532998567})


def test_headline_row():
    row = design_point(495e-9, 10e-9, 12e-9, SILICON, LJ, 8e-3)
    assert row["eta_r"] == pytest.approx(0.089, abs=0.003)
    assert cycles(row["omega_10_rad_s"]) / 1e6 == pytest.approx(60.0, abs=1.0)
    assert row["n_thermal"] == pytest.approx(2.3, abs=0.05)


def test_monotone_tradeoff_at_bias_point():
    lengths = np.linspace(200e-9, 800e-9, 31)
    rows = [design_point(L, 10e-9, 12e-9, SILICON, LJ, 8e-3) for L in lengths]
    eta = np.array([r["eta_r"] for r in rows])
    occ = np.array([r["n_thermal"] for r in rows])
    assert np.all(np.diff(eta) > 0)
    assert np.all(np.diff(occ) > 0)


def test_sweep_deterministic():
    a, b = sweep(make_spec(15, 15)), sweep(make_spec(15, 15))
    for col_a, col_b in zip(a.columns(), b.columns()):
        np.testing.assert_array_equal(col_a, col_b)


def test_feasible_designs_sorted_and_commutes():
    result = sweep(make_spec(20, 20))
    constraints = DesignConstraints(max_occupancy=1.5)
    feas = feasible_designs(result, constraints)
    assert len(feas) > 0
    assert np.all(np.diff(feas.eta_r) <= 0)  # descending
    # filtering commutes with pointwise evaluation (the fixed eta_r >= 0
    # rule drops softening rows past ~1.49 sigma, where the quartic
    # potential derivative turns negative)
    with np.errstate(invalid="ignore"):
        mask = ((result.flag == FLAG_OK)
                & (result.n_thermal <= constraints.max_occupancy)
                & (result.eta_r >= 0.0))
    assert len(feas) == int(mask.sum())
    assert set(zip(feas.length, feas.gap)) == set(
        zip(result.length[mask], result.gap[mask]))


def test_feasible_designs_carries_every_column():
    result = sweep(make_spec(20, 20))
    feas = feasible_designs(result, DesignConstraints(max_occupancy=1.5))
    assert len(feas) > 0
    # feasible rows are OK rows and (L, x) is unique: map each one back
    rows = {(L, x): i for i, (L, x) in enumerate(zip(result.length,
                                                    result.gap))}
    picked = [rows[L, x] for L, x in zip(feas.length, feas.gap)]
    assert len(feas.columns()) == len(result.columns()) == len(SWEEP_COLUMNS)
    for name, col, full in zip(SWEEP_COLUMNS, feas.columns(),
                               result.columns()):
        assert col.dtype == full.dtype, name
        np.testing.assert_array_equal(col, full[picked], err_msg=name)


@pytest.mark.parametrize("n_l, n_x", [(7, 5), (1, 9), (9, 1)])
def test_axis_columns_expand_to_the_columns(n_l, n_x):
    result = sweep(make_spec(n_l, n_x))
    rows = np.arange(len(result))
    for name, col, full in zip(SWEEP_COLUMNS, result.axis_columns(),
                               result.columns()):
        if isinstance(col, tuple):      # (values, stride) or (values, codes)
            values, index = col
            col = values[index if np.ndim(index)
                         else rows // index % len(values)]
        np.testing.assert_array_equal(col, full, err_msg=name)
    with pytest.raises(ValueError, match="full grid"):
        result.take(rows[1:]).axis_columns()


def test_take_by_mask_is_take_by_indices():
    result = sweep(make_spec(20, 20))
    mask = np.zeros(len(result), bool)
    mask[[17, 230]] = True
    picked, want = result.take(mask), result.take([17, 230])
    assert len(picked) == 2
    for name, col in picked.arrays.items():
        np.testing.assert_array_equal(col, want.arrays[name], err_msg=name)
    with pytest.raises(IndexError):
        result.take(mask[1:])


def lexsorted(result, max_occupancy):
    """feasible_designs' rows by whole-column masks: FLAG_OK, the
    occupancy bound and eta_r >= 0, by descending eta_r, ties by (L, x)."""
    with np.errstate(invalid="ignore"):
        idx = np.nonzero((result.flag == FLAG_OK)
                         & (result.n_thermal <= max_occupancy)
                         & (result.eta_r >= 0.0))[0]
    return idx[np.lexsort((result.gap[idx], result.length[idx],
                           -result.eta_r[idx]))]


def tied(result):
    """``result`` with its rows reversed out of (L, x) order and eta_r
    rounded into ties: only the (L, x) tie-break restores lexsort order."""
    rev = result.take(np.arange(len(result))[::-1])
    return explorer.SweepResult(rev.spec, dict(
        rev.arrays, eta_r=np.round(rev.eta_r, 3)))


def test_feasible_designs_orders_like_lexsort_with_and_without_ties():
    result = sweep(make_spec(20, 20))
    constraints = DesignConstraints(max_occupancy=1.5)
    feas = feasible_designs(result, constraints)
    assert np.unique(feas.eta_r).size == len(feas) > 0     # no ties
    np.testing.assert_array_equal(feas.length,
                                  result.length[lexsorted(result, 1.5)])
    result = tied(result)
    feas = feasible_designs(result, constraints)
    assert np.unique(feas.eta_r).size < len(feas)
    want = lexsorted(result, 1.5)
    for name, col in feas.arrays.items():
        np.testing.assert_array_equal(col, result.arrays[name][want],
                                      err_msg=name)


def seeded_box(seed):
    """A 40 x 30 sub-box of 200-800 nm x 1.15-1.6 sigma, as linspace
    arguments (L / nm, x / sigma)."""
    rng = np.random.default_rng(seed)
    return tuple((*np.sort(rng.uniform(lo, hi, 2)).tolist(), n)
                 for lo, hi, n in ((200, 800, 40), (1.15, 1.6, 30)))


SELECTION_BOXES = {
    "all stable": ((200, 800, 40), (1.15, 1.24, 30)),
    "all snap-in": ((600, 800, 40), (1.6, 2.0, 30)),
    "every flag": ((200, 800, 40), (1.15, 2.0, 300)),
    **{f"seed {seed}": seeded_box(seed) for seed in (1, 2, 4)}}


@pytest.mark.parametrize("ties", [False, True])
@pytest.mark.parametrize("box", SELECTION_BOXES.values(),
                         ids=SELECTION_BOXES.keys())
def test_feasible_designs_matches_whole_column_masks(box, ties):
    result = sweep(replace(make_spec(), lengths=tuple(
        np.linspace(*box[0]) * 1e-9), gaps_over_sigma=tuple(
        np.linspace(*box[1]))))
    if box == SELECTION_BOXES["every flag"]:
        assert set(result.flag.tolist()) == {FLAG_OK, FLAG_SNAP_IN,
                                              FLAG_BREAKDOWN}
    result = tied(result) if ties else result
    # a bound equal to a qualifying row's occupancy keeps that row
    at_bound = result.n_thermal[lexsorted(result, np.inf)][:1].tolist()
    for bound in (0.0, 1.5, 3.0, np.inf, *at_bound):
        feas = feasible_designs(result, DesignConstraints(bound))
        want = lexsorted(result, bound)
        assert len(feas) == want.size
        for name, col in feas.arrays.items():
            assert col.dtype == result.arrays[name].dtype, name
            np.testing.assert_array_equal(col, result.arrays[name][want],
                                          err_msg=name)


def lattice_figures(width, thickness, material, potential, temperature):
    """optimize_length's 1 nm lattice and its sweep columns at the bias gap."""
    lengths = np.arange(200, 801) / 1e9
    return lengths, _figures(lengths, np.array([potential.inflection]), width,
                             thickness, material, potential, temperature)


def whole_lattice_length(width, thickness, material, potential, temperature,
                         bound):
    """optimize_length by whole-column masks: the last lattice row that is
    FLAG_OK and meets ``bound``, None unless the first row does."""
    lengths, arrays = lattice_figures(width, thickness, material, potential,
                                      temperature)
    with np.errstate(invalid="ignore"):
        fits = (arrays["flag"] == FLAG_OK) & (arrays["n_thermal"] <= bound)
    if not fits[0]:
        return None
    i = np.nonzero(fits)[0][-1]
    return lengths[i].item(), explorer._row(arrays, i, potential.sigma)


@pytest.mark.parametrize("seed", range(8))
def test_optimize_length_matches_whole_column_masks(seed):
    # every seed has a fitting length; the empty selection is tested below
    rng = np.random.default_rng(seed)
    width, thickness = rng.uniform(8e-9, 20e-9, 2)
    temperature, bound = rng.uniform(2e-3, 20e-3), rng.uniform(0.5, 5.0)
    assert optimize_length(width, thickness, SILICON, LJ, temperature,
                           DesignConstraints(max_occupancy=bound)) == (
        whole_lattice_length(width, thickness, SILICON, LJ, temperature,
                             bound))


def snapping_lj():
    """A seeded potential whose V''(x0), rounding noise, is negative: a
    soft enough beam snaps in at its bias gap."""
    rng = np.random.default_rng(18)
    return LennardJones(rng.uniform(1, 100) * MEV,
                        rng.uniform(2, 6) * ANGSTROM)


@pytest.mark.parametrize("flags, bound", [
    ({FLAG_OK}, 0.0),                   # no row is in its ground state
    ({FLAG_SNAP_IN}, np.inf),           # every row snaps in
])
def test_optimize_length_empty_selection(flags, bound):
    material, potential = ((SILICON, LJ) if flags == {FLAG_OK} else
                           (MaterialParams(1e-20, 2329.0), snapping_lj()))
    _, arrays = lattice_figures(10e-9, 12e-9, material, potential, 8e-3)
    assert set(arrays["flag"].tolist()) == flags
    assert whole_lattice_length(10e-9, 12e-9, material, potential, 8e-3,
                                bound) is None
    with pytest.raises(DomainError) as caught:
        optimize_length(10e-9, 12e-9, material, potential, 8e-3,
                        DesignConstraints(max_occupancy=bound))
    assert str(caught.value) == (
        "occupancy constraint unsatisfiable at the smallest allowed length")


def test_feasible_designs_empty_on_impossible_bound():
    result = sweep(make_spec(20, 20))
    feas = feasible_designs(result, DesignConstraints(max_occupancy=0.0))
    assert len(feas) == 0  # no row is in its ground state at 8 mK


def test_feasibility_boundary_small_design_family():
    # occupancy <= 1 at 8 mK, (w, t) = (10, 12) nm: boundary near L = 345 nm
    L, row = optimize_length(10e-9, 12e-9, SILICON, LJ, 8e-3,
                             DesignConstraints(max_occupancy=1.0))
    assert abs(L - 345e-9) <= 2e-9
    assert cycles(row["omega_10_rad_s"]) / 1e6 >= 115.0
    assert row["eta_r"] == pytest.approx(0.023, abs=0.005)


def test_feasibility_boundary_fabrication_friendly_family():
    # (w, t) = (18, 24) nm: boundary near L = 457 nm with eta_r <= 0.15%
    L, row = optimize_length(18e-9, 24e-9, SILICON, LJ, 8e-3,
                             DesignConstraints(max_occupancy=1.0))
    assert abs(L - 457e-9) <= 2e-9
    assert row["eta_r"] <= 0.0015


def test_optimize_length_headline_occupancy():
    L, row = optimize_length(10e-9, 12e-9, SILICON, LJ, 8e-3,
                             DesignConstraints(max_occupancy=2.3))
    assert abs(L - 495e-9) <= 2e-9


def test_optimize_length_reaches_upper_bound():
    # n_th(800 nm) = 4.29 at (w, t) = (10, 12) nm: the whole lattice fits,
    # and the last point is the literal 800e-9
    L, row = optimize_length(10e-9, 12e-9, SILICON, LJ, 8e-3,
                             DesignConstraints(max_occupancy=5.0))
    assert L == 800e-9
    assert row["length_m"] == 800e-9
    assert row["n_thermal"] == pytest.approx(4.290, abs=1e-3)


def test_design_point_names_snap_in():
    # V''(x0) is rounding noise; this seeded potential's is negative, and a
    # 1 mm x 1 nm x 1 nm beam (k = 4e-17 N/m) is softer than its magnitude
    lj = snapping_lj()
    assert -lj.derivative(lj.inflection, 2) > 4e-17
    with pytest.raises(DomainError, match="snap-in regime \\(flag 2\\)"):
        design_point(1e-3, 1e-9, 1e-9, SILICON, lj, 8e-3)


def test_hardening_at_every_bias_gap():
    # lambda_4 and lambda_6 at (26/7)^(1/6) sigma do not depend on epsilon
    # or sigma in sign, so every stable design there has eta_r > 0
    rng = np.random.default_rng(2000)
    for _ in range(200):
        lj = LennardJones(rng.uniform(1, 100) * MEV,
                          rng.uniform(2, 6) * ANGSTROM)
        assert lj.derivative(lj.inflection, 4) > 0
        assert lj.derivative(lj.inflection, 6) > 0
        length, width, thickness = (rng.uniform(50, 5000) * 1e-9,
                                    *rng.uniform(3, 100, 2) * 1e-9)
        row = design_point(length, width, thickness, SILICON, lj, 8e-3)
        assert row["eta_r"] > 0
        assert row["omega_10_rad_s"] > 0


BAD_DIMENSIONS = [(0.0, 10e-9, 12e-9), (495e-9, 0.0, 12e-9),
                  (495e-9, 10e-9, -12e-9), (495e-9, float("nan"), 12e-9)]


@pytest.mark.parametrize("length, width, thickness", BAD_DIMENSIONS)
def test_design_point_rejects_bad_dimensions(length, width, thickness):
    with pytest.raises(DomainError, match="geometry dimensions must be > 0"):
        design_point(length, width, thickness, SILICON, LJ, 8e-3)


@pytest.mark.parametrize("length, width, thickness", BAD_DIMENSIONS[1:])
def test_optimize_length_rejects_bad_dimensions(length, width, thickness):
    with pytest.raises(DomainError, match="geometry dimensions must be > 0"):
        optimize_length(width, thickness, SILICON, LJ, 8e-3,
                        DesignConstraints(max_occupancy=2.3))


def test_optimize_length_unsatisfiable():
    with pytest.raises(DomainError, match="unsatisfiable"):
        optimize_length(10e-9, 12e-9, SILICON, LJ, 8e-3,
                        DesignConstraints(max_occupancy=0.0))


def test_spec_validation():
    with pytest.raises(DomainError):
        make_spec(0, 5)
    with pytest.raises(DomainError):
        SweepSpec(lengths=(2e-7, 1e-7), gaps_over_sigma=(1.2, 1.5),
                  width=1e-8, thickness=1e-8, material=SILICON, potential=LJ,
                  temperature=8e-3)
    with pytest.raises(DomainError):
        SweepSpec(lengths=(2e-7,), gaps_over_sigma=(1.0, 1.5), width=1e-8,
                  thickness=1e-8, material=SILICON, potential=LJ,
                  temperature=8e-3)
    # NaN, inf or -inf anywhere in either axis, named in the message
    for bad in (np.nan, np.inf, -np.inf):
        for name, axes in (("lengths", ((2e-7, bad), (1.3, 1.6))),
                           ("lengths", ((bad, 2e-7), (1.3, 1.6))),
                           ("gaps_over_sigma", ((2e-7,), (1.3, bad))),
                           ("gaps_over_sigma", ((2e-7,), (bad, 1.3)))):
            with pytest.raises(DomainError,
                               match=f"^sweep {name} must be finite$"):
                SweepSpec(lengths=axes[0], gaps_over_sigma=axes[1],
                          width=1e-8, thickness=1e-8, material=SILICON,
                          potential=LJ, temperature=8e-3)
    # non-positive beam dimensions, as CantileverGeometry rejects them
    for lengths, width, thickness in [((0.0, 1e-7), 1e-8, 1e-8),
                                      ((-1e-7, 1e-7), 1e-8, 1e-8),
                                      ((2e-7,), 0.0, 1e-8),
                                      ((2e-7,), 1e-8, -1e-8)]:
        with pytest.raises(DomainError, match="geometry dimensions"):
            SweepSpec(lengths=lengths, gaps_over_sigma=(1.2, 1.5),
                      width=width, thickness=thickness, material=SILICON,
                      potential=LJ, temperature=8e-3)
