"""Configuration file loading.

The format is line-oriented ``section.key = value`` text; units are
encoded in key suffixes (``_nm``, ``_mhz``, ``_mev``, ...) and converted
to SI exactly once, here. Unknown keys are rejected (with a pointer at
the expected suffixed key when the stem matches), missing required keys
are reported with their full paths, and every omitted optional key is
resolved to its default so a config echo always shows the complete
effective configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib.resources import files

import numpy as np

from .cantilever import (CantileverGeometry, MaterialParams, bias_state,
                         modal_params)
from .cqad import CqadConfig, quality_factor_damping
from .errors import ConfigError
from .explorer import SweepSpec
from .potential import LennardJones, find_bias_point, taylor_coefficients
from .spectrum import perturbative_energies
from .units import ANGSTROM, FM, GHZ, GPA, MEV, MHZ, MK, NM

_REQUIRED = object()
_COUNT_MAX = np.iinfo(np.int64).max     # a count must fit a numpy index

# bundled headline design (silicon, curvature-free bias, 8 mK); the
# repository's top-level paper.cfg is a link to this package file
PAPER_CONFIG = files(__package__).joinpath("paper.cfg").read_text("utf-8")


@dataclass(frozen=True)
class _Field:
    kind: str                  # "float" | "int"
    unit: float = 1.0          # display -> SI multiplier (floats only)
    default: object = _REQUIRED


# schema order is also the echo order
SCHEMA = {
    "potential.epsilon_mev": _Field("float", MEV),
    "potential.sigma_angstrom": _Field("float", ANGSTROM),
    "material.young_modulus_gpa": _Field("float", GPA),
    "material.density_kg_m3": _Field("float"),
    "cantilever.length_nm": _Field("float", NM),
    "cantilever.width_nm": _Field("float", NM),
    "cantilever.thickness_nm": _Field("float", NM),
    "bias.x_over_sigma": _Field("float", default=None),
    "spectrum.n_max": _Field("int", default=5),
    "spectrum.temperature_mk": _Field("float", MK, default=8.0),
    "sweep.length_min_nm": _Field("float", NM, default=200.0),
    "sweep.length_max_nm": _Field("float", NM, default=800.0),
    "sweep.length_points": _Field("int", default=100),
    "sweep.x_over_sigma_min": _Field("float", default=1.15),
    "sweep.x_over_sigma_max": _Field("float", default=2.0),
    "sweep.x_points": _Field("int", default=100),
    "sweep.temperature_mk": _Field("float", MK, default=8.0),
    "cqad.omega_q_mhz": _Field("float", MHZ, default=None),
    "cqad.omega_m_mhz": _Field("float", MHZ, default=67.0),
    "cqad.omega_r_ghz": _Field("float", GHZ, default=5.0),
    "cqad.omega_d_ghz": _Field("float", GHZ, default=None),
    "cqad.g_mhz": _Field("float", MHZ, default=1.0),
    "cqad.qubit_quality": _Field("float", default=1e10),
    "cqad.mech_quality": _Field("float", default=1e4),
    "cqad.kappa_i_mhz": _Field("float", MHZ, default=0.1),
    "cqad.kappa_e_mhz": _Field("float", MHZ, default=0.9),
    "cqad.drive_photons": _Field("float", default=1e4),
    "cqad.participation": _Field("float", default=0.5),
    "cqad.gap_nm": _Field("float", NM, default=60.0),
    "cqad.readout_x_zpf_fm": _Field("float", FM, default=4.0),
    "cqad.probe_min_mhz": _Field("float", MHZ, default=60.0),
    "cqad.probe_max_mhz": _Field("float", MHZ, default=74.0),
    "cqad.probe_points": _Field("int", default=2001),
    "oracle.grid_half_width_zpf": _Field("float", default=15.0),
    "oracle.grid_right_clip": _Field("float", default=0.9),
    "oracle.grid_points": _Field("int", default=4001),
    "oracle.n_levels": _Field("int", default=5),
}

# default paper-design damping anchors: qubit Q ~ 1e10 (phononic-shield
# limited), readout-mechanics Q ~ 1e4 (modest, still strongly dispersive)


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration: display-unit echo plus SI values."""

    display: dict      # full key -> value in display units (echo order)
    si: dict           # full key -> value in SI (floats converted)

    def potential(self) -> LennardJones:
        return LennardJones(epsilon=self.si["potential.epsilon_mev"],
                            sigma=self.si["potential.sigma_angstrom"])

    def material(self) -> MaterialParams:
        return MaterialParams(
            young_modulus=self.si["material.young_modulus_gpa"],
            density=self.si["material.density_kg_m3"])

    def geometry(self) -> CantileverGeometry:
        return CantileverGeometry(length=self.si["cantilever.length_nm"],
                                  width=self.si["cantilever.width_nm"],
                                  thickness=self.si["cantilever.thickness_nm"])

    def bias_gap(self, potential: LennardJones) -> float:
        """``bias.x_over_sigma`` times sigma; the curvature-free point
        (``find_bias_point``) when that key is unset."""
        ratio = self.si["bias.x_over_sigma"]
        if ratio is not None:
            return ratio * potential.sigma
        return find_bias_point(potential)

    def operating_point(self, geometry: CantileverGeometry | None = None):
        """(potential, modal, gap, bias state) of the configured design;
        ``geometry`` replaces the configured beam."""
        pot = self.potential()
        modal = modal_params(geometry or self.geometry(), self.material())
        gap = self.bias_gap(pot)
        return pot, modal, gap, bias_state(modal, pot, gap)

    def design(self, geometry: CantileverGeometry | None = None):
        """:meth:`operating_point` plus the first-order spectrum at the gap."""
        pot, modal, gap, state = self.operating_point(geometry)
        taylor = taylor_coefficients(pot, gap, max_order=6)
        spectrum = perturbative_energies(state, taylor,
                                         n_max=self.si["spectrum.n_max"])
        return pot, modal, gap, state, spectrum

    def sweep_spec(self) -> SweepSpec:
        """The ``sweep.*`` (length, gap) grid at the configured width and thickness."""
        si = self.si
        return SweepSpec(
            lengths=tuple(np.linspace(si["sweep.length_min_nm"],
                                      si["sweep.length_max_nm"],
                                      si["sweep.length_points"])),
            gaps_over_sigma=tuple(np.linspace(si["sweep.x_over_sigma_min"],
                                              si["sweep.x_over_sigma_max"],
                                              si["sweep.x_points"])),
            width=si["cantilever.width_nm"],
            thickness=si["cantilever.thickness_nm"],
            material=self.material(), potential=self.potential(),
            temperature=si["sweep.temperature_mk"])

    def readout_chain(self, omega_10: float) -> CqadConfig:
        """The ``cqad.*`` chain: the qubit at ``omega_10`` unless
        ``cqad.omega_q_mhz`` is set, the drive on the red sideband omega_r -
        omega_m unless ``cqad.omega_d_ghz`` is set, each damping omega/Q."""
        si = self.si
        omega_q = si["cqad.omega_q_mhz"]
        if omega_q is None:
            omega_q = omega_10
        omega_m, omega_r = si["cqad.omega_m_mhz"], si["cqad.omega_r_ghz"]
        omega_d = si["cqad.omega_d_ghz"]
        if omega_d is None:
            omega_d = omega_r - omega_m         # red-detuned, delta = 0
        return CqadConfig(
            omega_q=omega_q, omega_m=omega_m, omega_r=omega_r, omega_d=omega_d,
            g=si["cqad.g_mhz"], n_d=si["cqad.drive_photons"],
            qubit_damping=quality_factor_damping(omega_q,
                                                 si["cqad.qubit_quality"]),
            mech_damping=quality_factor_damping(omega_m,
                                                si["cqad.mech_quality"]),
            kappa_i=si["cqad.kappa_i_mhz"], kappa_e=si["cqad.kappa_e_mhz"],
            participation=si["cqad.participation"], gap=si["cqad.gap_nm"],
            readout_x_zpf=si["cqad.readout_x_zpf_fm"])


def _parse_value(key: str, field: _Field, text: str, where: str):
    """``text`` as the field's kind; errors start with ``where``, "source: line N"."""
    try:
        value = int(text) if field.kind == "int" else float(text)
    except ValueError as exc:
        kind = "an integer" if field.kind == "int" else "a number"
        raise ConfigError(f"{where}: {key}: not {kind}: {text!r}") from exc
    if field.kind == "int":     # every int key is a count
        if value < 0:
            raise ConfigError(f"{where}: {key}: count must be >= 0: {text}")
        if value > _COUNT_MAX:
            raise ConfigError(f"{where}: {key}: count out of range: {text}")
    elif not math.isfinite(value):
        raise ConfigError(f"{where}: {key}: not a finite number: {text!r}")
    elif not math.isfinite(value * field.unit):
        raise ConfigError(f"{where}: {key}: {text} is not finite in SI units")
    return value


def _unknown_key_message(key: str) -> str:
    stem = key + "_"
    matches = [k for k in SCHEMA if k.startswith(stem)]
    if matches:
        return (f"unknown key {key!r}: missing unit suffix, expected "
                f"{matches[0]!r}")
    return f"unknown key {key!r}"


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    seen: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}: line {line_no}: expected "
                              f"'section.key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{source}: line {line_no}: "
                              + _unknown_key_message(key))
        if key in seen:
            raise ConfigError(f"{source}: line {line_no}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{source}: line {line_no}: {key}: empty value")
        seen[key] = _parse_value(key, SCHEMA[key], value,
                                 f"{source}: line {line_no}")

    missing = [k for k, f in SCHEMA.items()
               if f.default is _REQUIRED and k not in seen]
    if missing:
        raise ConfigError(f"{source}: missing required keys: "
                          + ", ".join(missing))

    display = {}
    si = {}
    for key, field in SCHEMA.items():
        value = seen.get(key, field.default)
        display[key] = value
        if field.kind == "float" and value is not None:
            si[key] = value * field.unit
        else:
            si[key] = value
    return RunConfig(display=display, si=si)


def default_config() -> RunConfig:
    """The bundled headline design."""
    return parse_config_text(PAPER_CONFIG, source="<bundled paper design>")


def load_config(path) -> RunConfig:
    """Parse a UTF-8 ``section.key = value`` config file into a RunConfig;
    a leading byte-order mark is skipped."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))
