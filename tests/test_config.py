"""Config file parsing: units, defaults, strictness, round-trips."""

import pytest

from afq import parse_config_text
from afq.config import SCHEMA, load_config
from afq.errors import ConfigError

MINIMAL = """\
potential.epsilon_mev = 17.4
potential.sigma_angstrom = 3.826
material.young_modulus_gpa = 160
material.density_kg_m3 = 2329
cantilever.length_nm = 495
cantilever.width_nm = 10
cantilever.thickness_nm = 12
"""


def test_unit_conversions():
    cfg = parse_config_text(MINIMAL)
    assert cfg.si["cantilever.length_nm"] == pytest.approx(4.95e-7, rel=1e-15)
    assert cfg.si["potential.sigma_angstrom"] == pytest.approx(3.826e-10)
    assert cfg.si["material.young_modulus_gpa"] == pytest.approx(1.6e11)
    assert cfg.si["potential.epsilon_mev"] == pytest.approx(2.7878e-21,
                                                            rel=1e-4)


def test_auto_bias_resolution():
    cfg = parse_config_text(MINIMAL)
    pot = cfg.potential()
    assert cfg.bias_gap(pot) == pytest.approx(pot.inflection, rel=1e-12)


def test_explicit_bias_gap():
    cfg = parse_config_text(MINIMAL + "bias.x_over_sigma = 1.3\n")
    pot = cfg.potential()
    assert cfg.bias_gap(pot) == pytest.approx(1.3 * pot.sigma, rel=1e-15)


@pytest.mark.parametrize("line", ["potential.kind = lennard-jones",
                                  "bias.auto = true"])
def test_deleted_keys_are_unknown(line):
    with pytest.raises(ConfigError, match="line 8: unknown key"):
        parse_config_text(MINIMAL + line + "\n")


def test_missing_unit_suffix_names_expected_key():
    text = MINIMAL.replace("cantilever.length_nm = 495",
                           "cantilever.length = 495")
    with pytest.raises(ConfigError, match="cantilever.length_nm"):
        parse_config_text(text)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text(MINIMAL + "cantilever.colour = blue\n")


def test_missing_required_reports_full_paths():
    with pytest.raises(ConfigError) as err:
        parse_config_text("spectrum.n_max = 5\n")
    message = str(err.value)
    assert "potential.epsilon_mev" in message
    assert "cantilever.length_nm" in message


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text(MINIMAL + "cantilever.width_nm = 11\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("spectrum.n_max = 5\nnot a line\n")
    with pytest.raises(ConfigError, match="not a number"):
        parse_config_text(MINIMAL.replace("= 495", "= wide"))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("key", ["cantilever.length_nm", "cqad.qubit_quality"])
def test_non_finite_value_rejected(key, value):
    # the length line is blanked, so either key lands on line 8 unduplicated
    text = (MINIMAL.replace("cantilever.length_nm = 495", "")
            + f"{key} = {value}\n")
    with pytest.raises(ConfigError,
                       match=f"line 8: {key}: not a finite number: '{value}'"):
        parse_config_text(text)


@pytest.mark.parametrize("key", [k for k, f in SCHEMA.items()
                                 if f.kind == "int"])
def test_negative_count_rejected(key):
    with pytest.raises(ConfigError, match=f"line 8: {key}: count must be >= 0"):
        parse_config_text(MINIMAL + f"{key} = -1\n")


@pytest.mark.parametrize("text", [str(2**63), "1" + "0" * 400])
@pytest.mark.parametrize("key", [k for k, f in SCHEMA.items()
                                 if f.kind == "int"])
def test_count_past_int64_rejected(key, text):
    # 1e400 is past a float too: no finiteness test may see an int key
    with pytest.raises(ConfigError) as info:
        parse_config_text(MINIMAL + f"{key} = {text}\n", source="t.cfg")
    assert str(info.value) == f"t.cfg: line 8: {key}: count out of range: {text}"


@pytest.mark.parametrize("key", [k for k, f in SCHEMA.items()
                                 if f.kind == "int"])
def test_largest_int64_count_parses(key):
    cfg = parse_config_text(MINIMAL + f"{key} = {2**63 - 1}\n")
    assert cfg.si[key] == cfg.display[key] == 2**63 - 1


@pytest.mark.parametrize("line, message", [
    ("spectrum.temperature_mk = cold", "not a number: 'cold'"),
    ("spectrum.temperature_mk = nan", "not a finite number: 'nan'"),
    ("spectrum.n_max = -1", "count must be >= 0: -1"),
    ("sweep.x_points = 50.0", "not an integer: '50.0'"),
    ("spectrum.n_max = 1e3", "not an integer: '1e3'")])
def test_value_errors_name_their_source(line, message):
    key = line.split(" = ")[0]
    with pytest.raises(ConfigError) as info:
        parse_config_text(MINIMAL + line + "\n", source="t.cfg")
    assert str(info.value) == f"t.cfg: line 8: {key}: {message}"


def test_comments_and_blank_lines():
    text = "# header\n\n" + MINIMAL.replace(
        "potential.epsilon_mev = 17.4",
        "potential.epsilon_mev = 17.4  # well depth")
    cfg = parse_config_text(text)
    assert cfg.display["potential.epsilon_mev"] == 17.4


def test_defaults_resolved_and_echo_complete():
    cfg = parse_config_text(MINIMAL)
    assert set(cfg.display) == set(SCHEMA)
    assert cfg.display["spectrum.n_max"] == 5
    assert cfg.display["sweep.length_points"] == 100
    assert cfg.display["cqad.omega_m_mhz"] == 67.0


def test_display_si_round_trip():
    cfg = parse_config_text(MINIMAL)
    for key, field in SCHEMA.items():
        value = cfg.display[key]
        if field.kind != "float" or value is None:
            continue
        assert cfg.si[key] / field.unit == pytest.approx(value, rel=1e-15)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.cfg")


def test_load_config_file(tmp_path):
    path = tmp_path / "design.cfg"
    path.write_text(MINIMAL)
    cfg = load_config(path)
    assert cfg.si["material.density_kg_m3"] == 2329.0


def test_load_config_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "design.cfg"
    path.write_text("# saved with a BOM\n" + MINIMAL, encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf# saved")
    assert load_config(path) == parse_config_text(MINIMAL)
