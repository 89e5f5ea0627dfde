"""Units: exact SI constants, and what a fresh process imports: no scipy
but the oracle's LAPACK extension, and no numpy.random."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.constants

from afq.units import MEV, hbar, k_B

SRC = Path(__file__).resolve().parent.parent / "src"


def test_constants_equal_scipy_bit_for_bit():
    assert hbar == scipy.constants.hbar
    assert k_B == scipy.constants.k
    assert MEV / 1e-3 == scipy.constants.e


def run_afq_python(code, *args):
    """Standard output of ``code`` in a fresh interpreter that imports afq
    from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_scipy(tmp_path):
    # scipy belongs to the oracle's grid solver only; the CLI and the
    # validation suite must start without it, and so must every command
    # but oracle and validate, which load scipy's LAPACK extension alone
    # (test_oracle_loads_only_the_lapack_extension).
    commands = ("bias", "spectrum", "sweep", "cqad")
    code = ("import sys, afq, afq.cli, afq.validate\n"
            "for command in sys.argv[2:]:\n"
            "    out = f'{sys.argv[1]}/{command}.out'\n"
            "    assert afq.cli.main([command, '--quiet', '--out', out]) == 0\n"
            "print('\\n'.join(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    assert run_afq_python(code, tmp_path, *commands).split() == []
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{command}.out" for command in commands)


# afq oracle and afq validate, then one dstebz bisection of the bundled
# design's stencil; with argv[2] == "scipy", scipy.linalg is imported first
LAPACK_ROUTE = """\
import json, sys
if sys.argv[2] == "scipy":
    import scipy.linalg
import afq.cli
from afq import GridSpec, oracle
from afq.config import default_config
codes = [afq.cli.main([command, "--quiet", "--out", f"{sys.argv[1]}/{command}"])
         for command in ("oracle", "validate")]
pot, modal, gap, state, _ = default_config().design()
lo, hi = GridSpec().domain(state.x_zpf, gap)
stencil = oracle._stencil(oracle.total_potential(modal, pot, gap),
                          modal.effective_mass, lo, hi, GridSpec().points)
lapack = sys.modules.get("scipy.linalg.lapack")
print(json.dumps({
    "codes": codes,
    "scipy": sorted(m for m in sys.modules
                    if m == "scipy" or m.startswith("scipy.")),
    "lapack": oracle._lapack().__name__,
    "loads": oracle._lapack.cache_info().misses,
    "shared": lapack is not None and oracle._lapack() is lapack._flapack,
    "levels": oracle._stencil_eigenvalues(*stencil, 1, 5).tobytes().hex()}))
"""


def test_oracle_loads_only_the_lapack_extension(tmp_path):
    # oracle first: the extension is loaded from its file under its scipy
    # name, and nothing else of scipy is imported; scipy first: the oracle
    # takes the extension scipy.linalg loaded, with the same dstebz bits
    alone = json.loads(run_afq_python(LAPACK_ROUTE, tmp_path, "alone"))
    after = json.loads(run_afq_python(LAPACK_ROUTE, tmp_path, "scipy"))
    for run in (alone, after):
        assert run["codes"][0] == 0 and run["codes"][1] in (0, 1)
        assert run["lapack"] == "scipy.linalg._flapack"
        assert run["loads"] == 1
    assert alone["scipy"] == ["scipy.linalg._flapack"]
    assert "scipy.linalg" in after["scipy"]
    assert after["shared"]
    assert alone["levels"] == after["levels"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["oracle",
                                                           "validate"]


@pytest.mark.parametrize("command", ["oracle", "validate"])
def test_command_imports_no_numpy_random(tmp_path, command):
    # the oracle's start vector is integer arithmetic: importing
    # numpy.random would cost every cold afq oracle and afq validate
    script = ("import sys, afq.cli\n"
              "code = afq.cli.main([sys.argv[2], '--quiet', '--out', "
              "f'{sys.argv[1]}/out'])\n"
              "print(code, 'numpy.random' in sys.modules)")
    code, loaded = run_afq_python(script, tmp_path, command).split()
    assert code in ("0", "1")        # validate fails criteria 3 and 8
    assert loaded == "False"
