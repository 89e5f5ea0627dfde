"""Units: exact SI constants and a scipy-free import of the package."""

import os
import subprocess
import sys
from pathlib import Path

import scipy.constants

from afq.units import MEV, hbar, k_B

SRC = Path(__file__).resolve().parent.parent / "src"


def test_constants_equal_scipy_bit_for_bit():
    assert hbar == scipy.constants.hbar
    assert k_B == scipy.constants.k
    assert MEV / 1e-3 == scipy.constants.e


def test_import_loads_no_scipy(tmp_path):
    # scipy belongs to the oracle's grid solver only; the CLI and the
    # validation suite must start without it, and so must every command
    # but oracle and validate.
    commands = ("bias", "spectrum", "sweep", "cqad")
    code = ("import sys, afq, afq.cli, afq.validate\n"
            "for command in sys.argv[2:]:\n"
            "    out = f'{sys.argv[1]}/{command}.out'\n"
            "    assert afq.cli.main([command, '--quiet', '--out', out]) == 0\n"
            "print('\\n'.join(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path),
                           *commands], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{command}.out" for command in commands)
