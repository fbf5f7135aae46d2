"""The scripts in `scripts/` run to exit 0.  They count as callers of the
library (test_exports), so a change that breaks one fails here.
`fit_fermi_table.py --check` refits every table against mpmath and takes
about a minute, so it is left out."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name):
    out = subprocess.run([sys.executable, str(SCRIPTS / name)], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("name", ["trap_reference.py", "fugacity_reference.py"])
def test_reference_script_runs(name):
    assert run_script(name)


def test_tof_fit_demo_flags_unconstrained_fugacity():
    # at T/T_F = 2 the image does not constrain Z, and the fitted T/T_F
    # (about 1500) means nothing: the row shows the fit's flag instead
    rows = {line.split()[0]: line for line in run_script("tof_fit_demo.py").splitlines()[1:]}
    assert list(rows) == ["0.10", "0.20", "0.35", "0.60", "1.00", "2.00"]
    assert rows["2.00"].split()[2] == "z_poorly_constrained"
    assert float(rows["0.10"].split()[2]) == pytest.approx(0.1, abs=0.01)
