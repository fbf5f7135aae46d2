"""The scripts in `scripts/` run to exit 0.  They count as callers of the
library (test_exports), so a change that breaks one fails here.
`fit_fermi_table.py` is not run: both its modes compare the f_3/2 table with
mpmath at 4000 points, which takes about two minutes.  The file it writes is
checked against its `render` instead."""

import importlib.util
import json
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


def test_shipped_table_is_rendered_by_fit_script():
    # the data file is exactly what the script writes for its coefficients
    spec = importlib.util.spec_from_file_location("fit_fermi_table", SCRIPTS / "fit_fermi_table.py")
    fit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fit)
    shipped = fit.TARGET.read_text()
    assert fit.render(json.loads(shipped)["coef"]) == shipped
