"""Import hygiene: a bare package import and the light CLI commands stay off
mpmath and the Fermi-function modules, and no command loads any scipy module,
so each fresh process starts fast."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fermichip

SRC = str(Path(fermichip.__file__).resolve().parents[1])

HEAVY = [
    "jsonschema",
    "mpmath",
    "fermichip.thermo",
    "fermichip.polylog",
    "fermichip.imagefit",
    "fermichip.benchmarks",
]


def _scipy(loaded) -> list[str]:
    return [m for m in loaded if m == "scipy" or m.startswith("scipy.")]


def _loaded_after(code: str, cwd) -> list[str]:
    """Run code in a fresh interpreter; return the sorted names in sys.modules after it."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    out = subprocess.run(
        [sys.executable, "-c", script],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_bare_import_loads_no_submodule(tmp_path):
    loaded = _loaded_after("import fermichip", tmp_path)
    assert [m for m in loaded if m.startswith("fermichip.")] == []
    loaded = _loaded_after(
        "import fermichip\nassert callable(fermichip.thermo.fermi_energy)", tmp_path
    )
    assert "fermichip.thermo" in loaded


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_module"):
        fermichip.no_such_module  # noqa: B018


@pytest.mark.parametrize(
    "argv",
    [
        ["trap", "--geometry", "toronto-z-trap", "--out", "trap.json"],
        ["dress", "--preset", "rb-doublewell", "--points", "512", "--out-prefix", "dw"],
        ["evap", "--preset", "toronto-z", "--out", "evap.json"],
        ["run", "--config", "cfg.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_light_commands_skip_heavy_modules(tmp_path, argv):
    (tmp_path / "cfg.json").write_text(
        json.dumps({"command": "evap", "params": {"preset": "ioffe-c", "out": "run.json"}})
    )
    code = f"from fermichip import cli\nassert cli.main({argv!r}) == 0"
    loaded = set(_loaded_after(code, tmp_path))
    assert [m for m in HEAVY if m in loaded] == []
    assert _scipy(loaded) == []


def test_polylog_import_skips_quadrature(tmp_path):
    # the Fermi functions are numpy and `math` alone: every supported order in
    # each of its regimes, the series (z <= 1), the reflection or the table
    # (1 < z < e^36) and Sommerfeld (z >= e^36), then the self-tests that
    # paper-check runs; mpmath is a test-only dependency
    code = """
import math
import numpy as np
from fermichip import polylog as pl
z = np.exp([-30.0, -5.0, 0.0, 3.0, 35.9, 36.0, 80.0, 700.0])
for n in [0.5, 1.5, 2.5, *range(1, 25)]:
    assert np.all(np.isfinite(pl.fermi_fn(n, z)))
    assert math.isfinite(pl.fermi_fn(n, 40.0))
    assert len(pl.seams(n)) >= 1
for n, c in ((1.5, 1.0), (1.0, 5.0), (2.5, 0.3), (2.0, 1e4)):
    lhs, rhs = pl.gaussian_reduction_check(n, c)
    assert abs(lhs / rhs - 1.0) < 1e-12
assert pl.bose_fn(1.5, np.array([0.3, 0.9, 1.0])).size == 3
"""
    loaded = set(_loaded_after(code, tmp_path))
    assert "fermichip.polylog" in loaded
    assert _scipy(loaded) == [] and "mpmath" not in loaded


GAS = ["--species", "K40", "--n-atoms", "4e4", "--fx-hz", "823", "--fy-hz", "46",
       "--fz-hz", "823", "--t-over-tf", "0.2"]


@pytest.mark.parametrize(
    "argv",
    [
        ["thermo", *GAS, "--out", "report.json", "--scan-out", "scan.csv"],
        ["density", *GAS, "--axis", "y", "--extent-um", "120", "--out", "profile.csv"],
        ["tof", *GAS, "--time-ms", "10", "--noise-frac", "0.02", "--out", "img.raster"],
    ],
    ids=lambda argv: argv[0],
)
def test_fermi_gas_commands_skip_quadrature_and_solvers(tmp_path, argv):
    code = f"from fermichip import cli\nassert cli.main({argv!r}) == 0"
    loaded = set(_loaded_after(code, tmp_path))
    assert "fermichip.polylog" in loaded
    assert _scipy(loaded) == [] and "mpmath" not in loaded


def test_fit_commands_load_no_scipy(tmp_path):
    # the envelope fits run their own Levenberg-Marquardt solver
    code = f"""from fermichip import cli
assert cli.main(["tof", *{GAS!r}, "--time-ms", "10", "--nx", "48", "--ny", "48",
                 "--noise-frac", "0.02", "--out", "img.raster"]) == 0
assert cli.main(["fit", "--image", "img.raster", "--model", "both", "--out", "fit.json"]) == 0
assert cli.main(["paper-check", "--out", "table.json"]) == 0"""
    loaded = set(_loaded_after(code, tmp_path))
    assert {"fermichip.imagefit", "fermichip.benchmarks"} <= loaded
    assert _scipy(loaded) == [] and "mpmath" not in loaded
