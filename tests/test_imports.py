"""Import hygiene: a bare package import and the light CLI commands stay off
scipy, mpmath and the Fermi-function modules, so each fresh process starts fast."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fermichip

SRC = str(Path(fermichip.__file__).resolve().parents[1])

HEAVY = [
    "scipy.optimize",
    "scipy.integrate",
    "scipy.special",
    "jsonschema",
    "mpmath",
    "fermichip.thermo",
    "fermichip.polylog",
    "fermichip.imagefit",
    "fermichip.benchmarks",
]


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


# the paper's Fermi orders need neither quadrature nor scipy.optimize, and
# mpmath is a test-only dependency
NOT_FOR_FERMI_GAS = ["scipy.integrate", "scipy.optimize", "mpmath"]


def test_polylog_import_skips_quadrature(tmp_path):
    loaded = set(_loaded_after("import fermichip.polylog", tmp_path))
    assert [m for m in NOT_FOR_FERMI_GAS if m in loaded] == []


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
    assert [m for m in NOT_FOR_FERMI_GAS if m in loaded] == []
