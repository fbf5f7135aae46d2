"""Import hygiene: a bare package import and the light CLI commands stay off
mpmath and the Fermi-function modules, `evap`, `run` with an `evap` config and
`--help` never start numpy, no command loads any scipy module, and a command
starts numpy without an OpenBLAS thread pool unless the user asks for one, so
each fresh process starts fast."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fermichip
from fermichip import cli

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


# the commands that compute in `math` alone
NUMPY_FREE = ("evap", "run", "--help")


@pytest.mark.parametrize(
    "argv",
    [
        ["trap", "--geometry", "toronto-z-trap", "--out", "trap.json"],
        ["dress", "--preset", "rb-doublewell", "--points", "512", "--out-prefix", "dw"],
        ["evap", "--preset", "toronto-z", "--out", "evap.json"],
        ["run", "--config", "cfg.json"],
        ["--help"],
    ],
    ids=lambda argv: argv[0].lstrip("-"),
)
def test_light_commands_skip_heavy_modules(tmp_path, argv):
    (tmp_path / "cfg.json").write_text(
        json.dumps({"command": "evap", "params": {"preset": "ioffe-c", "out": "run.json"}})
    )
    code = f"""from fermichip import cli
try:
    assert cli.main({argv!r}) == 0
except SystemExit as exc:  # --help
    assert exc.code == 0"""
    loaded = set(_loaded_after(code, tmp_path))
    assert [m for m in HEAVY if m in loaded] == []
    assert _scipy(loaded) == []
    assert ("numpy" in loaded) == (argv[0] not in NUMPY_FREE)


def test_evap_presets_and_bad_input_skip_numpy(tmp_path):
    # every preset, and a bad value, which exits 2 through the same except
    # clause that maps numpy's LinAlgError to 3
    code = """import contextlib, io
from fermichip import cli, evaporation
for name in evaporation.LOADING_PRESETS:
    assert cli.main(["evap", "--preset", name, "--out", name + ".json"]) == 0
with contextlib.redirect_stderr(io.StringIO()) as err:
    assert cli.main(["evap", "--preset", "ioffe-c", "--rho0=-1"]) == cli.EXIT_CONFIG
assert err.getvalue().startswith("configuration error: --rho0")"""
    loaded = set(_loaded_after(code, tmp_path))
    assert "fermichip.evaporation" in loaded and "numpy" not in loaded
    assert len(list(tmp_path.glob("*.json"))) == 4


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
for n in [1.5, *range(1, 25)]:
    assert np.all(np.isfinite(pl.fermi_fn(n, z)))
    assert math.isfinite(pl.fermi_fn(n, 40.0))
    assert len(pl.seams(n)) >= 1
for n, c in ((1.5, 1.0), (1.0, 5.0), (1.0, 0.3), (1.0, 1e4)):
    lhs, rhs = pl.gaussian_reduction_check(n, c)
    assert abs(lhs / rhs - 1.0) < 1e-12
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


def _numpy_blas() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        return "unknown"


def _env(**variables) -> dict:
    """os.environ without any BLAS thread variable, with PYTHONPATH and `variables`."""
    env = {k: v for k, v in os.environ.items() if k not in cli._BLAS_THREAD_VARIABLES}
    return {**env, "PYTHONPATH": SRC, **variables}


def _threads_after(code: str, cwd, **variables) -> tuple[int, dict]:
    """Run code in a fresh interpreter with _env(**variables); return its OS
    thread count and its environment after the code."""
    script = code + (
        "\nimport json, os\n"
        "print(json.dumps([len(os.listdir('/proc/self/task')), dict(os.environ)]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        cwd=cwd,
        env=_env(**variables),
        capture_output=True,
        text=True,
        check=True,
    )
    return tuple(json.loads(out.stdout.splitlines()[-1]))


needs_threads = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task")
    or len(os.sched_getaffinity(0)) < 2
    or "openblas" not in _numpy_blas(),
    reason="counts OpenBLAS threads through /proc on two or more cores",
)

# `trap` is a command that starts numpy
TRAP = ["trap", "--geometry", "toronto-z-trap", "--out", "trap.json"]
IMPORT = f"""import fermichip.cli
assert fermichip.cli.main({TRAP!r}) == 0"""
RUN_MODULE = f"""import runpy, sys
sys.argv = ["fermichip", *{TRAP!r}]
try:
    runpy.run_module("fermichip.cli", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0"""


@needs_threads
@pytest.mark.parametrize("code", [IMPORT, RUN_MODULE], ids=["import", "main"])
def test_cli_starts_numpy_on_one_thread(tmp_path, code):
    # a command of the CLI, through `import fermichip.cli` (the console script)
    # or as `python -m fermichip.cli`, starts numpy without the idle OpenBLAS pool
    threads, environ = _threads_after(code, tmp_path)
    assert threads == 1
    assert environ["OPENBLAS_NUM_THREADS"] == "1"


@needs_threads
@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_cli_honours_a_thread_count_set_by_the_user(tmp_path, variable):
    threads, environ = _threads_after(IMPORT, tmp_path, **{variable: "2"})
    assert threads == 2
    assert {k: environ.get(k) for k in cli._BLAS_THREAD_VARIABLES} == {
        k: "2" if k == variable else None for k in cli._BLAS_THREAD_VARIABLES
    }


def test_cli_imported_after_numpy_leaves_environment(tmp_path):
    # a host process that started numpy itself keeps its environment and pool
    code = """import os
import numpy
before = dict(os.environ)
import fermichip.cli
assert dict(os.environ) == before"""
    subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_env(), check=True)


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
