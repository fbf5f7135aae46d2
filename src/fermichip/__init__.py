"""Degenerate Fermi gases in atom-chip microtraps: thermodynamics, density and
time-of-flight profiles, wire-trap magnetostatics, RF-dressed potentials,
evaporation design rules and profile fitting.

Submodules load on first access (`fermichip.thermo`, `from fermichip import
trapfield`), so a command imports only what it uses.  The whole runtime is
numpy and the standard library: the envelope fits run their own
Levenberg-Marquardt solver, and no module needs scipy.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = (
    "constants",
    "density",
    "evaporation",
    "imagefit",
    "polylog",
    "rfdress",
    "thermo",
    "trapfield",
)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
