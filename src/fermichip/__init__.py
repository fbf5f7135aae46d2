"""Degenerate Fermi gases in atom-chip microtraps: thermodynamics, density and
time-of-flight profiles, wire-trap magnetostatics, RF-dressed potentials,
evaporation design rules and profile fitting.

Submodules load on first access (`fermichip.thermo`, `from fermichip import
trapfield`), so a command imports only what it uses.  Only `imagefit` (the
envelope fits, through `scipy.optimize`) needs scipy; the Fermi functions,
thermodynamics, density profiles, wire traps, RF dressing and evaporation rules
are numpy and the standard library alone.
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
