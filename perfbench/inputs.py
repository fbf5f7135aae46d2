"""Input generation shared by the workloads; imports nothing from fermichip."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

PAPER_TRAP_HZ = (823.0, 46.0, 823.0)
PAPER_N = 4e4


def stratified(rng, n, dims):
    """n points in [0, 1)^dims, one per stratum along every dimension."""
    return np.column_stack([(rng.permutation(n) + rng.uniform(size=n)) / n for _ in range(dims)])


def load_design(path) -> dict:
    """A shipped geometry file read by the benchmark itself: segments as
    (a, b, I) in SI units, bias in tesla, chip plane and search seed."""
    doc = json.loads(Path(path).read_text())
    um, gauss = 1e-6, 1e-4
    plane = doc["chip_plane"]
    return {
        "segments": [
            (np.asarray(s["start_um"]) * um, np.asarray(s["end_um"]) * um, float(s["current_a"]))
            for s in doc["segments"]
        ],
        "bias": tuple(np.asarray(doc["bias_gauss"]) * gauss),
        "chip_plane": (tuple(plane["normal"]), plane["offset_um"] * um),
        "seed": np.asarray(doc["seed_um"]) * um,
    }
