"""Spans around the calls the benchmark makes into each fermichip layer.

`install(tracer)` replaces layer entry points with wrappers that record a
span (name, start, end, parent) per call, plus counts at the same boundary:
Fermi-function calls and points, field evaluations and points.  The Fermi
function is wrapped under the name that thermo, density and imagefit import,
so polylog time is separated from the self time of its callers.  Field
evaluations are counted by FieldModel and AnalyticIPField subclasses that
replace the classes in the trapfield namespace, so geometries loaded by the
program are counted too.

Untraced runs never call `install`; the difference between a traced and an
untraced run is the tracing overhead.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """In-memory spans and per-name totals for one process."""

    def __init__(self):
        self.spans = []            # (item, name, start, end, parent index)
        self.item = -1
        self._stack = []           # open spans: [index, name, start, child time]
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.cpu_s = defaultdict(float)
        self.counts = defaultdict(int)

    def open_name(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    def span(self, name: str, fn, cpu: bool = False, on_call=None):
        """Wrap fn so each call records a span called `name`."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            parent = tracer._stack[-1][0] if tracer._stack else None
            index = len(tracer.spans)
            tracer.spans.append(None)
            c0 = time.process_time() if cpu else 0.0
            frame = [index, name, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - frame[2]
                tracer.spans[index] = (tracer.item, name, frame[2], end, parent)
                tracer.total_s[name] += duration
                tracer.self_s[name] += duration - frame[3]
                tracer.counts[name + ".calls"] += 1
                if cpu:
                    tracer.cpu_s[name] += time.process_time() - c0
                if tracer._stack:
                    tracer._stack[-1][3] += duration

        return wrapper

    def totals(self) -> dict:
        return {
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "cpu_s": dict(self.cpu_s),
            "counts": dict(self.counts),
        }

    def dump(self, path) -> None:
        """Write totals and spans, for a parent process to merge."""
        with open(path, "w") as fh:
            json.dump({"totals": self.totals(), "spans": self.spans}, fh)

    def merge_file(self, path) -> None:
        """Add the totals and spans a child process dumped, under the current item."""
        with open(path) as fh:
            doc = json.load(fh)
        for kind, values in doc["totals"].items():
            bucket = getattr(self, kind)
            for key, v in values.items():
                bucket[key] += v
        offset = len(self.spans)
        for _, name, start, end, parent in doc["spans"]:
            self.spans.append((self.item, name, start, end, None if parent is None else parent + offset))

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                item, name, start, end, parent = span
                fh.write(json.dumps({"id": i, "item": item, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")


def _counting(base, tracer):
    """Subclass of a field class whose field() counts calls and points,
    attributing the call to the span open at the time."""

    class Counting(base):
        def field(self, r, guard=None):
            name = tracer.open_name()
            if name is not None:
                tracer.count(name + ".field_calls")
                tracer.count("trapfield.field.points", int(np.prod(np.shape(r)[:-1])))
            if guard is None:
                return super().field(r)
            return super().field(r, guard=guard)

    Counting.__name__ = Counting.__qualname__ = base.__name__
    return Counting


def install(tracer: Tracer) -> None:
    """Wrap fermichip's layer entry points for this process."""
    from fermichip import density, imagefit, rfdress, thermo, trapfield

    def polylog_counter(module):
        def on_call(n, z, *args, **kwargs):
            tracer.count("polylog.fermi_fn.points", int(np.size(z)))
            if module is imagefit and float(n) == 2.0:
                tracer.count("imagefit.fit_fermi_dirac.model_evals")
        return on_call

    for module in (thermo, density, imagefit):
        module.fermi_fn = tracer.span("polylog.fermi_fn", module.fermi_fn,
                                      on_call=polylog_counter(module))
    wraps = [
        (thermo, "fugacity_from_reduced_temperature", "thermo.fugacity", False),
        (thermo, "write_thermo_scan_csv", "thermo.scan_csv", False),
        (density, "density_finite_T", "density.profile", False),
        (imagefit, "column_density_fermi", "density.column", False),
        (imagefit, "write_raster", "density.raster_io", False),
        (imagefit, "read_raster", "density.raster_io", False),
        (trapfield, "find_minimum", "trapfield.find_minimum", False),
        (trapfield, "trap_frequencies", "trapfield.trap_frequencies", False),
        (trapfield, "trap_depth", "trapfield.trap_depth", False),
        (trapfield, "ip_fit", "trapfield.ip_fit", False),
        (rfdress, "dressed_potential", "rfdress.dressed_potential", False),
        (rfdress, "characterize_wells", "rfdress.characterize_wells", False),
        (imagefit, "synthesize_tof_image", "imagefit.synthesize", False),
        (imagefit, "fit_gaussian", "imagefit.fit_gaussian", False),
        (imagefit, "fit_fermi_dirac", "imagefit.fit_fermi_dirac", True),
    ]
    for module, attr, name, cpu in wraps:
        setattr(module, attr, tracer.span(name, getattr(module, attr), cpu=cpu))
    trapfield.FieldModel = _counting(trapfield.FieldModel, tracer)
    trapfield.AnalyticIPField = _counting(trapfield.AnalyticIPField, tracer)
