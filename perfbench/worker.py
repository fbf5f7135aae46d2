"""One workload process.

Usage: worker.py WORKLOAD SEED SECONDS TRACE SPAWN_TIME WORKDIR [--setup-only]

Sets the workload up (imports, seeded inputs, one untimed item on fixed
paper inputs that fills lazy caches; for `cli` the fresh import of the CLI)
and takes the time since SPAWN_TIME as its set-up time.  With --setup-only it
prints that and stops; otherwise it repeats whole rounds of items until
SECONDS have passed.  Each item is timed together with a fixed reference
computation, the median of five run just before it, and each
output is checked outside the timed region.  Prints one JSON object.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from spans import Tracer, install


_REF_VECTOR = np.linspace(-3.0, 3.0, 2304)
REF_REPEATS = 5


def reference() -> float:
    """Fixed work that calls nothing in fermichip, the mix of the program's
    inner loops: scalar Python arithmetic around small numpy calls, then
    elementwise numpy on arrays the size of a 48x48 image."""
    v = np.array([0.3, -1.2, 2.5])
    acc = 0.0
    for i in range(2000):
        acc += math.sqrt(float(v @ v) + i)
    x = _REF_VECTOR
    for _ in range(150):
        acc += float(np.log1p(np.exp(-x * x)).sum())
    return acc


def ref_time() -> float:
    """Median time of several reference computations in a row; on the
    2-vCPU guest of README.md single ones swung from 3 to 16 ms with the
    speed of the vCPU at that moment."""
    times = []
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    return sorted(times)[REF_REPEATS // 2]


def cpu_now() -> float:
    """CPU seconds of this process, all its threads, and its waited-for children."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ru.ru_utime + ru.ru_stime


def set_up(name: str, seed: int, workdir: Path, root: Path, spawn: float):
    """Set the workload up; return it with its set-up time, the seconds from
    SPAWN_TIME until it is ready to time its first item.  For `cli` the set-up
    is the fresh `import fermichip.cli` a user pays, and the workload (None
    here) is made afterwards.  Nothing the benchmark needs only for its own
    checks (mpmath, the truths the checks compare with) is paid in it."""
    if name == "cli":
        import fermichip.cli  # noqa: F401

        return None, time.time() - spawn
    import workloads

    if name == "thermo-scan":
        wl = workloads.ThermoScan(seed, workdir)
    elif name == "trap-design":
        wl = workloads.TrapDesign(seed, workdir, root / "src" / "fermichip" / "data")
    elif name == "image-fit":
        wl = workloads.ImageFit(seed, workdir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    wl.run(wl.warm_item)
    return wl, time.time() - spawn


def main() -> int:
    name, seed, seconds, trace = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4] == "1"
    spawn, workdir = float(sys.argv[5]), Path(sys.argv[6])
    root = Path.cwd()
    tracer = Tracer() if trace else None
    wl, setup_s = set_up(name, seed, workdir, root, spawn)
    if "--setup-only" in sys.argv:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if wl is None:
        from cliload import Cli

        wl = Cli(seed, workdir, root, tracer)

    run = wl.run
    if tracer is not None and name != "cli":
        install(tracer)
        run = tracer.span("item", wl.run)
    wall, ref, cpu, errors, failures = [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        for inp in wl.items:
            if tracer is not None:
                tracer.item = attempted
            attempted += 1
            ref_s = ref_time()
            c0 = cpu_now()
            t0 = time.perf_counter()
            try:
                out = run(inp)
            except Exception:
                failed += 1
                failures.append(traceback.format_exc(limit=3))
                continue
            t1 = time.perf_counter()
            c1 = cpu_now()
            wall.append(t1 - t0)
            ref.append(ref_s)
            cpu.append(c1 - c0)
            errors += wl.check(inp, out)
        if time.perf_counter() - start >= seconds:
            break

    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    result = {
        "setup_s": setup_s,
        "wall": wall,
        "ref": ref,
        "cpu": cpu,
        "attempted": attempted,
        "failed": failed,
        "check_errors": errors,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["totals"] = tracer.totals()
        tracer.write_spans(root / ".perfbench" / f"spans-{name}-seed{seed}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
