"""fermichip benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a fermichip checkout; the program is imported from
./src.  Workloads: thermo-scan, trap-design, image-fit, cli (see README.md).

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics, and the same figures in seconds go to standard error;
with --trace 1 a separate traced run gives the per-layer metrics instead,
and the traced end-to-end figures go to standard error so the tracing
overhead can be read off.  Spans and results are written under .perfbench/.
Load comes from one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("thermo-scan", "trap-design", "image-fit", "cli")
SETUP_STARTS = 5        # fresh starts whose median set-up time is reported, half
                        # of the others before the timed run and half after it
LAYER_PROBES = 3        # fresh processes timing the cli import and first polylog calls
BUDGET_S = 170.0        # the whole run ends within this many seconds

END_TO_END = [
    ("setup_s", "s"),
    ("items_per_kref", "1/kref"),
    ("item_p50_ref", "ratio"),
    ("cpu_ref_per_item", "ratio"),
    ("peak_rss_mb", "MB"),
]
CLI_COMMANDS = ("thermo", "density", "tof", "fit", "trap", "dress", "evap", "run", "paper-check")
TRAP_CALLS = ("find_minimum", "trap_frequencies", "trap_depth", "ip_fit")
PER_LAYER = (
    [("polylog.fermi_fn.calls", "count"), ("polylog.fermi_fn.points", "count"),
     ("polylog.fermi_fn.self_s", "s"), ("polylog.first_call_s", "s"),
     ("thermo.fugacity.calls", "count"), ("thermo.fugacity.self_s", "s"), ("thermo.scan_csv.s", "s"),
     ("density.profile.s", "s"), ("density.column.s", "s"), ("density.raster_io.s", "s")]
    + [(f"trapfield.{c}.s", "s") for c in TRAP_CALLS]
    + [(f"trapfield.{c}.field_calls", "count") for c in TRAP_CALLS]
    + [("trapfield.field.points", "count"),
       ("rfdress.dressed_potential.s", "s"), ("rfdress.characterize_wells.s", "s"),
       ("imagefit.synthesize.s", "s"), ("imagefit.fit_gaussian.s", "s"),
       ("imagefit.fit_fermi_dirac.s", "s"), ("imagefit.fit_fermi_dirac.cpu_s", "s"),
       ("imagefit.fit_fermi_dirac.model_evals", "count"),
       ("benchmarks.fit_rows.s", "s"), ("benchmarks.numerics_rows.s", "s"),
       ("benchmarks.other_rows.s", "s"), ("cli.import.s", "s")]
    + [(f"cli.{c}.s", "s") for c in CLI_COMMANDS]
)


class BenchError(RuntimeError):
    pass


def _python(root: Path, args, deadline: float) -> dict:
    """Run a perfbench script in a fresh interpreter and parse its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted")
    # own process group, so a timeout also ends the CLI commands a worker started
    with subprocess.Popen([sys.executable, *map(str, args)], cwd=root, env=env, start_new_session=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{args[0]} did not finish within the time budget")
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited {proc.returncode}:\n{err.decode()[-2000:]}")
    return json.loads(out.decode().strip().splitlines()[-1])


def _worker(root, out_dir, args, deadline, setup_only=False) -> dict:
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        argv = [HERE / "worker.py", args.workload, args.seed, args.seconds, args.trace,
                repr(time.time()), workdir]
        return _python(root, argv + (["--setup-only"] if setup_only else []), deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end(res: dict, setups) -> dict:
    """Item costs in units of the reference computation timed just before
    each item; wall-clock seconds drift between runs on a shared machine
    (see README), the ratios much less."""
    wall, ref, cpu = res["wall"], res["ref"], res["cpu"]
    n = len(wall)
    return {
        "setup_s": statistics.median(setups),
        "items_per_kref": 1000.0 * n / sum(w / r for w, r in zip(wall, ref)),
        "item_p50_ref": statistics.median(w / r for w, r in zip(wall, ref)),
        "cpu_ref_per_item": sum(c / r for c, r in zip(cpu, ref)) / n,
        "peak_rss_mb": res["peak_rss_mb"],
    }


def wall_clock(res: dict) -> dict:
    """The same figures in seconds, for the record; not gated."""
    wall, cpu = res["wall"], res["cpu"]
    return {
        "items_per_s": len(wall) / sum(wall),
        "item_p50_s": statistics.median(wall),
        "cpu_s_per_item": sum(cpu) / len(wall),
        "ref_p50_s": statistics.median(res["ref"]),
    }


def per_layer(totals: dict, items: int, probes) -> dict:
    total, self_s, cpu, counts = (totals.get(k, {}) for k in ("total_s", "self_s", "cpu_s", "counts"))
    paper_checks = counts.get("cli.paper-check.calls", 0)
    out = {
        "polylog.fermi_fn.calls": counts.get("polylog.fermi_fn.calls", 0) / items,
        "polylog.fermi_fn.points": counts.get("polylog.fermi_fn.points", 0) / items,
        "polylog.fermi_fn.self_s": self_s.get("polylog.fermi_fn", 0.0) / items,
        "polylog.first_call_s": statistics.median(sum(p["first_call_s"].values()) for p in probes),
        "thermo.fugacity.calls": counts.get("thermo.fugacity.calls", 0) / items,
        "thermo.fugacity.self_s": self_s.get("thermo.fugacity", 0.0) / items,
        "thermo.scan_csv.s": total.get("thermo.scan_csv", 0.0) / items,
        "density.profile.s": total.get("density.profile", 0.0) / items,
        "density.column.s": total.get("density.column", 0.0) / items,
        "density.raster_io.s": total.get("density.raster_io", 0.0) / items,
        "trapfield.field.points": counts.get("trapfield.field.points", 0) / items,
        "rfdress.dressed_potential.s": total.get("rfdress.dressed_potential", 0.0) / items,
        "rfdress.characterize_wells.s": total.get("rfdress.characterize_wells", 0.0) / items,
        "imagefit.synthesize.s": total.get("imagefit.synthesize", 0.0) / items,
        "imagefit.fit_gaussian.s": total.get("imagefit.fit_gaussian", 0.0) / items,
        "imagefit.fit_fermi_dirac.s": total.get("imagefit.fit_fermi_dirac", 0.0) / items,
        "imagefit.fit_fermi_dirac.cpu_s": cpu.get("imagefit.fit_fermi_dirac", 0.0) / items,
        "imagefit.fit_fermi_dirac.model_evals":
            counts.get("imagefit.fit_fermi_dirac.model_evals", 0) / items,
        "cli.import.s": statistics.median(p["import_s"] for p in probes),
    }
    for c in TRAP_CALLS:
        out[f"trapfield.{c}.s"] = total.get(f"trapfield.{c}", 0.0) / items
        out[f"trapfield.{c}.field_calls"] = counts.get(f"trapfield.{c}.field_calls", 0) / items
    # paper-check groups per paper-check run, commands per run of that command
    for group in ("fit_rows", "numerics_rows", "other_rows"):
        out[f"benchmarks.{group}.s"] = total.get(f"benchmarks.{group}", 0.0) / max(paper_checks, 1)
    for c in CLI_COMMANDS:
        out[f"cli.{c}.s"] = total.get(f"cli.{c}", 0.0) / max(counts.get(f"cli.{c}.calls", 0), 1)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "fermichip" / "cli.py").is_file():
        print("perfbench: no fermichip sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    try:
        if args.trace:
            probes = [_python(root, [HERE / "probe.py"], deadline) for _ in range(LAYER_PROBES)]
            res = _worker(root, out_dir, args, deadline)
            setups = [res["setup_s"]]
        else:
            setups = [_worker(root, out_dir, args, deadline, setup_only=True)["setup_s"]
                      for _ in range((SETUP_STARTS - 1) // 2)]
            res = _worker(root, out_dir, args, deadline)
            setups += [_worker(root, out_dir, args, deadline, setup_only=True)["setup_s"]
                       for _ in range(SETUP_STARTS - 1 - len(setups))] + [res["setup_s"]]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if not res["wall"]:
        print("perfbench: every operation failed:\n" + "\n".join(res["failures"][:3]), file=sys.stderr)
        return 1

    e2e = end_to_end(res, setups)
    seconds = wall_clock(res)
    if args.trace:
        items = len(res["wall"])
        values, units = per_layer(res["totals"], items, probes), dict(PER_LAYER)
        print("perfbench traced: " + json.dumps(dict(e2e, **seconds)), file=sys.stderr)
    else:
        values, units = e2e, dict(END_TO_END)
        print("perfbench seconds: " + json.dumps(seconds), file=sys.stderr)
    for msg in res["check_errors"][:10] + res["failures"][:3]:
        print(f"perfbench {args.workload}: {msg}", file=sys.stderr)
    result = {
        "correct": not res["check_errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(dict(result, seconds=seconds, setups=setups, raw=res), indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
