"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload analytic-epipolar --seed 0 --seconds 45 --trace 0

Pins BLAS to one thread before numpy loads, and imports the library from
``src/`` of the checkout this file sits in. With ``--trace 0`` it runs
one whole unit of the workload, then more units, cut at a view boundary,
until ``--seconds`` have passed (at least one view of a second unit, to
compare with the first), sets up a few more times, and reports the
end-to-end metrics; with ``--trace 1`` it runs a traced, an untraced and
a traced unit and reports the per-layer metrics. Either way it checks
every output, prints one metric per line, writes details (and spans) to
``perfbench/out/``, and prints a JSON summary as the last line of
standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The library's matrices are at most a few hundred rows: a second BLAS
# thread doubles CPU time without shortening a toyunet predict, and its
# spinning competes with the benchmark's own thread. One is also never
# more than the CPUs available.
BLAS_THREADS = 1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def untraced(wl, spec: dict, inp, seconds: float) -> tuple:
    deadline = time.perf_counter() + seconds
    units = [wl.run_unit(spec, inp, traced=False)]
    while len(units) < 2 or time.perf_counter() < deadline:
        units.append(wl.run_unit(spec, inp, traced=False, deadline=deadline))
    wl.check_repeats(units)
    if units[0].failed:
        return units, None, None
    ok = [u for u in units if not u.failed]
    setups, t0 = [], time.perf_counter()
    while (sum(len(u.runs) for u in ok) + len(setups) < wl.SETUPS
           or time.perf_counter() - t0 < wl.SETUP_SECONDS):
        setups.append(wl.setup_only(spec, inp))
    metrics, details = wl.end_to_end(spec, inp, ok, setups)
    return units, metrics, details


def traced(wl, spec: dict, inp) -> tuple:
    # the untraced unit runs between the traced ones, so that it and the
    # second traced unit both run after the process's first unit, which
    # also pays for growing the heap
    units = [wl.run_unit(spec, inp, traced=t) for t in (True, False, True)]
    wl.check_repeats(units)
    if any(u.failed for u in units):
        return units, None, None
    traced_units = [units[0], units[2]]
    counts = [wl.unit_counts(u) for u in traced_units]
    if counts[0] != counts[1]:
        print("error: traced units disagree on exact counts", file=sys.stderr)
        for u in traced_units:
            for r in u.runs:
                r.failed = True
    metrics, details = wl.per_layer(spec, units[1], traced_units)
    return units, metrics, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    try:
        import epiview
    except ImportError as e:
        print(f"error: cannot import epiview from {SRC}: {e}", file=sys.stderr)
        return 1
    if Path(epiview.__file__).resolve().parent.parent != SRC:
        print(f"error: epiview imported from {epiview.__file__}, not {SRC}", file=sys.stderr)
        return 1
    import numpy as np
    import workloads as wl

    specs = json.loads((HERE / "workloads.json").read_text())
    if args.workload not in specs:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(specs)}", file=sys.stderr)
        return 2
    spec = specs[args.workload]
    env = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
           "blas_threads": BLAS_THREADS,
           "numpy": np.__version__, "python": platform.python_version(), "cpu": cpu_model()}

    inp = wl.make_inputs(spec, args.seed)
    if args.trace:
        units, metrics, details = traced(wl, spec, inp)
    else:
        units, metrics, details = untraced(wl, spec, inp, args.seconds)
    if metrics is None:
        print("error: the first unit of work failed", file=sys.stderr)
        return 1
    attempted = wl.attempted_views(inp, units)
    failed = wl.failed_views(inp, units)

    for name, (value, unit) in metrics.items():
        note = " (reported only)" if name in wl.REPORTED_ONLY else ""
        print(f"{name:34s} {value:>16.6g} {unit}{note}")
    print(f"{'fail_frac':34s} {failed / attempted:>16.6g} ({failed}/{attempted} views)")
    if args.trace:
        print("computed", json.dumps(details["computed"]))
    else:
        print("details", json.dumps(details))
    print("env", json.dumps(env))

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "spec": spec, "metrics": metrics, "details": details,
              "attempted": attempted, "failed": failed}
    if args.trace:
        record["spans"] = [units[0].tracer.spans, units[2].tracer.spans]
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if k not in wl.REPORTED_ONLY},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
