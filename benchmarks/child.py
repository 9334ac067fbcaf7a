"""One measured pass of a workload, in a fresh interpreter.

    python3 benchmarks/child.py WORKLOAD MODE --seed N --launched T
        [--suite S] [--threads K] [--smoke]

MODE is ``serial`` (time every case in this process), ``pool`` (the same cases
on K processes), ``traced`` (serial, with the span tracer installed after
set-up) or ``setup`` (stop before the first case).  For ``verify`` a pass is
one ``hookweight verify --suite S`` command; HOOKWEIGHT_THREADS is set by the
caller.  ``--launched`` is the CLOCK_MONOTONIC time at which the caller
started this process, so that set-up counts from interpreter start.

Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import multiprocessing
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import redirect_stdout
from pathlib import Path

# Imports of the program count as set-up, so they come after this line.
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _rss_mb(pool_workers: int) -> float:
    """Own peak RSS plus, for a pool, the largest worker's peak per worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_workers * worker) / 1024.0


def _run_verify(args) -> dict:
    from hookweight.cli import main
    import hostspeed
    import tracer
    import workloads
    out = {}
    tr = None
    if args.mode == "traced":
        tr = tracer.Tracer()
        tr.install()
        main = sys.modules["hookweight.cli"].main
    else:
        tracer.assert_unwrapped()
    out["setup_s"] = time.monotonic() - args.launched
    if args.mode == "setup":
        return out
    buf = io.StringIO()
    serial = args.threads == 1
    probes = hostspeed.ProbeTimer() if serial else hostspeed.ForkedProbes()
    with probes, redirect_stdout(buf):
        t0 = time.perf_counter()
        rc = main(workloads.verify_argv(args.suite, args.smoke))
        t1 = time.perf_counter()
    if serial:
        out["wall_raw_s"], out["wall_s"] = \
            hostspeed.Timeline(probes.probes).scaled(t0, t1)
    else:
        out["wall_raw_s"] = t1 - t0
        out["wall_s"] = (t1 - t0) * hostspeed.pool_factor(probes.probes, t0, t1)
    out["exit_code"] = rc
    out["sha256"] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    out["rss_mb"] = _rss_mb(0 if serial else args.threads)
    if tr is not None:
        out["trace"] = tr.report()
    return out


def _run_library(args) -> dict:
    import hostspeed
    import tracer
    import workloads
    cases = workloads.make_cases(args.workload, args.smoke)
    if args.mode != "pool":
        cases = workloads.shuffled(cases, args.seed)
    out = {"cases": len(cases)}
    tr = None
    if args.mode == "traced":
        tr = tracer.Tracer()
        tr.install()
    else:
        tracer.assert_unwrapped()
    out["setup_s"] = time.monotonic() - args.launched
    if args.mode == "setup":
        return out
    if args.mode == "pool":
        # Small chunks in enumeration order: with the CLI's larger chunks or
        # the seed's order, where the few slowest cases fall decides the
        # tail, and one case per task costs the parent a wake-up per case.
        chunk = max(1, len(cases) // (args.threads * 32))
        ctx = multiprocessing.get_context("spawn")
        t0 = time.perf_counter()
        with ProcessPoolExecutor(max_workers=args.threads,
                                 mp_context=ctx) as pool:
            results = list(pool.map(workloads.probed_case, cases,
                                    chunksize=chunk))
        wall = time.perf_counter() - t0
    else:
        results = [workloads.probed_case(case) for case in cases]
    ok = [r[0] for r in results]
    times = hostspeed.scale_cases([r[1] for r in results])
    raw = sum(t for t, _ in times)
    scaled = sum(t for _, t in times)
    if args.mode == "pool":
        # Each worker's cases are scaled by its own probes; the pass by
        # their work-weighted mean.
        out["wall_raw_s"] = wall
        out["wall_s"] = wall * scaled / raw if raw else wall
        out["rss_mb"] = _rss_mb(args.threads)
    else:
        out["wall_raw_s"] = raw
        out["wall_s"] = scaled
        out["case_s"] = [t for _, t in times]
        out["rss_mb"] = _rss_mb(0)
    out["failed"] = ok.count(False)
    if tr is not None:
        out["trace"] = tr.report()
    return out


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("mode", choices=["serial", "pool", "traced", "setup"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--suite")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    run = _run_verify if args.workload == "verify" else _run_library
    print(json.dumps(run(args)))


if __name__ == "__main__":
    main()
