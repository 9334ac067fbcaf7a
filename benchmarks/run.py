"""Benchmark of hookweight: end-to-end metrics, or a traced per-layer run.

    python3 benchmarks/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all        # every workload, one go
    python3 benchmarks/run.py --smoke               # tiny sizes, self-check

W is one of verify, gamma, qt, roundtrip.  Every pass runs in a fresh
interpreter (benchmarks/child.py), because the program's lru_caches start
empty on every CLI run.  A run repeats serial-plus-pool rounds while another
one fits in S seconds, and always makes at least one.  The last line of
stdout is one JSON object: correct, attempted, failed and the metrics (the
end-to-end ones with --trace 0, the per-layer ones with --trace 1).

See benchmarks/README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from math import ceil
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

WORKLOADS = ("verify", "gamma", "qt", "roundtrip")
SUITES = ("hook", "bw-inv", "bw-maj", "pbt", "weights", "pascal")

# Every child must end before this many seconds into the run, so that the
# whole run exits well within three minutes even when a pass hangs.
HARD_LIMIT_S = 165.0
# A run sets up at least this many fresh interpreters; setup_s is their median.
SETUP_SAMPLES = 7

END_TO_END = {
    "wall_s": "s", "wall_par_s": "s", "case_p50_ms": "ms",
    "case_p99_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB",
}

PER_LAYER = {
    "ratfunc.self_s": "s", "ratfunc.calls": "count",
    "ratfunc.frf_add.self_s": "s",
    "ratfunc.trial_div.tried": "count", "ratfunc.trial_div.hit": "count",
    "ratfunc.trial_div.hit_ratio": "ratio",
    "ratfunc.max_dividend_terms": "terms",
    "ratfunc.materialize.calls": "count", "ratfunc.materialize.self_s": "s",
    "ratfunc.reconstruct.calls": "count",
    "specialize.self_s": "s", "specialize.unirat.calls": "count",
    "specialize.unirat.self_s": "s", "specialize.max_degree": "degree",
    "weights.self_s": "s", "weights.calls": "count",
    "weights.L_cache.hit_ratio": "ratio", "weights.wt_cache.hit_ratio": "ratio",
    "combinat.self_s": "s", "combinat.enum.self_s": "s",
    "combinat.linext.calls": "count", "combinat.linext.self_s": "s",
    "fqsym.self_s": "s", "fqsym.calls": "count",
    "qanalog.self_s": "s",
    "parsing.self_s": "s", "parsing.calls": "count",
    "cli.self_s": "s",
    **{f"cli.suite.{suite}.s": "s" for suite in SUITES},
    "cli.pool.speedup": "ratio", "cli.pool.efficiency": "ratio",
    "trace.overhead_frac": "ratio",
}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _wait_group(pgid: int, limit_s: float = 5.0) -> None:
    """Wait until no process of the child's session is left, or limit_s."""
    end = time.monotonic() + limit_s
    while time.monotonic() < end:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def _child(run: "Run", mode: str, suite: str | None = None,
           threads: int = 1) -> dict | None:
    """Run one pass in a fresh interpreter; None if it timed out or crashed."""
    env = dict(os.environ, PYTHONHASHSEED="0", HOOKWEIGHT_THREADS=str(threads))
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(CHILD), run.workload, mode,
           "--seed", str(run.seed), "--threads", str(threads)]
    if suite is not None:
        cmd += ["--suite", suite]
    if run.tiny:
        cmd.append("--smoke")
    remaining = run.deadline - time.monotonic()
    if remaining <= 0:
        return None
    cmd += ["--launched", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    out = None
    try:
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        pass
    finally:  # also when this run is itself interrupted
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
        _wait_group(proc.pid)
    if out is None:
        print(f"timeout: {run.workload} {mode} {suite or ''}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"child failed: {run.workload} {mode} {suite or ''} "
              f"exit {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(out.decode().splitlines()[-1])


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

class Run:
    """The state of one benchmark run: its settings, samples and tallies."""

    def __init__(self, workload: str, seed: int, seconds: float, tiny: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tiny = tiny
        self.start = time.monotonic()
        self.deadline = self.start + HARD_LIMIT_S
        self.nproc = _nproc()
        self.attempted = 0
        self.failed = 0
        self.setups: list[float] = []
        self.cases = 0
        digests = json.loads((HERE / "verify_digests.json").read_text())
        self.digests = digests["smoke" if tiny else "default"]

    def setup_only(self, count: int) -> None:
        """Start ``count`` interpreters that stop before the first case."""
        for i in range(count):
            suite = SUITES[i % len(SUITES)] if self.workload == "verify" else None
            res = _child(self, "setup", suite)
            if res is None:
                if not self.setups:
                    raise RuntimeError(f"{self.workload}: set-up failed")
                return
            self.setups.append(res["setup_s"])
            self.cases = res.get("cases", len(SUITES))

    def run_pass(self, mode: str) -> dict:
        """One serial, pool or traced pass over the workload's cases.

        Returns wall_s, rss_mb, case_s (per-case seconds; for verify, per
        suite command), suite_s and, for a traced pass, the merged trace.
        """
        threads = self.nproc if mode == "pool" else 1
        if self.workload == "verify":
            return self._verify_pass(mode, threads)
        t0 = time.monotonic()
        res = _child(self, mode, threads=threads)
        self.attempted += self.cases
        if res is None:
            self.failed += self.cases
            elapsed = time.monotonic() - t0
            return {"wall_s": elapsed, "wall_raw_s": elapsed, "rss_mb": 0.0,
                    "case_s": [], "suite_s": {}, "trace": None,
                    "timed_out": True}
        self.failed += res["failed"]
        self.setups.append(res["setup_s"])
        return {"wall_s": res["wall_s"], "wall_raw_s": res["wall_raw_s"],
                "rss_mb": res["rss_mb"],
                "case_s": res.get("case_s", []), "suite_s": {},
                "trace": res.get("trace"), "timed_out": False}

    def _verify_pass(self, mode: str, threads: int) -> dict:
        out = {"wall_s": 0.0, "wall_raw_s": 0.0, "rss_mb": 0.0, "case_s": [],
               "suite_s": {}, "trace": None, "timed_out": False}
        for i, suite in enumerate(SUITES):
            res = _child(self, mode, suite, threads)
            if res is None:  # this suite and the ones after it all fail
                self.attempted += len(SUITES) - i
                self.failed += len(SUITES) - i
                out["timed_out"] = True
                break
            self.attempted += 1
            if res["exit_code"] != 0 or res["sha256"] != self.digests[suite]:
                print(f"verify {suite} ({mode}): exit {res['exit_code']}, "
                      f"output digest {res['sha256']}", file=sys.stderr)
                self.failed += 1
            self.setups.append(res["setup_s"])
            out["wall_s"] += res["wall_s"]
            out["wall_raw_s"] += res["wall_raw_s"]
            out["rss_mb"] = max(out["rss_mb"], res["rss_mb"])
            out["case_s"].append(res["wall_s"])
            out["suite_s"][suite] = res["wall_s"]
            if "trace" in res:
                out["trace"] = _merge_traces(out["trace"], res["trace"])
        return out

    def measure(self) -> tuple[dict, dict]:
        """Serial-plus-pool rounds for about ``seconds``; end-to-end metrics."""
        self.setup_only(1)
        serial, pool = [], []
        while True:
            r0 = time.monotonic()
            serial.append(self.run_pass("serial"))
            pool.append(self.run_pass("pool"))
            now = time.monotonic()
            if serial[-1]["timed_out"] or pool[-1]["timed_out"]:
                break
            if now - self.start + (now - r0) > self.seconds:
                break
        if len(self.setups) < SETUP_SAMPLES:
            self.setup_only(SETUP_SAMPLES - len(self.setups))
        case_s = sorted(t for p in serial for t in p["case_s"]) or [0.0]
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in serial),
            "wall_par_s": statistics.median(p["wall_s"] for p in pool),
            "case_p50_ms": 1000 * statistics.median(case_s),
            "case_p99_ms": 1000 * case_s[ceil(0.99 * len(case_s)) - 1],
            "setup_s": statistics.median(self.setups),
            "peak_rss_mb": max(p["rss_mb"] for p in serial + pool),
        }
        info = {"rounds": len(serial), "case_samples": len(case_s),
                "setup_samples": len(self.setups), "trace.overhead_frac": None,
                "unscaled_wall_s": statistics.median(p["wall_raw_s"]
                                                     for p in serial),
                "unscaled_wall_par_s": statistics.median(p["wall_raw_s"]
                                                         for p in pool)}
        return metrics, info

    def measure_traced(self) -> tuple[dict, dict]:
        """Untraced serial and pool passes, then one traced serial pass."""
        self.setup_only(1)
        serial = self.run_pass("serial")
        pool = self.run_pass("pool")
        traced = self.run_pass("traced")
        trace = traced["trace"] or _merge_traces(None, None)
        overhead = _ratio(traced["wall_s"], serial["wall_s"]) - 1
        speedup = _ratio(serial["wall_s"], pool["wall_s"])
        metrics = _layer_metrics(trace)
        metrics.update({f"cli.suite.{s}.s": serial["suite_s"].get(s, 0.0)
                        for s in SUITES})
        metrics["cli.pool.speedup"] = speedup
        metrics["cli.pool.efficiency"] = speedup / self.nproc
        metrics["trace.overhead_frac"] = overhead
        info = {"rounds": 1, "case_samples": len(serial["case_s"]),
                "setup_samples": len(self.setups),
                "trace.overhead_frac": overhead,
                "absent": sorted(set(trace["absent"]))}
        return metrics, info


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

def _merge_traces(a: dict | None, b: dict | None) -> dict:
    """Sum two traces of separate processes (counts add, maxima take max)."""
    out = {"stats": {}, "counters": {}, "caches": {}, "absent": []}
    for t in (a, b):
        if t is None:
            continue
        for span, vals in t["stats"].items():
            cur = out["stats"].setdefault(span, [0, 0.0, 0.0])
            for i, v in enumerate(vals):
                cur[i] += v
        for name, v in t["counters"].items():
            prev = out["counters"].get(name, 0)
            out["counters"][name] = max(prev, v) if name.startswith("max_") \
                else prev + v
        for name, (hits, misses) in t["caches"].items():
            h, m = out["caches"].get(name, (0, 0))
            out["caches"][name] = (h + hits, m + misses)
        out["absent"] += t["absent"]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_metrics(trace: dict) -> dict:
    stats, counters = trace["stats"], trace["counters"]

    def total(prefix: str, field: int) -> float:
        return sum(v[field] for k, v in stats.items()
                   if k == prefix or k.startswith(prefix + "."))

    m = {}
    for layer in ("ratfunc", "specialize", "weights", "combinat", "fqsym",
                  "qanalog", "parsing", "cli"):
        m[f"{layer}.self_s"] = total(layer, 2)
        m[f"{layer}.calls"] = total(layer, 0)
    tried = total("ratfunc.trial_div", 0)
    hit = counters.get("trial_div.hit", 0)
    m.update({
        "ratfunc.frf_add.self_s": total("ratfunc.frf_add", 2),
        "ratfunc.trial_div.tried": tried,
        "ratfunc.trial_div.hit": hit,
        "ratfunc.trial_div.hit_ratio": _ratio(hit, tried),
        "ratfunc.max_dividend_terms": counters.get("max_dividend_terms", 0),
        "ratfunc.materialize.calls": total("ratfunc.materialize", 0),
        "ratfunc.materialize.self_s": total("ratfunc.materialize", 2),
        "ratfunc.reconstruct.calls": total("ratfunc.reconstruct", 0),
        "specialize.unirat.calls": total("specialize.unirat", 0),
        "specialize.unirat.self_s": total("specialize.unirat", 2),
        "specialize.max_degree": counters.get("max_degree", 0),
        "combinat.enum.self_s": total("combinat.enum", 2),
        "combinat.linext.calls": total("combinat.linext", 0),
        "combinat.linext.self_s": total("combinat.linext", 2),
    })
    for name in ("weights.L_cache", "weights.wt_cache"):
        hits, misses = trace["caches"].get(name, (0, 0))
        m[f"{name}.hit_ratio"] = _ratio(hits, hits + misses)
    return {k: v for k, v in m.items() if k in PER_LAYER}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return proc.stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool) -> dict:
    run = Run(workload, seed, seconds, tiny)
    metrics, info = run.measure_traced() if trace else run.measure()
    units = PER_LAYER if trace else END_TO_END
    stamp = {"workload": workload, "seed": seed, "trace": int(trace),
             "git_sha": _git_sha(), "python": platform.python_version(),
             "nproc": run.nproc, "cpu": _cpu_model(), "cases": run.cases,
             **info}
    print("stamp " + json.dumps(stamp))
    for name, unit in units.items():
        print(f"{workload:9s} {name:30s} {metrics[name]:14.6f} {unit}")
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def smoke() -> int:
    """Run every workload tiny, traced and not; check every metric prints."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny"],
                capture_output=True, text=True, timeout=170)
            tag = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"] or not result["attempted"]:
                problems.append(f"{tag}: failed {result['failed']} of "
                                f"{result['attempted']}")
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{tag}: {metric['name']} missing or "
                                    f"not in {metric['unit']}: {got}")
            print(f"smoke {tag}: {result['attempted']} attempted, "
                  f"{result['failed']} failed, {len(result['metrics'])} metrics")
    for p in problems:
        print("SMOKE FAIL " + p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: every workload at a toy size")
    parser.add_argument("--smoke", action="store_true",
                        help="run the tiny self-check of every workload")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "hookweight" / "__init__.py").is_file():
        print(f"error: no hookweight sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in names:
        result = run_workload(workload, args.seed, args.seconds,
                              bool(args.trace), args.size == "tiny")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
