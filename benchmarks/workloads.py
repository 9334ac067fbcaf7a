"""Case lists and per-case checks of the four benchmark workloads.

Every call into hookweight goes through a module attribute (``hw.rf_equal``,
``fqsym.dual_forest_prereqs``) at call time, so that the tracer's wrappers,
which replace those attributes, see the calls made from here too.

A case is a plain tuple, so that it pickles cheaply into pool workers.
"""

from __future__ import annotations

import os
import random
import time
import traceback
from itertools import permutations

import hookweight as hw
import hostspeed
from hookweight import fqsym

# The suites' --nmax in smoke mode; the full runs use the CLI's defaults.
SMOKE_NMAX = {"hook": 3, "bw-inv": 3, "bw-maj": 3, "pbt": 3, "weights": 4,
              "pascal": 4}

# (full, smoke) sizes of the library workloads.
GAMMA_N = (5, 3)
QT_N = (6, 3)
ROUNDTRIP_PERM_N = (6, 3)
ROUNDTRIP_FOREST_NMAX = (5, 2)
QT_Q = 2


def verify_argv(suite: str, smoke: bool) -> list[str]:
    argv = ["verify", "--suite", suite]
    if smoke:
        argv += ["--nmax", str(SMOKE_NMAX[suite])]
    return argv


def make_cases(workload: str, smoke: bool) -> list[tuple]:
    """The whole stated set of the workload, in enumeration order.

    The set is not subsampled: the per-case cost is clustered and heavy
    tailed, so a subsample moves the median and the total by more than the
    benchmark's bounds from one seed to the next.
    """
    size = 1 if smoke else 0
    if workload == "gamma":
        cases = [("gamma", p.n, p.cover)
                 for p in hw.enumerate_dual_forests(GAMMA_N[size])]
    elif workload == "qt":
        cases = [("qt", p.n, p.cover)
                 for p in hw.enumerate_rl_forests(QT_N[size])]
    elif workload == "roundtrip":
        n = ROUNDTRIP_PERM_N[size]
        cases = [("perm", w) for w in permutations(range(1, n + 1))]
        cases += [("forest", p.n, p.cover)
                  for m in range(ROUNDTRIP_FOREST_NMAX[size] + 1)
                  for p in hw.enumerate_rl_forests(m)]
    else:
        raise ValueError(f"no case list for workload {workload!r}")
    return cases


def shuffled(cases: list[tuple], seed: int) -> list[tuple]:
    """The serial passes' order: a permutation drawn from ``seed``."""
    out = list(cases)
    random.Random(seed).shuffle(out)
    return out


def _roundtrip(a, b) -> bool:
    """Print both sides, parse them back, compare and print again."""
    sa = hw.rf_to_canonical_string(a)
    sb = hw.rf_to_canonical_string(b)
    pa = hw.parse_ratfunc(sa)
    pb = hw.parse_ratfunc(sb)
    return (hw.rf_equal(pa, pb)
            and hw.rf_to_canonical_string(pa) == sa
            and hw.rf_to_canonical_string(pb) == sb)


def run_case(case: tuple) -> bool:
    kind = case[0]
    if kind == "gamma":
        p = hw.DualForestPoset(case[1], case[2])
        return hw.rf_equal(hw.gamma_extension_sum(fqsym.dual_forest_prereqs(p)),
                           hw.gamma_dual_forest(p))
    if kind == "qt":
        p = hw.ForestPoset(case[1], case[2])
        return (hw.spec_qt(hw.L_of_forest(p), QT_Q)
                == hw.spec_qt(hw.H_of_forest(p), QT_Q))
    if kind == "perm":
        w = hw.Permutation(case[1])
        return _roundtrip(hw.wt_perm_recursive(w), hw.wt_perm_tree(w))
    if kind == "forest":
        p = hw.ForestPoset(case[1], case[2])
        return _roundtrip(hw.L_of_forest(p), hw.H_of_forest(p))
    raise ValueError(f"unknown case kind {kind!r}")


def checked_case(case: tuple) -> bool:
    """run_case, with an exception counted as a failed case."""
    try:
        return run_case(case) is True
    except Exception:  # a failing case must not stop the run
        traceback.print_exc()
        return False



def probed_case(case: tuple) -> tuple[bool, tuple[float, float, int, float]]:
    """checked_case, with its start and end, the process and a host-speed
    probe run right after it (see hostspeed.scale_cases)."""
    start = time.perf_counter()
    ok = checked_case(case)
    end = time.perf_counter()
    return ok, (start, end, os.getpid(), hostspeed.probe())
