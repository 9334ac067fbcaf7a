"""Command-line interface: weight-perm, hook, linext, specialize, verify.

Exit codes: 0 success (or verified equal), 1 verification failure,
2 input error, 3 specialization error (a vanishing denominator, an
exponent or a size beyond its bound, including a number with more digits
than Python converts to a string and a multivariate value too large to
print).  The verify sweeps honor
HOOKWEIGHT_THREADS (default and upper bound: all cores) and emit case lines
in a fixed order regardless of scheduling.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import combinations
from itertools import permutations as _permutations

from .combinat import (
    DualForestPoset,
    ForestPoset,
    Permutation,
    count_linear_extensions,
    enumerate_dual_forests,
    enumerate_rl_forests,
    inv,
    linear_extensions,
    tree_pair_stats,
)
from .fqsym import (
    FQSymElem,
    check_pbt_morphism,
    fqsym_mul,
    phi_inv,
    verify_bw_maj,
)
from .parsing import ParseError, parse_ratfunc
from .qanalog import _pascal_holds, binomial, skew_equal, skew_mul
from .ratfunc import (
    DivisionByZeroError,
    RatFunc,
    SizeBoundError,
    SpecializationError,
    _int_str,
    rf_equal,
    rf_to_canonical_string,
)
from .specialize import (
    UniRatFunc,
    spec_q,
    spec_qt,
    verify_bw_inv,
)
from .weights import (
    H_of_forest,
    L_of_forest,
    NotRecursivelyLabelledError,
    _wt_of_pairs,
    wt_perm_recursive,
    wt_perm_tree,
    wt_subset,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_SPECIALIZE = 3

# suite -> (default --nmax, largest --nmax)
_SUITE_NMAX = {
    "hook": (6, 7),
    "bw-inv": (6, 7),
    "bw-maj": (5, 6),
    "pbt": (6, 7),
    "weights": (7, 8),
    "pascal": (10, 12),
}


class InputError(ValueError):
    pass


def _is_int(v) -> bool:
    """A JSON integer: bool is a subclass of int but not a number here."""
    return isinstance(v, int) and not isinstance(v, bool)


def _parse_perm(text: str) -> Permutation:
    try:
        if text.strip().startswith("["):
            parts = json.loads(text)
            if not isinstance(parts, list) or not all(map(_is_int, parts)):
                raise ValueError("entries must be integers")
        else:
            parts = [int(p) for p in text.replace(",", " ").split()]
        return Permutation(parts)
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed permutation {text!r}: {exc}") from None


_FOREST_KEYS = ("n", "covers", "covered_by")

# Largest n a forest file may declare.  A chain this long still lists its one
# extension at once, any wider forest has far too many extensions to list,
# and the limit bounds what building the poset allocates.
MAX_FOREST_N = 10_000


def _load_forest_file(path: str):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read forest file {path}: {exc}") from None
    if not isinstance(data, dict) or "n" not in data:
        raise InputError(f"forest file {path} must be a JSON object with 'n'")
    for key in data:
        if key not in _FOREST_KEYS:
            raise InputError(f"forest file {path}: unknown key {key!r}; "
                             f"expected 'n' and 'covers' or 'covered_by'")
    if "covers" in data and "covered_by" in data:
        raise InputError(f"forest file {path}: give 'covers' or "
                         f"'covered_by', not both")
    n = data["n"]
    if not _is_int(n) or n < 0:
        raise InputError(f"forest file {path}: 'n' must be a non-negative "
                         f"integer, got {n!r}")
    if n > MAX_FOREST_N:
        raise InputError(f"forest file {path}: 'n' is {n}, above the limit "
                         f"of {MAX_FOREST_N}")
    key = "covered_by" if "covered_by" in data else "covers"
    pairs = data.get(key, [])
    if not isinstance(pairs, list) or not all(
            isinstance(pair, list) and len(pair) == 2
            and all(map(_is_int, pair)) for pair in pairs):
        raise InputError(f"forest file {path}: {key!r} must be a list of "
                         f"[i, j] integer pairs")
    try:
        if key == "covered_by":
            return DualForestPoset.from_covered_by(n, pairs)
        return ForestPoset.from_covers(n, pairs)
    except ValueError as exc:
        raise InputError(f"invalid forest in {path}: {exc}") from None


def _require_forest(poset) -> ForestPoset:
    if isinstance(poset, DualForestPoset):
        raise InputError("this command needs a forest file with 'covers'")
    return poset


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_weight_perm(args) -> int:
    w = _parse_perm(args.perm)
    rec = wt_perm_recursive(w)
    tree = wt_perm_tree(w)
    if not rf_equal(rec, tree):  # pragma: no cover - the definitions agree
        print("INTERNAL ERROR: weight definitions disagree", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    print(rf_to_canonical_string(rec if args.method == "recursive" else tree))
    return EXIT_OK


def cmd_hook(args) -> int:
    p = _require_forest(_load_forest_file(args.forest))
    try:
        left = L_of_forest(p)
        right = H_of_forest(p)
    except NotRecursivelyLabelledError as exc:
        raise InputError(str(exc)) from None
    equal = rf_equal(left, right)
    printed = True
    if args.side in ("L", "both"):
        printed &= _print_line("L(P)", rf_to_canonical_string, left)
    if args.side in ("H", "both"):
        printed &= _print_line("H(P)", rf_to_canonical_string, right)
    printed &= _print_line("|L(P)|", _int_str, count_linear_extensions(p))
    print("EQUAL" if equal else "UNEQUAL")
    if not equal:
        return EXIT_VERIFY_FAIL
    return EXIT_OK if printed else EXIT_SPECIALIZE


def _print_line(label: str, render, value) -> bool:
    """Print ``label = render(value)``, or say on stderr that the value is
    too large to print and return False, so that the verdict still follows.
    """
    try:
        text = render(value)
    except SizeBoundError as exc:
        print(f"specialization error: {label} not printed: {exc}",
              file=sys.stderr)
        return False
    print(f"{label} = {text}")
    return True


def cmd_linext(args) -> int:
    p = _load_forest_file(args.forest)
    if args.count:
        print(_int_str(count_linear_extensions(p)))
    else:
        for w in linear_extensions(p):
            print(",".join(map(str, w)))
    return EXIT_OK


def cmd_specialize(args) -> int:
    if args.map == "qt":
        if args.qval is None:
            raise InputError("--map qt requires --qval")
        if args.qval < 2:
            raise InputError(f"--qval must be an integer >= 2, got {args.qval}")
    elif args.qval is not None:
        raise InputError("--qval applies only to --map qt")
    if args.side is not None and args.forest is None:
        raise InputError("--side applies only to --forest")
    if args.expr is not None:
        try:
            value = parse_ratfunc(args.expr)
        except ParseError as exc:
            raise InputError(str(exc)) from None
    elif args.perm is not None:
        value = wt_perm_recursive(_parse_perm(args.perm))
    elif args.forest is not None:
        p = _require_forest(_load_forest_file(args.forest))
        try:
            value = L_of_forest(p) if args.side == "L" else H_of_forest(p)
        except NotRecursivelyLabelledError as exc:
            raise InputError(str(exc)) from None
    else:
        raise InputError("one of --expr, --perm, --forest is required")
    if args.map == "q":
        print(spec_q(value).to_string("q"))
    else:
        print(spec_qt(value, args.qval).to_string("t"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _covers_label(covers) -> str:
    return "".join(f"({i},{p})" for i, p in covers) or "antichain"


def _suite_cases(suite: str, nmax: int) -> list[tuple[str, tuple]]:
    cases: list[tuple[str, tuple]] = []
    if suite in ("hook", "bw-inv", "bw-maj"):
        forests = (enumerate_dual_forests if suite == "bw-maj"
                   else enumerate_rl_forests)
        for n in range(0, nmax + 1):
            for p in forests(n):
                label = f"{suite} n={n} {_covers_label(p.covers())}"
                cases.append((label, (suite, p)))
    elif suite == "pbt":
        forests = [list(enumerate_rl_forests(n)) for n in range(nmax)]
        for n1 in range(1, nmax):
            for n2 in range(1, nmax - n1 + 1):
                for p in forests[n1]:
                    for q in forests[n2]:
                        label = (f"pbt |P|={n1} {_covers_label(p.covers())} "
                                 f"|Q|={n2} {_covers_label(q.covers())}")
                        cases.append((label, ("pbt", p, q)))
        cases.append(("pbt counterexample F[1]*F[2,1,3] expected-UNEQUAL",
                      ("pbt-counterexample",)))
    elif suite == "weights":
        for n in range(0, nmax + 1):
            for w in _permutations(range(1, n + 1)):
                cases.append((f"weights w={','.join(map(str, w))}" if w else
                              "weights w=empty", ("weights", w)))
    elif suite == "pascal":
        for n in range(1, nmax + 1):
            for k in range(0, n + 1):
                cases.append((f"pascal n={n} k={k}", ("pascal", n, k)))
        for n in range(1, min(nmax, 9) + 1):
            for k in range(0, n + 1):
                cases.append((f"binom-sum n={n} k={k}", ("binom-sum", n, k)))
    else:
        raise InputError(f"unknown suite {suite!r}")
    return cases


def _run_case(payload: tuple) -> bool:
    kind = payload[0]
    if kind == "hook":
        return rf_equal(L_of_forest(payload[1]), H_of_forest(payload[1]))
    if kind == "bw-inv":
        return verify_bw_inv(payload[1])
    if kind == "bw-maj":
        return verify_bw_maj(payload[1])
    if kind == "pbt":
        return check_pbt_morphism(*payload[1:])
    if kind == "pbt-counterexample":
        lhs = phi_inv(fqsym_mul(FQSymElem.basis([1]), FQSymElem.basis([2, 1, 3])))
        rhs = skew_mul(phi_inv(FQSymElem.basis([1])),
                       phi_inv(FQSymElem.basis([2, 1, 3])))
        return not skew_equal(lhs, rhs)
    if kind == "weights":
        _, w = payload
        w = Permutation(w)
        stats = tree_pair_stats(w)
        rec = wt_perm_recursive(w)
        if not rf_equal(rec, _wt_of_pairs(stats)):
            return False
        n_inv = inv(w)
        if sum(stat.r + 1 for stat in stats) != n_inv:
            return False
        return spec_q(rec) == UniRatFunc._factored(1, n_inv, {})
    if kind == "pascal":
        _, n, k = payload
        return _pascal_holds(n, k)
    if kind == "binom-sum":
        _, n, k = payload
        total = RatFunc._sum(wt_subset(s)
                             for s in combinations(range(1, n + 1), k))
        return rf_equal(total, binomial(n, k))
    raise InputError(f"unknown case kind {kind!r}")


def _thread_count() -> int:
    """HOOKWEIGHT_THREADS, at most the number of cores (the default): the
    pool forks all of its workers at its first task."""
    cores = os.cpu_count() or 1
    env = os.environ.get("HOOKWEIGHT_THREADS", "").strip()
    if env:
        try:
            return min(max(1, int(env)), cores)
        except ValueError:
            raise InputError(f"HOOKWEIGHT_THREADS must be an integer, got {env!r}")
    return cores


def cmd_verify(args) -> int:
    suite = args.suite
    default, largest = _SUITE_NMAX[suite]
    nmax = args.nmax if args.nmax is not None else default
    if nmax < 0 or nmax > largest:
        raise InputError(
            f"--nmax for {suite} must be between 0 and {largest}")
    cases = _suite_cases(suite, nmax)
    threads = _thread_count()
    results: list[bool]
    if threads > 1 and len(cases) >= 64:
        from concurrent.futures import ProcessPoolExecutor
        chunk = max(1, len(cases) // (threads * 8))
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_run_case, [c[1] for c in cases],
                                    chunksize=chunk))
    else:
        results = [_run_case(payload) for _label, payload in cases]
    passed = 0
    for (label, _payload), ok in zip(cases, results):
        print(f"{'PASS' if ok else 'FAIL'} {label}")
        passed += ok
    print(f"SUITE {suite} n<={nmax}: {passed}/{len(cases)}")
    return EXIT_OK if passed == len(cases) else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hookweight",
        description="Exact multivariate hook-length formulas for forests")
    sub = parser.add_subparsers(dest="command", required=True)

    wp = sub.add_parser("weight-perm", help="multivariate weight of a permutation")
    wp.add_argument("perm", help="one-line notation, e.g. 2,1,3")
    wp.add_argument("--method", choices=["recursive", "tree"], default="recursive")
    wp.set_defaults(func=cmd_weight_perm)

    hk = sub.add_parser("hook", help="extension sum L(P) vs hook product H(P)")
    hk.add_argument("forest", help="JSON forest file {n, covers}")
    hk.add_argument("--side", choices=["L", "H", "both"], default="both")
    hk.set_defaults(func=cmd_hook)

    le = sub.add_parser("linext", help="linear extensions of a forest")
    le.add_argument("forest", help="JSON forest file {n, covers} or {n, covered_by}")
    group = le.add_mutually_exclusive_group()
    group.add_argument("--count", action="store_true")
    group.add_argument("--list", dest="list_", action="store_true")
    le.set_defaults(func=cmd_linext)

    sp = sub.add_parser("specialize", help="apply the q or (q,t) specialization")
    sp.add_argument("--map", choices=["q", "qt"], required=True)
    sp.add_argument("--qval", type=int, default=None,
                    help="integer q >= 2 for --map qt")
    src = sp.add_mutually_exclusive_group(required=True)
    src.add_argument("--expr", help="rational function, e.g. '(x2+x3)/(x1)'")
    src.add_argument("--perm", help="specialize the weight of this permutation")
    src.add_argument("--forest", help="specialize L or H of this forest file")
    sp.add_argument("--side", choices=["L", "H"], default=None,
                    help="side of --forest to specialize (default H)")
    sp.set_defaults(func=cmd_specialize)

    vf = sub.add_parser("verify", help="run an exhaustive verification suite")
    vf.add_argument("--suite", required=True, choices=list(_SUITE_NMAX))
    vf.add_argument("--nmax", type=int, default=None)
    vf.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecializationError as exc:
        print(f"specialization error: {exc}", file=sys.stderr)
        return EXIT_SPECIALIZE
    except (InputError, ParseError, DivisionByZeroError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
