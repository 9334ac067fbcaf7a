"""Span tracer that wraps hookweight's entry points from outside the package.

``Tracer.install()`` replaces each target, wherever a hookweight module holds
it, by a wrapper that records a span: calls, total time and self time (the
span's time minus the time of the spans it called).  Spans, counters and
``lru_cache`` statistics stay in memory until ``Tracer.report()``.

A target that a later version of the package no longer has is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
import time
from types import GeneratorType, ModuleType

# Set on every wrapper, so that an untraced run can prove it has none.
MARK = "__hookweight_bench_span__"

# layer -> {target: span}; the span is recorded as "<layer>.<span>".  A target
# is a module-level name or "Class.method" of hookweight.<layer>.
TARGETS: dict[str, dict[str, str]] = {
    "ratfunc": {
        "rf_add": "rf_add", "rf_mul": "rf_mul", "rf_inv": "rf_inv",
        "rf_div": "rf_div", "rf_frobenius": "rf_frobenius",
        "rf_equal": "rf_equal", "rf_to_canonical_string": "to_string",
        "poly_add": "poly_add", "poly_mul": "poly_mul",
        "frobenius": "frobenius",
        "_FRF.add": "frf_add", "_FRF.mul": "frf_mul",
        "_FRF.equals": "frf_equals", "_FRF.refactor": "frf_refactor",
        "_FRF.num_den_dicts": "materialize",
        "_reconstruct_frf": "reconstruct",
        "_try_divide_atom": "trial_div",
    },
    "specialize": {
        "spec_q": "spec_q", "spec_qt": "spec_qt",
        "verify_bw_inv": "verify_bw_inv", "q_bracket": "q_bracket",
        "q_factorial": "q_factorial", "UniRatFunc.__init__": "unirat",
    },
    "weights": {
        "wt_perm_recursive": "wt_perm_recursive",
        "wt_perm_tree": "wt_perm_tree", "wt_subset": "wt_subset",
        "inv_via_tree": "inv_via_tree", "L_of_forest": "L_of_forest",
        "H_of_forest": "H_of_forest",
    },
    "combinat": {
        "enumerate_rl_forests": "enum.rl_forests",
        "enumerate_dual_forests": "enum.dual_forests",
        "linear_extensions": "linext.forest",
        "DualForestPoset.linear_extensions": "linext.dual",
        "count_linear_extensions": "linext.count",
        "inv": "inv", "maj": "maj", "descents": "descents",
        "inv_poset": "inv_poset", "subtree_data": "subtree_data",
        "parabolic_factorization": "parabolic_factorization",
        "increasing_binary_tree": "increasing_binary_tree",
        "tree_pair_stats": "tree_pair_stats",
        "validate_recursively_labelled": "validate_recursively_labelled",
        "dual_forest_stats": "dual_forest_stats",
    },
    "fqsym": {
        "fqsym_mul": "fqsym_mul", "f_of_poset": "f_of_poset",
        "phi_inv": "phi_inv", "phi_maj": "phi_maj",
        "check_pbt_morphism": "check_pbt_morphism",
        "check_phimaj_morphism": "check_phimaj_morphism",
        "gamma_perm": "gamma_perm", "gamma_dual_forest": "gamma_dual_forest",
        "gamma_extension_sum": "gamma_extension_sum",
        "verify_bw_maj": "verify_bw_maj",
        "dual_forest_prereqs": "dual_forest_prereqs",
        "forest_prereqs": "forest_prereqs",
        "concat_forests": "concat_forests",
        "ppartition_series": "ppartition_series",
    },
    "qanalog": {
        "bracket": "bracket", "bracket_factorial": "bracket_factorial",
        "binomial": "binomial", "divided_power": "divided_power",
        "skew_mul": "skew_mul", "skew_add": "skew_add",
        "skew_equal": "skew_equal",
    },
    "parsing": {"parse_ratfunc": "parse_ratfunc",
                "parse_polynomial": "parse_polynomial"},
    "cli": {"main": "main", "_suite_cases": "suite_cases",
            "_run_case": "run_case"},
}

# metric -> (module, lru_cache name) whose cache_info() gives its hit ratio.
CACHES = {
    "weights.L_cache": ("weights", "_L_grouped_frf"),
    "weights.wt_cache": ("weights", "_wt_perm_recursive_frf"),
}


def _package_modules() -> list[ModuleType]:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "hookweight"
                                  or name.startswith("hookweight."))]


def _package_classes(modules) -> list[type]:
    return [v for m in modules for v in vars(m).values()
            if isinstance(v, type) and v.__module__.startswith("hookweight")]


def assert_unwrapped() -> None:
    """Raise if any hookweight attribute, or method of its classes, is a span."""
    modules = _package_modules()
    for owner in modules + _package_classes(modules):
        for name, value in vars(owner).items():
            if getattr(value, MARK, False):
                raise RuntimeError(
                    f"{owner.__name__}.{name} is wrapped by the tracer; "
                    "untraced runs must measure the unmodified program")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # span -> [calls, total_s, self_s]
        self.counters = {"trial_div.hit": 0, "max_dividend_terms": 0,
                         "max_degree": 0}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []  # child time of each open span
        self._caches: dict[str, object] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import hookweight  # noqa: F401  (loads every module of the package)
        import hookweight.cli  # noqa: F401
        modules = _package_modules()
        for layer, targets in TARGETS.items():
            module = sys.modules.get(f"hookweight.{layer}")
            for target, span in targets.items():
                if module is None or not self._install_one(
                        modules, module, target, f"{layer}.{span}"):
                    self.absent.append(f"{layer}.{target}")
        for metric, (layer, name) in CACHES.items():
            fn = getattr(sys.modules.get(f"hookweight.{layer}"), name, None)
            if hasattr(fn, "cache_info"):
                self._caches[metric] = fn
            else:
                self.absent.append(f"{layer}.{name}")

    def _install_one(self, modules, module, target: str, span: str) -> bool:
        hook = {"ratfunc.trial_div": self._on_trial_div,
                "specialize.unirat": self._on_unirat}.get(span)
        if "." in target:
            cls_name, attr = target.split(".")
            cls = getattr(module, cls_name, None)
            original = vars(cls).get(attr) if isinstance(cls, type) else None
            if not callable(original):
                return False
            setattr(cls, attr, self._wrap(original, span, hook))
            return True
        original = getattr(module, target, None)
        if not callable(original):
            return False
        wrapper = self._wrap(original, span, hook)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    setattr(m, name, wrapper)
        return True

    # -- spans ---------------------------------------------------------------

    def _wrap(self, fn, span: str, hook):
        stat = self.stats.setdefault(span, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        resume = self._resume

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat[1] += dt
                stat[2] += dt - child[0]
                if stack:
                    stack[-1][0] += dt
            if hook is not None:
                hook(args, kwargs, result)
            if type(result) is GeneratorType:
                return resume(result, stat)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def _resume(self, gen, stat):
        """Count the time spent inside a generator's steps as its span."""
        stack = self._stack
        clock = time.perf_counter
        while True:
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                dt = clock() - t0
                stack.pop()
                stat[1] += dt
                stat[2] += dt - child[0]
                if stack:
                    stack[-1][0] += dt
            yield item

    # -- counters --------------------------------------------------------------

    def _on_trial_div(self, args, kwargs, result) -> None:
        if result:
            self.counters["trial_div.hit"] += 1
        terms = len(args[0])
        if terms > self.counters["max_dividend_terms"]:
            self.counters["max_dividend_terms"] = terms

    def _on_unirat(self, args, kwargs, result) -> None:
        polys = list(args[1:3]) + [kwargs.get("num"), kwargs.get("den")]
        degree = max((p.degree() for p in polys if p is not None), default=0)
        if degree > self.counters["max_degree"]:
            self.counters["max_degree"] = degree

    # -- output ------------------------------------------------------------------

    def report(self) -> dict:
        caches = {}
        for metric, fn in self._caches.items():
            info = fn.cache_info()
            caches[metric] = [info.hits, info.misses]
        return {"stats": self.stats, "counters": self.counters,
                "caches": caches, "absent": self.absent}
