"""End-to-end CLI behavior: output formats, exit codes, determinism."""

import hashlib
import json
import math
import random
import signal

import pytest

from helpers import run_python
from hookweight.cli import MAX_FOREST_N, main
from hookweight.combinat import enumerate_dual_forests, enumerate_rl_forests
from hookweight.specialize import q_factorial

VEE = {"n": 3, "covers": [[1, 2], [3, 2]]}
CHAIN = {"n": 3, "covers": [[2, 1], [3, 2]]}
BAD = {"n": 3, "covers": [[3, 1]]}
DUAL_JOIN = {"n": 3, "covered_by": [[1, 3], [2, 3]]}
INTRO = {"n": 10, "covers": [[1, 2], [3, 2], [4, 3], [5, 3],
                             [6, 7], [8, 7], [9, 10], [10, 7]]}


@pytest.fixture
def forest_file(tmp_path):
    def write(data, name="forest.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWeightPerm:
    def test_recursive(self, capsys):
        code, out, _ = run(capsys, "weight-perm", "2,1,3")
        assert code == 0 and out == "(x2)/(x1)\n"

    def test_identity(self, capsys):
        code, out, _ = run(capsys, "weight-perm", "1,2,3")
        assert code == 0 and out == "1\n"

    def test_tree_method(self, capsys):
        code, out, _ = run(capsys, "weight-perm", "3,2,1", "--method", "tree")
        assert code == 0 and out == "(x2x3+x3^2)/(x1^2+x1x2)\n"

    def test_malformed(self, capsys):
        code, _, err = run(capsys, "weight-perm", "3,3,1")
        assert code == 2 and "malformed" in err

    def test_deterministic(self, capsys):
        outs = {run(capsys, "weight-perm", "6,2,9,1,7,5,3,8,4")[1]
                for _ in range(3)}
        assert len(outs) == 1

    def test_long_identity(self):
        # the parabolic recursion is 1000 levels deep on this word
        word = ",".join(map(str, range(1, 1001)))
        code, out, err = run_process("weight-perm", word)
        assert code == 0 and out == "1\n"
        assert "Traceback" not in err


class TestHook:
    def test_vee_both_sides(self, capsys, forest_file):
        code, out, _ = run(capsys, "hook", forest_file(VEE))
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "L(P) = (x2+x3)/(x1)"
        assert lines[1] == "H(P) = (x2+x3)/(x1)"
        assert lines[2] == "|L(P)| = 2"
        assert lines[3] == "EQUAL"

    def test_chain(self, capsys, forest_file):
        code, out, _ = run(capsys, "hook", forest_file(CHAIN))
        assert code == 0
        assert "L(P) = 1" in out and "EQUAL" in out

    def test_side_selection(self, capsys, forest_file):
        code, out, _ = run(capsys, "hook", forest_file(VEE), "--side", "L")
        assert code == 0
        assert "L(P) =" in out and "H(P) =" not in out
        code, out, _ = run(capsys, "hook", forest_file(VEE), "--side", "H")
        assert code == 0
        assert "H(P) =" in out and "L(P) =" not in out
        assert "EQUAL" in out

    def test_intro_forest(self, capsys, forest_file):
        code, out, _ = run(capsys, "hook", forest_file(INTRO), "--side", "L")
        assert code == 0
        assert "|L(P)| = 24192" in out and "EQUAL" in out

    def test_invalid_forest_diagnostic(self, capsys, forest_file):
        code, _, err = run(capsys, "hook", forest_file(BAD))
        assert code == 2
        assert "element 1" in err and "interval" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "hook", "/nonexistent/forest.json")
        assert code == 2

    def test_long_chain(self, forest_file):
        # one level of the grouped sum per element, deeper than the
        # interpreter's recursion limit
        n = 1000
        path = forest_file({"n": n, "covers": [[i + 1, i]
                                               for i in range(1, n)]})
        code, out, err = run_process("hook", path, timeout=60)
        assert code == 0 and out.splitlines()[-1] == "EQUAL"
        assert "Traceback" not in err


class TestLinext:
    def test_list(self, capsys, forest_file):
        code, out, _ = run(capsys, "linext", forest_file(VEE), "--list")
        assert code == 0 and out == "2,1,3\n2,3,1\n"

    def test_count(self, capsys, forest_file):
        code, out, _ = run(capsys, "linext", forest_file(CHAIN), "--count")
        assert code == 0 and out == "1\n"

    def test_dual_forest_file(self, capsys, forest_file):
        code, out, _ = run(capsys, "linext", forest_file(DUAL_JOIN), "--list")
        assert code == 0 and out == "1,2,3\n2,1,3\n"

    def test_intro_count(self, capsys, forest_file):
        code, out, _ = run(capsys, "linext", forest_file(INTRO), "--count")
        assert code == 0 and out == "24192\n"

    def test_count_large_antichain(self, forest_file):
        # 40! extensions: counted, not listed; the 20 s subprocess timeout
        # bounds the time
        code, out, err = run_process("linext", forest_file({"n": 40, "covers": []}),
                                     "--count")
        assert code == 0 and out == f"{math.factorial(40)}\n"
        assert "Traceback" not in err

    def test_count_too_long_to_print(self, forest_file):
        # 2000! has 5736 digits, above Python's default limit of 4300
        code, out, err = run_process("linext", forest_file({"n": 2000, "covers": []}),
                                     "--count")
        assert code == 3 and out == "" and "digits" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["covers", "covered_by"])
    def test_long_chain(self, capsys, forest_file, key):
        # far deeper than the interpreter's recursion limit
        n = 3000
        pairs = ([[i + 1, i] for i in range(1, n)] if key == "covers"
                 else [[i, i + 1] for i in range(1, n)])
        path = forest_file({"n": n, key: pairs})
        code, out, _ = run(capsys, "linext", path, "--count")
        assert code == 0 and out == "1\n"
        code, out, _ = run(capsys, "linext", path, "--list")
        assert code == 0 and out == ",".join(map(str, range(1, n + 1))) + "\n"


class TestSpecialize:
    def test_perm_weight_q(self, capsys):
        code, out, _ = run(capsys, "specialize", "--map", "q",
                           "--perm", "3,2,1")
        assert code == 0 and out == "q^3\n"

    def test_forest_h_q(self, capsys, forest_file):
        code, out, _ = run(capsys, "specialize", "--map", "q",
                           "--forest", forest_file(VEE), "--side", "H")
        assert code == 0 and out == "q^2+q\n"

    def test_expr_qt(self, capsys):
        code, out, _ = run(capsys, "specialize", "--map", "qt",
                           "--qval", "2", "--expr", "x1+x2")
        assert code == 0 and out == "-t^4+t\n"

    def test_qt_requires_qval(self, capsys):
        code, _, err = run(capsys, "specialize", "--map", "qt", "--expr", "x1")
        assert code == 2

    def test_exponent_guard_exit_code(self, capsys):
        code, _, err = run(capsys, "specialize", "--map", "qt",
                           "--qval", "2", "--expr", "x30")
        assert code == 3 and "exceeds" in err

    def test_division_by_zero_is_input_error(self, capsys):
        code, _, err = run(capsys, "specialize", "--map", "q",
                           "--expr", "x1/(x1-x1)")
        assert code == 2


class TestVerify:
    def test_pascal_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "pascal", "--nmax", "6")
        assert code == 0
        assert "SUITE pascal n<=6:" in out
        assert "FAIL" not in out

    def test_hook_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "hook", "--nmax", "4")
        lines = out.splitlines()
        assert code == 0
        assert lines[-1] == "SUITE hook n<=4: 72/72"

    def test_weights_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "weights", "--nmax", "4")
        assert code == 0 and out.splitlines()[-1].endswith("34/34")

    def test_bw_suites_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "bw-inv", "--nmax", "4")
        assert code == 0 and "FAIL" not in out
        code, out, _ = run(capsys, "verify", "--suite", "bw-maj", "--nmax", "3")
        assert code == 0 and "FAIL" not in out

    def test_pbt_small_reports_counterexample(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "pbt", "--nmax", "3")
        assert code == 0
        assert "PASS pbt counterexample" in out
        assert "expected-UNEQUAL" in out

    def test_nmax_bounds(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "hook", "--nmax", "9")
        assert code == 2

    def test_deterministic_output(self, capsys):
        a = run(capsys, "verify", "--suite", "hook", "--nmax", "3")[1]
        b = run(capsys, "verify", "--suite", "hook", "--nmax", "3")[1]
        assert a == b

    def test_threads_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HOOKWEIGHT_THREADS", "2")
        code, out, _ = run(capsys, "verify", "--suite", "pascal", "--nmax", "8")
        assert code == 0
        assert out.splitlines()[-1] == "SUITE pascal n<=8: 88/88"

    @pytest.mark.parametrize("suite, digest", [
        ("pbt", "3cd953254af34a48e656884bf114ba98d68ad8aa10fc8c25144cf569919a70de"),
        ("bw-maj", "bc26f80a5fab19b4d86f81e6897e166b7e56f907f6b48b97977740ee8936d27e"),
    ])
    def test_morphism_suites_output_is_pinned(self, suite, digest):
        # sha256 of stdout before the two FQSym morphism checks became one
        code, out, _ = run_process("verify", "--suite", suite, "--nmax", "4",
                                   timeout=60)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.slow
    def test_pbt_output_one_size_up_is_pinned(self, monkeypatch):
        # sha256 of stdout while the product law shuffled by list.insert
        monkeypatch.setenv("HOOKWEIGHT_THREADS", "1")
        code, out, _ = run_process("verify", "--suite", "pbt", "--nmax", "7",
                                   timeout=120)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "90cfa32841ee540df25577705d818c98b0f21168cb47c1beb56dbc01ff61c908"

    def test_threads_env_is_capped_at_the_cores(self, capsys, monkeypatch):
        # a pool forks all of its workers at once; a serial fake records
        # how many it was asked for, so no process is started
        import concurrent.futures
        import os
        workers = []

        class SerialPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        argv = ("verify", "--suite", "pascal", "--nmax", "8")
        monkeypatch.setenv("HOOKWEIGHT_THREADS", "1")
        serial = run(capsys, *argv)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("HOOKWEIGHT_THREADS", "100000")
        assert run(capsys, *argv) == serial and workers == [2]

    def test_threads_env_invalid(self, capsys, monkeypatch):
        monkeypatch.setenv("HOOKWEIGHT_THREADS", "lots")
        code, _, err = run(capsys, "verify", "--suite", "pascal", "--nmax", "3")
        assert code == 2


def run_process(*argv, timeout=20):
    """Run the CLI in a fresh interpreter, as a user would."""
    proc = run_python("-m", "hookweight.cli", *argv, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


class TestMalformedInput:
    def test_truncated_json_permutation(self):
        code, _, err = run_process("weight-perm", "[1,")
        assert code == 2 and "malformed" in err
        assert "Traceback" not in err

    def test_variable_index_zero(self):
        code, _, err = run_process("specialize", "--map", "q", "--expr", "x0")
        assert code == 2 and "x0" in err
        assert "Traceback" not in err

    def test_product_exponent_overflow(self):
        # x1^65536 does not fit a packed key; it used to wrap into x2
        code, out, err = run_process("specialize", "--map", "q",
                                     "--expr", "x1^65535*x1 - x2")
        assert code == 2 and out == "" and "exceeds 65535" in err
        assert "Traceback" not in err

    def test_huge_exponent_is_rejected_promptly(self):
        # the 20 s subprocess timeout bounds "promptly"
        code, _, err = run_process("specialize", "--map", "q",
                                   "--expr", "x1^99999999")
        assert code == 2 and "exceeds" in err
        assert "Traceback" not in err

    def test_large_variable_index_prints_promptly(self):
        # reading a packed key takes time linear in its length; the 20 s
        # subprocess timeout bounds "promptly"
        code, out, err = run_process("specialize", "--map", "q",
                                     "--expr", "x400000+1")
        assert code == 0 and out == "-q^400000+q^399999+1\n"
        assert err == ""

    @pytest.mark.parametrize("expr", [
        # 40 keys of 8 MiB each, packed term by term into one sum
        "+".join(f"x{4194304 - i}" for i in range(40)) + "+1",
        # the same through RatFunc sums of parenthesised terms
        "+".join(f"(x{4194304 - i})" for i in range(10)),
        # and through nested sums
        40 * "(" + "x4194304" + "".join(f"+x{4194303 - i})" for i in range(40)),
    ], ids=["packed", "parenthesised", "nested"])
    def test_sum_of_large_variables_is_refused_promptly(self, expr):
        # each term packs a key in its largest variable; the sums of one
        # expression may hold two keys of the largest size
        code, out, err = run_process("specialize", "--map", "q",
                                     "--expr", expr, timeout=10)
        assert code == 2 and out == "" and "bits of packed" in err
        assert "Traceback" not in err

    def test_two_largest_keys_still_print(self):
        code, out, err = run_process("specialize", "--map", "q", "--expr",
                                     "x4194304+x4194303+1", timeout=10)
        assert code == 0 and err == ""
        assert out == "-q^4194304+q^4194302+1\n"

    def test_product_of_large_variables_prints_promptly(self):
        # the carry check of a product masks every field up to x200000, and
        # that mask is built in linear time; the 10 s timeout bounds
        # "promptly"
        code, out, err = run_process(
            "specialize", "--map", "q", "--expr", "(x200000+1)*(x200000+2)",
            timeout=10)
        assert code == 0 and err == ""
        assert out == "q^400000-2q^399999+q^399998-3q^200000+3q^199999+2\n"

    def test_variable_beyond_the_packed_cap(self):
        # a packed x100000000 alone would take 200 MB
        code, out, err = run_process("specialize", "--map", "q",
                                     "--expr", "x100000000+1")
        assert code == 2 and out == "" and "x100000000" in err
        assert "Traceback" not in err

    def test_lone_large_variable_never_packs(self):
        code, out, _ = run_process("specialize", "--map", "q",
                                   "--expr", "x1000000000")
        assert code == 0 and out == "-q^1000000000+q^999999999\n"

    @pytest.mark.parametrize("depth", [260, 1000])
    def test_deep_nesting(self, depth):
        code, out, err = run_process("specialize", "--map", "q", "--expr",
                                     depth * "(" + "x1" + depth * ")")
        assert code == 2 and out == "" and "nested deeper" in err
        assert "Traceback" not in err

    def test_qt_bound_checked_before_power(self):
        # q**3000000 has over a million digits; it must never be built
        code, _, err = run_process("specialize", "--map", "qt", "--qval", "3",
                                   "--expr", "x3000000")
        assert code == 3 and "exceeds the bound" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [["--qval", "1", "--expr", "x1"],
                                      ["--qval", "0", "--expr", "x1"],
                                      ["--qval", "-3", "--perm", "2,1"]])
    def test_qval_below_two_is_input_error(self, argv):
        code, out, err = run_process("specialize", "--map", "qt", *argv)
        assert code == 2 and out == "" and "--qval" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("perm", ["[1.5, 2]", "[true, 2]"])
    def test_non_integer_permutation_entries(self, perm):
        code, _, err = run_process("weight-perm", perm)
        assert code == 2 and "malformed" in err
        assert "Traceback" not in err


class TestSpecializeSizeBound:
    @pytest.mark.parametrize("qmap", [["q"], ["qt", "--qval", "2"]])
    def test_oversized_product_is_rejected_promptly(self, qmap):
        # (1-q)^65535 would have 65,536 coefficients of thousands of digits;
        # the 20 s subprocess timeout bounds "promptly"
        code, out, err = run_process("specialize", "--map", *qmap,
                                     "--expr", "x1^65535*x2")
        assert code == 3 and out == ""
        assert "bits of coefficients" in err
        assert "Traceback" not in err

    def test_dense_power_still_prints(self, capsys):
        # q^999 (1-q)^1999: 2000 terms of up to 1999 bits
        code, out, _ = run(capsys, "specialize", "--map", "q",
                           "--expr", "x1^1000*x2^999")
        assert code == 0
        assert out.startswith("-q^2998+1999q^2997-") and out.endswith("+q^999\n")
        assert out.count("q") == 2000

    def test_long_product_of_binomials_still_prints(self, capsys, forest_file):
        # H of a 63-element antichain maps to [63]!_q: its numerator is a
        # product of 63 binomials with a degree span of 2016
        path = forest_file({"n": 63, "covers": []})
        code, out, _ = run(capsys, "specialize", "--map", "q", "--forest", path)
        assert code == 0 and out == q_factorial(63).to_string() + "\n"

    def test_sparse_high_degree_still_prints(self, capsys):
        # degree 2^21 but only three terms
        code, out, _ = run(capsys, "specialize", "--map", "qt", "--qval", "2",
                           "--expr", "x20^2")
        assert code == 0 and out == "t^2097152-2t^1572864+t^1048576\n"

    def test_high_degree_ratio_is_reduced(self, capsys):
        # (t^1048576 - t^524288)/(t^524288 - t^262144) = t^524288 + t^262144
        code, out, _ = run(capsys, "specialize", "--map", "qt", "--qval", "2",
                           "--expr", "x20/x19")
        assert code == 0 and out == "t^524288+t^262144\n"

    def test_coefficient_too_long_to_print(self):
        # 2^20000 has 6021 digits, above Python's default limit of 4300
        code, out, err = run_process("specialize", "--map", "q",
                                     "--expr", "2^20000*x1")
        assert code == 3 and out == "" and "digits" in err
        assert "Traceback" not in err

    def test_exponent_bound_still_reported(self, capsys):
        code, out, err = run(capsys, "specialize", "--map", "qt", "--qval", "2",
                             "--expr", "x30")
        assert code == 3 and out == "" and "exceeds the bound" in err


class TestPrintSizeBound:
    # printing multiplies out the factored value; its size is bounded first
    # as for a specialization, so these exit 3 at once

    def test_weight_of_long_reversed_word_is_refused(self):
        # the weight of 13 12 ... 1 would print 10.4 MB in over 6 s
        word = ",".join(map(str, range(13, 0, -1)))
        code, out, err = run_process("weight-perm", word, timeout=10)
        assert code == 3 and out == ""
        assert "bits of coefficients" in err and "Traceback" not in err

    def test_hook_side_of_long_chain_is_refused(self, forest_file):
        # H(P) of this 14-chain would print 40.8 MB in over 30 s; the count
        # and the verdict still follow
        path = forest_file({"n": 14,
                            "covers": [[i, i + 1] for i in range(1, 14)]})
        code, out, err = run_process("hook", path, "--side", "H", timeout=10)
        assert code == 3 and out == "|L(P)| = 1\nEQUAL\n"
        assert "H(P) not printed" in err and "bits of coefficients" in err
        assert "Traceback" not in err

    def test_hook_reports_the_verdict_when_both_sides_are_refused(
            self, forest_file):
        path = forest_file({"n": 30, "covers": []})
        code, out, err = run_process("hook", path, timeout=10)
        assert code == 3
        assert out == f"|L(P)| = {math.factorial(30)}\nEQUAL\n"
        assert "L(P) not printed" in err and "H(P) not printed" in err
        assert "Traceback" not in err

    def test_values_of_a_few_megabytes_still_print(self, capsys, forest_file):
        # the reversed 12-letter word prints 2.7 MB, each side of the
        # 11-element antichain 1.3 MB
        code, out, _ = run(capsys, "weight-perm",
                           ",".join(map(str, range(12, 0, -1))))
        assert code == 0 and len(out) == 2670096
        code, out, _ = run(capsys, "hook",
                           forest_file({"n": 11, "covers": []}))
        lines = out.split("\n")
        assert code == 0 and lines[3:] == ["EQUAL", ""]
        assert lines[0][len("L(P) = "):] == lines[1][len("H(P) = "):]
        assert len(lines[0]) == len("L(P) = ") + 1263678

    def test_sums_of_large_variables_answer_promptly(self):
        # no variable is common to the terms of these sums, so their
        # monomial content is found without unpacking the 8 MiB keys; the
        # four terms need more packed bits than MAX_SUM_KEY_BITS
        script = (
            "import time\n"
            "from hookweight.cli import main\n"
            "for expr, want in [('(x4194304)+(x4194303)', 0),\n"
            "                   ('(x4194304)+(x4194303)+(x4194302)"
            "+(x4194301)', 2)]:\n"
            "    start = time.perf_counter()\n"
            "    code = main(['specialize', '--map', 'q', '--expr', expr])\n"
            "    seconds = time.perf_counter() - start\n"
            "    assert code == want and seconds < 1, (expr, code, seconds)\n")
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "-q^4194304+q^4194302\n"


class TestForestFileSchema:
    @pytest.mark.parametrize("data, key", [
        ({"n": 2, "cover": [[1, 2]]}, "'cover'"),
        ({"n": "3", "covers": []}, "'n'"),
        ({"n": True, "covers": []}, "'n'"),
        ({"n": -1}, "'n'"),
        ({"n": 3, "covers": {"1": 2}}, "'covers'"),
        ({"n": 3, "covers": [[1, 2, 3]]}, "'covers'"),
        ({"n": 3, "covers": [[1, "2"]]}, "'covers'"),
        ({"n": 3, "covers": [[1.0, 2]]}, "'covers'"),
        ({"n": 3, "covered_by": [[1, True]]}, "'covered_by'"),
        ({"n": 3, "covers": [], "covered_by": []}, "'covered_by'"),
    ])
    def test_malformed_schema_names_the_key(self, capsys, forest_file,
                                            data, key):
        code, out, err = run(capsys, "linext", forest_file(data), "--count")
        assert code == 2 and out == ""
        assert key in err

    @pytest.mark.parametrize("n", [10 ** 20, MAX_FOREST_N + 1])
    def test_n_above_the_limit(self, capsys, forest_file, n):
        code, out, err = run(capsys, "linext", forest_file({"n": n, "covers": []}),
                             "--count")
        assert code == 2 and out == ""
        assert "'n'" in err and str(MAX_FOREST_N) in err

    # FILE stands for the forest file's path
    @pytest.mark.parametrize("argv, data, diagnostic", [
        (("linext", "FILE"), [3, [[1, 2]]], "must be a JSON object"),
        (("linext", "FILE"), {"n": 2, "cover": [[1, 2]]},
         "unknown key 'cover'"),
        (("linext", "FILE"), {"n": 2, "covers": [], "covered_by": []},
         "not both"),
        (("linext", "FILE"), {"n": 3, "covers": [[1]]},
         "[i, j] integer pairs"),
        (("linext", "FILE"), {"n": 2, "covers": [[1, 2], [2, 1]]}, "cycle"),
        (("linext", "FILE"), {"n": 2, "covers": [[1, 3]]}, "out of range"),
        (("linext", "FILE"), {"n": 3, "covers": [[1, 2], [1, 3]]},
         "appears twice"),
        (("hook", "FILE"), DUAL_JOIN, "needs a forest file with 'covers'"),
        (("specialize", "--map", "q", "--forest", "FILE"), DUAL_JOIN,
         "needs a forest file with 'covers'"),
        (("specialize", "--map", "q", "--forest", "FILE", "--side", "L"), BAD,
         "not an integer interval"),
    ])
    def test_invalid_forest_file_exits_2(self, capsys, forest_file, argv,
                                         data, diagnostic):
        path = forest_file(data)
        code, out, err = run(capsys, *(path if a == "FILE" else a
                                       for a in argv))
        assert code == 2 and out == ""
        assert diagnostic in err

    def test_empty_forest_needs_no_covers(self, capsys, forest_file):
        code, out, _ = run(capsys, "linext", forest_file({"n": 0}), "--count")
        assert code == 0 and out == "1\n"


class _Timeout(Exception):
    pass


def _mutated(rng, text: str) -> str:
    """text with one character deleted or one character other than a digit
    inserted."""
    i = rng.randrange(len(text) + 1)
    if text and rng.random() < 0.5:
        return text[:i] + text[i + 1:]
    return text[:i] + rng.choice("()[]{},:\"+-*/^ x.aeq") + text[i:]


def _fuzz_word(rng) -> str:
    n = rng.randint(0, 12)
    w = list(range(1, n + 1))
    rng.shuffle(w)
    if rng.random() < 0.1:  # a long word near the identity
        n = rng.randint(13, 300)
        w = list(range(1, n + 1))
        i = rng.randrange(n - 1)
        w[i], w[i + 1] = w[i + 1], w[i]
    if w and rng.random() < 0.3:
        w[rng.randrange(n)] = rng.choice([0, -1, n + 1, w[0], 10 ** 30])
    text = rng.choice([",".join(map(str, w)), " ".join(map(str, w)),
                       json.dumps(w)])
    return _mutated(rng, text) if rng.random() < 0.3 else text


def _fuzz_expression(rng, depth: int = 0) -> str:
    roll = rng.random()
    if depth > 2 or roll < 0.35:
        return rng.choice([f"x{rng.randint(0, 6)}", str(rng.randint(0, 9)),
                           f"{rng.randint(1, 5)}x{rng.randint(1, 4)}",
                           f"x{rng.randint(1, 4)}^{rng.randint(0, 3)}"])
    if roll < 0.5:
        return f"({_fuzz_expression(rng, depth + 1)})"
    if roll < 0.85:
        return (_fuzz_expression(rng, depth + 1) + rng.choice("+-*/ ")
                + _fuzz_expression(rng, depth + 1))
    return f"({_fuzz_expression(rng, depth + 1)})^{rng.randint(0, 3)}"


def _fuzz_forest(rng) -> tuple[str, int]:
    """The text of a forest file and the n it declares (-1 if unknown)."""
    n = rng.randint(0, 7)
    roll = rng.random()
    if roll < 0.35:
        p = rng.choice(list(enumerate_rl_forests(n)))
        data = {"n": n, "covers": [list(c) for c in p.covers()]}
    elif roll < 0.5:
        p = rng.choice(list(enumerate_dual_forests(n)))
        data = {"n": n, "covered_by": [list(c) for c in p.covers()]}
    elif roll < 0.6:
        m = rng.randint(1, 200)
        data = {"n": m, "covers": [[i + 1, i] for i in range(1, m)]}
        n = m
    else:
        ends = range(-1, n + 2)
        data = {"n": n, "covers": [[rng.choice(ends), rng.choice(ends)]
                                   for _ in range(rng.randint(0, n))]}
    text = json.dumps(data)
    if rng.random() < 0.25:
        return _mutated(rng, text), -1
    return text, n


@pytest.mark.slow
def test_cli_fuzz_exits_cleanly(capsys, tmp_path, fresh_memos):
    # in-process calls on random words, expressions and forest files: every
    # call ends within a 20 s alarm with exit code 0, 2 or 3 and no
    # traceback; the module memos stay warm from call to call
    rng = random.Random(20261020)
    path = tmp_path / "forest.json"

    def alarm(_signum, _frame):
        raise _Timeout

    previous = signal.signal(signal.SIGALRM, alarm)
    try:
        for i in range(400):
            command = ("weight-perm", "hook", "linext", "specialize")[i % 4]
            text, n = _fuzz_forest(rng)
            path.write_text(text)
            if command == "weight-perm":
                argv = ["weight-perm", _fuzz_word(rng),
                        "--method", rng.choice(["recursive", "tree"])]
            elif command == "hook":
                argv = ["hook", str(path),
                        "--side", rng.choice(["L", "H", "both"])]
            elif command == "linext":  # at most 7! words are listed
                argv = ["linext", str(path),
                        "--list" if 0 <= n <= 7 and rng.random() < 0.5
                        else "--count"]
            else:
                argv = ["specialize", "--map", rng.choice(["q", "qt"])]
                if rng.random() < 0.9:
                    qval = rng.choice([-1, 1, 2, 3, 5, 10 ** 6])
                    argv += ["--qval", str(qval)]
                argv += rng.choice([
                    [f"--expr={_fuzz_expression(rng)}"],
                    ["--perm", _fuzz_word(rng)],
                    ["--forest", str(path), "--side", rng.choice("LH")]])
            signal.alarm(20)
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refusing the arguments
                code = exc.code
            except _Timeout:
                pytest.fail(f"{argv} ({text!r}) took more than 20 s")
            finally:
                signal.alarm(0)
            _out, err = capsys.readouterr()
            assert code in (0, 2, 3), (argv, text, code, err)
            assert "Traceback" not in err, (argv, text, err)
    finally:
        signal.signal(signal.SIGALRM, previous)
