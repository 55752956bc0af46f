import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from abelcheck import cli, finite
from abelcheck.arith import factorize
from abelcheck.cli import main
from abelcheck.errors import BoundExceeded, InternalConsistencyError
from abelcheck.snf import smith_normal_form

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def raising(error):
    def raiser(*args, **kwargs):
        raise error
    return raiser


def zero_diagonal(a):
    u, s, v = smith_normal_form(a)
    return u, [[0] * len(row) for row in s], v


# (argv, (module, name, replacement) or None, exit code, stderr prefix)
EXIT_CODE_CASES = {
    "analyze-parse": (["analyze", "Z(4)"], None, 2, "parse error: 4 is not prime; must be Z(2^2)"),
    "analyze-invariant": (["analyze", "Z(2)"], (cli, "is_poor", raising(InternalConsistencyError("rows disagree"))),
                          4, "invariant violation: rows disagree"),
    "oracle-extra-group": (["oracle", "subgroups", "Z2", "Z3"], None, 2,
                           "parse error: subgroups needs exactly one argument"),
    "oracle-extra-matrix": (["oracle", "snf", "1,2;3,4", "extra"], None, 2,
                            "parse error: snf needs exactly one argument"),
    "oracle-one-group": (["oracle", "rel-inj", "Z2"], None, 2, "parse error: rel-inj needs exactly two groups"),
    "oracle-csv-snf": (["oracle", "snf", "2,4;6,8", "--csv"], None, 2,
                       "parse error: --csv applies only to subgroups, pure and summand, not to snf"),
    "oracle-csv-rel-inj": (["oracle", "rel-inj", "Z2", "Z4", "--csv"], None, 2,
                           "parse error: --csv applies only to subgroups, pure and summand, not to rel-inj"),
    "oracle-csv-json": (["oracle", "summand", "Z2 x Z4", "--json", "--csv"], None, 2,
                        "parse error: --csv and --json exclude each other"),
    "oracle-bound": (["oracle", "subgroups", "Z1024"], None, 3, "bound exceeded: |G| = 1024"),
    # orders past int -> str's 4300-digit limit
    "oracle-huge-order": (["oracle", "subgroups", "Z(2^20000)"], None, 3, "bound exceeded: |G| = "),
    "oracle-huge-order-rel-inj": (["oracle", "rel-inj", "Z4", "Z(2^20000)"], None, 3, "bound exceeded: |G| = "),
    "oracle-invariant": (["oracle", "summand", "Z2 x Z4"], (finite, "smith_normal_form", zero_diagonal),
                         4, "invariant violation: "),
    "crosscheck-count": (["crosscheck", "--count", "-1"], None, 2, "parse error: --count must be at least 0, got -1"),
    "crosscheck-bound": (["crosscheck", "--count", "2"],
                         (finite, "first_pure_non_summand", raising(BoundExceeded("too many subgroups"))),
                         3, "bound exceeded: too many subgroups"),
    "crosscheck-invariant": (["crosscheck", "--count", "2"],
                             (finite, "hom_extends", raising(InternalConsistencyError("solver disagrees"))),
                             4, "invariant violation: solver disagrees"),
}


@pytest.mark.parametrize("case", EXIT_CODE_CASES)
def test_exit_code_contract(capsys, monkeypatch, case):
    # One error boundary in main: each error class has one exit code and
    # one stderr prefix, whichever command raised it, and nothing reaches
    # stdout first.
    argv, patch, expected_code, prefix = EXIT_CODE_CASES[case]
    if patch is not None:
        monkeypatch.setattr(*patch)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (expected_code, "")
    assert err.startswith(prefix)
    assert err.count("\n") == 1


def test_console_script_is_main():
    # setuptools' script wrapper passes main's return value to sys.exit.
    lines = (SRC.parent / "pyproject.toml").read_text().splitlines()
    target = next(line for line in lines if line.startswith("abelcheck = ")).split('"')[1]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is main


def test_module_run_prints_the_version():
    proc = subprocess.run([sys.executable, "-m", "abelcheck.cli", "--version"], capture_output=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, b"abelcheck 0.1.0\n")


class TestAnalyze:
    def test_poor_witness_json(self, capsys):
        code, env, _ = run_json(capsys, "analyze", "sum{p}[Z(p^1)]", "--json")
        assert code == 0
        res = env["result"]
        assert res["poor"]["verdict"] is True
        assert res["pure_split"]["verdict"] is True
        assert res["pi_poor_necessary"]["verdict"] is False
        assert res["predicates"]["is_semisimple"] is True

    def test_tower_not_pure_split(self, capsys):
        code, env, _ = run_json(capsys, "analyze", "tower(2)", "--json")
        assert code == 0
        assert env["result"]["pure_split"]["verdict"] is False

    def test_divisible_group(self, capsys):
        code, env, _ = run_json(capsys, "analyze", "Q", "--json")
        assert code == 0
        assert env["result"]["poor"]["verdict"] is False
        assert env["result"]["pure_split"]["verdict"] is True

    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "analyze", "Q")
        assert code == 0
        assert "poor: false" in out
        assert "pure_split: true" in out
        assert "timing:" in out

    def test_parse_error_exit_2(self, capsys):
        code, out, err = run(capsys, "analyze", "Z(4)")
        assert code == 2
        assert "parse error" in err
        assert "position" in err

    @pytest.mark.parametrize("expression, code, message", [
        ("Z(1000000000000037)", 0, ""),
        ("tower(999999999999999989)", 0, ""),
        ("Z(999999874000003969)", 2, "parse error: 999999874000003969 is not prime; must be Z(999999937^2)"),
        ("Z(999999866000004473)", 2, "parse error: 999999866000004473 is not prime (at position 2)"),
    ])
    def test_long_prime_literals_are_decided_at_once(self, capsys, expression, code, message):
        # Trial division took seconds to hours on these 16- and 18-digit literals.
        started = time.perf_counter()
        got, _, err = run(capsys, "analyze", expression, "--json")
        assert time.perf_counter() - started < 1.0
        assert got == code
        assert err.startswith(message)

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("tower(3)\n"))
        code, env, _ = run_json(capsys, "analyze", "-", "--json")
        assert code == 0
        assert env["input"] == "tower(3)"

    def test_envelope_field_order(self, capsys):
        _, out, _ = run(capsys, "analyze", "Z", "--json")
        keys = list(json.loads(out).keys())
        assert keys == ["version", "command", "input", "result", "timing_ms"]
        assert json.loads(out)["timing_ms"] is None

    def test_evidence_row_ordering_is_golden(self, capsys):
        # primes ascending, then the cofinite row, then components
        _, env, _ = run_json(capsys, "analyze", "Z(2^1) + Z(5^2) + Q", "--json")
        subjects = [row["subject"] for row in env["result"]["pure_split"]["evidence"]]
        assert subjects == ["p=2", "p=5", "all primes outside {2, 5}",
                            "torsion-free part", "torsion-free part", "divisible part"]

    def test_analyze_json_is_deterministic(self, capsys):
        _, out1, _ = run(capsys, "analyze", "tower(2) + Q_(3)", "--json")
        _, out2, _ = run(capsys, "analyze", "tower(2) + Q_(3)", "--json")
        assert out1 == out2

    def test_analyze_json_is_golden(self, capsys, monkeypatch):
        # Pins canonical forms, predicates, evidence rows and citations on
        # 500 expressions drawn by the benchmark's generator (read from
        # bench/, not changed); the digest was recorded before canonicalize
        # became the direct sum of its parts.
        monkeypatch.syspath_prepend(str(BENCH))
        random_expression = importlib.import_module("workloads").random_expression
        rng = random.Random(2024)
        digest = hashlib.sha256()
        for _ in range(500):
            code, out, _ = run(capsys, "analyze", random_expression(rng), "--json")
            assert code == 0
            digest.update(out.encode())
        assert digest.hexdigest() == "aa32fa6f15cd88029d8dc4506f6cfde54e426c1e8135a4728af12e43fc09f348"

    def test_analyze_human_output_is_golden(self, capsys, monkeypatch):
        # Human-readable lines (timing dropped) on 200 expressions drawn by
        # the benchmark's generator; recorded before JSON mode stopped
        # building these lines.
        monkeypatch.syspath_prepend(str(BENCH))
        random_expression = importlib.import_module("workloads").random_expression
        rng = random.Random(2025)
        digest = hashlib.sha256()
        for _ in range(200):
            code, out, _ = run(capsys, "analyze", random_expression(rng))
            assert code == 0
            digest.update("".join(line for line in out.splitlines(keepends=True)
                                  if not line.startswith("timing:")).encode())
        assert digest.hexdigest() == "6f175f5fc0f9883e422a899bbb43306976c9ecd6376989ea1aaf6c1827fc6a53"


JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-2**200, max_value=2**200),
    st.floats(),
    st.text(),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f\n\t", "caf\u00e9 \u20ac \U0001f600", "\ud800", ""]),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=25,
)


class TestDumps:
    @settings(max_examples=200)
    @given(JSON_VALUES)
    @example({})
    @example(())
    @example({"a": {}, "b": [[], ()], "": [{}]})
    @example([float("nan"), float("inf"), -float("inf"), -0.0, 1e300, -2**100, True, None])
    def test_matches_stdlib_indent_2(self, value):
        assert cli._dumps(value) == json.dumps(value, indent=2)

    def test_rejects_what_json_rejects(self):
        with pytest.raises(TypeError):
            cli._dumps({"a": {1, 2}})


class TestOracle:
    def test_subgroups_row_count(self, capsys):
        code, env, _ = run_json(capsys, "oracle", "subgroups", "Z2 x Z2", "--json")
        assert code == 0
        assert env["result"]["subgroup_count"] == 5

    def test_pure_and_summand_tables(self, capsys):
        code, env, _ = run_json(capsys, "oracle", "summand", "Z2 x Z4", "--json")
        assert code == 0
        rows = env["result"]["rows"]
        assert any(row["pure"] and row["summand"] for row in rows)
        assert any(not row["pure"] for row in rows)
        # a pure subgroup of a finite group is always a summand
        assert all(row["summand"] for row in rows if row["pure"])

    def test_summand_json_is_golden(self, capsys):
        # Pins the generators the oracle reports: a change of generating_set's
        # greedy choice changes these bytes.
        code, out, _ = run(capsys, "oracle", "summand", "Z2 x Z4 x Z3", "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "94d0d902db59538526ee0860f1bf4de7dcd6537eab0947dd881d2847221fe4a6")

    @pytest.mark.parametrize("group,digest", [
        ("Z125", "05942cf1de7907a5930391724bcff193d51dd4e50681778f1446cd4e7dee6f14"),
        ("Z243", "557f1a8ba9e5b294fcf9502970decfda271e99dabc716c98fa14e7dc7b043c35"),
        ("Z9 x Z27", "2d06e60b5d9b00536c9f18636234bda0633289f0a99a3e7eac33f265cce945d1"),
        ("Z2 x Z4 x Z8", "11af6ac388c3f0db321e3380fbd6822f49f645a088e42dabbc3e31947b79e6b3"),
        ("Z2 x Z2 x Z2 x Z2 x Z2 x Z2", "d0f2fe4d1d74f4595d8a594d501c274a124aac14a48802b8d5b4241dc4aba866"),
        ("Z4 x Z4 x Z4", "b97cc3299e7fe683424d0e0ffcab348847c15e18ec54e7fa70307542abbfaab5"),
        ("Z2 x Z4 x Z3 x Z5", "50a207cf34f669a745e0d5e74f7f9f5e1d64c7152c9d101e820a20ef0aded221"),
    ])
    def test_subgroups_json_is_golden(self, capsys, group, digest):
        # Pins the enumeration order and each subgroup's generators; the
        # JSON carries timing_ms null, so the bytes are stable.
        code, out, _ = run(capsys, "oracle", "subgroups", group, "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_snf_json_is_golden(self, capsys):
        # Pins U and V as well as S; the digest was recorded before the
        # elimination lost its closures and gained its unit-pivot shortcuts.
        digest = hashlib.sha256()
        for matrix in ("2,4;6,8", "0,0;0,0", "4,6,10;6,9,15;2,3,5", "12,18,30;-4,6,8", "7"):
            code, out, _ = run(capsys, "oracle", "snf", matrix, "--json")
            assert code == 0
            digest.update(out.encode())
        assert digest.hexdigest() == "fe8ba6e60c985f4153b124294e9cc8c5eb0704fb2cc4d0bd6c0a69fb072528fe"

    def test_invariant_violation_exit_4(self, capsys, monkeypatch):
        monkeypatch.setattr(finite, "smith_normal_form", zero_diagonal)
        code, _, err = run(capsys, "oracle", "summand", "Z2 x Z4", "--json")
        assert code == 4
        assert "invariant violation" in err

    def test_rel_inj(self, capsys):
        code, env, _ = run_json(capsys, "oracle", "rel-inj", "Z2", "Z4", "--json")
        assert code == 0
        assert env["result"]["rel_inj"] is False

    def test_rel_pure_inj(self, capsys):
        code, env, _ = run_json(capsys, "oracle", "rel-pure-inj", "Z2", "Z4", "--json")
        assert code == 0
        assert env["result"]["rel_pure_inj"] is True

    def test_rel_pure_inj_of_large_hom_spaces(self, capsys):
        # |Hom(Z4^4, Z2^6)| = 2^24; the oracle checks a generating set.
        code, env, _ = run_json(capsys, "oracle", "rel-pure-inj", "Z2 x Z2 x Z2 x Z2 x Z2 x Z2",
                                "Z4 x Z4 x Z4 x Z4", "--json")
        assert code == 0
        assert env["result"]["rel_pure_inj"] is True

    def test_snf(self, capsys):
        code, env, _ = run_json(capsys, "oracle", "snf", "2,4;6,8", "--json")
        assert code == 0
        assert env["result"]["diagonal"] == [2, 4]

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "oracle", "subgroups", "Z2 x Z2", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,order,generators"
        assert len(lines) == 6

    def test_csv_tables_are_golden(self, capsys):
        # Recorded before --csv was refused where it does not apply.
        digest = hashlib.sha256()
        for command in ("subgroups", "pure", "summand"):
            for group in ("Z2 x Z4 x Z3", "Z2 x Z2 x Z2", "Z9 x Z3"):
                code, out, _ = run(capsys, "oracle", command, group, "--csv")
                assert code == 0
                digest.update(out.encode())
        assert digest.hexdigest() == "39527e5f57e162b9d52ef3bc2a5a07298b931674f8125df6d4beae98bfa72340"

    def test_rel_inj_verdicts_are_golden(self, capsys):
        # Both relative-injectivity oracles on all 576 ordered pairs of
        # groups of order 2-16; recorded before presentations came from
        # the greedy walk's chain relations.
        groups = [str(g) for g in finite.isomorphism_classes_upto(16) if g.order > 1]
        assert len(groups) ** 2 == 576
        digest = hashlib.sha256()
        for m in groups:
            for n in groups:
                for command in ("rel-inj", "rel-pure-inj"):
                    code, out, _ = run(capsys, "oracle", command, m, n, "--json")
                    assert code == 0
                    digest.update(out.encode())
        assert digest.hexdigest() == "80da8e92365b02a38f39a0ffdc9f45180e47b0ca22a0eed9876896a58066db3f"

    def test_closed_pipe_exits_1_without_traceback(self):
        # Like `| head -2`: the reader takes two lines and closes the
        # pipe while the 356 kB of JSON are still being written.
        proc = subprocess.Popen([sys.executable, "-m", "abelcheck.cli", "oracle", "subgroups",
                                 "Z2 x Z2 x Z2 x Z2 x Z2 x Z2", "--json"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env={**os.environ, "PYTHONPATH": str(SRC)})
        head = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert head == [b"{\n", b'  "version": "0.1.0",\n']
        assert proc.wait(timeout=60) == 1
        assert err == ""  # no BrokenPipeError traceback

    def test_bad_group_string_exit_2(self, capsys):
        code, _, err = run(capsys, "oracle", "subgroups", "Zfoo")
        assert code == 2
        assert "parse error" in err

    @pytest.mark.parametrize("command", [["subgroups"], ["rel-inj", "Z4"]])
    def test_prime_order_over_the_bound_exits_3_at_once(self, capsys, command):
        # Trial division up to the square root took seconds on this prime.
        started = time.perf_counter()
        code, _, err = run(capsys, "oracle", *command, "Z1000000000000037")
        assert time.perf_counter() - started < 1.0
        assert code == 3
        assert err == "bound exceeded: |G| = 1000000000000037 exceeds the bound 512\n"

    def test_bound_exceeded_exit_3(self, capsys):
        code, _, err = run(capsys, "oracle", "subgroups", "Z1024")
        assert code == 3
        assert "bound exceeded" in err

    def test_bound_flag(self, capsys):
        code, _, _ = run(capsys, "oracle", "subgroups", "Z16", "--bound", "8")
        assert code == 3


class TestCrosscheck:
    def test_passes_and_counts(self, capsys):
        code, env, _ = run_json(capsys, "crosscheck", "--seed", "1", "--count", "15",
                                "--bound", "64", "--json")
        assert code == 0
        checks = {c["name"]: c for c in env["result"]["checks"]}
        assert checks["pure_split_finite"]["instances"] == 15
        assert checks["hom_extends_dual"]["instances"] == 15
        assert checks["relative_injectivity_table"]["failures"] == 0
        assert env["result"]["total_failures"] == 0

    def test_zero_count_trivially_passes(self, capsys):
        code, env, _ = run_json(capsys, "crosscheck", "--seed", "1", "--count", "0", "--json")
        assert code == 0
        assert env["result"]["total_failures"] == 0

    def test_deterministic_json(self, capsys):
        _, out1, _ = run(capsys, "crosscheck", "--seed", "7", "--count", "10", "--json")
        _, out2, _ = run(capsys, "crosscheck", "--seed", "7", "--count", "10", "--json")
        assert out1 == out2

    def test_corrupted_oracle_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(finite, "_has_complement", lambda *a, **k: False)
        code, out, err = run(capsys, "crosscheck", "--seed", "1", "--count", "3", "--json")
        assert code == 4
        assert "counterexamples" in err
        assert err == json.dumps(json.loads(err), indent=2) + "\n"

    def test_corrupted_solver_exits_4(self, capsys, monkeypatch):
        real = finite.hom_extends
        monkeypatch.setattr(finite, "hom_extends", lambda *a, **k: not real(*a, **k))
        code, env, err = run_json(capsys, "crosscheck", "--seed", "1", "--count", "3", "--json")
        assert code == 4
        assert "hom_extends" in err or "counterexamples" in err
        checks = {c["name"]: c for c in env["result"]["checks"]}
        assert checks["hom_extends_dual"]["failures"] == 3 == env["result"]["total_failures"]
        assert len(checks["hom_extends_dual"]["counterexamples"]) == 3

    @pytest.mark.parametrize("flag", ["--bound", "--max-prime"])
    @pytest.mark.parametrize("value", ["1", "0", "-3"])
    def test_values_below_two_exit_2_before_any_draw(self, capsys, monkeypatch, flag, value):
        # A group of order <= 1 from primes >= 2 cannot be drawn, and no
        # prime is <= 1: the draw loop would never end.
        def no_draws(*a, **k):
            raise AssertionError("a group was drawn")
        monkeypatch.setattr(cli, "_random_group", no_draws)
        code, out, err = run(capsys, "crosscheck", flag, value, "--count", "1", "--json")
        assert code == 2
        assert out == ""
        assert flag in err

    @pytest.mark.parametrize("max_prime, primes", [(2, {2}), (3, {2, 3}), (4, {2, 3}), (5, {2, 3, 5})])
    def test_max_prime_limits_every_suite(self, capsys, monkeypatch, max_prime, primes):
        drawn = []
        real = cli._random_group

        def recorded(*args, **kwargs):
            drawn.append(real(*args, **kwargs))
            return drawn[-1]
        monkeypatch.setattr(cli, "_random_group", recorded)
        code, env, _ = run_json(capsys, "crosscheck", "--seed", "3", "--count", "20",
                                "--max-prime", str(max_prime), "--json")
        assert code == 0
        assert {min(factorize(f)) for g in drawn for f in g.factors} == primes
        table = {c["name"]: c for c in env["result"]["checks"]}["relative_injectivity_table"]
        assert table["instances"] == 9 * len(primes)

    def test_draws_are_golden(self, capsys, monkeypatch):
        # The JSON bytes alone do not show the draws: pin every drawn
        # group's factors, subgroup's elements and hom's items with the
        # output, recorded before crosscheck kept one group per drawn
        # factor list.
        digest = hashlib.sha256()

        def recorded(fn, feed):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                digest.update(repr(feed(out)).encode())
                return out
            return wrapper
        monkeypatch.setattr(cli, "_random_group", recorded(cli._random_group, lambda g: g.factors))
        monkeypatch.setattr(cli, "_random_subgroup", recorded(cli._random_subgroup, lambda h: h.elements()))
        monkeypatch.setattr(finite, "sample_homomorphism",
                            recorded(finite.sample_homomorphism, lambda f: sorted(f.items())))
        for seed in range(1, 9):
            code, out, _ = run(capsys, "crosscheck", "--seed", str(seed), "--count", "30", "--json")
            assert code == 0
            digest.update(out.encode())
        assert digest.hexdigest() == "5d82ad66dc736e0aef742767d12a9bd165622af71e61c59369f38453232e8509"

    def test_pure_split_is_decided_once_per_distinct_group(self, capsys, monkeypatch):
        drawn, decided = [], []
        real_draw, real_decide = cli._random_group, finite.first_pure_non_summand

        def draw(*args, **kwargs):
            drawn.append(real_draw(*args, **kwargs))
            return drawn[-1]

        def decide(group, *args, **kwargs):
            decided.append(group)
            return real_decide(group, *args, **kwargs)
        monkeypatch.setattr(cli, "_random_group", draw)
        monkeypatch.setattr(finite, "first_pure_non_summand", decide)
        code, env, _ = run_json(capsys, "crosscheck", "--seed", "5", "--count", "50", "--json")
        assert code == 0
        suite = drawn[:50]  # suite 1 draws first
        assert len(decided) == len(set(decided)) == len(set(suite)) < 50
        checks = {c["name"]: c for c in env["result"]["checks"]}
        assert checks["pure_split_finite"]["instances"] == 50

    def test_every_failing_draw_is_reported(self, capsys, monkeypatch):
        drawn = []
        real = cli._random_group

        def draw(*args, **kwargs):
            drawn.append(real(*args, **kwargs))
            return drawn[-1]
        monkeypatch.setattr(cli, "_random_group", draw)
        monkeypatch.setattr(finite, "_has_complement", lambda *a, **k: False)
        code, env, _ = run_json(capsys, "crosscheck", "--seed", "1", "--count", "40", "--json")
        assert code == 4
        assert len(set(drawn[:40])) < 40  # some group is drawn twice
        checks = {c["name"]: c for c in env["result"]["checks"]}
        assert checks["pure_split_finite"]["failures"] == 40

    def test_equal_factor_lists_share_one_group_per_call(self, capsys, monkeypatch):
        # Every suite, suite 2's cyclic groups too, gets the call's one
        # group per factor list, and no group outlives its call, so each
        # call starts with cold caches.
        calls = []
        real_draw, real_decide = cli._random_group, finite.is_relatively_injective

        def draw(*args, **kwargs):
            calls[-1]["drawn"].append(real_draw(*args, **kwargs))
            return calls[-1]["drawn"][-1]

        def decide(m, n, *args, **kwargs):
            calls[-1]["cyclic"] += [m, n]
            return real_decide(m, n, *args, **kwargs)
        monkeypatch.setattr(cli, "_random_group", draw)
        monkeypatch.setattr(finite, "is_relatively_injective", decide)
        for _ in range(2):
            calls.append({"drawn": [], "cyclic": []})
            assert run(capsys, "crosscheck", "--seed", "2", "--count", "30", "--json")[0] == 0
        for call in calls:
            one = {}
            for g in call["drawn"] + call["cyclic"]:
                assert one.setdefault(g.factors, g) is g
            assert len(one) < len(call["drawn"])
            assert any(g is h for g in call["cyclic"] for h in call["drawn"])
        objects = [{id(g) for g in call["drawn"] + call["cyclic"]} for call in calls]
        assert not objects[0] & objects[1]

    def test_each_sampled_hom_is_validated_once(self, capsys):
        # hom_extends_bruteforce reuses the validation that hom_extends
        # has just made of the same instance.
        for seed in (1, 2, 3):
            finite._validated_items.cache_clear()
            code, env, _ = run_json(capsys, "crosscheck", "--seed", str(seed), "--count", "100", "--json")
            assert code == 0
            hits, misses = finite._validated_items.cache_info()[:2]
            assert (hits, misses) == (100, 100)

    def test_shrinker_lets_unexpected_errors_through(self, capsys, monkeypatch):
        # The shrinker skips only the deciders' refusals.  Here the decider
        # disagrees once, crashes on the next call (the shrinker's first
        # try) and is right afterwards: the crash must reach the caller.
        real = finite.hom_extends
        calls = []

        def flaky(f, *args, **kwargs):
            if calls:
                calls.append(f)
                if len(calls) == 2:
                    raise RuntimeError("decider crashed")
            elif len(f) >= 2:  # the shrinker needs two generators to drop one
                calls.append(f)
                return not real(f, *args, **kwargs)
            return real(f, *args, **kwargs)
        monkeypatch.setattr(finite, "hom_extends", flaky)
        with pytest.raises(RuntimeError, match="decider crashed"):
            main(["crosscheck", "--seed", "1", "--count", "100", "--json"])
        assert len(calls) == 2
