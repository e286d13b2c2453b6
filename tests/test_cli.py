import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import re
import shlex
import sys
from collections import Counter
from math import comb, prod
from pathlib import Path

import pytest

from utrestrict.qcalc import QPoly, ZERO, Q_MINUS_1, qbinom
from utrestrict.setpart import (
    GroundSet, RegionSplit, SetPartition, enumerate_partitions,
)
from utrestrict.scfcore import superchar_value
from utrestrict.restrict import PsiKModule, UtAlgebra, rainbow
from utrestrict import cli, oracle, restrict
from utrestrict.cli import main, run, UsageError

from conftest import bell, dropping_scan


def capture(argv):
    buf = io.StringIO()
    code = 0
    try:
        run(argv, out=buf)
    except cli.UsageError:
        code = 1
    except cli.VerifyFailure:
        code = 2
    return code, buf.getvalue()


# (argv, exit code): engine errors and out-of-range inputs
BAD_INPUTS = [
    # 183,074 partitions of [12] have at most 4 arcs, over the budget
    (["decompose", "core", "--n", "12", "--k", "4"], 3),
    # the algebra scans the partitions of [12] with no arc ending at the top
    # point, Bell(11) of them: over the budget, refused before the first
    # yield
    (["decompose", "ut-algebra", "--n", "12"], 3),
    # the row-set form lists all 2^n row sets: 2^17 are over the budget
    (["decompose", "ut-algebra", "--n", "17", "--target", "core"], 3),
    # a ground over 128 points exits at once, whatever the arc cap
    (["decompose", "rainbow", "--n", "100000", "--m", "5"], 3),
    (["decompose", "rainbow", "--n", "100000", "--m", "0"], 3),
    (["decompose", "psi", "--n", "129"], 3),
    (["decompose", "core", "--n", "3", "--k", "-1"], 1),
    (["decompose", "peel", "--split", "1,1,1", "--b", "5", "--f", "1"], 1),
    (["decompose", "double-rainbow", "--split", "1,1,1", "--m", "-1",
      "--ell", "1"], 1),
    (["decompose", "double-rainbow", "--split", "1,1,1", "--m", "1",
      "--ell", "-1"], 1),
    (["decompose", "rainbow", "--labels", "0,1", "--m", "1"], 1),
    (["decompose", "rainbow", "--labels", "3,1", "--m", "1"], 1),
    (["decompose", "rainbow", "--n", "5", "--labels", "2,3", "--m", "1"], 1),
    (["decompose", "onion", "--n", "3", "--anchors", "0,5",
      "--m-list", "0"], 1),
    (["decompose", "onion", "--labels", "2,3,4", "--anchors", "1,5",
      "--m-list", "0"], 1),
    (["decompose", "onion", "--n", "3", "--anchors", "4,5",
      "--m-list", "1"], 1),
    (["decompose", "onion", "--labels", "2,3,4,5,6,7,8,9,10,11",
      "--anchors", "1,12;2,20", "--m-list", "1,1"], 1),
    (["decompose", "onion", "--labels", "2,3,4", "--anchors", "1,5;2,4",
      "--m-list", "1"], 1),
    (["decompose", "onion", "--labels", "2,3,4", "--anchors", "1,5;3,4",
      "--m-list", "1,1"], 1),
    (["decompose", "psi", "--n", "3", "--cols", "2,5"], 1),
    (["verify", "solver", "--n", "0"], 1),
    (["verify", "identities", "--max", "0"], 1),
    # the identities suite's time grows about as max^8
    (["verify", "identities", "--max", "17"], 1),
    (["verify", "all", "--max", "17"], 1),
    (["verify", "orbits", "--budget", "0"], 1),
    (["verify", "orbits", "--n", "7", "--q", "2"], 1),
    (["verify", "traces", "--n", "5", "--q", "3"], 1),
    (["verify", "all", "--n", "6"], 1),
    (["export", "core", "--n", "3", "--k", "1",
      "--out", "/nonexistent/dir/x.json"], 1),
    # flags that no command reads are rejected, not ignored
    (["qbinom", "--chain", "3", "--k", "1", "--q", "2"], 1),
    (["qbinom", "--chain", "3", "--k", "1", "--n", "5"], 1),
    (["qbinom", "--antichain", "3", "--k", "1", "--labels", "1,2"], 1),
    (["show", "1-2", "--n", "2", "--format", "json"], 1),
    # a repeated arc repeats both its endpoints
    (["show", "--n", "4", "1-3", "1-3"], 1),
    (["qbinom", "--n", "4", "--partition", "1-3 1-3", "--k", "1"], 1),
    (["verify", "identities", "--m", "3"], 1),
    # family parameters that the family does not read
    (["decompose", "rainbow", "--n", "3", "--m", "1", "--k", "5", "--b", "9",
      "--split", "x", "--cols", "1"], 1),
    (["decompose", "peel", "--n", "3", "--split", "1,1,1", "--b", "0",
      "--f", "1"], 1),
    (["export", "psi", "--n", "3", "--target", "core"], 1),
    # verify flags that the suite does not read
    (["verify", "orbits", "--max", "3"], 1),
    (["verify", "solver", "--max", "3"], 1),
    (["verify", "identities", "--n", "4"], 1),
    (["verify", "identities", "--q", "2"], 1),
    (["verify", "identities", "--budget", "100"], 1),
    (["decompose", "onion", "--labels", "2,3,4", "--anchors", "1,5",
      "--m", "2"], 1),
    # flags come after the family or suite
    (["decompose", "--n", "3", "rainbow", "--m", "1"], 1),
    (["verify", "--n", "2", "orbits"], 1),
    # integer flags read ASCII digits with an optional minus sign only:
    # int() also reads "+1", "1_0" and non-ASCII digits
    (["decompose", "core", "--n", "\u0663", "--k", "+1"], 1),
    (["decompose", "core", "--n", "3", "--k", "+1"], 1),
    (["decompose", "core", "--n", "1_0", "--k", "2"], 1),
    (["decompose", "core", "--n", "3", "--k", "1", "--q", "\u0663"], 1),
    (["decompose", "peel", "--split", "1,1,1", "--b", "\u0661", "--f",
      "1"], 1),
    (["verify", "orbits", "--n", "\u0662", "--q", "2"], 1),
    (["decompose", "onion", "--labels", "2,3", "--anchors", "1,4",
      "--m-list", "\u0662"], 1),
    # the known three-layer onion defect (see the strict xfail below) must
    # fail cleanly, not print a wrong table
    (["decompose", "onion", "--labels", "2,3,4,5,6,7,8,9,10,11",
      "--anchors", "1,12;3,10;5,8", "--m-list", "2,1,2"], 1),
]

# usage errors that print a ground set, pinned byte for byte: the ground
# reads as the tuple of its labels
GROUND_ERRORS = [
    (["decompose", "psi", "--n", "3", "--cols", "5"],
     "usage error: column set [5] not inside (1, 2, 3)\n"),
    (["show", "1-5", "--n", "3"],
     "usage error: bad partition: arc (1,5) leaves ground (1, 2, 3)\n"),
    (["qbinom", "--partition", "1-5", "--n", "3", "--k", "1"],
     "usage error: bad --partition: arc (1,5) leaves ground (1, 2, 3)\n"),
]


class TestExitCodes:
    def test_success(self):
        assert main(["qbinom", "--chain", "4", "--k", "2"]) == 0

    def test_python_m(self, run_python):
        proc = run_python("-m", "utrestrict", "qbinom", "--chain", "4",
                          "--k", "2")
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (0, f"{qbinom(4, 2)}\n", "")

    def test_closed_stdout(self, run_python):
        # a reader that stops after one line, as `| head -1` does: the
        # 237 kB of output fill the pipe, so the next write meets the closed
        # end; exit 1 with nothing on stderr, not a BrokenPipeError traceback
        proc = run_python("-c", "\n".join([
            "import subprocess, sys",
            "argv = ['decompose', 'core', '--n', '9', '--k', '4']",
            "p = subprocess.Popen([sys.executable, '-m', 'utrestrict', *argv],"
            " stdout=subprocess.PIPE, stderr=subprocess.PIPE)",
            "line = p.stdout.readline()",
            "p.stdout.close()",
            "print(line, p.wait(), p.stderr.read())"]))
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (0, "b'basis: supercharacter\\n' 1 b''\n", "")

    def test_qbinom_long_chain(self, capsys):
        # 600 points, deeper than the default recursion limit
        assert main(["qbinom", "--chain", "600", "--k", "2"]) == 0
        out, err = capsys.readouterr()
        poly = QPoly.parse(out.strip())
        assert poly(1) == comb(600, 2)
        assert poly(2) == prod(2 ** (600 - i) - 1 for i in range(2)) \
            // prod(2 ** (i + 1) - 1 for i in range(2))
        assert err == ""

    def test_usage_errors(self):
        assert main(["decompose", "rainbow"]) == 1
        assert main(["decompose", "rainbow", "--n", "3"]) == 1
        assert main(["qbinom", "--k", "2"]) == 1
        assert main(["qbinom", "--chain", "3", "--antichain", "3",
                     "--k", "1"]) == 1
        assert main(["nosuchcommand"]) == 1
        assert main(["decompose", "double-rainbow", "--split", "1,1",
                     "--m", "1", "--ell", "1"]) == 1
        assert main(["show", "1-9", "--n", "4"]) == 1

    def test_budget_exit(self):
        assert main(["verify", "orbits", "--budget", "5"]) == 3

    def test_budget_counts_partitions_not_points(self):
        # 1,772 partitions of [12] have at most 2 arcs: inside the budget
        code, out = capture(["decompose", "rainbow", "--n", "12", "--m", "2"])
        assert code == 0
        assert out.startswith("basis: supercharacter\n")
        # the expansion at the identity is the rainbow's degree,
        # (q-1)^2 q^(2*12): two arcs over two anchors around the ground
        g = GroundSet.range(12)
        dec = rainbow(g, 2, "superchars")
        assert len(out.splitlines()) == 1 + len(dec.coeffs)
        one = SetPartition(g, ())
        degree = sum((c * superchar_value(lam, one, g)
                      for lam, c in dec.coeffs.items()), ZERO)
        assert degree == (Q_MINUS_1 ** 2).shift(24)

    def test_budget_counts_the_constrained_scan(self, monkeypatch):
        # the algebra on [11] scans the Bell(10) partitions with no arc
        # ending at the top point: within the budget.  The query takes
        # seconds, so only the scan it asks for is counted.
        class Scanned(Exception):
            pass

        asked = []

        def stop(*args):
            asked.append(args)
            raise Scanned

        monkeypatch.setattr(restrict, "enumerate_partitions", stop)
        with pytest.raises(Scanned):
            run(["decompose", "ut-algebra", "--n", "11"], out=io.StringIO())
        assert sum(1 for _ in enumerate_partitions(*asked[0])) \
            == bell(10) == 115975
        monkeypatch.undo()
        # psi keeps the partitions with left endpoints in the columns
        code, out = capture(["decompose", "psi", "--n", "12",
                             "--cols", "3,6,9,12"])
        assert code == 0
        assert len(out.splitlines()) == 1 + 211
        # peel and double rainbow scan only the partitions their region
        # rules allow: 13,992 and 13,247 of the 12 points, where the
        # partitions with at most 4 arcs are more than the budget
        for argv, terms in [
                (["peel", "--split", "4,4,4", "--b", "2", "--f", "4"], 13992),
                (["double-rainbow", "--split", "4,4,4", "--m", "2", "--ell",
                  "2", "--target", "superchars"], 13247)]:
            code, out = capture(["decompose", *argv])
            assert code == 0
            assert len(out.splitlines()) == 1 + terms

    def test_verify_failure_exit(self, monkeypatch):
        # sabotage the closed form so the oracle comparison must disagree
        monkeypatch.setattr(PsiKModule, "value",
                            lambda self, mu: QPoly.q_pow(7))
        assert main(["verify", "traces", "--n", "2", "--q", "2"]) == 2

    @pytest.mark.parametrize("argv, code", BAD_INPUTS,
                             ids=[" ".join(a) for a, _ in BAD_INPUTS])
    def test_bad_input(self, argv, code, capsys):
        assert main(argv) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv, err", GROUND_ERRORS,
                             ids=[" ".join(a) for a, _ in GROUND_ERRORS])
    def test_ground_in_usage_error(self, argv, err, capsys):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", err)

    def test_bad_input_under_optimize(self, run_optimized):
        # `python -O` strips asserts: every rejection must still happen,
        # row by row with the same exit code, no stdout and one stderr line
        script = (
            "import contextlib, io, json, sys\n"
            "from utrestrict.cli import main\n"
            "rows = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), \\\n"
            "            contextlib.redirect_stderr(err):\n"
            "        code = main(argv)\n"
            "    rows.append([code, out.getvalue(), err.getvalue()])\n"
            "print(json.dumps(rows))\n")
        argvs = [argv for argv, _ in BAD_INPUTS]
        proc = run_optimized(script, json.dumps(argvs))
        assert (proc.returncode, proc.stderr) == (0, "")
        rows = json.loads(proc.stdout)
        assert len(rows) == len(BAD_INPUTS)
        for (argv, code), (got, out, err) in zip(BAD_INPUTS, rows):
            assert (got, out) == (code, ""), argv
            assert len(err.splitlines()) == 1, argv
            assert "Traceback" not in err, argv


class TestQbinom:
    def test_chain_is_gaussian(self):
        _, out = capture(["qbinom", "--chain", "5", "--k", "2"])
        assert out.strip() == str(qbinom(5, 2))

    def test_antichain_counts_subsets(self):
        _, out = capture(["qbinom", "--antichain", "4", "--k", "2"])
        assert out.strip() == "6"

    def test_partition_poset(self):
        _, out = capture(["qbinom", "--partition", "1-5 2-4 4-6",
                          "--n", "6", "--k", "1"])
        # three blocks with nesting weights 0, 1, 2
        assert out.strip() == "q^2 + q + 1"


class TestShow:
    def test_arc_diagram(self):
        _, out = capture(["show", "1-5", "2-4", "4-6", "--n", "6"])
        lines = out.splitlines()
        assert lines[0] == "1 2 3 4 5 6"
        assert any(line.startswith("  +---+") for line in lines)
        assert any(line.startswith("+-------+") for line in lines)

    def test_no_arcs(self):
        _, out = capture(["show", "--n", "3"])
        assert "(no arcs)" in out

    def test_repeated_arc_is_refused(self, capsys):
        # the arc is not drawn once: both commands give the usage error
        for argv, prefix in [
                (["show", "--n", "4", "1-3", "1-3"], "bad partition"),
                (["qbinom", "--n", "4", "--partition", "1-3 1-3", "--k", "1"],
                 "bad --partition")]:
            assert main(argv) == 1
            assert capsys.readouterr() == ("", (
                f"usage error: {prefix}: repeated left or right endpoint "
                "in [(1, 3), (1, 3)]\n"))

    @pytest.mark.parametrize("token", ["1-2-3", "1--2", "x", "a-b", "1_0-12",
                                       "+2-3", "\u0663-4"])
    def test_malformed_token_is_named(self, token, capsys):
        # one line that quotes the token, from both partition readers
        for argv, prefix in [
                (["show", "--n", "4", "1-3", token], "bad partition"),
                (["qbinom", "--n", "4", "--partition", f"1-3 {token}",
                  "--k", "1"], "bad --partition")]:
            assert main(argv) == 1
            assert capsys.readouterr() == ("", (
                f"usage error: {prefix}: token {token!r} should read i-j\n"))


class TestDecompose:
    def test_byte_stable(self):
        argv = ["decompose", "double-rainbow", "--split", "1,1,1",
                "--m", "2", "--ell", "1", "--format", "json"]
        assert capture(argv) == capture(argv)

    def test_rainbow_example_size(self):
        _, out = capture(["decompose", "rainbow", "--n", "3", "--m", "2",
                          "--target", "superchars"])
        rows = [line for line in out.splitlines()[1:] if line.strip()]
        assert len(rows) == 5

    def test_reparse_and_reevaluate_at_2(self):
        # every emitted coefficient, re-parsed, matches a direct engine
        # evaluation of the restriction at q = 2
        _, out = capture(["decompose", "rainbow", "--n", "3", "--m", "2",
                          "--format", "json"])
        obj = json.loads(out)
        g = GroundSet.range(3)
        ambient = GroundSet.range(5)
        inner = GroundSet((2, 3, 4))
        from utrestrict.setpart import ArcMultiset
        mult = ArcMultiset(ambient, [(1, 5)] * 2)
        coeffs = {t["label"]: QPoly.parse(t["coeff"]) for t in obj["terms"]}
        for mu, _, _ in enumerate_partitions(inner):
            lhs = superchar_value(mult, SetPartition(ambient, mu.arcs),
                                  ambient)(2)
            rhs = 0
            for lam, _, _ in enumerate_partitions(inner):
                label = " ".join(f"{i - 1}-{j - 1}"
                                 for i, j in sorted(lam.arcs)) or "()"
                c = coeffs.get(label, ZERO)
                rhs += c(2) * superchar_value(lam, mu, inner)(2)
            assert lhs == rhs, mu

    def test_empty_cols_is_the_empty_column_set(self):
        code, out = capture(["decompose", "psi", "--n", "3", "--cols", ""])
        assert code == 0
        assert out == capture(["decompose", "psi", "--n", "3"])[1]
        assert out == "basis: supercharacter\n()  1\n"

    def test_csv_and_q_evaluation(self):
        _, out = capture(["decompose", "psi", "--n", "3", "--cols", "1,2",
                          "--format", "csv", "--q", "2"])
        lines = out.splitlines()
        assert lines[0] == "label,coeff"
        for line in lines[1:]:
            label, coeff = line.rsplit(",", 1)
            assert coeff == str(int(coeff))

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="int to str conversion has no digit limit")
    def test_too_large_q_is_a_usage_error(self, tmp_path, capsys):
        # the values at q = 10^1000 - 1 have more digits than str() prints;
        # the error comes before --out opens its file
        limit = sys.get_int_max_str_digits()
        argv = ["decompose", "rainbow", "--n", "3", "--m", "2",
                "--q", "9" * 1000]
        path = tmp_path / "dec.json"
        for extra in ([], ["--out", str(path)]):
            assert main(argv + extra) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert len(err.splitlines()) == 1 and "--q" in err
            assert "Traceback" not in err
        assert not path.exists()
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("flag", ["--q", "--n"])
    def test_integer_flag_digit_cap(self, flag, capsys):
        # refused by a fixed cap before int() reads it, on every
        # interpreter: one short line that names the flag, no digits echoed
        values = {"--n": "3", "--q": "2", flag: "9" * 5000}
        argv = ["decompose", "rainbow", "--m", "2"]
        for name, value in values.items():
            argv += [name, value]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"usage error: argument {flag}: an integer has more "
                       f"than {cli.MAX_DIGITS} digits\n")
        assert len(err.encode()) < 200

    def test_digit_cap_counts_digits_not_the_sign(self):
        cap = cli.MAX_DIGITS
        assert cli._integer("-" + "9" * cap) == -(10 ** cap - 1)
        with pytest.raises(argparse.ArgumentTypeError):
            cli._integer("9" * (cap + 1))

    @pytest.mark.parametrize("argv, values", [
        # 4,140 rows hold 2,901 coefficient objects of 1,623 values
        (["ut-algebra", "--n", "9"], 1623),
        # 10,096 rows, 236 objects, 155 values
        (["core", "--n", "9", "--k", "4"], 155)])
    def test_one_text_per_coefficient_value(self, argv, values,
                                            monkeypatch):
        made = [0]
        text = QPoly.__str__

        def counted(self):
            made[0] += 1
            return text(self)

        monkeypatch.setattr(QPoly, "__str__", counted)
        code, _ = capture(["decompose", *argv])
        assert (code, made[0]) == (0, values)

    def test_export_defaults_to_json(self, tmp_path):
        path = tmp_path / "dec.json"
        code = main(["export", "core", "--n", "4", "--k", "2",
                     "--out", str(path)])
        assert code == 0
        obj = json.loads(path.read_text())
        assert obj["basis"] == "supercharacter"
        assert obj["terms"]

    @pytest.mark.parametrize("argv", [
        ["core", "--n", "4", "--k", "2"],
        ["double-rainbow", "--split", "1,1,1", "--m", "2", "--ell", "1"],
        ["psi", "--n", "3", "--cols", "1,3", "--q", "3"],
        ["core", "--n", "3", "--k", "1", "--format", "csv"],
    ])
    def test_export_is_decompose_with_json_default(self, argv):
        code, out = capture(["export", *argv])
        assert code == 0
        if "--format" in argv:
            assert out.startswith("label,coeff\n")
        else:
            argv = [*argv, "--format", "json"]
        assert out == capture(["decompose", *argv])[1]

    def test_onion_cli_geometry(self):
        code, out = capture([
            "decompose", "onion", "--labels", "2,3,4,5,6,7,8,9",
            "--anchors", "1,10;3,8", "--m-list", "2,1"])
        assert code == 0
        assert out.startswith("basis: onion")

    @pytest.mark.xfail(raises=UsageError, strict=True,
                       reason="known defect: a three-layer onion with "
                              "middle m = 1 shifts by a negative exponent")
    def test_onion_three_layers_middle_m1(self):
        buf = io.StringIO()
        run(["decompose", "onion", "--labels", "2,3,4,5,6,7,8,9,10,11",
             "--anchors", "1,12;3,10;5,8", "--m-list", "2,1,2"], out=buf)
        assert buf.getvalue().startswith("basis: onion")


class TestVerify:
    def test_identities_pass(self):
        code, out = capture(["verify", "identities", "--max", "5"])
        assert code == 0
        assert "FAIL" not in out

    def test_small_oracle_suites_pass(self):
        code, out = capture(["verify", "orbits", "--n", "3"])
        assert code == 0
        code, out = capture(["verify", "traces", "--n", "3", "--q", "2"])
        assert code == 0
        code, out = capture(["verify", "solver", "--n", "2"])
        assert code == 0
        assert all(line.startswith("PASS") for line in out.splitlines())

    def test_solver_runs_the_traces_grid(self):
        code, out = capture(["verify", "solver"])
        assert code == 0
        assert out.splitlines() == \
            [f"PASS  solver n={n} p=2" for n in range(1, 6)] + \
            [f"PASS  solver n={n} p=3" for n in range(1, 5)]

    def test_all_is_the_four_suites_in_order(self):
        code, out = capture(["verify", "all"])
        assert code == 0
        assert out == "".join(
            capture(["verify", suite])[1]
            for suite in ("orbits", "traces", "solver", "identities"))

    def test_all_stops_each_suite_at_its_first_failure(self, monkeypatch):
        # psiK values wrong at n = 2 only: traces passes n = 1 and stops at
        # its FAIL; all prints the four suites' outputs, FAIL included
        real = PsiKModule.value
        monkeypatch.setattr(PsiKModule, "value", lambda self, mu: (
            QPoly.q_pow(7) if len(self.ground) == 2 else real(self, mu)))
        code, out = capture(["verify", "traces", "--n", "3"])
        assert code == 2
        assert out.splitlines() == [
            "PASS  traces n=1 p=2", "FAIL  traces psiK n=2 p=2",
            "      first counterexample: K=[] mu=() q=2 oracle=1 formula=128"]
        code, out = capture(["verify", "all", "--n", "3"])
        assert code == 2
        assert out == "".join(
            capture(["verify", suite, "--n", "3"])[1]
            for suite in ("orbits", "traces", "solver")) \
            + capture(["verify", "identities"])[1]

    def test_broken_census_fails_every_grid_suite(self, monkeypatch, capsys):
        # each grid suite reports the bad orbit table once and stops;
        # identities still runs, and the command exits 2
        monkeypatch.setattr(oracle, "enumerate_partitions",
                            dropping_scan(oracle.enumerate_partitions))
        assert main(["verify", "all", "--n", "2", "--q", "2"]) == 2
        out, _ = capsys.readouterr()
        lines = out.splitlines()
        assert lines[0::2][:3] == [f"FAIL  {suite} n=1 p=2"
                                   for suite in ("orbits", "traces", "solver")]
        assert all("cover 0 of the 1 states" in line
                   for line in lines[1:6:2])
        assert lines[6:] == [f"PASS  identities {name}" for name in (
            "phi-telescoping", "core-tensor", "rainbow-consistency")]

    @pytest.mark.parametrize("suite", ["all", "traces"])
    def test_one_grid_walk(self, suite, monkeypatch):
        # the three grid suites share each orbit table and each oracle
        # trace: 9 grid points, and (2^n + 1) Bell(n) traces at each
        calls = {"orbits": 0, "traces": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "superclass_orbits",
                            counted("orbits", cli.superclass_orbits))
        monkeypatch.setattr(cli, "module_trace",
                            counted("traces", cli.module_trace))
        code, _ = capture(["verify", suite])
        assert code == 0
        assert calls == {"orbits": 9, "traces": 2342}

    def test_block_ranks_once_per_u(self):
        # every trace at u reads the ranks found once for (u, p): one miss
        # per u_mu of the grid, Bell(1..5) at p = 2 and Bell(1..4) at p = 3
        oracle._block_ranks.cache_clear()
        code, _ = capture(["verify", "all"])
        assert code == 0
        assert oracle._block_ranks.cache_info().misses == 75 + 23

    def test_oracle_invariant_failure(self, monkeypatch, capsys):
        # a broken orbit census is a verification failure, not a traceback
        monkeypatch.setattr(oracle, "enumerate_partitions",
                            dropping_scan(oracle.enumerate_partitions))
        assert main(["verify", "orbits", "--n", "2", "--q", "2"]) == 2
        out, err = capsys.readouterr()
        assert out.splitlines()[0] == "FAIL  orbits n=1 p=2"
        assert "the orbits of the 0 u_mu patterns cover 0 of the 1 states at n=1 p=2" in out
        assert "Traceback" not in err and len(err.splitlines()) == 1

    def test_too_small_generating_set_fails(self, monkeypatch, capsys):
        # the transvections alone generate U, not B: the U x U orbits of
        # ut_2(F_3) are its 3 elements, and the Bell(2) = 2 u_mu patterns
        # reach only 2 of them
        real = oracle.borel_generators
        monkeypatch.setattr(oracle, "borel_generators", lambda n, p: [
            (a, b, c) for a, b, c in real(n, p) if a != b])
        assert main(["verify", "orbits", "--q", "3", "--n", "2"]) == 2
        out, _ = capsys.readouterr()
        assert out.splitlines() == [
            "PASS  orbits n=1 p=3", "FAIL  orbits n=2 p=3",
            "      first counterexample: the orbits of the 2 u_mu patterns "
            "cover 2 of the 3 states at n=2 p=3"]

    def test_dropped_partition_fails(self, monkeypatch, capsys):
        # the orbit search starts from each partition of the scan: a scan
        # one partition short leaves that partition's orbit unreached
        monkeypatch.setattr(oracle, "enumerate_partitions",
                            dropping_scan(oracle.enumerate_partitions))
        assert main(["verify", "orbits", "--q", "2", "--n", "3"]) == 2
        out, _ = capsys.readouterr()
        assert out.splitlines() == [
            "FAIL  orbits n=1 p=2",
            "      first counterexample: the orbits of the 0 u_mu patterns "
            "cover 0 of the 1 states at n=1 p=2"]

    def test_repeated_partition_fails(self, monkeypatch, capsys):
        # a scan that yields each partition twice starts its second search
        # inside the orbit of the first
        real = oracle.enumerate_partitions
        monkeypatch.setattr(oracle, "enumerate_partitions", lambda g: [
            yielded for yielded in real(g) for _ in range(2)])
        assert main(["verify", "orbits", "--q", "2", "--n", "3"]) == 2
        out, _ = capsys.readouterr()
        assert out.splitlines() == [
            "FAIL  orbits n=1 p=2",
            "      first counterexample: u_mu of () lies in the orbit of an "
            "earlier partition"]

    @pytest.mark.parametrize("family", ["psiK", "ut"])
    def test_solver_negative_control(self, family, monkeypatch):
        # one coefficient off by one must break the rebuild of the traces
        cls = PsiKModule if family == "psiK" else UtAlgebra
        name = ("decomposition" if family == "psiK"
                else "superchar_decomposition")
        real = getattr(cls, name)

        def off_by_one(self):
            dec = real(self)
            lam = max(dec.coeffs, key=len)
            dec.coeffs[lam] = dec.coeffs[lam] + 1
            return dec

        monkeypatch.setattr(cls, name, off_by_one)
        code, out = capture(["verify", "solver", "--n", "3", "--q", "3"])
        assert code == 2
        assert f"FAIL  solver {family} n=" in out


class TestParser:
    def test_built_once_per_process(self, monkeypatch, run_python):
        # importing the module builds no parser, and a command that names a
        # leaf builds that leaf alone: one ArgumentParser in a fresh process
        proc = run_python("-c", (
            "import argparse, io, sys\n"
            "built = []\n"
            "real = argparse.ArgumentParser.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    real(self, *args, **kwargs)\n"
            "    built.append(self.prog)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import utrestrict.cli\n"
            "print(built)\n"
            "utrestrict.cli.run(sys.argv[1:], out=io.StringIO())\n"
            "print(built)\n"), "decompose", "rainbow", "--n", "3", "--m", "1")
        assert (proc.returncode, proc.stdout, proc.stderr) \
            == (0, "[]\n['utrestrict decompose rainbow']\n", "")
        built = []
        real = cli._Parser.__init__

        def counted(self, **kwargs):
            built.append(self)
            real(self, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counted)
        monkeypatch.setattr(cli, "_BUILT", {})
        argv = ["decompose", "core", "--n", "3", "--k", "1"]
        run(argv, out=io.StringIO())
        assert [p.prog for p in built] == ["utrestrict decompose core"]
        # rerunning the leaf, or exporting the same family, builds nothing
        run(argv, out=io.StringIO())
        run(["export", *argv[1:]], out=io.StringIO())
        assert len(built) == 1
        # argv that names no leaf builds the whole tree, of 17 parsers
        for argv in (["decompose", "--help"], []):
            cli.build_parser.cache_clear()
            built.clear()
            with pytest.raises((SystemExit, UsageError)), \
                    contextlib.redirect_stdout(io.StringIO()):
                cli.parse_args(argv)
            assert built[0] is cli.build_parser() and len(built) == 17

    def test_leaves_match_the_tree(self):
        # the leaf table names each leaf of the tree, and a leaf built alone
        # has the prog, description, flags and defaults of its tree copy
        tree = cli.build_parser()
        assert set(cli._LEAVES) == leaf_words(tree)
        assert len(cli._LEAVES) == 21
        for words, (prog, *_) in cli._LEAVES.items():
            node = subparsers(tree)[words[0]]
            if len(words) == 2:
                node = subparsers(node)[words[1]]
            with pytest.raises(SystemExit), \
                    contextlib.redirect_stdout(io.StringIO()):
                cli.parse_args([*words, "--help"])
            leaf = cli._BUILT[prog]
            assert leaf is not node
            assert (leaf.prog, leaf.description, flags(leaf), leaf._defaults) \
                == (node.prog, node.description, flags(node), node._defaults)

    def test_dispatch_equals_the_tree(self, monkeypatch):
        # every argv of the corpus gives the same namespace, UsageError text
        # or help exit through run's dispatch as through the whole tree
        tree = cli.build_parser()
        calls = count_parses(monkeypatch)
        paths = Counter()
        for argv in dispatch_corpus():
            calls.clear()
            got = parse_outcome(cli.parse_args, argv)
            paths["tree" if calls[0] is tree else "leaf"] += 1
            assert got == parse_outcome(tree.parse_args, argv), argv
        assert paths["leaf"] >= 2000 and paths["tree"] >= 5, paths

    def test_one_parse_per_leaf_command(self, monkeypatch):
        # a command that names a leaf is parsed by that leaf alone: one
        # parse_known_args per run, where the tree makes one per level
        words = leaf_words(cli.build_parser())
        calls = count_parses(monkeypatch, skip_work=True)
        counts = Counter()
        for argv in dispatch_corpus():
            if tuple(argv[:2]) in words or tuple(argv[:1]) in words:
                calls.clear()
                try:
                    run(argv, out=io.StringIO())
                except (UsageError, SystemExit):
                    pass
                counts[len(calls)] += 1
        assert set(counts) == {1} and counts[1] >= 2000, counts

    def test_readme_tables_match_the_parser(self):
        # README's flag tables against the flags each subparser declares
        commands = subparsers(cli.build_parser())
        table = readme_table("| Command | Flags |")
        assert set(table) == set(commands)
        for name in ("qbinom", "show"):
            assert table[name] == flags(commands[name])
        assert table["export"] == table["decompose"]
        families = subparsers(commands["decompose"])
        family_table = readme_table("| Family | Parameters |")
        assert set(family_table) == set(families)
        for name, parser in families.items():
            assert table["decompose"] | family_table[name] == flags(parser)
        suites = subparsers(commands["verify"])
        suite_table = readme_table("| Suite | Flags |")
        assert set(suite_table) == set(suites)
        for name, parser in suites.items():
            assert suite_table[name] == flags(parser)


README = Path(__file__).resolve().parents[1] / "README.md"


# --- the dispatch corpus ------------------------------------------------------

SUITES = ("identities", "orbits", "traces", "solver", "all")
VERIFY_FLAGS = (["--n", "2"], ["--q", "3"], ["--budget", "500"],
                ["--max", "4"])
MALFORMED = [
    ["decompose", "core", "--n", "3", "--k"],
    ["decompose", "core", "--n", "3", "--k", "1", "--k", "2"],
    ["decompose", "core", "--n=3", "--k", "1"],
    ["decompose", "core", "--", "--n", "3", "--k", "1"],
    ["decompose", "core", "--n", "3", "--k", "1", "extra"],
    ["decompose", "core", "--n", "3", "--k", "1", "--format", "xml"],
    ["export", "peel", "--split", "1,2", "--b", "0", "--f", "1"],
    ["decompose", "psi", "--n", "3", "--labels", "1,2"],
    ["qbinom", "--n", "3", "--labels", "1,2", "--partition", "1-2",
     "--k", "1"],
    ["decompose", "hexagon", "--n", "3"],
    ["export", "--n", "3", "core", "--k", "1"],
    ["verify", "--max", "3", "identities"],
    ["decompose"], ["verify"], ["frobnicate"], [],
]
FAMILIES = ("rainbow", "double-rainbow", "onion", "psi", "core", "peel",
            "ut-algebra")
# help at every level: above the leaves, and on each of the 21 leaves
HELP = [["--help"], ["decompose", "--help"], ["export", "-h"],
        ["verify", "--help"], ["qbinom", "--help"], ["show", "-h"]]
HELP += [[command, family, "--help"] for command in ("decompose", "export")
         for family in FAMILIES]
HELP += [["verify", suite, "--help"] for suite in SUITES]


def dispatch_corpus():
    """argv for the dispatch tests: the bad inputs, every recorded digest
    key under decompose and export, each verify suite with and without
    each of its flags, malformed lines and help at every level."""
    keys = json.loads(DIGESTS.read_text())
    corpus = [argv for argv, _ in BAD_INPUTS]
    corpus += [[command, *key.split()] for command in ("decompose", "export")
               for key in keys]
    for suite in SUITES:
        corpus.append(["verify", suite])
        corpus += [["verify", suite, *flag] for flag in VERIFY_FLAGS]
        corpus.append(["verify", suite, *sum(VERIFY_FLAGS, [])])
    return corpus + MALFORMED + HELP


def leaf_words(tree):
    """The command words that name a leaf parser, read off the tree."""
    words = set()
    for command, parser in subparsers(tree).items():
        if any(isinstance(a, argparse._SubParsersAction)
               for a in parser._actions):
            words.update((command, name) for name in subparsers(parser))
        else:
            words.add((command,))
    return words


def count_parses(monkeypatch, skip_work=False):
    """The list of parsers that parse_known_args runs on, call by call;
    with skip_work, the namespace it returns runs nothing."""
    calls = []
    real = argparse.ArgumentParser.parse_known_args

    def counted(self, args=None, namespace=None):
        calls.append(self)
        namespace, extras = real(self, args, namespace)
        if skip_work:
            namespace.run = lambda args, out: None
        return namespace, extras

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    return calls


def parse_outcome(parse, argv):
    """What parse makes of argv: its namespace, with a ground set read as
    its labels and a region split as its sizes; the text of its
    UsageError; or the code and stdout of its exit."""
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            args = parse(list(argv))
    except UsageError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, stdout.getvalue()
    values = {}
    for name, value in vars(args).items():
        if isinstance(value, GroundSet):
            value = tuple(value)
        elif isinstance(value, RegionSplit):
            value = tuple(map(len, (value.n_lt, value.n_eq, value.n_gt)))
        values[name] = value
    return "args", values


def subparsers(parser):
    """{name: subparser} for each subcommand of parser, aliases included."""
    [action] = [a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def flags(parser):
    return {s for a in parser._actions for s in a.option_strings} \
        - {"-h", "--help"}


def readme_table(header):
    """{name: flags} for each row of the README table whose header line is
    `header`: the backquoted names of the first column, each with the
    backquoted --flags of the second."""
    lines = README.read_text().splitlines()
    rows = itertools.takewhile(lambda line: line.startswith("|"),
                               lines[lines.index(header) + 2:])
    table = {}
    for row in rows:
        _, names, rest = row.split("|", 2)
        for name in re.findall(r"`([\w-]+)", names):
            table[name] = set(re.findall(r"`(--[\w-]+)", rest))
    return table


# --- recorded benchmark digests ------------------------------------------------

DIGESTS = Path(__file__).resolve().parents[1] / "bench" / "digests.json"


def _ground_size(key):
    """Points of the ground of a digest key such as 'peel --split 1,2,1 ...'."""
    words = key.split()
    opts = dict(zip(words[1::2], words[2::2]))
    if "--split" in opts:
        return sum(int(x) for x in opts["--split"].split(","))
    if "--labels" in opts:
        return len(opts["--labels"].split(","))
    return int(opts["--n"])


def _recomputed_digest_keys():
    """The digest keys the tests recompute: every peel key, and the other
    keys on at most 4 points and the engines-size ones (more than the
    sweep's 6 points)."""
    return [key for key in json.loads(DIGESTS.read_text())
            if key.startswith("peel ") or not 4 < _ground_size(key) <= 6]


class TestRecordedDigests:
    def test_outputs_match_recorded_digests(self):
        # bench/digests.json pins the JSON output of every base query in a
        # basis with no independent check (core, peel, onion, trivial_coeff
        # and the row-set modules)
        recorded = json.loads(DIGESTS.read_text())
        keys = _recomputed_digest_keys()
        assert sum(key.startswith("peel ") for key in keys) == 521
        assert len(keys) == 1190
        differ = []
        for key in keys:
            code, out = capture(["decompose", *key.split(), "--format",
                                 "json"])
            if code:
                differ.append(key)
                continue
            obj = json.loads(out)
            rows = [[t["label"], t["coeff"]] for t in obj["terms"]]
            blob = json.dumps([obj["basis"], rows], separators=(",", ":"))
            if hashlib.sha256(blob.encode()).hexdigest()[:16] \
                    != recorded[key]:
                differ.append(key)
        assert differ == []


# --- byte reference of the decompose writers ------------------------------------

def reference_output(dec, fmt, q):
    """The decompose output of `dec` as the writers of earlier releases made
    it: one dict per term through json.dumps(sort_keys=True), csv.writer
    called once per row, one write per text line.  The rows are built here
    from the labels themselves, not through Decomposition.labels_text:
    partitions by arc count and then arcs, then the other labels by text."""
    parts = sorted((lab for lab in dec.coeffs
                    if isinstance(lab, SetPartition)),
                   key=lambda lam: (len(lam.arcs), lam.arcs))
    others = sorted((lab for lab in dec.coeffs
                     if not isinstance(lab, SetPartition)), key=str)
    rows = [(lam.label(), dec.coeffs[lam]) for lam in parts] \
        + [(str(lab), dec.coeffs[lab]) for lab in others]
    rows = [(t, str(c) if q is None else str(c(q))) for t, c in rows]
    out = io.StringIO()
    if fmt == "json":
        obj = {"basis": dec.basis,
               "terms": [{"label": t, "coeff": c} for t, c in rows]}
        if q is not None:
            obj["q"] = q
        out.write(json.dumps(obj, sort_keys=True) + "\n")
    elif fmt == "csv":
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["label", "coeff"])
        for t, c in rows:
            w.writerow([t, c])
    else:
        out.write(f"basis: {dec.basis}\n")
        width = max((len(t) for t, _ in rows), default=0)
        for t, c in rows:
            out.write(f"{t.ljust(width)}  {c}\n")
        if not rows:
            out.write("(zero)\n")
    return out.getvalue()


class TestWriterBytes:
    # the non-partition bases (row sets, onion, peel), a 10,096-row table
    # and the empty one, besides the recomputed digest keys
    EXTRA = ["core --n 9 --k 4", "core --n 3 --k 5",
             "ut-algebra --n 4 --target core",
             "onion --labels 2,3,4,5,6 --anchors 1,7;2,6 --m-list 1,1",
             "double-rainbow --split 2,1,2 --m 1 --ell 2 --target peel"]

    @staticmethod
    def emitted(argv, dec):
        """The CLI's output for argv, with the decomposition given."""
        args = cli.build_parser().parse_args(argv)
        args.build = lambda _: dec
        out = io.StringIO()
        args.run(args, out)
        return out.getvalue()

    def test_every_format_matches_the_reference(self):
        keys = _recomputed_digest_keys() + self.EXTRA
        assert len(keys) == 1195
        empty = 0
        for key in keys:
            argv = ["decompose", *key.split()]
            args = cli.build_parser().parse_args(argv)
            dec = args.build(args)
            empty += not dec.coeffs
            for fmt, q in itertools.product(("text", "json", "csv"),
                                            (None, 3)):
                flags = ["--format", fmt] + ([] if q is None else
                                             ["--q", str(q)])
                assert self.emitted(argv + flags, dec) \
                    == reference_output(dec, fmt, q), (key, fmt, q)
        assert empty >= 1


class TestDeterminism:
    # one command per family, every --target and every --format, and
    # export once; verify all covers every suite
    COMMANDS = [
        'qbinom --partition "1-5 2-4 4-6" --n 6 --k 1',
        "show 1-5 2-4 4-6 --n 6",
        "decompose rainbow --n 3 --m 2 --target superchars",
        "decompose rainbow --n 4 --m 1 --target core --format csv",
        "decompose double-rainbow --split 1,1,1 --m 2 --ell 1 --format json",
        "decompose double-rainbow --split 2,1,1 --m 1 --ell 1 --target peel",
        "decompose double-rainbow --split 1,2,1 --m 1 --ell 1 "
        "--target trivial_coeff --format csv",
        "decompose onion --labels 2,3,4,5,6,7,8,9 --anchors '1,10;3,8' "
        "--m-list 2,1",
        "decompose psi --n 5 --cols 2,4 --q 3",
        "decompose core --n 5 --k 2 --format json",
        "decompose peel --split 2,2,2 --b 1 --f 2",
        "decompose ut-algebra --n 4 --target superchars --q 2",
        "decompose ut-algebra --n 4 --target core",
        "export core --n 4 --k 2",
        "verify all",
    ]
    SCRIPT = "\n".join([
        "import json, sys",
        "from utrestrict.cli import main",
        "for argv in json.loads(sys.argv[1]):",
        "    print('$', *argv, flush=True)",
        "    print('exit', main(argv))"])

    def test_stdout_is_the_same_under_two_hash_seeds(self, run_python):
        # README: output is deterministic and byte-stable for fixed inputs;
        # str hashes, and so set and dict-as-set orders, vary with the seed
        argvs = json.dumps(list(map(shlex.split, self.COMMANDS)))
        procs = [run_python("-c", self.SCRIPT, argvs,
                            env={"PYTHONHASHSEED": seed})
                 for seed in ("1", "2")]
        for proc in procs:
            assert (proc.returncode, proc.stderr) == (0, "")
            assert proc.stdout.splitlines().count("exit 0") \
                == len(self.COMMANDS)
        assert procs[0].stdout == procs[1].stdout
