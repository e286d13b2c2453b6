import io
import json

import pytest

from utrestrict.qcalc import QPoly, ZERO, qbinom
from utrestrict.setpart import GroundSet, SetPartition, enumerate_partitions
from utrestrict.scfcore import superchar_value
from utrestrict.restrict import PsiKModule, UtAlgebra
from utrestrict import cli
from utrestrict.cli import main, run, UsageError


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
    (["decompose", "core", "--n", "12", "--k", "2"], 3),
    (["decompose", "peel", "--split", "1,1,1", "--b", "5", "--f", "1"], 1),
    (["decompose", "double-rainbow", "--split", "1,1,1", "--m", "-1",
      "--ell", "1"], 1),
    (["decompose", "double-rainbow", "--split", "1,1,1", "--m", "1",
      "--ell", "-1"], 1),
    (["decompose", "rainbow", "--labels", "0,1", "--m", "1"], 1),
    (["decompose", "rainbow", "--labels", "3,1", "--m", "1"], 1),
    (["decompose", "onion", "--n", "3", "--anchors", "0,5",
      "--m-list", "0"], 1),
    (["decompose", "onion", "--labels", "2,3,4", "--anchors", "1,5",
      "--m-list", "0"], 1),
    (["decompose", "onion", "--n", "3", "--anchors", "4,5",
      "--m-list", "1"], 1),
    (["decompose", "onion", "--labels", "2,3,4,5,6,7,8,9,10,11",
      "--anchors", "1,12;2,20", "--m-list", "1,1"], 1),
    (["verify", "solver", "--n", "0"], 1),
    (["verify", "identities", "--max", "0"], 1),
    (["verify", "orbits", "--budget", "0"], 1),
    (["verify", "orbits", "--n", "7", "--q", "2"], 1),
    (["verify", "traces", "--n", "5", "--q", "3"], 1),
    (["verify", "all", "--n", "6"], 1),
    (["export", "core", "--n", "3", "--k", "1",
      "--out", "/nonexistent/dir/x.json"], 1),
    # flags that no command reads are rejected, not ignored
    (["qbinom", "--chain", "3", "--k", "1", "--q", "2"], 1),
    (["show", "1-2", "--n", "2", "--format", "json"], 1),
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
    # the known three-layer onion defect (see the strict xfail below) must
    # fail cleanly, not print a wrong table
    (["decompose", "onion", "--labels", "2,3,4,5,6,7,8,9,10,11",
      "--anchors", "1,12;3,10;5,8", "--m-list", "2,1,2"], 1),
]


class TestExitCodes:
    def test_success(self):
        assert main(["qbinom", "--chain", "4", "--k", "2"]) == 0

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

    def test_bad_input_under_optimize(self, run_optimized):
        # `python -O` strips asserts: every rejection must still happen
        script = ("import json, sys\n"
                  "from utrestrict.cli import main\n"
                  "print(json.dumps([main(a) for a in "
                  "json.loads(sys.argv[1])]))")
        argvs = [argv for argv, _ in BAD_INPUTS]
        proc = run_optimized(script, json.dumps(argvs))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [code for _, code in BAD_INPUTS]
        assert len(proc.stderr.splitlines()) == len(BAD_INPUTS)
        assert "Traceback" not in proc.stderr


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
        for mu in enumerate_partitions(inner):
            lhs = superchar_value(mult, SetPartition(ambient, mu.arcs),
                                  ambient)(2)
            rhs = 0
            for lam in enumerate_partitions(inner):
                label = " ".join(f"{i - 1}-{j - 1}"
                                 for i, j in sorted(lam.arcs)) or "()"
                c = coeffs.get(label, ZERO)
                rhs += c(2) * superchar_value(lam, mu, inner)(2)
            assert lhs == rhs, mu

    def test_csv_and_q_evaluation(self):
        _, out = capture(["decompose", "psi", "--n", "3", "--cols", "1,2",
                          "--format", "csv", "--q", "2"])
        lines = out.splitlines()
        assert lines[0] == "label,coeff"
        for line in lines[1:]:
            label, coeff = line.rsplit(",", 1)
            assert coeff == str(int(coeff))

    def test_export_defaults_to_json(self, tmp_path):
        path = tmp_path / "dec.json"
        code = main(["export", "core", "--n", "4", "--k", "2",
                     "--out", str(path)])
        assert code == 0
        obj = json.loads(path.read_text())
        assert obj["basis"] == "supercharacter"
        assert obj["terms"]

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
