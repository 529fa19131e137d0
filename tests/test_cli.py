"""Command-line interface: outputs, exit codes, file and stdin handling."""

import io
import subprocess
import sys

import pytest

from breakcalc import catalog
from breakcalc.cli import main
from breakcalc.parser import parse_type
from breakcalc.printer import print_term

B1_SOURCE = "\\f:A -> B. \\g:B -> C. \\x:A. g (f x)\n"
U_SOURCE = ("\\x':A. \\g':A -> B. let <m:B, n:B -> A> = "
            "(\\x:A. break x as <phi, f> @ B in \\g:A -> B. <phi g, f>) x' g' "
            "in m\n")
WITNESS_SOURCE = ("break (let <x:P1, y:P2> = (t : P1 * P2) in (u : A)) "
                  "as <phi, f> @ B in phi (h : A -> B)\n")


@pytest.fixture()
def cli(capsys, monkeypatch):
    def run(argv, stdin=""):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


@pytest.fixture()
def b1_file(tmp_path):
    path = tmp_path / "b1.bterm"
    path.write_text(B1_SOURCE)
    return str(path)


class TestCheck:
    def test_b1(self, cli, b1_file):
        code, out, _ = cli(["check", b1_file])
        assert code == 0
        assert out.strip() == "(A -> B) -> (B -> C) -> A -> C"

    def test_stdin(self, cli):
        code, out, _ = cli(["check", "-"], stdin="\\x:A. x\n")
        assert code == 0 and out.strip() == "A -> A"

    def test_type_error_exit_1(self, cli):
        code, _, err = cli(["check", "-"], stdin="\\x:A. <x, x>\n")
        assert code == 1 and err

    @pytest.mark.parametrize("command, source, message", [
        ("check", "\\x:A. \\y:B. (x y)",
         "type mismatch at [0, 0, 0]: expected a function type, found A"),
        ("check", "\\x:A. \\y:B. let <a:A, b:B> = x in y",
         "type mismatch at [0, 0, 0]: expected A * B, found A"),
        ("infer", "\\x:A. \\z:C. <x, z> (y : B)",
         "cannot unify ?1 * ?2 with ?3 -> ?4 at [0, 0]"),
        ("infer", "\\x:A. break x as <phi, f> @ B in f phi",
         "occurs check: ?2 in (?1 -> ?2) -> ?2 at [0, 1]"),
        ("check", "break (f : A) (y : B) as <p, g> @ C in p",
         "line 1, column 7: applied term has non-function type A"),
        ("check", "-- scrutinee on line 3\n\\x:A.\n  break (f : A)\n"
                  "  (y : B) as <p, g> @ C in p",
         "line 3, column 9: applied term has non-function type A"),
    ], ids=["not-a-function", "not-a-pair", "unification", "occurs",
            "break-scrutinee", "break-scrutinee-line-3"])
    def test_type_error_text(self, cli, command, source, message):
        code, out, err = cli([command, "-"], stdin=source + "\n")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_syntax_error_exit_2(self, cli):
        code, _, err = cli(["check", "-"], stdin="\\x:A. (\n")
        assert code == 2 and err

    def test_missing_file_exit_4(self, cli):
        code, _, _ = cli(["check", "/nonexistent/nope.bterm"])
        assert code == 4


class TestInfer:
    def test_identity(self, cli):
        code, out, _ = cli(["infer", "-"], stdin="\\x:A. x\n")
        assert code == 0 and out.strip() == "a -> a"

    def test_break_identity(self, cli):
        source = "\\x:A. break x as <phi, f> @ A in phi f\n"
        code, out, _ = cli(["infer", "-"], stdin=source)
        assert code == 0 and out.strip() == "a -> a"


class TestNormalize:
    def test_divisibility_wrapper(self, cli):
        code, out, _ = cli(["normalize", "--trace", "-"], stdin=U_SOURCE)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == r"\x':A. \g':A -> B. g' x'"
        assert len(lines) == 8  # seven steps plus the final term
        rules = [line.split()[1] for line in lines[:-1]]
        assert rules == ["beta", "ap-b-conv", "l-b-conv", "beta", "l-conv",
                         "b-conv", "beta"]

    def test_output_recheck_preserves_type(self, cli):
        code, out, _ = cli(["normalize", "-"], stdin=U_SOURCE)
        assert code == 0
        code2, out2, _ = cli(["check", "-"], stdin=out)
        assert code2 == 0 and out2.strip() == "A -> (A -> B) -> B"

    def test_budget_exit_3(self, cli):
        code, _, err = cli(["normalize", "--max-steps", "1", "-"],
                           stdin=U_SOURCE)
        assert code == 3 and "budget" in err

    def test_two_normal_forms_with_experimental_rule(self, cli):
        code1, out1, _ = cli(["normalize", "--experimental-blconv",
                              "--strategy", "first", "-"],
                             stdin=WITNESS_SOURCE)
        code2, out2, _ = cli(["normalize", "--experimental-blconv",
                              "--strategy", "last", "-"],
                             stdin=WITNESS_SOURCE)
        assert code1 == code2 == 0
        assert out1 != out2
        code3, out3, _ = cli(["normalize", "--strategy", "first", "-"],
                             stdin=WITNESS_SOURCE)
        code4, out4, _ = cli(["normalize", "--strategy", "last", "-"],
                             stdin=WITNESS_SOURCE)
        assert code3 == code4 == 0
        assert out3 == out4


class TestTranslate:
    def test_projection_shape(self, cli):
        source = "let <x:A, y:B> = (v : A*B) in x\n"
        code, out, _ = cli(["translate", "-"], stdin=source)
        assert code == 0 and out.strip() == "p0(v)"


class TestCatalogCommands:
    def test_axioms_b1_checks_back(self, cli):
        code, out, _ = cli(["axioms", "B1", "--A", "A", "--B", "B",
                            "--C", "C"])
        assert code == 0
        code2, out2, _ = cli(["check", "-"], stdin=out)
        assert code2 == 0
        assert out2.strip() == "(A -> B) -> (B -> C) -> A -> C"

    def test_axioms_without_needed_c_is_usage_error(self, cli):
        code, _, err = cli(["axioms", "B1", "--A", "A", "--B", "B"])
        assert code == 4

    def test_catalog_identity(self, cli):
        code, out, _ = cli(["catalog", "identity", "--A", "P1"])
        assert code == 0
        assert out.strip() == r"\x:P1. break x as <phi, f> @ P1 in phi f"

    def test_catalog_homomorphism_checks(self, cli):
        code, out, _ = cli(["catalog", "homomorphism", "--A", "A",
                            "--B", "B", "--C", "C"])
        assert code == 0
        code2, out2, _ = cli(["check", "-"], stdin=out)
        assert code2 == 0
        assert out2.strip() == "(A -> A * A) -> (A -> B * C) -> (A -> B) * (A -> C)"

    @pytest.mark.parametrize("name, build, options", [
        ("identity", catalog.identity_break, "A"),
        ("divisibility-t", lambda a, b: catalog.divisibility_terms(a, b)[0],
         "AB"),
        ("divisibility-u", lambda a, b: catalog.divisibility_terms(a, b)[1],
         "AB"),
        ("axiom-l", catalog.axiom_L_term, "AB"),
        ("homomorphism", catalog.homomorphism_term, "ABC"),
        ("break-free-split", catalog.break_free_split, "AB"),
    ])
    def test_every_catalog_name(self, cli, name, build, options):
        spelled = {"A": "P1", "B": "P2 -> P3", "C": "P4 * P5"}
        given = {o: ["--" + o, spelled[o]] for o in options}
        code, out, err = cli(["catalog", name, *sum(given.values(), [])])
        expected = print_term(build(*(parse_type(spelled[o])
                                      for o in options)))
        assert (code, out, err) == (0, expected + "\n", "")
        for left_out in options:
            argv = sum((v for o, v in given.items() if o != left_out), [])
            assert cli(["catalog", name, *argv]) == (
                4, "", f"usage error: missing --{left_out}\n")

    def test_unknown_catalog_name_usage_error(self, cli):
        code, _, _ = cli(["catalog", "nope", "--A", "A"])
        assert code == 4


class TestSequentCommands:
    def test_fromterm_check_cutelim_pipeline(self, cli, b1_file):
        code, derivation, _ = cli(["sequent-fromterm", b1_file])
        assert code == 0 and derivation.startswith("(ArrR")
        code2, out2, _ = cli(["sequent-check", "-"], stdin=derivation)
        assert code2 == 0
        assert out2.strip() == "|- (A -> B) -> (B -> C) -> A -> C"
        code3, cutfree, _ = cli(["sequent-cutelim", "-"], stdin=derivation)
        assert code3 == 0 and "CUT" not in cutfree
        code4, out4, _ = cli(["sequent-check", "-"], stdin=cutfree)
        assert code4 == 0 and out4.strip() == out2.strip()

    def test_invalid_derivation_exit_1(self, cli):
        code, _, err = cli(["sequent-check", "-"], stdin="(ASM [A |- B])")
        assert code == 1 and "invalid" in err

    @pytest.mark.parametrize("command", ["sequent-check", "sequent-cutelim"])
    def test_stray_datum_exit_1(self, command):
        # ASM takes no datum; it was once echoed back with exit 0
        proc = subprocess.run(
            [sys.executable, "-m", "breakcalc.cli", command, "-"],
            input="(ASM {B} [A |- A])\n", capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr == "error: invalid rule at []: ASM takes no datum\n"
        assert proc.stdout == ""

    def test_derivation_syntax_error_exit_2(self, cli):
        code, _, _ = cli(["sequent-check", "-"], stdin="(ASM [A |- )")
        assert code == 2


class TestUsage:
    def test_unknown_command(self, cli):
        code, _, _ = cli(["frobnicate", "x"])
        assert code == 4

    def test_console_script_module_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "breakcalc.cli", "check", "-"],
            input="\\x:A. x\n", capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "A -> A"

    @pytest.mark.parametrize("argv, stdin", [
        (["normalize", "--max-steps", "-1", "-"], U_SOURCE),
        (["sequent-cutelim", "--node-budget", "-1", "-"], "(ASM [A |- A])\n"),
    ], ids=["normalize", "sequent-cutelim"])
    def test_negative_budget_is_usage_error(self, argv, stdin):
        proc = subprocess.run([sys.executable, "-m", "breakcalc.cli", *argv],
                              input=stdin, capture_output=True, text=True)
        assert proc.returncode == 4
        assert proc.stderr.startswith("usage error: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_commands_are_deterministic(self, cli):
        runs = [cli(["normalize", "--trace", "-"], stdin=U_SOURCE)
                for _ in range(2)]
        assert runs[0] == runs[1]
        runs = [cli(["sequent-fromterm", "-"], stdin=B1_SOURCE)
                for _ in range(2)]
        assert runs[0] == runs[1]


class TestDeepNesting:
    """Input deeper than the recursion limit exits 3 with one stderr line."""

    def _run(self, args, stdin=""):
        return subprocess.run([sys.executable, "-m", "breakcalc.cli", *args],
                              input=stdin, capture_output=True, text=True)

    def _assert_budget_exit(self, proc):
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""

    def test_deep_lambda_nest(self):
        # three times the default recursion limit of 1000
        source = "".join(f"\\x{i}:A. " for i in range(3000)) + "x0\n"
        self._assert_budget_exit(self._run(["check", "-"], stdin=source))

    def test_deep_arrow_type(self):
        deep = "A -> " * 2000 + "A"
        self._assert_budget_exit(self._run(["axioms", "B2", "--A", deep,
                                            "--B", "B"]))

    @pytest.mark.parametrize("command", ["sequent-check", "sequent-cutelim"])
    def test_deep_cut_chain(self, command):
        # parsing keeps its own stack, so checking meets the limit first
        depth = 1500
        text = ("(CUT [A |- A] (ASM [A |- A]) " * depth + "(ASM [A |- A])"
                + ")" * depth + "\n")
        self._assert_budget_exit(self._run([command, "-"], stdin=text))
