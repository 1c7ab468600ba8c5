import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from click.testing import CliRunner

import scfact
from scfact.cli import main

from helpers import EQUATIONS_DIR


@pytest.fixture
def runner():
    return CliRunner()


def eq(name: str) -> str:
    return str(EQUATIONS_DIR / name)


class TestSimulate:
    def test_period_six(self, runner):
        result = runner.invoke(main, ["simulate", eq("hd0.eq"), "--init", "1,2", "--steps", "12"])
        assert result.exit_code == 0
        assert "period 6" in result.output
        lines = result.output.splitlines()
        assert lines[0] == "n,re,im"
        assert lines[1] == "-1,1.0,0.0"

    def test_zero_tolerance_asks_for_exact_repeats(self, runner):
        args = ["simulate", eq("exp.eq"), "--init", "2.3,3.0", "--steps", "400"]
        assert runner.invoke(main, args).output.endswith("period 4\n")
        result = runner.invoke(main, args + ["--tol", "0"])
        assert result.exit_code == 0
        assert "period" not in result.output

    def test_constant_column_at_fixed_point(self, runner):
        result = runner.invoke(main, ["simulate", eq("exp.eq"), "--init", "2.3,2.3", "--steps", "10"])
        assert result.exit_code == 0
        data_lines = [l for l in result.output.splitlines() if l and l[0] in "-0123456789"]
        for line in data_lines:
            assert abs(float(line.split(",")[1]) - 2.3) < 1e-9

    def test_wrong_init_count_is_usage_error(self, runner):
        result = runner.invoke(main, ["simulate", eq("exp.eq"), "--init", "2.3", "--steps", "10"])
        assert result.exit_code == 2
        assert "expected 2 initial values" in result.output

    def test_domain_error_partial_csv_exit_one(self, runner, tmp_path):
        doc = tmp_path / "bad.eq"
        doc.write_text(
            '[equation]\norder = 1\ngroup = "additive"\nkind = "general"\nrhs = "1/x0"\n'
        )
        out = tmp_path / "orbit.csv"
        result = runner.invoke(
            main, ["simulate", str(doc), "--init", "0", "--steps", "5", "--out", str(out)]
        )
        assert result.exit_code == 1
        assert "truncated" in result.output
        assert out.read_text().splitlines()[0] == "n,re,im"

    def test_additive_real_orbit_leaving_the_reals_exits_one(self, runner, tmp_path):
        doc = tmp_path / "real.eq"
        doc.write_text(
            '[equation]\norder = 1\ngroup = "additive_real"\nkind = "general"\n'
            'rhs = "sqrt(x0) - 2"\n'
        )
        result = runner.invoke(main, ["simulate", str(doc), "--init", "1", "--steps", "4"])
        assert result.exit_code == 1
        assert result.stdout == "n,re,im\n0,1.0,0.0\n1,-1.0,0.0\n"
        assert result.stderr == "truncated at n=2: value (-2+1j) left the group carrier\n"

    @pytest.mark.parametrize("func", ["sin", "cos"])
    def test_trig_of_infinity_truncates_exits_one(self, runner, tmp_path, func):
        # x0*1e308*10 overflows to inf without an error; cmath's sin and cos
        # of inf raise ValueError, which must become a typed truncation.
        doc = tmp_path / "trig.eq"
        doc.write_text(
            '[equation]\norder = 1\ngroup = "additive"\nkind = "general"\n'
            f'rhs = "{func}(x0*1e308*10)"\n'
        )
        result = runner.invoke(main, ["simulate", str(doc), "--init", "1", "--steps", "4"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == "n,re,im\n0,1.0,0.0\n"
        assert result.stderr == f"truncated at n=1: domain error in {func} in '{func}(x0*1e+308*10)'\n"

    def test_csv_written_to_file(self, runner, tmp_path):
        out = tmp_path / "orbit.csv"
        result = runner.invoke(
            main, ["simulate", eq("hd0.eq"), "--init", "1,2", "--steps", "12", "--out", str(out)]
        )
        assert result.exit_code == 0
        assert out.read_text().startswith("n,re,im\n")
        assert "period 6" in result.output


class TestOutput:
    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", eq("hd0.eq"), "--init", "1,2", "--steps", "12"],
            ["factor", eq("exp.eq")],
            ["bifurcate", eq("hd0.eq"), "--fix", "x-1=1", "--sweep", "x0=1:2:3"],
        ],
    )
    def test_unopenable_out_exits_one_with_one_line(self, runner, tmp_path, args):
        out = tmp_path / "missing" / "out.txt"
        result = runner.invoke(main, args + ["--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [
            f"Error: cannot write {out}: No such file or directory"
        ]

    def test_dash_writes_to_stdout_before_the_summary(self, runner):
        result = runner.invoke(
            main, ["simulate", eq("hd0.eq"), "--init", "1,2", "--steps", "12", "--out", "-"]
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "n,re,im" and lines[-1] == "period 6"


class TestFactor:
    def test_example4_reports_constant(self, runner):
        result = runner.invoke(main, ["factor", eq("exp.eq")])
        assert result.exit_code == 0
        assert "c = -1" in result.output
        assert "factor: r(n+1) =" in result.output
        assert "cofactor: x(n+1)" in result.output

    def test_linear_reports_cascade(self, runner):
        result = runner.invoke(main, ["factor", eq("lin_32.eq")])
        assert result.exit_code == 0
        assert "eigenvalues: 2" in result.output
        assert "stage 0" in result.output and "stage 1" in result.output

    def test_nonreducible_exits_one(self, runner):
        result = runner.invoke(main, ["factor", eq("nonred.eq")])
        assert result.exit_code == 1
        assert "no form symmetry found" in result.output

    def test_bad_constant_exits_one_with_residual(self, runner):
        result = runner.invoke(main, ["factor", eq("exp.eq"), "--constant", "0.5,0"])
        assert result.exit_code == 1
        assert "residual" in result.output

    def test_hd1_route(self, runner):
        result = runner.invoke(main, ["factor", eq("hs3.eq")])
        assert result.exit_code == 0
        assert "factor: t(n+1)" in result.output

    def test_additive_separable_route(self, runner):
        result = runner.invoke(main, ["factor", eq("lin2_sep.eq")])
        assert result.exit_code == 0
        assert "c = 1" in result.output and "c = 2" in result.output
        assert "factor: z(n+1) =" in result.output
        verify = runner.invoke(main, ["verify", eq("lin2_sep.eq"), "--trials", "6", "--steps", "40"])
        assert verify.exit_code == 0


class TestVerify:
    def test_example4_passes(self, runner):
        result = runner.invoke(
            main, ["verify", eq("exp.eq"), "--steps", "200", "--trials", "20", "--seed", "7"]
        )
        assert result.exit_code == 0
        assert "semiconjugacy: pass" in result.output
        assert "equivalence: pass" in result.output

    def test_hs_passes_with_complex_note(self, runner):
        result = runner.invoke(
            main, ["verify", eq("hs.eq"), "--steps", "60", "--trials", "20", "--seed", "7"]
        )
        assert result.exit_code == 0
        assert "note: complex intermediates, real orbit" in result.output

    def test_injected_constant_fails_with_residual(self, runner):
        result = runner.invoke(main, ["verify", eq("exp.eq"), "--constant", "0.5,0"])
        assert result.exit_code == 1
        assert "residual" in result.output

    def test_injected_additive_constant_reaches_both_verdicts(self, runner):
        result = runner.invoke(main, ["verify", eq("lin2_sep.eq"), "--constant", "0.5,0"])
        assert result.exit_code == 1
        assert result.output == (
            "semiconjugacy: FAIL (200 samples, max residual 1.342e+00)\n"
            "equivalence: FAIL (20 of 20 trials) (20 trials x 100 steps, max residual 5.633e+09)\n"
        )

    def test_linear_verifies_cascade(self, runner):
        result = runner.invoke(main, ["verify", eq("lin_32.eq"), "--trials", "5", "--steps", "30"])
        assert result.exit_code == 0

    def test_hd1_route_verifies(self, runner):
        result = runner.invoke(main, ["verify", eq("2hd1.eq"), "--trials", "8", "--steps", "40"])
        assert result.exit_code == 0

    @pytest.mark.parametrize(
        "name, called",
        [
            ("exp.eq", ["solve_reduction_constant", "factor_separable_multiplicative"]),
            ("lin2_sep.eq", ["solve_reduction_constant", "factor_separable_additive"]),
            ("2hd1.eq", ["check_hd1", "factor_hd1"]),
            ("lin_32.eq", ["factor_linear_full", "factor_separable_additive"]),
        ],
    )
    def test_library_calls_go_through_module_names(self, runner, monkeypatch, name, called):
        """bench/tracer.py counts calls by patching ``scfact.factorization``'s
        namespace, so the library must look each function up there."""
        import scfact.factorization as module

        counts = {}

        def counting(attr):
            original = getattr(module, attr)

            def counted(*args, **kwargs):
                counts[attr] = counts.get(attr, 0) + 1
                return original(*args, **kwargs)

            return counted

        for attr in called + ["verify_equivalence"]:
            monkeypatch.setattr(module, attr, counting(attr))
        result = runner.invoke(main, ["verify", eq(name), "--trials", "4", "--steps", "10"])
        assert result.exit_code == 0, result.output
        assert all(counts.get(attr) == 1 for attr in called), counts
        assert counts["verify_equivalence"] >= 4


class TestSolveLinear:
    def test_three_routes_agree(self, runner):
        result = runner.invoke(main, ["solve-linear", eq("lin_32.eq"), "--init", "0,1", "--n", "10"])
        assert result.exit_code == 0
        assert "direct iteration: x_10 = 2047" in result.output
        assert "closed form" in result.output and "cascade" in result.output

    def test_repeated_root(self, runner, tmp_path):
        doc = tmp_path / "rep.eq"
        doc.write_text(
            '[equation]\norder = 2\ngroup = "additive"\nkind = "linear"\n'
            'b = [-2, 1]\nforcing = "0"\n'
        )
        result = runner.invoke(main, ["solve-linear", str(doc), "--init", "0,1", "--n", "10"])
        assert result.exit_code == 0
        assert "x_10 = 11" in result.output

    def test_order3_cascade(self, runner, tmp_path):
        doc = tmp_path / "o3.eq"
        doc.write_text(
            '[equation]\norder = 3\ngroup = "additive"\nkind = "linear"\n'
            'b = [-6, 11, -6]\nforcing = "0"\n'
        )
        result = runner.invoke(main, ["solve-linear", str(doc), "--init", "0,0,1", "--n", "5"])
        assert result.exit_code == 0
        assert "closed form" not in result.output  # order > 2: no closed form line

    def test_overflow_exits_one_with_one_line(self, runner):
        result = runner.invoke(main, ["solve-linear", eq("lin_32.eq"), "--init", "0,1", "--n", "2000"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [
            "Error: direct iteration: x_2000 = nan + nan*i is not finite"
        ]

    def test_closed_form_overflow_exits_one_with_one_line(self, runner):
        # x_n = 1 for every n, but the closed form needs 2^2000.
        result = runner.invoke(main, ["solve-linear", eq("lin_32.eq"), "--init", "1,1", "--n", "2000"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines()[-1] == (
            "Error: closed form: x_2000 overflows (complex exponentiation)"
        )

    def test_requires_linear(self, runner):
        result = runner.invoke(main, ["solve-linear", eq("exp.eq"), "--init", "1,1", "--n", "3"])
        assert result.exit_code == 2


def linear_text(b):
    return (
        f'[equation]\norder = {len(b)}\ngroup = "additive"\nkind = "linear"\n'
        f'b = [{", ".join(repr(float(c)) for c in b)}]\nforcing = "1"\n'
    )


def linear_doc(path, b):
    path.write_text(linear_text(b))
    return str(path)


# Documents whose right-hand side fails at every draw: the HD1 check and the
# semiconjugacy check exhaust their sampling budgets.
DOMAIN_ERROR_DOCS = {
    "separable": '[equation]\norder = 2\ngroup = "additive"\nkind = "separable"\n'
                 'phi0 = "3*x"\nphi1 = "-2*x"\nforcing = "1/(n-n)"\n',
    "general": '[equation]\norder = 2\ngroup = "additive"\nkind = "general"\nrhs = "x0/(n-n)"\n',
}
ROOT_FAILURE = "Error: root finding did not converge; best residuals (nan, nan)"


class TestRepeatedEigenvalues:
    def test_triple_root_factors(self, runner, tmp_path):
        result = runner.invoke(main, ["factor", linear_doc(tmp_path / "t.eq", [-3, 3, -1])])
        assert result.exit_code == 0
        eigenvalues = next(l for l in result.output.splitlines() if l.startswith("eigenvalues:"))
        assert eigenvalues == "eigenvalues: " + ", ".join(["1 (residual 0.00e+00)"] * 3)

    def test_seeded_documents_run(self, runner, tmp_path):
        """Roots p/20 with multiplicities 1-3: every route exits 0."""
        rng = Random(11)
        for i in range(10):
            roots = []
            for _ in range(rng.randrange(1, 3)):
                roots += [Fraction(rng.randrange(-20, 21), 20)] * rng.randrange(1, 4)
            if len(roots) == 1:
                roots.append(Fraction(rng.randrange(-20, 21), 20))
            coeffs = [Fraction(1)]  # descending
            for r in roots:
                coeffs = [a - r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
            doc = linear_doc(tmp_path / f"d{i}.eq", coeffs[1:])
            init = ",".join(["1"] * len(roots))
            for args in (
                ["factor", doc],
                ["verify", doc, "--trials", "2", "--steps", "10"],
                ["solve-linear", doc, "--init", init, "--n", "10"],
            ):
                result = runner.invoke(main, args)
                assert result.exit_code == 0, (roots, args, result.output)

    @pytest.mark.parametrize(
        "args, text, message",
        [
            (["factor"], linear_text([1e200, 1]), ROOT_FAILURE),
            (["verify"], linear_text([1e200, 1]), ROOT_FAILURE),
            (["solve-linear", "--init", "1,1", "--n", "0"], linear_text([1e200, 1]), ROOT_FAILURE),
            (["verify"], DOMAIN_ERROR_DOCS["separable"],
             "Error: domain errors exhausted the sampling budget (2000 draws)"),
            (["factor"], DOMAIN_ERROR_DOCS["general"],
             "Error: domain errors exhausted the sampling budget (5000 draws)"),
        ],
        ids=["args0", "args1", "args2", "separable-semiconjugacy-budget", "general-hd1-budget"],
    )
    def test_root_finding_failure_exits_one_with_one_line(self, runner, tmp_path, args, text, message):
        """A typed library error (root finding, a sampling budget) ends the
        command with one line and exit 1."""
        doc = tmp_path / "doc.eq"
        doc.write_text(text)
        result = runner.invoke(main, [args[0], str(doc)] + args[1:])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [message]


class TestBifurcate:
    def test_census_has_period_two_and_no_odd(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        result = runner.invoke(
            main,
            [
                "bifurcate", eq("exp.eq"),
                "--fix", "x-1=2.3",
                "--sweep", "x0=2.3:4.8:120",
                "--transient", "100", "--keep", "200",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0
        assert "period 2:" in result.output
        for line in result.output.splitlines():
            stripped = line.strip()
            if stripped.startswith("period ") and ":" in stripped and "census" not in stripped:
                p = int(stripped.split()[1].rstrip(":"))
                assert p == 1 or p % 2 == 0
        assert out.read_text().startswith("param,sample\n")

    def test_unknown_coordinate_usage_error(self, runner):
        result = runner.invoke(
            main, ["bifurcate", eq("exp.eq"), "--fix", "y=1", "--sweep", "x0=1:2:3"]
        )
        assert result.exit_code == 2

    def test_single_point_sweep(self, runner):
        result = runner.invoke(
            main,
            ["bifurcate", eq("exp.eq"), "--fix", "x-1=2.3", "--sweep", "x0=3.0:3.0:1",
             "--transient", "10", "--keep", "20"],
        )
        assert result.exit_code == 0


class TestMessages:
    """Each bad input ends in its own one-line message."""

    @pytest.mark.parametrize("args, code, message", [
        (["simulate", eq("lin_32.eq"), "--init", "a,1"], 2, "cannot parse initial values 'a,1'"),
        (["factor", eq("exp.eq"), "--constant", "x"], 2, "cannot parse complex value 'x'; use 're,im'"),
        (["simulate", eq("exp.eq"), "--init", "-1,2"], 2, "initial value (-1+0j) is outside the group carrier"),
        (["bifurcate", eq("exp.eq"), "--fix", "x-1", "--sweep", "x0=1:2:3"], 2, "--fix expects name=value, got 'x-1'"),
        (["bifurcate", eq("exp.eq"), "--fix", "x-1=abc", "--sweep", "x0=1:2:3"], 2,
         "cannot parse fixed value in 'x-1=abc'"),
        (["bifurcate", eq("exp.eq"), "--fix", "x-1=2.3", "--sweep", "x0=1:2"], 2, "--sweep expects name=lo:hi:count"),
        (["bifurcate", eq("exp.eq"), "--fix", "x-1=2.3", "--sweep", "x0=a:2:3"], 2, "cannot parse sweep range 'a:2:3'"),
        (["bifurcate", eq("exp.eq"), "--fix", "x-1=2.3", "--sweep", "x0=1:2:a"], 2, "cannot parse sweep range '1:2:a'"),
        (["bifurcate", eq("exp.eq"), "--fix", "x-1=2.3", "--sweep", "x0=1:2:0"], 2, "sweep count must be at least 1"),
        (["bifurcate", eq("exp.eq"), "--fix", "x-1=2.3", "--sweep", "x0=2:1:3"], 2, "grid must be strictly increasing"),
        (["bifurcate", eq("lin_32.eq"), "--fix", "x-1=0", "--sweep", "x0=-1:inf:3"], 2,
         "sweep range '-1:inf:3' is not finite"),
        (["bifurcate", eq("lin_32.eq"), "--fix", "x-1=0", "--sweep", "x0=-1e308:1e308:3"], 2,
         "sweep range '-1e308:1e308:3' is too wide"),
        (["solve-linear", eq("lin_32.eq"), "--init", "0,1", "--n", "1", "--tol", "nan"], 2,
         "Invalid value for '--tol': nan is not a finite number at least 0"),
    ], ids=lambda value: " ".join(value[2:]) if isinstance(value, list) else None)
    def test_bad_input_gives_its_message(self, runner, args, code, message):
        result = runner.invoke(main, args)
        assert result.exit_code == code and isinstance(result.exception, SystemExit), result.output
        assert [line for line in result.output.splitlines() if line.startswith("Error: ")] == [f"Error: {message}"]

    def test_routes_that_disagree_exit_one(self, runner):
        result = runner.invoke(main, ["solve-linear", eq("lin_32.eq"), "--init", "0,1", "--n", "10", "--tol", "0"])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.stderr == "routes disagree beyond 0 relative\n"

    def test_invalid_points_are_counted(self, runner, tmp_path):
        doc = tmp_path / "r.eq"
        doc.write_text('[equation]\norder = 1\ngroup = "additive"\nkind = "general"\nrhs = "1/x0"\n')
        out = tmp_path / "sweep.csv"
        result = runner.invoke(main, ["bifurcate", str(doc), "--sweep", "x0=-1:1:3", "--transient", "2",
                                      "--keep", "2", "--out", str(out)])
        assert result.exit_code == 0
        assert result.output.splitlines()[-1] == "  invalid: 1 point(s)"
        assert "0.0,NaN\n" in out.read_text()

    def test_document_that_is_not_utf8_cannot_be_read(self, runner, tmp_path):
        doc = tmp_path / "bad.eq"
        doc.write_bytes(b'[equation]\nname = "\xff"\norder = 1\n')
        result = runner.invoke(main, ["parse", str(doc)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.output == (f"Error: cannot read {doc}: 'utf-8' codec can't decode byte 0xff "
                                 "in position 19: invalid start byte\n")


class TestParse:
    def test_valid_document(self, runner):
        result = runner.invoke(main, ["parse", eq("exp.eq")])
        assert result.exit_code == 0
        assert "kind: separable (multiplicative)" in result.output
        assert "order: 2" in result.output

    def test_invalid_document_exits_one(self, runner, tmp_path):
        doc = tmp_path / "broken.eq"
        doc.write_text('[equation]\norder = 2\nkind = "general"\n')
        result = runner.invoke(main, ["parse", str(doc)])
        assert result.exit_code == 1
        assert "missing key" in result.output

    @pytest.mark.parametrize(
        "line, message",
        [
            ("order = 1e400", "key 'order' must be finite, got (inf+0j)"),
            ("b = [1e309, 1]", "key 'b[0]' must be finite, got (inf+0j)"),
            ('forcing = "' + "(" * 200 + "n" + ")" * 200 + '"',
             "key 'forcing': syntax error at offset 50: nesting deeper than 50 levels"),
            ('forcing = "n * 1e309"', "key 'forcing': syntax error at offset 4: number 1e309 is not finite"),
        ],
        ids=["order", "coefficient", "nesting", "literal"],
    )
    def test_bad_number_or_nesting_exits_one_with_one_line(self, runner, tmp_path, line, message):
        lines = ["[equation]", "order = 2", 'group = "additive"', 'kind = "linear"', "b = [-3, 2]", 'forcing = "0"']
        key = line.split(" =")[0]
        doc = tmp_path / "bad.eq"
        doc.write_text("\n".join(line if l.startswith(key + " =") else l for l in lines) + "\n")
        result = runner.invoke(main, ["parse", str(doc)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [f"Error: {doc}: {message}"]

    def test_long_sum_prints_without_recursion(self, runner, tmp_path):
        doc = tmp_path / "long.eq"
        doc.write_text(
            '[equation]\norder = 1\ngroup = "additive"\nkind = "general"\n'
            'rhs = "' + "+".join(["x0"] * 3000) + '"\n'
        )
        result = runner.invoke(main, ["parse", str(doc)])
        assert result.exit_code == 0
        assert result.output.splitlines()[-1] == "x(n+1) = " + " + ".join(["x(n)"] * 3000)


class TestDeterminism:
    def test_identical_invocations_byte_identical(self, runner, tmp_path):
        outputs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            result = runner.invoke(
                main,
                ["bifurcate", eq("exp.eq"), "--fix", "x-1=2.3", "--sweep", "x0=2.4:3.4:40",
                 "--transient", "50", "--keep", "60", "--out", str(out)],
            )
            assert result.exit_code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_verify_deterministic_given_seed(self, runner):
        runs = [
            runner.invoke(
                main, ["verify", eq("exp.eq"), "--steps", "50", "--trials", "5", "--seed", "3"]
            ).output
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# No command shows a traceback: seeded documents of every kind end each
# command with exit 0, 1 or 2.
# ----------------------------------------------------------------------

_COMPONENTS = {
    "multiplicative": ["ln(x)", "x - 1", "1/x", "x^2", "exp(-x)", "x*exp(-x)", "sqrt(x)"],
    "additive": ["ln(x)", "1/x", "-0.5*x", "3*x", "-2*x", "x^2", "sin(x)"],
}
_FORCINGS = ["0.5", "1", "ln(n)", "1/(n-1)", "1/(n-2)", "0.9^n"]
_CONSTANTS = ["-1", "1", "0.5", "2", "0.5,0.866"]
_GENERAL_RHS = ["x0/x1", "x0 + (x0 - x1)/(x1 - x2)", "x0*(0.3*x1/x2 + 0.4)", "ln(x0) - x1", "1/(x0 - x1)"]


def _separable_commands(rng, doc, additive):
    group = rng.choice(["additive", "additive_real"] if additive else ["multiplicative", "multiplicative_nonzero"])
    prefix, pool = ("phi", _COMPONENTS["additive"]) if additive else ("psi", _COMPONENTS["multiplicative"])
    lines = [f'{prefix}{j} = "{rng.choice(pool)}"' for j in range(2)]
    doc.write_text(f'[equation]\norder = 2\ngroup = "{group}"\nkind = "separable"\n'
                   + "\n".join(lines) + f'\nforcing = "{rng.choice(_FORCINGS)}"\n')
    verify = ["verify", str(doc), "--trials", "3", "--steps", "30"]
    return [["factor", str(doc)], verify, verify + ["--constant", rng.choice(_CONSTANTS)]]


def _linear_commands(rng, doc, _):
    root = rng.choice([-1.5, -1, -0.5, 0.5, 1, 2])  # a double root
    doc.write_text(f'[equation]\norder = 2\ngroup = "additive"\nkind = "linear"\n'
                   f'b = [{-2 * root!r}, {root * root!r}]\nforcing = "{rng.choice(_FORCINGS)}"\n')
    solve = ["solve-linear", str(doc), "--init", f"{rng.uniform(-2, 2)!r},{rng.uniform(-2, 2)!r}"]
    return [solve + ["--n", str(n)] for n in (0, 1, 3)] + [["verify", str(doc), "--trials", "2", "--steps", "10"]]


def _general_commands(rng, doc, _):
    group = rng.choice(["additive", "additive_real", "multiplicative", "multiplicative_nonzero"])
    doc.write_text(f'[equation]\norder = 3\ngroup = "{group}"\nkind = "general"\n'
                   f'rhs = "{rng.choice(_GENERAL_RHS)}"\n')
    return [["verify", str(doc), "--trials", "2", "--steps", "20"],
            ["simulate", str(doc), "--init", "1,2,4", "--steps", "20"]]


class TestNoTraceback:
    @pytest.mark.parametrize("family, count", [(_separable_commands, 40), (_linear_commands, 12),
                                               (_general_commands, 6)],
                             ids=["separable", "linear", "general"])
    def test_seeded_documents_exit_without_traceback(self, runner, tmp_path, family, count):
        rng = Random(29)
        for i in range(count):
            doc = tmp_path / f"d{i}.eq"
            for args in family(rng, doc, i % 2 == 0):
                result = runner.invoke(main, args)
                assert result.exit_code in (0, 1, 2), (doc.read_text(), args, result.output)
                assert result.exception is None or isinstance(result.exception, SystemExit), (
                    doc.read_text(), args, repr(result.exception))

    def test_constant_whose_factor_start_leaves_the_carrier_fails_in_one_line(self, runner, tmp_path):
        """``r_0 = ln(x_0)*x_{-1}^{-1}`` is negative for half the draws, and
        ``c = -1`` asks for ``r_0^{-1}`` on the positive carrier."""
        doc = tmp_path / "m.eq"
        doc.write_text('[equation]\norder = 2\ngroup = "multiplicative"\nkind = "separable"\n'
                       'psi0 = "ln(x)"\npsi1 = "1/x"\nforcing = "0.5"\n')
        result = runner.invoke(main, ["verify", str(doc), "--trials", "3", "--steps", "30", "--constant", "-1"])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.output.splitlines()[1].startswith("equivalence: FAIL (")

    def test_n_zero_reads_no_forcing_on_any_route(self, runner, tmp_path):
        """``ln(n)`` raises at n = 0, but ``x_0`` is an initial value."""
        doc = tmp_path / "l.eq"
        doc.write_text('[equation]\norder = 2\ngroup = "additive"\nkind = "linear"\n'
                       'b = [-1.5, 0.5]\nforcing = "ln(n)"\n')
        result = runner.invoke(main, ["solve-linear", str(doc), "--init", "0,-2", "--n", "0"])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines() == [f"{route}: x_0 = -2" for route in
                                              ("direct iteration", "triangular cascade", "closed form")]

    @pytest.mark.parametrize("args", [
        ["factor", eq("exp.eq"), "--constant", "inf"],
        ["verify", eq("lin2_sep.eq"), "--constant", "inf", "--trials", "2", "--steps", "5"],
        ["factor", eq("lin2_sep.eq"), "--constant", "nan"],
        ["verify", eq("exp.eq"), "--constant", "1,nan"],
        ["simulate", eq("lin_32.eq"), "--init", "inf,1", "--steps", "3"],
        ["solve-linear", eq("lin_32.eq"), "--init", "0,-1e999", "--n", "3"],
        ["bifurcate", eq("exp.eq"), "--fix", "x-1=nan", "--sweep", "x0=2.3:2.5:2"],
        ["bifurcate", eq("exp.eq"), "--fix", "x-1=2.3", "--sweep", "x0=2.3:2.5:2", "--transient", "3", "--keep", "0"],
        ["bifurcate", eq("exp.eq"), "--fix", "x-1=2.3", "--sweep", "x0=2.3:2.5:2", "--keep", "-2"],
        ["bifurcate", eq("exp.eq"), "--fix", "x-1=2.3", "--sweep", "x0=2.3:2.5:2", "--transient", "-3"],
        ["simulate", eq("lin_32.eq"), "--init", "0,1", "--steps", "-2"],
        ["verify", eq("exp.eq"), "--trials", "0"],
        ["verify", eq("exp.eq"), "--steps", "0"],
        ["solve-linear", eq("lin_32.eq"), "--init", "0,1", "--n", "-1"],
        ["solve-linear", eq("lin_32.eq"), "--init", "0,1", "--n", "10", "--tol", "nan"],
        ["solve-linear", eq("lin_32.eq"), "--init", "0,1", "--n", "10", "--tol", "-1"],
        ["simulate", eq("hd0.eq"), "--init", "1,2", "--steps", "12", "--tol", "nan"],
        ["simulate", eq("hd0.eq"), "--init", "1,2", "--steps", "12", "--tol", "inf"],
        ["factor", eq("exp.eq"), "--tol", "nan"],
        ["verify", eq("exp.eq"), "--trials", "3", "--steps", "20", "--tol", "nan"],
        ["bifurcate", eq("exp.eq"), "--fix", "x-1=2.3", "--sweep", "x0=2.3:4.8:5", "--transient", "20",
         "--keep", "12", "--tol", "nan"],
        ["bifurcate", eq("lin_32.eq"), "--fix", "x-1=0", "--sweep", "x0=nan:1:3", "--transient", "5", "--keep", "2"],
        ["bifurcate", eq("lin_32.eq"), "--fix", "x-1=0", "--sweep", "x0=-1:inf:3", "--transient", "5", "--keep", "2"],
    ], ids=lambda args: " ".join(args[2:]))
    def test_non_finite_numbers_and_counts_out_of_range_are_usage_errors(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit), result.output
        errors = [line for line in result.output.splitlines() if line.startswith("Error: ")]
        assert len(errors) == 1 and "Traceback" not in result.output
        assert "finite" in errors[0] or "is not in the range" in errors[0]

    def test_verify_linear_equation_on_a_multiplicative_group_exits_one(self, runner, tmp_path):
        doc = tmp_path / "l.eq"
        doc.write_text('[equation]\norder = 2\ngroup = "multiplicative"\nkind = "linear"\n'
                       'b = [-3, 2]\nforcing = "0"\n')
        result = runner.invoke(main, ["verify", str(doc), "--trials", "2", "--steps", "5"])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.output == ("Error: a linear equation on group 'multiplicative' "
                                 "has no separable-additive form symmetry\n")


# Runs ``python -m scfact.cli ARGS`` and prints its exit code and the scfact
# modules that ran: one that has not run is still the lazy loader's subclass
# of ``types.ModuleType``.
RUN_CLI = """
import runpy, sys, types
try:
    runpy.run_module("scfact.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
ran = sorted(name for name, module in sys.modules.items() if type(module) is types.ModuleType)
print(code, *(name.partition(".")[2] for name in ran if name.startswith("scfact.")))
"""


@pytest.mark.parametrize("args, ran", [
    (["parse", "exp.eq"], "0 equations expressions"),
    (["simulate", "hd0.eq", "--init", "1,2", "--steps", "5"], "0 equations expressions"),
    (["simulate", "exp.eq", "--init", "-1,2"], "2 equations expressions"),
    (["bifurcate", "exp.eq", "--fix", "x-1=2.3", "--sweep", "x0=2.3:4.8:5", "--transient", "10", "--keep", "10"],
     "0 dynamics equations expressions polynomials"),
    (["factor", "exp.eq"], "0 equations expressions factorization polynomials symmetry"),
], ids=["parse", "simulate", "simulate-usage-error", "bifurcate", "factor"])
def test_a_command_runs_only_the_modules_it_uses(args, ran):
    src = str(Path(scfact.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", RUN_CLI, *args], cwd=EQUATIONS_DIR, env=env,
                            capture_output=True, text=True, timeout=30)
    assert result.stdout.splitlines()[-1] == ran, result.stderr


def test_importing_the_cli_from_the_package_runs_no_library_module():
    src = str(Path(scfact.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, types\nfrom scfact import cli\n"
            "print(*sorted(name for name, module in sys.modules.items()\n"
            "              if name.startswith('scfact.') and type(module) is types.ModuleType))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30)
    assert result.stdout.split() == ["scfact.cli"], result.stderr
