from fractions import Fraction
from random import Random

import pytest
from click.testing import CliRunner

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

    def test_linear_verifies_cascade(self, runner):
        result = runner.invoke(main, ["verify", eq("lin_32.eq"), "--trials", "5", "--steps", "30"])
        assert result.exit_code == 0

    def test_hd1_route_verifies(self, runner):
        result = runner.invoke(main, ["verify", eq("2hd1.eq"), "--trials", "8", "--steps", "40"])
        assert result.exit_code == 0


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


def linear_doc(path, b):
    path.write_text(
        f'[equation]\norder = {len(b)}\ngroup = "additive"\nkind = "linear"\n'
        f'b = [{", ".join(repr(float(c)) for c in b)}]\nforcing = "1"\n'
    )
    return str(path)


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
        "args", [["factor"], ["verify"], ["solve-linear", "--init", "1,1", "--n", "0"]]
    )
    def test_root_finding_failure_exits_one_with_one_line(self, runner, tmp_path, args):
        doc = linear_doc(tmp_path / "huge.eq", [1e200, 1])
        result = runner.invoke(main, [args[0], doc] + args[1:])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [
            "Error: root finding did not converge; best residuals (nan, nan)"
        ]


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
            ("b = [1e309, 1]", "key 'b' must be finite, got (inf+0j)"),
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
