import importlib.util
import io
import math
from pathlib import Path
from random import Random

import pytest

from scfact import (
    GroupTag,
    bifurcation_sweep,
    factor_hd1,
    factor_locus,
    factorize,
    find_fixed_points,
    general_equation,
    iterate_orbit,
    linearize_at,
    write_bifurcation_csv,
)
from scfact.dynamics import init_from_coordinates

from helpers import EQUATIONS_DIR, make_2hd1, make_exp, make_hs3, make_rk, rel_err


class TestFixedPoints:
    def test_example4_two_fixed_points(self):
        scan = find_fixed_points(make_exp(4.6), (0, 10))
        assert not scan.dense
        assert len(scan.points) == 2
        assert abs(scan.points[0]) < 1e-8
        assert abs(scan.points[1] - 2.3) < 1e-8

    def test_identity_map_is_dense(self):
        scan = find_fixed_points(general_equation("x0", 1), (0, 1))
        assert scan.dense and scan.points == ()

    def test_saturating_ratio_map(self):
        eq = general_equation(
            "a*x0/(x0 + b)", 1, GroupTag.MULTIPLICATIVE_POSITIVE, params={"a": 2, "b": 1}
        )
        scan = find_fixed_points(eq, (-0.5, 3))
        assert len(scan.points) == 2
        assert abs(scan.points[0]) < 1e-8 and abs(scan.points[1] - 1) < 1e-8

    def test_empty_result_is_a_value(self):
        scan = find_fixed_points(general_equation("x0 + 1", 1), (-5, 5))
        assert scan.points == () and not scan.dense

    def test_non_autonomous_rejected(self):
        with pytest.raises(ValueError, match="autonomous"):
            find_fixed_points(general_equation("x0 + n", 1), (0, 1))

    def test_decreasing_interval_rejected(self):
        with pytest.raises(ValueError, match="interval must be increasing"):
            find_fixed_points(general_equation("x0", 1), (1, 0))

    def test_sample_with_a_domain_error_is_skipped(self):
        # f(x) - x = 1/x - 1; the sample x = 0 divides by zero.
        scan = find_fixed_points(general_equation("x0 + 1/x0 - 1", 1), (-1, 1))
        assert scan.points == (1.0,)

    def test_bisection_stops_at_a_non_real_midpoint(self):
        # f(x) - x = x / sqrt(x^2 - 1e-8) changes sign across |x| < 1e-4,
        # where it is not real; the bisection ends inside that gap.
        scan = find_fixed_points(general_equation("x0 + x0/sqrt(x0^2 - 1e-8)", 1), (-1, 2))
        assert len(scan.points) == 1 and abs(scan.points[0]) < 1e-4


class TestLinearization:
    def test_example4_interior_fixed_point(self):
        report = linearize_at(make_exp(4.6), 2.3)
        eigs = sorted(e.real for e in report.eigenvalues)
        assert abs(eigs[0] - (-1.3)) < 1e-3
        assert abs(eigs[1] - (-1.0)) < 1e-3
        assert set(report.classifications) == {"unstable", "non-hyperbolic"}

    def test_example4_origin(self):
        report = linearize_at(make_exp(4.6), 0.0)
        eigs = sorted(e.real for e in report.eigenvalues)
        want = math.exp(2.3)
        assert abs(eigs[0] + want) < 1e-3 * want
        assert abs(eigs[1] - want) < 1e-3 * want
        assert report.classifications == ("unstable", "unstable")

    def test_halving_map(self):
        report = linearize_at(general_equation("x0/2", 1), 0.0)
        assert len(report.eigenvalues) == 1
        assert rel_err(report.eigenvalues[0], 0.5) < 1e-9
        assert report.classifications == ("stable",)

    def test_eigenvalue_count_matches_order(self):
        report = linearize_at(make_exp(4.6), 2.3)
        assert len(report.eigenvalues) == 2


class TestSweep:
    def test_coordinate_helper(self):
        assert init_from_coordinates(3, {"x0": 5, "x-1": 3, "x-2": 1}) == (1, 3, 5)
        with pytest.raises(KeyError, match="unknown"):
            init_from_coordinates(2, {"x0": 1, "bogus": 2})
        with pytest.raises(KeyError, match="missing"):
            init_from_coordinates(2, {"x0": 1})

    def test_single_point_grid_is_plain_tail(self):
        eq = make_exp(4.6)
        data = bifurcation_sweep(eq, {"x-1": 2.3}, "x0", [3.0], 50, 40)
        assert len(data.samples) == 1
        orbit = iterate_orbit(eq, (2.3, 3.0), 90)
        assert data.samples[0] == orbit.full_sequence[-40:]

    def test_exact_fixed_initial_data_stays_put_short_horizon(self):
        eq = make_exp(4.6)
        data = bifurcation_sweep(eq, {"x-1": 2.3}, "x0", [2.3], 0, 10)
        assert all(rel_err(v, 2.3) < 1e-9 for v in data.samples[0])

    def test_invalid_point_recorded_and_sweep_continues(self):
        eq = general_equation("1/x0", 1, GroupTag.ADDITIVE_REAL)
        data = bifurcation_sweep(eq, {}, "x0", [0.0, 2.0], 2, 4)
        assert data.failures[0] is not None
        assert data.samples[0] is None and data.periods[0] is None
        assert data.failures[1] is None and data.samples[1] is not None

    def test_grid_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            bifurcation_sweep(make_exp(), {"x-1": 2.3}, "x0", [2.0, 1.0], 1, 5)

    def test_example4_sweep_periods_even(self):
        """The initial-value sweep shows even periods only (period-1 alone may
        appear, and only at the exact fixed point)."""
        grid = [2.3 + 2.5 * j / 199 for j in range(200)]
        data = bifurcation_sweep(make_exp(4.6), {"x-1": 2.3}, "x0", grid, 100, 200)
        census = data.period_census()
        assert census.get(2, 0) > 0
        for period, value in zip(data.periods, data.grid):
            if period is None:
                continue
            if period == 1:
                assert value == 2.3
            else:
                assert period % 2 == 0

    def test_bifurcation_csv_shape(self):
        eq = general_equation("1/x0", 1, GroupTag.ADDITIVE_REAL)
        data = bifurcation_sweep(eq, {}, "x0", [0.0, 2.0], 1, 3)
        buf = io.StringIO()
        write_bifurcation_csv(data, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "param,sample"
        assert lines[1] == "0.0,NaN"
        assert len(lines) == 2 + 3


def _exp_factorization():
    eq = make_exp(4.6)
    return eq, factorize(eq)[0]


class TestLocus:
    def test_random_orbit_sits_on_alternating_curves(self):
        eq, fact = _exp_factorization()
        report = factor_locus(fact, iterate_orbit(eq, (2.3, 3.0), 300), tol=1e-9)
        assert report.passed and report.period == 2
        assert report.first_failure is None

    def test_fixed_point_orbit_trivially_passes(self):
        eq, fact = _exp_factorization()
        report = factor_locus(fact, iterate_orbit(eq, (2.3, 2.3), 50), tol=1e-9)
        assert report.passed and report.period == 1

    @pytest.mark.parametrize("offset", [3e-6, 1e-6])
    def test_start_near_the_fixed_point_keeps_two_phases(self, offset):
        # r0 is within 1e-5 of e^{a/2}, so the factor's two phases differ
        # by less than detect_period's default tolerance.
        eq, fact = _exp_factorization()
        report = factor_locus(fact, iterate_orbit(eq, (2.3, 2.3 * (1 + offset)), 300), tol=1e-6)
        assert report.passed and report.period == 2

    def test_foreign_orbit_fails(self):
        _, fact = _exp_factorization()
        eq = general_equation("x0 + 1", 2, GroupTag.ADDITIVE_REAL)
        report = factor_locus(fact, iterate_orbit(eq, (1.0, 2.0), 50), tol=1e-6)
        assert not report.passed
        assert report.first_failure == 0

    def test_factor_orbit_cut_short_is_an_infinite_residual(self):
        # x(-1) = x(0) makes hs3's factor divide by zero at its second step.
        eq = general_equation("x0 + 1", 3, GroupTag.ADDITIVE_REAL)
        report = factor_locus(factor_hd1(make_hs3()), iterate_orbit(eq, (1.0, 2.0, 2.0), 20))
        assert not report.passed and report.worst_residual == math.inf

    def test_twenty_random_inits(self):
        eq, fact = _exp_factorization()
        rng = Random(33)
        for _ in range(20):
            x_m1 = rng.uniform(1e-6, 6.0)
            x_0 = rng.uniform(1e-6, 6.0)
            orbit = iterate_orbit(eq, (x_m1, x_0), 300)
            assert orbit.truncated_at is None
            report = factor_locus(fact, orbit, tol=1e-6)
            assert report.passed, (x_m1, x_0, report.worst_residual)

    def test_raising_cofactor_is_an_infinite_residual(self):
        # The orbit reaches x = 0, where exp's cofactor t/(x^-1*exp(-x)^-1) divides by zero.
        _, fact = _exp_factorization()
        orbit = iterate_orbit(general_equation("x0 - 1", 2, GroupTag.ADDITIVE_REAL), (3.0, 2.0), 5)
        report = factor_locus(fact, orbit)
        assert not report.passed and report.worst_residual == math.inf

    def test_hs3_orbit_visits_six_curves(self):
        eq = make_hs3()
        report = factor_locus(factor_hd1(eq), iterate_orbit(eq, (0.3, 1.1, 2.0), 300), tol=1e-9)
        assert report.passed and report.period == 6

    def test_aperiodic_factor_orbit_fails_on_the_period_alone(self):
        eq = make_2hd1()
        report = factor_locus(factor_hd1(eq), iterate_orbit(eq, (1.1, 1.3, 1.7), 300), tol=1e-6)
        assert report.period is None and not report.passed
        assert report.worst_residual < 1e-9 and report.first_failure is None

    def test_readme_subgrid_periods_are_multiples_of_the_factor_period(self):
        """The factor explains the sweep: on 60 points of the README sweep,
        every periodic source orbit's period is a multiple of its factor's."""
        eq, fact = _exp_factorization()
        grid = [2.3 + 2.5 * j / 59 for j in range(60)]
        data = bifurcation_sweep(eq, {"x-1": 2.3}, "x0", grid, 100, 200)
        periodic = 0
        for x0, period in zip(grid, data.periods):
            report = factor_locus(fact, iterate_orbit(eq, (2.3, x0), 300))
            assert report.passed, x0
            if period is not None:
                periodic += 1
                assert period % report.period == 0, (x0, period, report.period)
        assert periodic > 0


class TestOrbitLocusScript:
    @staticmethod
    def main(argv):
        path = Path(__file__).resolve().parent.parent / "scripts" / "orbit_locus.py"
        spec = importlib.util.spec_from_file_location("orbit_locus", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.main(argv)

    @pytest.mark.parametrize("name, init, period", [("exp", "2.3,3.0", 2), ("hs3", "0.3,1.1,2.0", 6)])
    def test_writes_one_curve_per_phase(self, tmp_path, name, init, period):
        out = tmp_path / "locus.csv"
        assert self.main([str(EQUATIONS_DIR / f"{name}.eq"), "--init", init, "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "kind,t,value"
        assert {line.split(",")[0] for line in lines[1:]} == {"orbit", *(f"xi{j}" for j in range(period))}

    def test_cofactor_of_order_two_exits_two_with_one_line(self, tmp_path, capsys):
        doc = tmp_path / "lin3.eq"
        doc.write_text('[equation]\norder = 3\ngroup = "additive"\nkind = "linear"\nb = [-6, 11, -6]\nforcing = "0"\n')
        assert self.main([str(doc), "--init", "1,2,3", "--out", str(tmp_path / "locus.csv")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "orbit_locus: the cofactor has order 2; curves need order 1"
        ]
        assert not (tmp_path / "locus.csv").exists()

    def test_unwritable_out_exits_two_with_one_line(self, tmp_path, capsys):
        out = tmp_path / "missing" / "locus.csv"
        assert self.main([str(EQUATIONS_DIR / "exp.eq"), "--init", "2.3,3.0", "--out", str(out)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1


class TestInducedFactorSequence:
    def test_r_sequence_alternates_between_two_values(self):
        a = 4.6
        eq = make_exp(a)
        rng = Random(35)
        for _ in range(10):
            x_m1 = rng.uniform(0.3, 5.0)
            x_0 = rng.uniform(0.3, 5.0)
            r0 = x_0 / (x_m1 * math.exp(-x_m1))
            if abs(r0 - math.exp(a / 2)) < 1e-3:
                continue
            orbit = iterate_orbit(eq, (x_m1, x_0), 300)
            seq = orbit.full_sequence
            # r_n = x_n / (x_{n-1} e^{-x_{n-1}}) alternates r_1 = e^a/r_0,
            # r_2 = r_0, ...; seq[n+1] holds x_n, so loop index n equals the
            # r index.
            expected = {1: math.exp(a) / r0, 0: r0}
            for n in range(1, len(seq) - 1):
                x_prev, x_next = seq[n].real, seq[n + 1].real
                r = x_next / (x_prev * math.exp(-x_prev))
                assert rel_err(r, expected[n % 2]) < 1e-9


def test_example1_asymptotics():
    """Positive orbits collapse when a+b < 1 and blow up when a+b > 1."""
    rng = Random(37)
    for (a, b), direction in [((0.3, 0.4), "down"), ((0.8, 0.7), "up")]:
        eq = make_rk(2, a, b)
        for _ in range(5):
            init = [math.exp(rng.uniform(-0.7, 0.7)) for _ in range(3)]
            orbit = iterate_orbit(eq, init, 500)
            magnitudes = [abs(v) for v in orbit.values]
            if direction == "down":
                assert min(magnitudes) < 1e-6
            else:
                assert max(magnitudes) > 1e6
