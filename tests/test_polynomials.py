import cmath
from random import Random

import numpy as np
import pytest

from scfact import (
    Polynomial,
    characteristic_polynomial,
    deflate,
    find_roots,
    iterate_orbit,
    linear_equation,
    sigma,
    sigma_closed_form,
    solve_order2_closed_form,
)
from scfact.expressions import EvaluationError
from scfact.polynomials import DeflationError, RootFindingError

from helpers import rel_err


def as_multiset(values):
    return sorted(values, key=lambda z: (round(z.real, 7), round(z.imag, 7)))


class TestCharacteristicPolynomial:
    def test_direct_transcription(self):
        p = characteristic_polynomial(linear_equation([-3, 2]))
        assert p.coefficients == (2 + 0j, -3 + 0j, 1 + 0j)

    def test_lin2_roots_are_one_and_q(self):
        q = 1.7
        p = characteristic_polynomial(linear_equation([-1 - q, q]))
        roots = as_multiset(find_roots(p).expanded())
        assert rel_err(roots[0], 1) < 1e-10 and rel_err(roots[1], q) < 1e-10

    def test_trivial_order_one(self):
        p = characteristic_polynomial(linear_equation([], order=1))
        assert p.coefficients == (0j, 1 + 0j)
        assert p(0) == 0


class TestFindRoots:
    def test_one_and_two(self):
        rs = find_roots(Polynomial((2, -3, 1)))
        roots = rs.expanded()
        assert len(roots) == 2
        for r in roots:
            # oracle: substitute back
            assert abs(r**2 - 3 * r + 2) < 1e-10

    def test_perfect_square(self):
        rs = find_roots(Polynomial((1, -2, 1)))
        assert len(rs.entries) == 1
        entry = rs.entries[0]
        assert entry.multiplicity == 2
        assert rel_err(entry.value, 1) < 1e-12

    def test_complex_conjugate_pair(self):
        rs = find_roots(Polynomial((1, -1, 1)))
        got = as_multiset(rs.expanded())
        want = as_multiset([(1 + 1j * cmath.sqrt(3).real) / 2, (1 - 1j * cmath.sqrt(3).real) / 2])
        assert all(abs(a - b) < 1e-12 for a, b in zip(got, want))

    def test_ordering_descending_magnitude_then_argument(self):
        rs = find_roots(Polynomial.from_roots([1, -2, 2, 0.5j]))
        mags = [abs(e.value) for e in rs.entries]
        assert mags == sorted(mags, reverse=True)
        first_two = rs.entries[0].value, rs.entries[1].value
        assert cmath.phase(first_two[0]) < cmath.phase(first_two[1])

    def test_triple_root_merged_and_polished(self):
        rs = find_roots(Polynomial.from_roots([2, 2, 2, -1]))
        entries = {e.multiplicity: e.value for e in rs.entries}
        assert set(entries) == {1, 3}
        assert abs(entries[3] - 2) < 1e-10

    def test_close_distinct_roots_not_merged(self):
        rs = find_roots(Polynomial.from_roots([1, 1.00001, 3]))
        assert sorted(e.multiplicity for e in rs.entries) == [1, 1, 1]

    def test_roots_within_rounding_noise_merge(self):
        rs = find_roots(Polynomial.from_roots([1, 1 + 1e-7, 3]))
        assert sorted(e.multiplicity for e in rs.entries) == [1, 2]

    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("r", [1, 3, -2, 0.5j, 1 + 1j, 0])
    def test_power_of_one_factor_is_one_root(self, r, m):
        rs = find_roots(Polynomial.from_roots([r] * m))
        assert [e.multiplicity for e in rs.entries] == [m]
        assert abs(rs.entries[0].value - r) <= 1e-9 * (1 + abs(r))

    def test_mixed_multiplicities(self):
        rng = Random(7)
        for _ in range(40):
            count = rng.randrange(1, 4)
            want: dict[complex, int] = {}
            while len(want) < count:
                r = complex(rng.randrange(-10, 11) / 4, rng.choice([0, rng.randrange(-8, 9) / 4]))
                if all(abs(r - q) > 0.2 for q in want):
                    want[r] = rng.randrange(1, 4)
            rs = find_roots(Polynomial.from_roots([r for r, m in want.items() for _ in range(m)]))
            assert len(rs.entries) == len(want), want
            for r, m in want.items():
                entry = min(rs.entries, key=lambda e: abs(e.value - r))
                assert entry.multiplicity == m, want
                assert abs(entry.value - r) <= 1e-9 * (1 + abs(r)), want

    def test_non_finite_approximants_raise(self):
        with pytest.raises(RootFindingError):
            find_roots(Polynomial((1, 1e200, 1)))

    def test_random_polynomials_against_numpy(self):
        rng = Random(42)
        for _ in range(50):
            degree = rng.randrange(2, 8)
            coeffs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(degree)]
            coeffs.append(1 + 0j)
            mine = as_multiset(find_roots(Polynomial(tuple(coeffs))).expanded())
            ref = as_multiset([complex(z) for z in np.roots(list(reversed(coeffs)))])
            assert max(abs(a - b) for a, b in zip(mine, ref)) < 1e-9

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            find_roots(Polynomial((5,)))

    def test_non_convergence_carries_best_residuals(self):
        p = Polynomial.from_roots([3.7, -2.9, 1.1j])
        with pytest.raises(RootFindingError) as err:
            find_roots(p, tol=1e-14, max_iterations=1)
        assert err.value.residuals and all(r >= 0 for r in err.value.residuals)

    def test_residuals_reported(self):
        rs = find_roots(Polynomial((2, -3, 1)))
        scale = 2 + 3 + 1
        assert all(e.residual <= 1e-8 * scale for e in rs.entries)


class TestDeflation:
    def test_examples_multiply_back(self):
        cases = [
            ((2, -3, 1), 2),
            ((1, -2, 1), 1),
            ((-6, 11, -6, 1), 3),
        ]
        for coeffs, root in cases:
            p = Polynomial(coeffs)
            q = deflate(p, root)
            # oracle: (z - root) * q == p coefficientwise
            product = Polynomial.from_roots([root]).coefficients
            rebuilt = [0j] * (q.degree + 2)
            for i, a in enumerate(product):
                for j, b in enumerate(q.coefficients):
                    rebuilt[i + j] += a * b
            assert max(abs(x - y) for x, y in zip(rebuilt, p.coefficients)) < 1e-12

    def test_specific_quotients(self):
        assert deflate(Polynomial((2, -3, 1)), 2).coefficients == (-1 + 0j, 1 + 0j)
        assert deflate(Polynomial((1, -2, 1)), 1).coefficients == (-1 + 0j, 1 + 0j)
        q = deflate(Polynomial((-6, 11, -6, 1)), 3)
        assert max(abs(a - b) for a, b in zip(q.coefficients, (2, -3, 1))) < 1e-12

    def test_nonroot_rejected(self):
        with pytest.raises(DeflationError):
            deflate(Polynomial((2, -3, 1)), 5)

    def test_root_multiset_stable_under_deflation_order(self):
        rng = Random(9)
        roots = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(5)]
        p = Polynomial.from_roots(roots)
        orders = [roots, list(reversed(roots)), roots[2:] + roots[:2]]
        results = []
        for order in orders:
            q = p
            seen = []
            for r in order:
                rs = find_roots(q)
                match = min(rs.expanded(), key=lambda z: abs(z - r))
                seen.append(match)
                q = deflate(q, match, tol=1e-6)
            results.append(as_multiset(seen))
        for res in results[1:]:
            assert max(abs(a - b) for a, b in zip(res, results[0])) < 1e-7


class TestSigma:
    def test_constant_sequence(self):
        assert sigma(lambda m: 1, 2, 5) == 31
        assert sigma([1, 1, 1, 1, 1], 2, 5) == 31

    def test_geometric_cross_check(self):
        rng = Random(4)
        for _ in range(100):
            a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            b = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            c = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            n = rng.randrange(0, 31)
            direct = sigma(lambda m: a * b**m, c, n)
            closed = sigma_closed_form(a, b, c, n)
            assert rel_err(closed, direct) < 1e-10

    def test_repeated_base(self):
        assert sigma(lambda m: 3**m, 3, 4) == 108
        assert sigma_closed_form(1, 3, 3, 4) == 108

    def test_empty_sum(self):
        assert sigma_closed_form(1, 1, 2, 0) == 0
        assert sigma(lambda m: 99, 5, 0) == 0

    def test_near_confluent_regime(self):
        rng = Random(6)
        for _ in range(25):
            b = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
            c = b + 1e-7
            a = complex(rng.uniform(-2, 2))
            n = rng.randrange(1, 31)
            direct = sigma(lambda m: a * b**m, c, n)
            closed = sigma_closed_form(a, b, c, n)
            assert rel_err(closed, direct) < 1e-6

    def test_linearity(self):
        rng = Random(8)
        s = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(20)]
        t = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(20)]
        for _ in range(20):
            a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            c = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
            n = rng.randrange(0, 20)
            mixed = [a * x + b * y for x, y in zip(s, t)]
            lhs = sigma(mixed, c, n)
            rhs = a * sigma(s, c, n) + b * sigma(t, c, n)
            assert rel_err(lhs, rhs) < 1e-12

    def test_expression_sequence(self):
        from scfact import parse_expression

        assert sigma(parse_expression("n"), 0, 5) == 4  # only the j=1 term s_{n-1}


class TestOrder2ClosedForm:
    def test_distinct_roots(self):
        eq = linear_equation([-3, 2])
        for n in range(0, 12):
            assert rel_err(solve_order2_closed_form(eq, (0, 1), n), 2 ** (n + 1) - 1) < 1e-10

    def test_repeated_roots(self):
        eq = linear_equation([-2, 1])
        for n in range(0, 12):
            assert rel_err(solve_order2_closed_form(eq, (0, 1), n), n + 1) < 1e-10

    def test_forced_counting(self):
        eq = linear_equation([-1, 0], forcing="1")
        for n in range(0, 10):
            assert rel_err(solve_order2_closed_form(eq, (0, 0), n), n) < 1e-12

    def test_random_instances_match_iteration(self):
        rng = Random(13)
        checked = 0
        while checked < 50:
            style = checked % 3
            if style == 0:  # distinct random roots
                b = [rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)]
            elif style == 1:  # manufactured repeated root (z - c)^2
                c = rng.uniform(-1.2, 1.2)
                b = [-2 * c, c * c]
            else:  # forced, geometric alpha
                b = [rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)]
            forcing = "0" if style != 2 else f"{rng.uniform(-1, 1)!r}*({rng.uniform(0.4, 1.2)!r}^n)"
            eq = linear_equation(b, forcing)
            init = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            n = rng.randrange(1, 25)
            direct = iterate_orbit(eq, init, n).values[-1]
            closed = solve_order2_closed_form(eq, init, n)
            assert rel_err(closed, direct) < 1e-8
            checked += 1

    def test_requires_order_two(self):
        with pytest.raises(TypeError):
            solve_order2_closed_form(linear_equation([-1, 0, 0]), (0, 0, 1), 3)

    def test_forcing_error_propagates(self):
        eq = linear_equation([-1.5, 0.5], forcing="1/(n - 5)")
        assert solve_order2_closed_form(eq, (1, 2), 5) == nested_sigma_closed_form(eq, (1, 2), 5)
        for n in (6, 40):
            with pytest.raises(EvaluationError, match="division by zero"):
                solve_order2_closed_form(eq, (1, 2), n)
            with pytest.raises(EvaluationError, match="division by zero"):
                nested_sigma_closed_form(eq, (1, 2), n)


def nested_sigma_closed_form(eq, init, n):
    """The order-2 closed form with its double sum written as the nested
    ``sigma`` composition, evaluated literally: the oracle that
    :func:`solve_order2_closed_form` must equal exactly."""
    b0 = eq.kind.coefficients[0]
    c0, c1 = find_roots(characteristic_polynomial(eq)).expanded()
    x_m1, x_0 = (complex(v) for v in init)
    z0 = x_0 + (c0 + b0) * x_m1
    gamma0 = eq.forcing_at(0) + c0 * z0
    inner = lambda m: sigma(lambda k: eq.forcing_at(k + 1), c0, m)
    return x_0 * c1**n + sigma_closed_form(gamma0, c0, c1, n) + sigma(inner, c1, n)


@pytest.mark.parametrize("forcing", ["0", "-0.375", "0.5*n", "0.9^n", "sin(n)"])
@pytest.mark.parametrize(
    "b",
    [[-0.5, -0.5], [-1.2, 0.36], [-1, 0.89]],
    ids=["distinct-real", "double", "complex-pair"],
)
def test_closed_form_equals_nested_sigma_exactly(b, forcing):
    eq = linear_equation(b, forcing)
    roots = find_roots(characteristic_polynomial(eq)).entries
    assert [e.multiplicity for e in roots] == ([2] if b == [-1.2, 0.36] else [1, 1])
    rng = Random(str(b) + forcing)
    for n in (0, 1, 2, 3, 17, 300):
        init = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert solve_order2_closed_form(eq, init, n) == nested_sigma_closed_form(eq, init, n)
