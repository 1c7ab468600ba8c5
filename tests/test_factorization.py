import cmath
import math
from array import array
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

from scfact import (
    FormSymmetry,
    GeneralMap,
    GroupTag,
    Inversion,
    Polynomial,
    as_general,
    as_separable_additive,
    factor_hd1,
    factor_linear_full,
    factor_separable_additive,
    factor_separable_multiplicative,
    general_equation,
    iterate_orbit,
    linear_equation,
    make_factorization,
    render_factorization,
    render_triangular_system,
    separable_additive_equation,
    separable_multiplicative_equation,
    simulate_cascade,
    simulate_factorization,
    verify_equivalence,
    verify_semiconjugacy,
)
from scfact import (
    NoFormSymmetryError,
    TrialSummary,
    TriangularSystem,
    UnaryComponents,
    as_sc_factorization,
    check_hd1,
    evaluate_form_symmetry,
    factorize,
    load_equation_file,
    verify_trials,
)
from scfact.factorization import FactorizationError
from scfact.symmetry import ConstantValidationError
from scfact.equations import CarrierError
from scfact.expressions import EvaluationError, Var, evaluate, parse_expression

from helpers import (
    C_PLUS,
    EQUATIONS_DIR,
    draw_hs3_init,
    exact_eval,
    hd0_cycle,
    make_2hd1,
    make_exp,
    make_hd0_separable,
    make_hd1m_separable,
    make_hs3,
    make_rk,
    reference_cascade,
    rel_err,
)


def eval_factor_rhs(fact, state_newest_first, n=0):
    return fact.factor.step(list(state_newest_first), n)


class TestFactorHd1:
    def test_rk_factor_is_delayed_affine(self):
        """Factor of the order-(k+1) ratio equation is a*t(n-k+1) + b."""
        for k in (2, 3):
            a, b = 0.7, 1.3
            fact = factor_hd1(make_rk(k, a, b))
            assert fact.factor.order == k
            rng = Random(k)
            for _ in range(20):
                state = [math.exp(rng.uniform(-1, 1)) for _ in range(k)]
                got = eval_factor_rhs(fact, state)
                # t(n-k+1) sits at lag k-1 in the newest-first state
                assert rel_err(got, a * state[k - 1] + b) < 1e-12

    def test_2hd1_factor_is_square_ratio(self):
        fact = factor_hd1(make_2hd1(1.7))
        rng = Random(2)
        for _ in range(20):
            t0, t1 = rng.uniform(0.2, 2), rng.uniform(0.2, 2)
            assert rel_err(eval_factor_rhs(fact, [t0, t1]), 1.7 * t0**2 / t1) < 1e-12

    def test_hs3_factor_is_ratio(self):
        fact = factor_hd1(make_hs3(1.0))
        rng = Random(3)
        for _ in range(20):
            t0, t1 = rng.uniform(0.2, 2), rng.uniform(0.2, 2)
            assert rel_err(eval_factor_rhs(fact, [t0, t1]), t0 / t1) < 1e-12

    def test_cofactor_is_one_step_link(self):
        fact = factor_hd1(make_2hd1())
        assert evaluate(fact.cofactor, {"t": 4.0, "x0": 3.0, "n": 0}) == 7
        mult = factor_hd1(make_rk(2))
        assert evaluate(mult.cofactor, {"t": 4.0, "x0": 3.0, "n": 0, "a": 0.3, "b": 0.4}) == 12

    def test_initial_value_transform_is_consecutive_inverse(self):
        fact = factor_hd1(make_hs3())
        assert fact.factor_initial_values((0, 1, 3)) == (1, 2)
        mult = factor_hd1(make_rk(2))
        t_init = mult.factor_initial_values((2.0, 4.0, 1.0))
        assert t_init == (2.0, 0.25)  # x_{-j} / x_{-j-1}, oldest first

    def test_time_dependent_coefficients(self):
        # sequence coefficients ride through the substitution: the factor of
        # x(n+1) = x(n)*(a_n*x(n-1)/x(n-2) + b) is t(n+1) = a_n*t(n-1) + b
        eq = general_equation(
            "x0*((1 + 0.5*cos(n))*x1/x2 + 0.7)", 3, GroupTag.MULTIPLICATIVE_POSITIVE
        )
        assert check_hd1(eq, samples=300, tol=1e-9, seed=8).verdict
        fact = factor_hd1(eq)
        report = verify_equivalence(eq, fact, (1.2, 0.8, 1.5), 40, tol=1e-9)
        assert report.passed

    def test_linear_kind_rejected(self):
        with pytest.raises(TypeError):
            factor_hd1(linear_equation([-3, 2]))

    def test_order_one_rejected(self):
        with pytest.raises(ValueError):
            factor_hd1(general_equation("x0", 1))


class TestFactorSeparableAdditive:
    def test_lin2_complementary_pairings(self):
        q = 2.0
        sep = as_separable_additive(linear_equation([-1 - q, q], forcing="0.3*(0.9^n)"))
        with_one = factor_separable_additive(sep, 1.0)
        assert with_one.factor.kind.coefficients == (-1 + 0j,)
        # cofactor with c = 1: x(n+1) = z(n+1) + q x(n)
        got = evaluate(with_one.cofactor, {"t": 5.0, "x0": 2.0, "n": 0})
        assert rel_err(got, 5 + q * 2) < 1e-12
        with_q = factor_separable_additive(sep, q)
        assert with_q.factor.kind.coefficients == (-q + 0j,)
        got = evaluate(with_q.cofactor, {"t": 5.0, "x0": 2.0, "n": 0})
        assert rel_err(got, 5 + 2) < 1e-12

    def test_degenerate_identity_component(self):
        # phi_0(z) = z, phi_1 = 0: c = 1 gives h_1 = z - z, so the closing
        # identity c*h_1 = phi_1 = 0 holds and the cofactor subtracts nothing.
        sep = separable_additive_equation(["x", "0"], "0")
        fact = factor_separable_additive(sep, 1.0)
        (h1,) = fact.symmetry.shape.components
        assert evaluate(h1, {"x": 2.7}) == 0
        assert verify_equivalence(sep, fact, (1.5, 2.5), 30).passed

    def test_linear_b32_with_c_two(self):
        sep = as_separable_additive(linear_equation([-3, 2], forcing="0.5"))
        fact = factor_separable_additive(sep, 2.0)
        # h_1(z) = (2 - 3) z = -z, so the cofactor adds x(n)
        got = evaluate(fact.cofactor, {"t": 1.0, "x0": 4.0, "n": 0})
        assert rel_err(got, 5.0) < 1e-12
        report = verify_equivalence(sep, fact, (0.2, 0.9), 50)
        assert report.passed

    def test_initial_transform(self):
        q = 2.0
        sep = as_separable_additive(linear_equation([-1 - q, q]))
        fact = factor_separable_additive(sep, 1.0)
        # z_0 = x_0 + h_1(x_{-1}) = x_0 - q x_{-1}
        assert fact.factor_initial_values((3.0, 5.0)) == (5 - q * 3,)

    def test_unvalidated_bad_constant_builds_and_fails_both_verifiers(self):
        """Without validation a wrong constant still factors; the verifiers,
        not the construction, report it."""
        sep = as_separable_additive(linear_equation([-3, 2]))
        fact = factor_separable_additive(sep, 0.5, validate=False)
        assert fact.symmetry.constant == 0.5
        assert not verify_semiconjugacy(sep, fact.symmetry, fact.factor, 200, 1e-9, seed=1).passed
        summary = verify_trials(sep, fact, trials=5, steps=30)
        assert summary.failures == 5 and summary.max_residual > 1e-9

    def test_wrong_kind_rejected(self):
        with pytest.raises(TypeError):
            factor_separable_additive(make_exp(), -1.0)

    @pytest.mark.parametrize(
        "components, forcing, c",
        [
            (["x", "-x"], "1", cmath.exp(1j * math.pi / 3)),
            (["x", "-x"], "1", cmath.exp(-1j * math.pi / 3)),
            (["3*x", "-2*x"], "0.2*(0.9^n)", 1 + 4.7e-17j),
        ],
    )
    def test_additive_real_source_with_complex_reduced_variable(self, components, forcing, c):
        # A complex constant, or a real one with rounding noise in its
        # imaginary part, makes z complex while the source orbit stays real.
        eq = separable_additive_equation(components, forcing, group=GroupTag.ADDITIVE_REAL)
        fact = factor_separable_additive(eq, c)
        assert fact.factor.group is GroupTag.ADDITIVE_COMPLEX
        summary = verify_trials(eq, fact)
        assert summary.failures == 0
        assert summary.real_reconstruction


class TestFactorSeparableMultiplicative:
    def test_example4_factor_and_cofactor(self):
        a = 4.6
        fact = factor_separable_multiplicative(make_exp(a), -1.0)
        rng = Random(4)
        for _ in range(10):
            r = math.exp(rng.uniform(-1, 2))
            got = eval_factor_rhs(fact, [r])
            assert rel_err(got, math.exp(a) / r) < 1e-12
        x = 1.7
        got = evaluate(fact.cofactor, {"t": 3.0, "x0": x, "n": 0, "a": a})
        assert rel_err(got, 3.0 * x * math.exp(-x)) < 1e-12

    def test_example5_factor(self):
        fact = factor_separable_multiplicative(make_hd0_separable(1.0), C_PLUS)
        r = 1.4
        got = eval_factor_rhs(fact, [complex(r)])
        assert rel_err(got, cmath.exp(C_PLUS * math.log(r))) < 1e-12
        assert fact.factor.group is GroupTag.MULTIPLICATIVE_NONZERO

    def test_example5_numeric_first_step(self):
        fact = factor_separable_multiplicative(make_hd0_separable(1.0), C_PLUS)
        (r0,) = fact.factor_initial_values((1.0, 2.0))
        assert rel_err(r0, 2) < 1e-12
        t_orbit, r_orbit = None, None
        x_orbit, r_orbit = simulate_factorization(fact, (1.0, 2.0), 1)
        assert rel_err(x_orbit.values[0], 2) < 1e-12  # t_1 = t_0/t_-1 = 2

    def test_example4_initial_transform(self):
        a = 4.6
        fact = factor_separable_multiplicative(make_exp(a), -1.0)
        (r0,) = fact.factor_initial_values((2.3, 3.0))
        assert rel_err(r0, 3.0 / (2.3 * math.exp(-2.3))) < 1e-12

    def test_real_constant_keeps_positive_group(self):
        fact = factor_separable_multiplicative(make_exp(4.6), -1.0)
        assert fact.factor.group is GroupTag.MULTIPLICATIVE_POSITIVE


    def test_component_overflowing_at_a_probe_point_is_rejected(self):
        # h_1(t) = t^1000 / t underflows to 0 below t = 0.5 and overflows above t = 2.1.
        eq = separable_multiplicative_equation(["x", "x"], "1")
        with pytest.raises(FactorizationError, match="component h_1 leaves the carrier"):
            factor_separable_multiplicative(eq, 1000, validate=False)


class TestTriangular:
    def test_b32_stages_and_first_step(self):
        eq = linear_equation([-3, 2])
        system = factor_linear_full(eq)
        assert [abs(c) for c in system.eigenvalues] == sorted(
            [abs(c) for c in system.eigenvalues], reverse=True
        )
        assert rel_err(system.eigenvalues[0], 2) < 1e-10
        assert rel_err(system.eigenvalues[1], 1) < 1e-10
        assert len(system.levels) == 2 and len(system.levels[0]) == 1
        assert rel_err(system.levels[0][0], -1) < 1e-10
        z = system.stage_initial_values((0, 1))
        assert rel_err(z[0], 1) < 1e-12  # z_{0,0} = x_0 + (c_0 + b_0) x_{-1}
        orbit, rows = system.simulate((0, 1), 3)
        assert rel_err(orbit.values[0], 3) < 1e-12
        assert rel_err(rows[0][1], 2) < 1e-12

    def test_order3_cascade_matches_iteration(self):
        eq = linear_equation([-6, 11, -6])
        system = factor_linear_full(eq)
        got = sorted(c.real for c in system.eigenvalues)
        assert max(abs(a - b) for a, b in zip(got, [1, 2, 3])) < 1e-9
        report = verify_equivalence(eq, system, (0, 0, 1), 50, tol=1e-8)
        assert report.passed

    def test_repeated_eigenvalue_reconstruction_exact(self):
        eq = linear_equation([-2, 1])
        system = factor_linear_full(eq)
        assert system.eigenvalues == (1 + 0j, 1 + 0j)
        recon = system.reconstructed_polynomial()
        assert max(
            abs(a - b)
            for a, b in zip(recon.coefficients, system.characteristic().coefficients)
        ) == 0

    def test_polynomial_reconstruction_random(self):
        rng = Random(12)
        for _ in range(10):
            order = rng.randrange(2, 6)
            b = [rng.uniform(-2, 2) for _ in range(order)]
            system = factor_linear_full(linear_equation(b))
            poly = system.characteristic()
            recon = system.reconstructed_polynomial()
            scale = max(abs(c) for c in poly.coefficients)
            assert max(
                abs(a - b) for a, b in zip(recon.coefficients, poly.coefficients)
            ) <= 1e-8 * scale

    def test_deflation_consistency_per_level(self):
        rng = Random(14)
        b = [rng.uniform(-2, 2) for _ in range(4)]
        system = factor_linear_full(linear_equation(b))
        current = system.characteristic()
        for c, level in zip(system.eigenvalues, system.levels):
            quotient = Polynomial(tuple(reversed((1 + 0j,) + level)))
            # oracle: multiply back (z - c) * quotient and compare to current
            lifted = [0j] * (quotient.degree + 2)
            for i, a in enumerate(quotient.coefficients):
                lifted[i + 1] += a
                lifted[i] += -c * a
            scale = max(abs(v) for v in current.coefficients)
            assert max(
                abs(x - y) for x, y in zip(lifted, current.coefficients)
            ) <= 1e-8 * scale
            current = quotient

    def test_cascade_invariant_under_eigenvalue_permutation(self):
        rng = Random(15)
        for order in (3, 4):
            b = [rng.uniform(-1.5, 1.5) for _ in range(order)]
            eq = linear_equation(b, forcing="0.2*(0.8^n)")
            base = factor_linear_full(eq)
            init = [rng.uniform(-1, 1) for _ in range(order)]
            reference, _ = base.simulate(init, 40)
            roots = list(base.eigenvalues)
            for perm in (list(reversed(roots)), roots[1:] + roots[:1]):
                system = factor_linear_full(eq, root_order=perm)
                orbit, _ = system.simulate(init, 40)
                assert max(
                    rel_err(a, b) for a, b in zip(orbit.values, reference.values)
                ) < 1e-8

    def test_forcing_flows_through_stage_zero(self):
        eq = linear_equation([-1, 0], forcing="1")
        system = factor_linear_full(eq)
        orbit, _ = system.simulate((0, 0), 6)
        assert [round(v.real, 9) for v in orbit.values] == [1, 2, 3, 4, 5, 6]

    def test_counts_are_checked(self):
        eq = linear_equation([-3, 2])
        with pytest.raises(ValueError, match="expected 2 eigenvalues, got 1"):
            factor_linear_full(eq, root_order=[1])
        with pytest.raises(ValueError, match="expected 2 initial values"):
            factor_linear_full(eq).stage_initial_values((1,))

    def test_requires_linear(self):
        with pytest.raises(TypeError):
            factor_linear_full(make_2hd1())


class TestVerifySemiconjugacy:
    def test_example4_passes(self):
        eq = make_exp(4.6)
        fact = factor_separable_multiplicative(eq, -1.0)
        report = verify_semiconjugacy(eq, fact.symmetry, fact.factor, 200, 1e-9, seed=1)
        assert report.passed
        assert report.samples == 200

    def test_2hd1_with_inversion_and_ratio_factor(self):
        eq = make_2hd1(1.0)
        fact = factor_hd1(eq)
        report = verify_semiconjugacy(eq, fact.symmetry, fact.factor, 200, 1e-9, seed=2)
        assert report.passed

    def test_wrong_factor_fails_with_witness(self):
        eq = make_2hd1(1.0)
        fact = factor_hd1(eq)
        wrong = general_equation(
            "a*x0^3/x1", 2, GroupTag.ADDITIVE_REAL, params={"a": 1.0}
        )
        report = verify_semiconjugacy(eq, fact.symmetry, wrong, 200, 1e-9, seed=3)
        assert not report.passed
        assert report.witness is not None

    def test_user_supplied_intermediate_type_symmetry(self):
        """A hand-supplied type-(2,2) pair verifies and simulates: the
        order-4 equation x(n+1) = x(n-1) + 0.5*(x(n) - x(n-2)) + 1 reduces
        through t(n) = x(n) - x(n-2)."""
        from scfact import GeneralMap
        from scfact.expressions import parse_expression

        eq = general_equation("x1 + 0.5*(x0 - x2) + 1", 4, GroupTag.ADDITIVE_REAL)
        sym = FormSymmetry(2, GroupTag.ADDITIVE_REAL, GeneralMap(parse_expression("-x1"), 2))
        factor = general_equation("0.5*x0 + 1", 2, GroupTag.ADDITIVE_REAL)
        report = verify_semiconjugacy(eq, sym, factor, 200, 1e-9, seed=4)
        assert report.passed
        fact = make_factorization(eq, sym, factor)
        assert verify_equivalence(eq, fact, (0.0, 1.0, -0.5, 2.0), 60).passed

    def test_user_supplied_wrong_pair_fails(self):
        from scfact import GeneralMap
        from scfact.expressions import parse_expression

        eq = general_equation("x1 + 0.5*(x0 - x2) + 1", 4, GroupTag.ADDITIVE_REAL)
        sym = FormSymmetry(2, GroupTag.ADDITIVE_REAL, GeneralMap(parse_expression("-x1"), 2))
        wrong = general_equation("0.4*x0 + 1", 2, GroupTag.ADDITIVE_REAL)
        report = verify_semiconjugacy(eq, sym, wrong, 100, 1e-9, seed=5)
        assert not report.passed and report.witness is not None

    def test_arity_mismatch_rejected(self):
        eq = make_2hd1()
        fact = factor_hd1(eq)
        with pytest.raises(ValueError):
            verify_semiconjugacy(make_exp(), fact.symmetry, fact.factor)


def _exact_point(group, rng, order):
    """A rational state, NEWEST first: strictly decreasing for additive
    groups (so no difference of neighbours is zero), positive otherwise."""
    if group.is_additive:
        u = [Fraction(rng.randint(-40, 40), rng.randint(1, 9))]
        for _ in range(order - 1):
            u.append(u[-1] - Fraction(rng.randint(1, 40), rng.randint(1, 9)))
        return u
    return [Fraction(rng.randint(1, 60), rng.randint(1, 12)) for _ in range(order)]


def _exact_image(symmetry, u, env):
    """H(u) in rational arithmetic, from the shape's definition."""
    additive = symmetry.group.is_additive
    if isinstance(symmetry.shape, Inversion):
        return tuple(
            u[j - 1] - u[j] if additive else u[j - 1] / u[j] for j in range(1, symmetry.m + 1)
        )
    acc = u[0]
    for j, h in enumerate(symmetry.shape.components, start=1):
        value = exact_eval(h, {**env, "x": u[j]})
        acc = acc + value if additive else acc * value
    return (acc,)


def _exact_step(eq, u, n, env):
    lags = {f"x{j}": v for j, v in enumerate(u)}
    return exact_eval(as_general(eq).kind.rhs, {**env, **lags, "n": n})


def _exact_mismatches(fact, points=200, seed=0):
    """Points, of ``points`` rational draws, where ``H o F_n != Phi_n o H``."""
    eq = fact.source
    env = {}
    for name, value in eq.params.items():
        assert value.imag == 0
        env[name] = Fraction(value.real)
    rng = Random(seed)
    mismatches = 0
    for _ in range(points):
        u = _exact_point(eq.group, rng, eq.order)
        n = Fraction(rng.randrange(0, 11))
        advanced = [_exact_step(eq, u, n, env)] + u[:-1]
        image = _exact_image(fact.symmetry, u, env)
        lhs = _exact_image(fact.symmetry, advanced, env)
        rhs = (_exact_step(fact.factor, list(image), n, env),) + image[:-1]
        mismatches += lhs != rhs
    return mismatches


@pytest.mark.parametrize(
    "name, route",
    [
        ("2hd1", factor_hd1),
        ("hs3", factor_hd1),
        ("rk", factor_hd1),
        ("lin2_sep", lambda eq: factor_separable_additive(eq, 1)),
        ("lin2_sep", lambda eq: factor_separable_additive(eq, 2)),
    ],
    ids=["2hd1", "hs3", "rk", "lin2_sep-c1", "lin2_sep-c2"],
)
def test_semiconjugacy_holds_exactly_on_rational_points(name, route):
    fact = route(load_equation_file(EQUATIONS_DIR / f"{name}.eq"))
    assert _exact_mismatches(fact) == 0


def test_exact_oracle_rejects_a_wrong_reduction():
    # hd0 is homogeneous of degree 0, so the HD1 substitution gives a factor
    # that is not semiconjugate.
    fact = factor_hd1(load_equation_file(EQUATIONS_DIR / "hd0.eq"))
    assert _exact_mismatches(fact) > 150


def _real_fraction(v):
    assert v.imag == 0
    return Fraction(v.real)


def test_lin_32_cascade_holds_exactly_on_integer_starts():
    # Eigenvalues 2 and 1 keep every stage an integer below 2^53 over 40
    # steps, so each float stage value must meet its recurrence exactly.
    eq = load_equation_file(EQUATIONS_DIR / "lin_32.eq")
    system = factor_linear_full(eq, root_order=(2, 1))
    c = [_real_fraction(v) for v in system.eigenvalues]
    levels = [[_real_fraction(b) for b in level] for level in system.levels]
    forcing = [exact_eval(eq.kind.forcing, {"n": Fraction(n)}) for n in range(40)]
    rng = Random(0)
    for _ in range(200):
        init = [Fraction(rng.randint(-20, 20)) for _ in range(eq.order)]
        orbit, rows = system.simulate([complex(v) for v in init], 40)
        assert orbit.truncated_at is None
        rows = [[_real_fraction(v) for v in row] for row in rows]
        for i, level in enumerate(levels):
            assert rows[i][0] == init[-1] + sum(beta * init[-1 - j] for j, beta in enumerate(level, 1))
        for n in range(40):
            feed = forcing[n]
            for i, row in enumerate(rows):
                feed = feed + c[i] * row[n]
                assert row[n + 1] == feed
        assert iterate_orbit(eq, [complex(v) for v in init], 40).values == orbit.values


class TestSimulateAndEquivalence:
    def test_example3_sigma_seven(self):
        from scfact import detect_period

        fact = factor_hd1(make_hs3(1.0))
        x_orbit, t_orbit = simulate_factorization(fact, (0, 1, 3), 12)
        assert detect_period(t_orbit, 1e-9, 6) == (6, 0)
        sigma = sum(hd0_cycle(1, 2, 1.0))
        assert rel_err(sigma, 7) < 1e-12
        assert rel_err(x_orbit.values[5], 3 + sigma) < 1e-12

    def test_example4_constant_orbits(self):
        fact = factor_separable_multiplicative(make_exp(4.6), -1.0)
        x_orbit, r_orbit = simulate_factorization(fact, (2.3, 2.3), 8)
        assert all(rel_err(v, math.exp(2.3)) < 1e-9 for v in r_orbit.full_sequence)
        assert all(rel_err(v, 2.3) < 1e-9 for v in x_orbit.values)

    def test_trivial_constant_factor(self):
        sep = separable_additive_equation(["x"], "0")
        fact = factor_separable_additive(sep, 1.0)
        x_orbit, z_orbit = simulate_factorization(fact, (5.0,), 10)
        assert all(v == 5 for v in x_orbit.values)
        assert all(v == 5 for v in z_orbit.values)

    def test_2hd1_closed_form_values(self):
        eq = make_2hd1(1.0)
        fact = factor_hd1(eq)
        x_orbit, _ = simulate_factorization(fact, (0, 1, 3), 20)
        direct = iterate_orbit(eq, (0, 1, 3), 20)
        assert rel_err(x_orbit.values[0], 7) < 1e-12
        assert rel_err(x_orbit.values[1], 15) < 1e-12
        # closed form x_n = x_0 + t_0 sum_{j<=n} s_0^j a^{j(j+1)/2}
        t0, s0, a = 2.0, 2.0, 1.0
        for n in range(1, 21):
            closed = 3 + t0 * sum(s0**j * a ** (j * (j + 1) / 2) for j in range(1, n + 1))
            assert rel_err(closed, direct.values[n - 1]) < 1e-8
            assert rel_err(x_orbit.values[n - 1], direct.values[n - 1]) < 1e-8

    def test_hs3_ftf_cascade_real_output(self):
        hs3 = make_hs3(1.0)
        hd0_sep = make_hd0_separable(1.0)
        outer = factor_hd1(hs3)
        inner = factor_separable_multiplicative(hd0_sep, C_PLUS)
        rng = Random(19)
        for _ in range(5):
            init = draw_hs3_init(rng)
            report = verify_equivalence(hs3, [outer, inner], init, 60, tol=1e-8)
            assert report.passed
            assert report.max_reconstructed_imag <= 1e-8

    def test_linear_cascade_equivalence(self):
        eq = linear_equation([-3, 2])
        system = factor_linear_full(eq)
        assert verify_equivalence(eq, system, (0, 1), 50, tol=1e-6).passed

    def test_equivalence_failure_reports_truncation(self):
        eq = make_hs3(1.0)
        fact = factor_hd1(eq)
        report = verify_equivalence(eq, fact, (0, 1, 1), 30)  # x_0 = x_{-1}: t_0 = 0
        assert not report.passed
        assert report.failure_index is not None
        assert "domain error" in report.note

    def test_factor_start_outside_the_carrier_fails_at_zero(self):
        """``r_0 = x_0 / (x_{-1} ln x_{-1})`` is negative for ``x_{-1} < 1``,
        outside the factor's positive carrier: no factor orbit starts."""
        eq = separable_multiplicative_equation(["ln(x)", "1/x"], "0.5")
        fact = factor_separable_multiplicative(eq, -1.0, validate=False)
        with pytest.raises(CarrierError):
            fact.factor_initial_values((0.5, 2.0))
        report = verify_equivalence(eq, fact, (0.5, 2.0), 30)
        assert (report.passed, report.failure_index) == (False, 0)
        assert report.note.startswith("domain error on the factorization path: factor initial value")
        assert verify_equivalence(eq, fact, (2.0, 2.0), 30).failure_index != 0

    def test_form_symmetry_domain_error_fails_at_zero(self):
        eq = general_equation("x0 + x1", 2, GroupTag.ADDITIVE_REAL)
        sym = FormSymmetry(1, GroupTag.ADDITIVE_REAL, GeneralMap(parse_expression("1/(x0 - 1)"), 1))
        fact = make_factorization(eq, sym, general_equation("x0", 1, GroupTag.ADDITIVE_REAL))
        report = verify_equivalence(eq, fact, (1.0, 5.0), 10)
        assert (report.passed, report.failure_index) == (False, 0)
        assert report.note == "domain error on the factorization path: division by zero in '1/(x1 - 1)'"

    def test_wrong_number_of_initial_values_rejected(self):
        fact = factor_separable_additive(as_separable_additive(linear_equation([-3, 2])), 1.0)
        with pytest.raises(ValueError, match="expected 2 inputs, got 3"):
            fact.factor_initial_values((1, 2, 3))

    def test_empty_cascade_rejected(self):
        with pytest.raises(ValueError, match="at least one factorization stage"):
            simulate_cascade([], (0, 1), 5)

    def test_cascade_stage_mismatch_rejected(self):
        outer = factor_hd1(make_hs3())
        bad_inner = factor_separable_multiplicative(make_exp(4.6), -1.0)
        with pytest.raises(ValueError, match="order mismatch"):
            simulate_cascade([outer, outer], (0, 1, 3), 5)
        # exp's source has order 2, matching hd0's factor order -- but its own
        # dynamics differ; chaining validity is the caller's responsibility.
        x_orbit, _ = simulate_cascade([outer, bad_inner], (0, 1, 3), 3)
        assert x_orbit.order == 3


def _reference_rebuild(fact, init, t_orbit):
    """The source orbit rebuilt from ``t_orbit`` one ``_cofactor`` call at a time."""
    seq = [complex(v) for v in init]
    for n, t in enumerate(t_orbit.values):
        try:
            seq.append(fact._cofactor(complex(n), t, *seq[::-1][: fact.cofactor_order]))
        except EvaluationError as exc:
            return tuple(seq[len(init):]), n + 1, str(exc)
    return tuple(seq[len(init):]), t_orbit.truncated_at, t_orbit.truncation_reason


def _assert_cascade_matches_reference(stages, init, steps):
    x_orbit, t_orbits = simulate_cascade(stages, init, steps)
    for fact, outer, inner in zip(stages, (x_orbit,) + t_orbits, t_orbits):
        assert inner.initial_values == fact.factor_initial_values(outer.initial_values)
        got = (outer.values, outer.truncated_at, outer.truncation_reason)
        assert got == _reference_rebuild(fact, outer.initial_values, inner)
    innermost = t_orbits[-1]
    assert innermost == iterate_orbit(stages[-1].factor, innermost.initial_values, steps)
    return x_orbit, t_orbits


def _fails_at_step_three(fact):
    """``fact`` with a cofactor that raises a domain error at ``n = 3``."""
    return replace(fact, cofactor=fact.cofactor + 0 / (Var("n") - 3))


class TestCascadeIsBitIdentical:
    """``simulate_cascade`` rebuilds exactly what ``_cofactor`` gives step by step."""

    def test_one_stage(self):
        rng = Random(23)
        eq = as_separable_additive(linear_equation([-1, -0.25, 0.25]))  # roots 1, 1/2, -1/2
        facts = [factor_hd1(make_hs3(1.0)), factor_separable_additive(eq, 0.5)]
        for fact in facts + [factor_separable_multiplicative(make_exp(4.6), -1.0)]:
            for steps in (0, 1, 60):
                init = [rng.uniform(0.5, 3) + j for j in range(fact.source.order)]
                x_orbit, _ = _assert_cascade_matches_reference([fact], init, steps)
                assert len(x_orbit.values) == steps and x_orbit.truncated_at is None
        assert facts[1].cofactor_order == 2

    def test_two_stages(self):
        outer = factor_hd1(make_hs3(1.0))
        inner = factor_separable_multiplicative(make_hd0_separable(1.0), C_PLUS)
        rng = Random(24)
        for steps in (0, 1, 60):
            x_orbit, _ = _assert_cascade_matches_reference([outer, inner], draw_hs3_init(rng), steps)
            assert len(x_orbit.values) == steps and x_orbit.truncated_at is None

    def test_truncated_factor_orbit(self):
        fact = factor_hd1(make_hs3(1.0))
        x_orbit, (t_orbit,) = _assert_cascade_matches_reference([fact], (0, 1, 1), 10)
        assert x_orbit.truncated_at == t_orbit.truncated_at == 2
        assert x_orbit.truncation_reason == t_orbit.truncation_reason
        assert len(x_orbit.values) == 1

    def test_truncated_cofactor(self):
        fact = _fails_at_step_three(factor_hd1(make_hs3(1.0)))
        x_orbit, (t_orbit,) = _assert_cascade_matches_reference([fact], (0, 1, 3), 10)
        assert t_orbit.truncated_at is None
        assert len(x_orbit.values) == 3 and x_orbit.truncated_at == 4
        assert x_orbit.truncation_reason == "division by zero in '0/(n - 3)'"

    def test_truncated_inner_stage_of_two(self):
        outer = factor_hd1(make_hs3(1.0))
        inner = _fails_at_step_three(factor_separable_multiplicative(make_hd0_separable(1.0), C_PLUS))
        stages = [outer, inner]
        x_orbit, (t_orbit, r_orbit) = _assert_cascade_matches_reference(stages, (0, 1, 3), 10)
        assert r_orbit.truncated_at is None
        assert t_orbit.truncated_at == x_orbit.truncated_at == 4
        assert len(x_orbit.values) == len(t_orbit.values) == 3


CASCADE_FORCINGS = ("0", "1", "sin(n)", "0.9^n", "1/(n-7)", "ln(n-3)", "exp(n)")


def _cascade_document(rng):
    """A linear equation of order 1-4 with real, conjugate-pair and repeated
    roots of modulus up to 3, one of ``CASCADE_FORCINGS``, complex initial
    values and a horizon of 0-800 steps.  The 800-step runs overflow to
    ``inf`` and ``nan`` when a root exceeds about 2.43, and reach the ``exp``
    overflow at n = 710."""
    order = rng.randrange(1, 5)
    roots = []
    while len(roots) < order:
        draw = rng.random()
        if draw < 0.3 and order - len(roots) >= 2:
            w = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
            roots += [w, w.conjugate()]
        elif draw < 0.5 and roots:
            roots.append(rng.choice(roots))
        else:
            roots.append(complex(rng.uniform(-3, 3)))
    b = tuple(reversed(Polynomial.from_roots(roots).coefficients[:-1]))
    eq = linear_equation(b, rng.choice(CASCADE_FORCINGS))
    init = [complex(rng.uniform(-2, 2), rng.uniform(-1, 1)) for _ in range(order)]
    return factor_linear_full(eq, root_order=roots), init, rng.choice((0, 1, 2, 5, 9, 30, 120, 800))


def _bits(values):
    """The doubles of complex ``values``, bit for bit.  Equal bits print
    equal ``repr``s, ``-0.0``, ``inf`` and ``nan`` included, and compare
    about ten times faster."""
    return array("d", [x for v in values for x in (v.real, v.imag)]).tobytes()


def test_cascade_stages_match_the_hand_loop():
    """The compiled stages of ``TriangularSystem.simulate`` give the orbit
    and rows of the hand-written loop, bit for bit, with the same
    truncation index and reason."""
    rng = Random(2021)
    reasons = set()
    non_finite = 0
    for _ in range(200):
        system, init, steps = _cascade_document(rng)
        orbit, rows = system.simulate(init, steps)
        expected, expected_rows = reference_cascade(system, init, steps)
        assert replace(orbit, values=()) == replace(expected, values=())
        assert _bits(orbit.values) == _bits(expected.values)
        assert list(map(_bits, rows)) == list(map(_bits, expected_rows))
        reasons.add(orbit.truncation_reason)
        non_finite += not all(map(cmath.isfinite, orbit.values))
    # The draws reach all three forcing errors and overflow in a few runs.
    assert len(reasons) == 4 and non_finite >= 3


class TestFactorizationInvariants:
    def canonical_factorizations(self):
        # Initial draws stay inside each construction's validity region:
        # stable-attractor basins for the a=4.6 exponential equation (its
        # chaotic windows amplify rounding past any fixed tolerance within
        # 100 steps, on any evaluation route), the principal-branch region
        # for complex reduction constants, and nonzero increments for the
        # difference forms.
        out = []
        eq = make_exp(4.6)
        out.append((eq, factor_separable_multiplicative(eq, -1.0), "near-fp"))
        eq = make_exp(2.5)
        out.append((eq, factor_separable_multiplicative(eq, -1.0), "positive"))
        eq = make_hd0_separable(1.0)
        out.append((eq, factor_separable_multiplicative(eq, C_PLUS), "narrow"))
        eq = make_hd1m_separable(1.0)
        out.append((eq, factor_separable_multiplicative(eq, 1.0), "narrow"))
        eq = make_2hd1(1.0)
        out.append((eq, factor_hd1(eq), "increments"))
        eq = make_hs3(1.0)
        out.append((eq, factor_hd1(eq), "increments"))
        eq = make_rk(2, 0.6, 0.7)
        out.append((eq, factor_hd1(eq), "positive"))
        sep = as_separable_additive(linear_equation([-3, 2], forcing="0.1*(0.9^n)"))
        out.append((sep, factor_separable_additive(sep, 2.0), "additive"))
        return out

    def draw_init(self, style, order, rng):
        if style == "near-fp":
            return tuple(rng.uniform(1.8, 2.8) for _ in range(order))
        if style == "positive":
            return tuple(math.exp(rng.uniform(-1.5, 1.5)) for _ in range(order))
        if style == "narrow":
            # keeps complex-exponent factor orbits on the principal branch
            return tuple(math.exp(rng.uniform(-0.6, 0.6)) for _ in range(order))
        if style == "increments":
            # non-decaying increment magnitudes: a shrinking increment ratio
            # makes the difference form cancel to exact zero in floats
            values = [rng.uniform(-1, 1)]
            step = rng.choice([-1, 1]) * rng.uniform(0.5, 1.0)
            for _ in range(order - 1):
                values.append(values[-1] + step)
                step *= rng.choice([-1, 1]) * rng.uniform(1.0, 1.8)
            return tuple(values)
        return tuple(rng.uniform(-2, 2) for _ in range(order))

    def test_all_produced_factorizations_verify(self):
        for eq, fact, _style in self.canonical_factorizations():
            report = verify_semiconjugacy(eq, fact.symmetry, fact.factor, 200, 1e-9, seed=7)
            assert report.passed, (eq.name, report.max_residual)

    def test_all_produced_factorizations_reproduce_orbits(self):
        rng = Random(29)
        for eq, fact, style in self.canonical_factorizations():
            for _ in range(20):
                init = self.draw_init(style, eq.order, rng)
                report = verify_equivalence(eq, fact, init, 100, tol=1e-6)
                assert report.passed, (eq.name, init, report.max_residual, report.note)


def test_render_factorization_mentions_all_parts():
    fact = factor_separable_multiplicative(make_exp(4.6), -1.0)
    text = render_factorization(fact)
    assert "form symmetry" in text
    assert "c = -1" in text
    assert "factor: r(n+1)" in text
    assert "cofactor: x(n+1)" in text


def test_render_triangular_mentions_eigenvalues():
    text = render_triangular_system(factor_linear_full(linear_equation([-3, 2])))
    assert "characteristic polynomial" in text
    assert "stage 0" in text and "stage 1" in text


def test_render_triangular_skips_zero_coefficients():
    text = render_triangular_system(factor_linear_full(linear_equation([0, -1])))
    assert "characteristic polynomial: z^2 + -1\n" in text


def test_make_factorization_checks_arity():
    eq = make_2hd1()
    sym = FormSymmetry(2, GroupTag.ADDITIVE_REAL, Inversion())
    good_factor = general_equation("a*x0^2/x1", 2, GroupTag.ADDITIVE_REAL, params={"a": 1.0})
    assert make_factorization(eq, sym, good_factor).m == 2
    with pytest.raises(ValueError):
        make_factorization(eq, sym, general_equation("x0", 1, GroupTag.ADDITIVE_REAL))


@pytest.mark.parametrize("eq_group, sym_group", [
    (GroupTag.ADDITIVE_REAL, GroupTag.MULTIPLICATIVE_POSITIVE),
    (GroupTag.MULTIPLICATIVE_NONZERO, GroupTag.ADDITIVE_COMPLEX),
])
def test_make_factorization_checks_the_group_operation(eq_group, sym_group):
    """``H`` combining by one operation while the cofactor inverts the other
    would break ``H o F = Phi o H``."""
    eq = general_equation("x0*x1", 2, eq_group)
    sym = FormSymmetry(1, sym_group, Inversion())
    with pytest.raises(ValueError, match="have different operations"):
        make_factorization(eq, sym, general_equation("x0", 1, eq_group))


@pytest.mark.parametrize("group", list(GroupTag))
def test_general_map_symmetry_renders_its_groups_operation(group):
    eq = general_equation("x0", 2, group)
    sym = FormSymmetry(1, group, GeneralMap(parse_expression("2*x0"), 1))
    text = render_factorization(make_factorization(eq, sym, general_equation("x0", 1, group)))
    combine = " + " if group.is_additive else "*"
    assert f"form symmetry: components u(j-1){combine}h with h = 2*x0" in text.splitlines()
    assert evaluate_form_symmetry(sym, (3, 5)) == (group.combine(3, 10),)


def test_linear_equation_on_a_multiplicative_group_has_no_form_symmetry_route():
    system = factor_linear_full(linear_equation([-3, 2], group=GroupTag.MULTIPLICATIVE_POSITIVE))
    with pytest.raises(FactorizationError, match="group 'multiplicative' has no separable-additive"):
        as_sc_factorization(system)


class TestEntryPoints:
    """``factorize`` and ``verify_trials``, the library side of ``scfact
    factor`` and ``scfact verify``."""

    @staticmethod
    def load(name):
        return load_equation_file(EQUATIONS_DIR / f"{name}.eq")

    def test_factorize_separable_multiplicative(self):
        fact, constants = factorize(self.load("exp"))
        assert isinstance(fact.symmetry.shape, UnaryComponents)
        assert [rc.value for rc in constants.constants] == [fact.symmetry.constant]
        assert abs(fact.symmetry.constant + 1) < 1e-12

    def test_factorize_separable_additive_takes_the_first_constant(self):
        fact, constants = factorize(self.load("lin2_sep"))
        assert [round(rc.value.real, 9) for rc in constants.constants] == [1, 2]
        assert fact.symmetry.constant == constants.constants[0].value
        assert fact.factor.var == "z"

    def test_factorize_hd1(self):
        fact, constants = factorize(self.load("2hd1"))
        assert isinstance(fact.symmetry.shape, Inversion) and fact.m == 2
        assert constants is None

    def test_factorize_linear_is_triangular(self):
        eq = self.load("lin_32")
        system, constants = factorize(eq, constant=5)  # the constant is ignored
        assert isinstance(system, TriangularSystem) and constants is None
        assert [round(c.real, 9) for c in system.eigenvalues] == [2, 1]
        route = as_sc_factorization(system)
        assert route.symmetry.constant == system.eigenvalues[0]
        assert verify_semiconjugacy(eq, route.symmetry, route.factor).passed

    @pytest.mark.parametrize(
        "name, residual", [("nonred", "1.866e+01"), ("hd0", "1.373e+01")]
    )
    def test_no_hd1_symmetry(self, name, residual):
        with pytest.raises(NoFormSymmetryError) as info:
            factorize(self.load(name), seed=7)
        assert str(info.value) == f"no form symmetry found (HD1 check failed with max residual {residual})"

    def test_no_reduction_constant(self):
        with pytest.raises(NoFormSymmetryError, match="^no form symmetry found$"):
            factorize(separable_additive_equation(["x^2", "x"]))

    def test_given_constant_is_validated_unless_asked_not_to(self):
        eq = self.load("exp")
        with pytest.raises(ConstantValidationError):
            factorize(eq, constant=0.5)
        fact, _ = factorize(eq, constant=0.5, validate=False)
        assert fact.symmetry.constant == 0.5

    def test_verify_trials_matches_the_cli(self):
        """``scfact verify equations/hs.eq --steps 60 --trials 20 --seed 7``
        prints max residual 8.343e-15 and the complex-intermediates note."""
        eq = self.load("hs")
        fact, _ = factorize(eq, seed=7)
        summary = verify_trials(eq, fact, trials=20, steps=60, seed=7, tol=1e-9)
        assert summary == TrialSummary(20, 0, summary.max_residual, True, True)
        assert f"{summary.max_residual:.3e}" == "8.343e-15"

    def test_injected_bad_constant_fails(self):
        eq = self.load("exp")
        fact, _ = factorize(eq, constant=0.5, validate=False)
        summary = verify_trials(eq, fact, trials=4, steps=30)
        assert summary.failures == 4 and not summary.complex_route
