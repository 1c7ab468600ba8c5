import cmath
import math
from random import Random

import pytest

from scfact import (
    FormSymmetry,
    GeneralMap,
    GroupTag,
    Inversion,
    build_additive_form_symmetry,
    build_multiplicative_form_symmetry,
    check_hd1,
    evaluate_form_symmetry,
    find_roots,
    characteristic_polynomial,
    general_equation,
    linear_equation,
    as_separable_additive,
    separable_additive_equation,
    solve_reduction_constant,
)
from scfact.expressions import Call, Var, evaluate, parse_expression, substitute
from scfact.polynomials import Polynomial
from scfact.symmetry import (
    ConstantValidationError,
    additive_reduction_residual,
    multiplicative_reduction_residual,
    probe_set,
)

from helpers import (
    C_MINUS,
    C_PLUS,
    make_2hd1,
    make_exp,
    make_hd0_separable,
    make_hd1m_separable,
    make_hs3,
    make_rk,
    rel_err,
)


class TestCheckHd1:
    @pytest.mark.parametrize("k", [2, 3])
    def test_rk_is_hd1_multiplicative(self, k):
        report = check_hd1(make_rk(k, a=1.0, b=0.5), samples=500, tol=1e-9, seed=1)
        assert report.verdict
        assert report.samples == 500
        assert report.max_residual <= 1e-9

    def test_translation_with_square_increment(self):
        eq = general_equation("x0 + (x0 - x1)^2", 2, GroupTag.ADDITIVE_REAL)
        assert check_hd1(eq, samples=300, tol=1e-9, seed=3).verdict

    def test_square_map_fails_with_witness(self):
        report = check_hd1(general_equation("x0^2", 1, GroupTag.ADDITIVE_REAL), seed=5)
        assert not report.verdict
        assert report.witness is not None
        assert report.witness.residual > 1e-9

    def test_2hd1_and_hs3(self):
        assert check_hd1(make_2hd1(), samples=500, tol=1e-9, seed=2).verdict
        assert check_hd1(make_hs3(), samples=500, tol=1e-9, seed=2).verdict

    def test_hd1m_multiplicative(self):
        eq = general_equation(
            "a*x0^2/x1", 2, GroupTag.MULTIPLICATIVE_POSITIVE, params={"a": 1.5}
        )
        assert check_hd1(eq, samples=400, tol=1e-9, seed=4).verdict

    def test_linear_kind_rejected(self):
        with pytest.raises(TypeError):
            check_hd1(linear_equation([-3, 2]))

    def test_verdict_bounds_residual(self):
        report = check_hd1(make_rk(2, 0.8, 0.7), samples=200, tol=1e-9, seed=6)
        assert report.verdict == (report.max_residual <= 1e-9)


def _drawn_coefficients(seed: int, count: int) -> list:
    """Coefficients of random linear equations of order 2-4, drawn directly."""
    rng = Random(seed)
    out = []
    for _ in range(count):
        order = rng.randrange(2, 5)
        out.append([rng.uniform(-1.5, 1.5) for _ in range(order)])
    return out


def _coefficients_from_roots(seed: int, count: int) -> list:
    """Coefficients of random linear equations of order 2-5 whose eigenvalues
    are drawn as real roots and complex-conjugate pairs in [-3, 3]^2."""
    rng = Random(seed)
    out = []
    for _ in range(count):
        order = rng.randrange(2, 6)
        roots: list[complex] = []
        while len(roots) < order:
            if order - len(roots) >= 2 and rng.random() < 0.5:
                z = complex(rng.uniform(-3, 3), rng.uniform(0.2, 3))
                roots += [z, z.conjugate()]
            else:
                roots.append(complex(rng.uniform(-3, 3)))
        coeffs = Polynomial.from_roots(roots).coefficients
        out.append([c.real for c in reversed(coeffs[:-1])])
    return out


# [-30, 200] (constants 10 and 20) and 4 of the 30 root-drawn equations have
# constants that a scan of a 33 x 33 grid over [-4, 4]^2 misses.
RECOVERY_CASES = (
    _drawn_coefficients(31, 8) + [[-30, 200]] + _coefficients_from_roots(41, 30)
)


class TestReductionConstants:
    def test_example4_single_constant(self):
        """The probe polynomial the constants are drawn from has a second
        root, which the other probes reject."""
        eq = make_exp(4.6)
        chosen = max(probe_set(eq).polys, key=lambda p: abs(p.coefficients[-1]))
        assert len(find_roots(chosen).entries) == 2
        result = solve_reduction_constant(eq)
        assert len(result.constants) == 1
        rc = result.constants[0]
        assert abs(rc.value - (-1)) < 1e-12
        assert rc.multiplicity == 1
        assert not result.analytic

    def test_example5_conjugate_pair(self):
        result = solve_reduction_constant(make_hd0_separable(1.0))
        values = result.expanded()
        assert len(values) == 2
        assert abs(values[0] - C_MINUS) < 1e-9  # (re, im) ordering
        assert abs(values[1] - C_PLUS) < 1e-9

    def test_linear_analytic_route(self):
        result = solve_reduction_constant(linear_equation([-3, 2]))
        assert result.analytic
        values = result.expanded()
        assert abs(values[0] - 1) < 1e-10 and abs(values[1] - 2) < 1e-10

    def test_lin2_eigenvalues_one_and_q(self):
        rng = Random(21)
        for _ in range(5):
            q = rng.uniform(-2, 2)
            if abs(q - 1) < 1e-3:
                continue
            result = solve_reduction_constant(linear_equation([-1 - q, q]))
            got = sorted(result.expanded(), key=lambda z: z.real)
            want = sorted([1, q])
            assert max(abs(a - b) for a, b in zip(got, want)) < 1e-8

    def test_repeated_constant_has_multiplicity(self):
        result = solve_reduction_constant(make_hd1m_separable(1.0))
        assert len(result.constants) == 1
        rc = result.constants[0]
        assert rc.multiplicity == 2
        assert abs(rc.value - 1) < 1e-7

    def test_empty_result_is_a_value(self):
        eq = separable_additive_equation(["x^2", "x^2*x"], "0")
        result = solve_reduction_constant(eq)
        assert len(result.constants) == 0

    def test_recovery_matches_characteristic_roots(self):
        for b in RECOVERY_CASES:
            eq = linear_equation(b)
            sep = as_separable_additive(eq)
            numeric = sorted(
                solve_reduction_constant(sep).expanded(),
                key=lambda z: (round(z.real, 6), round(z.imag, 6)),
            )
            analytic = sorted(
                find_roots(characteristic_polynomial(eq)).expanded(),
                key=lambda z: (round(z.real, 6), round(z.imag, 6)),
            )
            assert len(numeric) == len(analytic), b
            assert max(abs(x - y) for x, y in zip(numeric, analytic)) < 1e-8, b

    @pytest.mark.parametrize("b, multiplicity", [([-3, 3, -1], 3), ([-4, 6, -4, 1], 4)])
    def test_repeated_root_of_separable_form(self, b, multiplicity):
        """(z - 1)^m: the noise ball of a multiple root must not split it."""
        result = solve_reduction_constant(as_separable_additive(linear_equation(b)))
        assert len(result.constants) == 1
        rc = result.constants[0]
        assert rc.multiplicity == multiplicity
        assert abs(rc.value - 1) < 1e-12

    def test_linear_identity_residual_at_probe_points(self):
        eq = linear_equation([-3, 2], forcing="0")
        sep = as_separable_additive(eq)
        scale = max(abs(b) for b in eq.kind.coefficients)
        for root in solve_reduction_constant(eq).expanded():
            assert additive_reduction_residual(sep, root) <= 1e-10 * scale

    def test_grid_is_configurable(self):
        sep = as_separable_additive(linear_equation([-7, 10]))  # constants 2 and 5
        result = solve_reduction_constant(sep)  # 5 lies past the old grid's rim
        got = sorted(c.value.real for c in result.constants)
        assert len(got) == 2
        assert max(abs(a - b) for a, b in zip(got, [2, 5])) < 1e-8

    def test_general_kind_rejected(self):
        with pytest.raises(TypeError):
            solve_reduction_constant(make_2hd1())


class TestBuildAdditive:
    def test_lin2_symmetry_with_c_one(self):
        q = 2.0
        sep = as_separable_additive(linear_equation([-1 - q, q]))
        sym = build_additive_form_symmetry(sep, 1.0)
        (h1,) = sym.shape.components
        # h_1(z) = (1 + p) z = -q z
        for z in (1.0, -2.5, 0.3 + 1j):
            assert rel_err(evaluate(h1, {"x": z}), -q * z) < 1e-12

    def test_lin2_symmetry_with_c_q(self):
        q = 2.0
        sep = as_separable_additive(linear_equation([-1 - q, q]))
        sym = build_additive_form_symmetry(sep, q)
        (h1,) = sym.shape.components
        for z in (1.0, -2.5, 0.3 + 1j):
            assert rel_err(evaluate(h1, {"x": z}), -z) < 1e-12

    def test_degenerate_zero_component(self):
        sep = separable_additive_equation(["0", "0"], "0")
        sym = build_additive_form_symmetry(sep, 0.0)
        (h1,) = sym.shape.components
        assert evaluate(h1, {"x": 3.7}) == 0

    def test_invalid_constant_rejected(self):
        sep = as_separable_additive(linear_equation([-3, 2]))
        with pytest.raises(ConstantValidationError) as err:
            build_additive_form_symmetry(sep, 0.5)
        assert err.value.residual > 1e-8

    def test_records_constant(self):
        sep = as_separable_additive(linear_equation([-3, 2]))
        assert build_additive_form_symmetry(sep, 2.0).constant == 2.0


class TestBuildMultiplicative:
    def test_example4_component(self):
        sym = build_multiplicative_form_symmetry(make_exp(4.6), -1.0)
        (h1,) = sym.shape.components
        for t in (0.5, 2.3, 4.0):
            want = 1 / (t * math.exp(-t))
            assert rel_err(evaluate(h1, {"x": t}), want) < 1e-12

    def test_example5_component(self):
        sym = build_multiplicative_form_symmetry(make_hd0_separable(1.0), C_PLUS)
        (h1,) = sym.shape.components
        for t in (0.5, 1.7, 3.1):
            want = cmath.exp(-C_MINUS * math.log(t))  # t^{-c_-}
            assert rel_err(evaluate(h1, {"x": t}), want) < 1e-12

    def test_hd1m_recovers_inversion_component(self):
        sym = build_multiplicative_form_symmetry(make_hd1m_separable(1.0), 1.0)
        (h1,) = sym.shape.components
        for t in (0.4, 1.0, 2.9):
            assert rel_err(evaluate(h1, {"x": t}), 1 / t) < 1e-12

    def test_invalid_constant_rejected(self):
        with pytest.raises(ConstantValidationError):
            build_multiplicative_form_symmetry(make_exp(4.6), 0.5)

    def test_log_domain_residual_small_for_valid_constant(self):
        assert multiplicative_reduction_residual(make_exp(4.6), -1.0) < 1e-10


class TestEvaluateFormSymmetry:
    def test_inversion_additive_differences(self):
        sym = FormSymmetry(2, GroupTag.ADDITIVE_REAL, Inversion())
        assert evaluate_form_symmetry(sym, (5, 3, 1)) == (2, 2)

    def test_example4_symmetry_value(self):
        sym = build_multiplicative_form_symmetry(make_exp(4.6), -1.0)
        (value,) = evaluate_form_symmetry(sym, (2.3, 2.3))
        assert rel_err(value, math.exp(2.3)) < 1e-12

    def test_lin2_symmetry_value(self):
        q = 2.0
        sep = as_separable_additive(linear_equation([-1 - q, q]))
        sym = build_additive_form_symmetry(sep, 1.0)
        (value,) = evaluate_form_symmetry(sym, (1, 1))
        assert value == -1

    def test_general_map_shape(self):
        h = parse_expression("-(x0 + x1)")
        sym = FormSymmetry(2, GroupTag.ADDITIVE_REAL, GeneralMap(h, 2))
        assert sym.input_arity == 4
        got = evaluate_form_symmetry(sym, (10, 7, 3, 1))
        assert got == (10 - (7 + 3), 7 - (3 + 1))

    def test_arity_mismatch(self):
        sym = FormSymmetry(2, GroupTag.ADDITIVE_REAL, Inversion())
        with pytest.raises(ValueError):
            evaluate_form_symmetry(sym, (1, 2))


def test_translation_invariance_of_inversion_symmetry():
    """HD1-passing equations get an inversion symmetry invariant under the
    diagonal group action."""
    for eq in (make_2hd1(), make_hs3(), make_rk(2, 1.0, 0.5)):
        assert check_hd1(eq, samples=200, tol=1e-9, seed=9).verdict
        k = eq.order - 1
        sym = FormSymmetry(k, eq.group, Inversion())
        rng = Random(17)
        for _ in range(100):
            state = [eq.group.sample(rng) for _ in range(eq.order)]
            shift = eq.group.sample(rng)
            base = evaluate_form_symmetry(sym, state)
            moved = evaluate_form_symmetry(
                sym, [eq.group.combine(u, shift) for u in state]
            )
            assert max(rel_err(a, b) for a, b in zip(moved, base)) < 1e-9


def test_multiplicative_and_log_additive_symmetries_agree():
    """ln h_j(e^r) of the multiplicative build equals h_j(r) of the additive
    build on the log-transformed equation."""
    cases = [
        (make_exp(4.6), -1.0),
        (make_hd0_separable(1.0), C_PLUS),
        (make_hd1m_separable(1.0), 1.0),
    ]
    rng = Random(23)
    for eq, c in cases:
        mult = build_multiplicative_form_symmetry(eq, c)
        log_components = tuple(
            Call("ln", substitute(comp, {"x": Call("exp", Var("x"))}))
            for comp in eq.kind.components
        )
        log_eq = separable_additive_equation(
            log_components, Call("ln", eq.kind.forcing), params=eq.params
        )
        add = build_additive_form_symmetry(log_eq, c, validate=False)
        env = dict(eq.params)
        for hm, ha in zip(mult.shape.components, add.shape.components):
            for _ in range(32):
                r = rng.uniform(-1, 1)
                env["x"] = math.exp(r)
                lhs = cmath.log(evaluate(hm, env))
                env["x"] = complex(r)
                rhs = evaluate(ha, env)
                assert rel_err(lhs, rhs) < 1e-9
