import cmath
import math
import struct
from random import Random

import pytest

from scfact import (
    FormSymmetry,
    GeneralMap,
    GroupTag,
    Inversion,
    UnaryComponents,
    build_additive_form_symmetry,
    build_multiplicative_form_symmetry,
    check_hd1,
    evaluate_form_symmetry,
    find_roots,
    characteristic_polynomial,
    general_equation,
    linear_equation,
    load_equation_file,
    as_separable_additive,
    separable_additive_equation,
    separable_multiplicative_equation,
    solve_reduction_constant,
)
from scfact.expressions import Call, DomainError, EvaluationError, Var, evaluate, parse_expression, substitute
from scfact.factorization import FactorizationError, SemiconjugacyReport, factor_hd1, verify_semiconjugacy
from scfact.polynomials import Polynomial
from scfact import symmetry
from scfact.symmetry import (
    ConstantValidationError,
    HD1Report,
    HD1Witness,
    SymmetryError,
    _draws,
    probe_set,
    reduction_residual,
)

from helpers import (
    C_MINUS,
    C_PLUS,
    EQUATIONS_DIR,
    make_2hd1,
    make_exp,
    make_hd0_separable,
    make_hd1m_separable,
    make_hs3,
    make_rk,
    reference_form_symmetry,
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

    @pytest.mark.parametrize(
        "b, multiplicity, route",
        [
            pytest.param([-3, 3, -1], 3, as_separable_additive, id="b0-3"),
            pytest.param([-4, 6, -4, 1], 4, as_separable_additive, id="b1-4"),
            pytest.param([-3, 3, -1], 3, lambda eq: eq, id="analytic-3"),
        ],
    )
    def test_repeated_root_of_separable_form(self, b, multiplicity, route):
        """(z - 1)^m: the noise ball of a multiple root must not split it,
        on the probe polynomials and on the characteristic polynomial."""
        result = solve_reduction_constant(route(linear_equation(b)))
        assert len(result.constants) == 1
        rc = result.constants[0]
        assert rc.multiplicity == multiplicity
        assert abs(rc.value - 1) < 1e-12

    def test_linear_identity_residual_at_probe_points(self):
        eq = linear_equation([-3, 2], forcing="0")
        sep = as_separable_additive(eq)
        scale = max(abs(b) for b in eq.kind.coefficients)
        for root in solve_reduction_constant(eq).expanded():
            assert reduction_residual(sep, root) <= 1e-10 * scale

    def test_grid_is_configurable(self):
        sep = as_separable_additive(linear_equation([-7, 10]))  # constants 2 and 5
        result = solve_reduction_constant(sep)  # 5 lies past the old grid's rim
        got = sorted(c.value.real for c in result.constants)
        assert len(got) == 2
        assert max(abs(a - b) for a, b in zip(got, [2, 5])) < 1e-8

    def test_general_kind_rejected(self):
        with pytest.raises(TypeError):
            solve_reduction_constant(make_2hd1())

    def test_residual_of_a_general_equation_rejected(self):
        with pytest.raises(TypeError, match="require a separable equation"):
            reduction_residual(make_2hd1(), 1.0)

    def test_root_finding_overflow_on_every_probe_gives_no_constants(self):
        """Each probe polynomial is z (c^2 - 1e200 c - 1): Durand-Kerner
        overflows on all 32, so there is no start and no constant."""
        eq = separable_additive_equation(["1e200*x", "x"])
        assert solve_reduction_constant(eq).constants == ()

    @pytest.mark.parametrize("equation", [separable_additive_equation, separable_multiplicative_equation])
    def test_probe_points_skip_overflowing_components(self, equation):
        # 1e308*x^3 overflows wherever |x| >= 1.5, where many draws lie.
        points = probe_set(equation(["1e308*x*x*x", "x"])).points
        assert len(points) == symmetry._PROBE_COUNT
        assert max(abs(z) for z in points) < 1.5


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

    @pytest.mark.parametrize("validate", [True, False])
    @pytest.mark.parametrize("c", [math.inf, math.nan, complex(1, math.nan), 1e200])
    def test_non_finite_constant_or_power_is_typed(self, c, validate):
        """``c = 1e200`` is finite, but ``c^2`` of an order-3 equation is not."""
        sep = separable_additive_equation(["x", "x", "-x"], "0")
        with pytest.raises(SymmetryError, match="is not finite, or its power c\\^2 overflows"):
            build_additive_form_symmetry(sep, c, validate=validate)

    def test_nan_residual_fails_validation(self, monkeypatch):
        monkeypatch.setattr(symmetry, "reduction_residual", lambda eq, c: math.nan)
        sep = as_separable_additive(linear_equation([-3, 2]))
        with pytest.raises(ConstantValidationError):
            build_additive_form_symmetry(sep, 2.0)

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

    def test_wrong_kind_rejected(self):
        with pytest.raises(TypeError, match="requires a separable-multiplicative equation"):
            build_multiplicative_form_symmetry(separable_additive_equation(["x", "x"]), 1.0)

    def test_log_domain_residual_small_for_valid_constant(self):
        assert reduction_residual(make_exp(4.6), -1.0) < 1e-10


class TestEvaluateFormSymmetry:
    def test_output_count_is_checked(self):
        with pytest.raises(ValueError, match="unary-component symmetries have m = 1"):
            FormSymmetry(2, GroupTag.ADDITIVE_COMPLEX, UnaryComponents((Var("x"),)))
        with pytest.raises(ValueError, match="m must be at least 1"):
            FormSymmetry(0, GroupTag.ADDITIVE_COMPLEX, Inversion())

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

    def test_zero_under_a_multiplicative_inversion_is_a_domain_error(self):
        sym = FormSymmetry(1, GroupTag.MULTIPLICATIVE_NONZERO, Inversion())
        with pytest.raises(DomainError, match="division by zero"):
            evaluate_form_symmetry(sym, (2, 0))


def _form_symmetries(group: GroupTag) -> list:
    """Every shape over ``group``: inversions of order 1-3; the unary
    components of hs (complex constant ``C_PLUS``), exp and a linear
    equation, and hand-written ones; general maps of arity 1-3."""
    built = [
        build_multiplicative_form_symmetry(load_equation_file(EQUATIONS_DIR / "hs.eq"), C_PLUS),
        build_multiplicative_form_symmetry(make_exp(4.6), -1.0),
        build_additive_form_symmetry(as_separable_additive(linear_equation([-1, -0.25, 0.25])), 0.5),
    ]
    symmetries = [FormSymmetry(m, group, Inversion()) for m in (1, 2, 3)]
    symmetries += [FormSymmetry(1, group, sym.shape, sym.constant, sym.params) for sym in built]
    texts = ("1/x", "a*ln(x)", "sqrt(x) - x^(-a)", "abs(x)*exp(-x)")
    symmetries.append(FormSymmetry(1, group, UnaryComponents(tuple(map(parse_expression, texts))), params={"a": 2.5}))
    for text, arity, m in (("x0^a", 1, 3), ("-(x0 + x1)", 2, 2), ("x0/x1 - ln(x1)", 2, 1),
                           ("(x0 - x2)^(a*i)/x1", 3, 2)):
        symmetries.append(FormSymmetry(m, group, GeneralMap(parse_expression(text), arity), params={"a": C_PLUS}))
    return symmetries


# Signed zeros, zeros, huge and tiny magnitudes and negative values, beside
# each group's own samples and complex values.
_SPECIAL_INPUTS = (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1e300 + 0j,
                   -1e300 + 0j, 1e-300 + 0j, -1e-300 + 0j, complex(1e300, -1e300), 1 + 0j, -1 + 0j)


def _outcome(evaluate_h, point):
    """The bits of each output (the sign of zero included), or ``None``
    when the evaluation raises :class:`EvaluationError`."""
    try:
        outputs = evaluate_h(point)
    except EvaluationError:
        return None
    return tuple(struct.pack("<2d", v.real, v.imag) for v in outputs)


def test_compiled_form_symmetry_matches_the_reference():
    """``evaluate_form_symmetry`` runs the lowered trees of H; the
    evaluator it replaced (``reference_form_symmetry``) gives the same bits
    and raises on the same points, for every shape over every group."""
    rng = Random(29)
    outcomes = {None: 0, "values": 0}
    for group in GroupTag:
        for sym in _form_symmetries(group):
            reference = reference_form_symmetry(sym)
            for _ in range(150):
                point = [
                    rng.choice(_SPECIAL_INPUTS) if rng.random() < 0.3
                    else group.sample(rng) if rng.random() < 0.5
                    else complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
                    for _ in range(sym.input_arity)
                ]
                got = _outcome(lambda p: evaluate_form_symmetry(sym, p), point)
                assert got == _outcome(reference, point), (group, sym.shape, point)
                outcomes["values" if got else None] += 1
    assert min(outcomes.values()) > 500, outcomes


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


# ----------------------------------------------------------------------
# The four randomized checks, pinned value for value at their defaults: a
# change to how they draw, redraw or stop moves these numbers.
# ----------------------------------------------------------------------

_EXP_PROBES = (
    0.11654744677806197, 1.9732862564603144, 0.16144847267680926, 8.969895341215173,
    0.6186486626775286, 0.8913453743572233, 1.9935435331243825, 4.844328502462893,
    0.39441041169652763, 9.647934123019231, 0.571537373413721, 2.222150582639823,
    1.8370271826149074, 0.5404254157728585, 0.7575196336418357, 2.067694366842551,
    0.3670722550062781, 6.6484164230016125, 0.39160640742100866, 5.8727947776927225,
    4.441406938462251, 4.595832132828358, 0.11705275339197309, 5.959051290219058,
    0.21303758888635377, 0.4677694325750927, 2.153072600452571, 1.8419427916011444,
    2.68978875580115, 0.16004054238336946, 0.5106977775406463, 0.4104485605682892,
)

_LIN2_SEP_PROBES = (
    (-2.1494568204064604+0.679700303419744j), (-1.823569241860944+2.193874008356614j),
    (-0.4802177560030976-0.11502330107748371j), (0.6899137251350145+1.5778086397545277j),
    (-0.9303632577772323+2.266743811916248j), (-0.5594254025858518+0.7984754578860427j),
    (0.6081486034097958-0.615398642594081j), (-0.27770582293538126+0.7264341540617094j),
    (-1.002196570179817+1.894378694430408j), (-0.9374980063018041+1.7703306325776822j),
    (1.4909712042809318+1.525149834695526j), (-2.145130562109811+1.7849112889134116j),
    (-1.5462866551975005-0.7597797699018178j), (0.7668959384140575+0.6108208795881334j),
    (0.989462661088198-1.8323281059500487j), (-0.671977297128401-0.8905046671539596j),
    (-1.3286086425823613+1.068962763435458j), (1.0254651419781666-0.6385086131164286j),
    (1.6351091731494414-0.38785836544765084j), (1.9515613181558962+1.9679484140609j),
    (-1.6658688277698486+2.8604391890850396j), (-1.7567048879733758-0.32670352574561257j),
    (2.08922101594795-2.7105645122323634j), (1.9427347440007434+1.9580303485914081j),
    (-1.7501367204415932-2.3844027415005864j), (-0.9621703415374059-1.5071449400581733j),
    (-2.350493084028438+0.48269955432686373j), (2.964727579617551+2.1589550231730907j),
    (-1.3192812654428483-2.2125710984672304j), (-0.2821386130659258-1.7904453394263833j),
    (2.321639045095904+2.6221339023295966j), (0.9869162233985005-1.8183911796044183j),
)


def test_randomized_checks_are_pinned():
    def sample(name):
        return load_equation_file(EQUATIONS_DIR / f"{name}.eq")

    assert check_hd1(sample("nonred")) == HD1Report(
        False,
        500,
        26.332130883735307,
        HD1Witness(
            ((3.4442185152504816+2.5795440294030243j), (-0.79428419169155-2.4108324970703663j)),
            (0.11274721368608542-0.9506586254958567j),
            4,
            0.48565660426359775,
        ),
    )
    assert check_hd1(sample("rk")) == HD1Report(True, 500, 3.8363553882898995e-16, None)

    hd0 = sample("hd0")
    fact = factor_hd1(hd0)
    assert verify_semiconjugacy(hd0, fact.symmetry, fact.factor) == SemiconjugacyReport(
        False, 200, 7.907804944125499, (((7.897380396870891+0j), (4.70077043509014+0j)), 6, 0.5474914921142633)
    )

    assert probe_set(sample("exp")).points == _EXP_PROBES
    assert probe_set(sample("lin2_sep")).points == _LIN2_SEP_PROBES

    # The substitution puts the additive identity 0 in place of x0, so every
    # step of the factor divides by zero.
    with pytest.raises(FactorizationError, match="substituted factor hits domain errors"):
        factor_hd1(general_equation("x1/x0", 2))


def test_draws_skip_failed_draws_and_stop_at_the_budget():
    def drawer(outcomes):
        it = iter(outcomes)

        def draw(rng):
            value = next(it)
            if value == "error":
                raise DomainError("division by zero")
            return value

        return draw

    spent = SymmetryError("spent")
    # The count is reached on the budget's last draw.
    assert _draws(Random(0), 2, 4, drawer([1, None, "error", 2]), spent) == [1, 2]
    # Drawing stops at the count.
    assert _draws(Random(0), 1, 4, drawer([7]), spent) == [7]
    with pytest.raises(SymmetryError, match="spent"):
        _draws(Random(0), 2, 3, drawer([1, None, "error", 2]), spent)


def test_probe_seed_keeps_every_draw_away_from_degenerate_points():
    """The probe set draws from a fixed seed and has no guard for a point
    near z = 0 or t = 1, where the probe polynomial loses its leading
    coefficient.  Each draw takes the same uniforms whether or not it is
    kept, so these are all the points any equation can get."""
    budget = 10 * symmetry._PROBE_COUNT
    rng = Random(symmetry._PROBE_SEED)
    additive = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(budget)]
    rng = Random(symmetry._PROBE_SEED)
    multiplicative = [complex(math.exp(rng.uniform(-3, 3))) for _ in range(budget)]
    count = symmetry._PROBE_COUNT
    assert probe_set(separable_additive_equation(["3*x", "-2*x"])).points == tuple(additive[:count])
    assert probe_set(make_exp(4.6)).points == tuple(multiplicative[:count])
    assert min(abs(z) for z in additive) >= 0.1
    assert min(abs(cmath.log(t)) for t in multiplicative) >= 1e-9
