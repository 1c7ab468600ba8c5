import cmath
import io
import math
from random import Random

import pytest

from scfact import (
    CarrierError,
    Const,
    DifferenceEquation,
    DocumentError,
    DomainError,
    EvaluationError,
    GroupTag,
    Linear,
    SeparableAdditive,
    SeparableMultiplicative,
    Var,
    as_general,
    as_separable_additive,
    detect_period,
    general_equation,
    iterate_orbit,
    linear_equation,
    load_equation,
    load_equation_file,
    render_equation,
    separable_additive_equation,
    separable_multiplicative_equation,
    write_orbit_csv,
)

from helpers import EQUATIONS_DIR, hd0_cycle, make_exp, make_hd0, make_hs3, rel_err

EXAMPLE4_DOC = """
# Example document
[equation]
name = "exp"
order = 2
group = "multiplicative"
kind = "separable"
psi0 = "exp(-x)"
psi1 = "x*exp(-x)"
forcing = "exp(a)"

[params]
a = 4.6
"""


class TestLoader:
    def test_example4_document(self):
        eq = load_equation(EXAMPLE4_DOC)
        assert eq.order == 2
        assert eq.group is GroupTag.MULTIPLICATIVE_POSITIVE
        assert isinstance(eq.kind, SeparableMultiplicative)
        assert eq.params["a"] == 4.6
        assert eq.name == "exp"

    def test_linear_document(self):
        doc = """
        [equation]
        order = 2
        group = "additive"
        kind = "linear"
        b = [-3, 2]
        forcing = "0"
        """
        eq = load_equation(doc)
        assert isinstance(eq.kind, Linear)
        assert eq.kind.coefficients == (-3 + 0j, 2 + 0j)

    def test_component_with_foreign_variable(self):
        doc = EXAMPLE4_DOC.replace('psi0 = "exp(-x)"', 'psi0 = "exp(-y)"')
        with pytest.raises(DocumentError, match="psi0"):
            load_equation(doc)

    def test_missing_key(self):
        doc = EXAMPLE4_DOC.replace('forcing = "exp(a)"', "")
        with pytest.raises(DocumentError, match="missing key 'forcing'"):
            load_equation(doc)

    def test_wrong_component_count(self):
        doc = EXAMPLE4_DOC.replace("order = 2", "order = 3")
        with pytest.raises(DocumentError, match="psi2"):
            load_equation(doc)

    def test_unknown_group_and_kind(self):
        with pytest.raises(DocumentError, match="unknown group"):
            load_equation(EXAMPLE4_DOC.replace('"multiplicative"', '"ring"'))
        with pytest.raises(DocumentError, match="unknown kind"):
            load_equation(EXAMPLE4_DOC.replace('"separable"', '"weird"'))

    def test_wrong_coefficient_count(self):
        doc = """
        [equation]
        order = 3
        group = "additive"
        kind = "linear"
        b = [-3, 2]
        forcing = "0"
        """
        with pytest.raises(DocumentError, match="coefficients"):
            load_equation(doc)

    def test_unexpected_key(self):
        doc = EXAMPLE4_DOC.replace('psi1 = "x*exp(-x)"', 'psi1 = "x*exp(-x)"\npsi7 = "x"')
        with pytest.raises(DocumentError, match="psi7"):
            load_equation(doc)

    def test_duplicate_key(self):
        doc = EXAMPLE4_DOC + '\n[equation2]'
        with pytest.raises(DocumentError):
            load_equation(doc)

    def test_key_outside_section(self):
        with pytest.raises(DocumentError, match="outside"):
            load_equation('order = 2')

    def test_reserved_parameter_name(self):
        doc = EXAMPLE4_DOC.replace("a = 4.6", "n = 4.6").replace('"exp(a)"', '"exp(n)"')
        with pytest.raises(DocumentError, match="reserved"):
            load_equation(doc)

    def test_complex_param(self):
        doc = EXAMPLE4_DOC.replace("a = 4.6", 'a = "1 + 2*i"')
        eq = load_equation(doc)
        assert eq.params["a"] == 1 + 2j

    def test_additive_separable_document_uses_phi_keys(self):
        doc = """
        [equation]
        order = 2
        group = "additive"
        kind = "separable"
        phi0 = "3*x"
        phi1 = "-2*x"
        forcing = "0"
        """
        eq = load_equation(doc)
        orbit = iterate_orbit(eq, (0, 1), 5)
        assert [v.real for v in orbit.values] == [3, 7, 15, 31, 63]
        with pytest.raises(DocumentError, match="phi0"):
            load_equation(doc.replace("phi0", "psi0"))

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("order = 2", "order = 1e400", "order"),
            ("a = 4.6", "a = 1e309", "a"),
            ("a = 4.6", 'a = "1e308*10 + i"', "a"),
        ],
    )
    def test_non_finite_numbers_are_rejected(self, old, new, key):
        with pytest.raises(DocumentError, match=f"key '{key}' must be finite"):
            load_equation(EXAMPLE4_DOC.replace(old, new))

    def test_non_finite_coefficient_is_rejected(self):
        doc = """
        [equation]
        order = 2
        group = "additive"
        kind = "linear"
        b = [1e309, 1]
        forcing = "0"
        """
        with pytest.raises(DocumentError, match=r"key 'b\[0\]' must be finite, got \(inf\+0j\)"):
            load_equation(doc)

    def test_shipped_documents_load(self):
        for path in sorted(EQUATIONS_DIR.glob("*.eq")):
            eq = load_equation_file(path)
            assert eq.order >= 1

    def test_byte_order_mark_is_skipped(self, tmp_path):
        for path in sorted(EQUATIONS_DIR.glob("*.eq")):
            copy = tmp_path / path.name
            copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
            assert load_equation_file(copy) == load_equation_file(path), path.name


def _document(kind, group, order, body, params=""):
    return (
        f'[equation]\norder = {order}\ngroup = "{group}"\nkind = "{kind}"\n{body}\n'
        f"[params]\n{params}\n"
    )


# Documents with exactly one fault, and the exact message each one prints.
SINGLE_FAULT_DOCUMENTS = {
    "rhs": (
        _document("general", "additive", 2, 'rhs = "a*x0 + y"', "a = 2"),
        "key 'rhs' uses free variable(s) ['y']; allowed: ['a', 'n', 'x0', 'x1']",
    ),
    "phi0": (
        _document("separable", "additive", 2, 'phi0 = "x + y"\nphi1 = "a*x"\nforcing = "0"', "a = 2"),
        "key 'phi0' uses free variable(s) ['y']; allowed: ['a', 'x']",
    ),
    "psi0": (
        _document("separable", "multiplicative", 2, 'psi0 = "exp(-y)"\npsi1 = "x"\nforcing = "exp(a)"', "a = 4.6"),
        "key 'psi0' uses free variable(s) ['y']; allowed: ['a', 'x']",
    ),
    "linear-forcing": (
        _document("linear", "additive", 2, 'b = [-3, 2]\nforcing = "n + a + x0"', "a = 1"),
        "key 'forcing' uses free variable(s) ['x0']; allowed: ['a', 'n']",
    ),
    "separable-forcing": (
        _document("separable", "multiplicative", 2, 'psi0 = "x"\npsi1 = "1/x"\nforcing = "a*x"', "a = 1"),
        "key 'forcing' uses free variable(s) ['x']; allowed: ['a', 'n']",
    ),
    "reserved-n": (
        _document("general", "additive", 2, 'rhs = "x0 - x1"', "n = 1"),
        "parameter name 'n' is reserved",
    ),
    "reserved-x3": (
        _document("general", "additive", 2, 'rhs = "x0 - x1"', "x3 = 1"),
        "parameter name 'x3' is reserved",
    ),
    "param-not-a-name": (
        _document("general", "additive", 2, 'rhs = "x0 - x1"', "2a = 1"),
        "parameter name '2a' is not a name expressions can use",
    ),
    "order-0-general": (_document("general", "additive", 0, 'rhs = "n"'), "order must be at least 1"),
    "order-minus-1-general": (_document("general", "additive", -1, 'rhs = "n"'), "order must be at least 1"),
    "order-0-linear": (_document("linear", "additive", 0, 'b = []\nforcing = "0"'), "order must be at least 1"),
    "order-minus-1-linear": (_document("linear", "additive", -1, 'b = []\nforcing = "0"'), "order must be at least 1"),
    "non-finite": (
        _document("general", "additive", 2, 'rhs = "a*x0"', "a = 1e309"),
        "key 'a' must be finite, got (inf+0j)",
    ),
    "list-item": (
        _document("linear", "additive", 2, 'b = [1, 2 +]\nforcing = "0"'),
        "key 'b[1]': syntax error at offset 3: unexpected end of input "
        "(expected a number, a name, '-', or '(')",
    ),
    "no-equals": (_document("general", "additive", 1, 'rhs = "x0"\nrhs'), "line 6: expected 'key = value'"),
    "no-value": (_document("general", "additive", "", 'rhs = "x0"'), "line 2: expected 'key = value'"),
    "duplicate": (_document("general", "additive", 1, 'rhs = "x0"\norder = 1'), "line 6: duplicate key 'order'"),
    "unquoted": ('[equation]\norder = 1\ngroup = additive\nkind = "general"\nrhs = "x0"\n',
                 "key 'group' must be a double-quoted string"),
    "param-variable": (_document("general", "additive", 1, 'rhs = "a*x0"', 'a = "x"'), "key 'a' must be a constant"),
    "param-ln0": (_document("general", "additive", 1, 'rhs = "a*x0"', "a = ln(0)"),
                  "key 'a': logarithm of zero in 'ln(0)'"),
    "order-fraction": (_document("general", "additive", 1.5, 'rhs = "x0"'), "key 'order' must be an integer"),
    "list-bare": (_document("linear", "additive", 1, 'b = 1\nforcing = "0"'), "key 'b' must be a bracketed list"),
    "no-equation": ("[params]\na = 1\n", "missing [equation] section"),
}


@pytest.mark.parametrize("case", sorted(SINGLE_FAULT_DOCUMENTS))
def test_single_fault_document_messages(case):
    text, message = SINGLE_FAULT_DOCUMENTS[case]
    with pytest.raises(DocumentError) as err:
        load_equation(text)
    assert str(err.value) == message


@pytest.mark.parametrize("build, error, message", [
    (lambda: general_equation("x0", 0), ValueError, "order must be at least 1"),
    (lambda: linear_equation([1, 2, 3], order=2), ValueError, "more coefficients than the order allows"),
    (lambda: DifferenceEquation(2, GroupTag.ADDITIVE_COMPLEX, SeparableAdditive((Var("x"),), Const(0))),
     ValueError, "expected 2 components, got 1"),
    (lambda: DifferenceEquation(1, GroupTag.ADDITIVE_COMPLEX, "x0"), TypeError, "unknown kind 'x0'"),
    (lambda: general_equation("x0", 1).forcing_at(0), TypeError, "general equations have no separate forcing"),
    (lambda: as_separable_additive(general_equation("x0", 1)), TypeError,
     "only linear equations convert to separable-additive form"),
], ids=["order-0", "coefficients", "components", "kind", "forcing_at", "as_separable_additive"])
def test_constructor_and_conversion_errors(build, error, message):
    with pytest.raises(error, match=message):
        build()


class TestIteration:
    def test_hd0_orbit_values(self):
        orbit = iterate_orbit(make_hd0(1.0), (1, 2), 12)
        expected = [2, 1, 0.5, 0.5, 1, 2, 2, 1, 0.5, 0.5, 1, 2]
        assert [v.real for v in orbit.values] == expected

    def test_example4_fixed_point(self):
        orbit = iterate_orbit(make_exp(4.6), (2.3, 2.3), 10)
        assert all(rel_err(v, 2.3) < 1e-12 for v in orbit.values)

    def test_hs3_hand_iteration(self):
        orbit = iterate_orbit(make_hs3(1.0), (0, 1, 3), 3)
        assert [v.real for v in orbit.values] == [5.0, 6.0, 6.5]

    def test_wrong_init_length(self):
        with pytest.raises(ValueError, match="expected 2 initial values"):
            iterate_orbit(make_hd0(), (1,), 5)

    def test_init_outside_carrier(self):
        with pytest.raises(ValueError, match="carrier"):
            iterate_orbit(make_hd0(), (1, -2), 5)

    def test_additive_real_init_outside_carrier(self):
        eq = general_equation("x0", 1, GroupTag.ADDITIVE_REAL)
        with pytest.raises(ValueError, match=r"initial value \(1\+1j\) is outside the group carrier"):
            iterate_orbit(eq, (1 + 1j,), 5)

    def test_domain_error_truncates(self):
        eq = general_equation("1/x0", 1, GroupTag.ADDITIVE_REAL)
        orbit = iterate_orbit(eq, (0,), 5)
        assert orbit.values == ()
        assert orbit.truncated_at == 1
        assert "division by zero" in orbit.truncation_reason

    def test_carrier_violation_truncates_with_index(self):
        eq = separable_multiplicative_equation(["x - 2"], "1")
        orbit = iterate_orbit(eq, (3,), 10)
        # 3 -> 1 -> -1 violates positivity when computing x_2
        assert orbit.truncated_at == 2
        assert isinstance(orbit.truncation_reason, str)
        assert orbit.values == (1 + 0j,)

    def test_linear_kind_iteration(self):
        eq = linear_equation([-3, 2])
        orbit = iterate_orbit(eq, (0, 1), 5)
        assert [v.real for v in orbit.values] == [3, 7, 15, 31, 63]

    def test_time_dependent_forcing(self):
        eq = linear_equation([0], forcing="n")
        orbit = iterate_orbit(eq, (0,), 4)
        assert [v.real for v in orbit.values] == [0, 1, 2, 3]

    def test_kind_consistency_linear_vs_general(self):
        rng = Random(7)
        eq = linear_equation([-0.4, 0.25, 0.1], forcing="0.5*(0.9^n)")
        geq = as_general(eq)
        init = [rng.uniform(-1, 1) for _ in range(3)]
        a = iterate_orbit(eq, init, 100)
        b = iterate_orbit(geq, init, 100)
        assert max(rel_err(x, y) for x, y in zip(a.values, b.values)) < 1e-12

    def test_kind_consistency_separable_vs_general(self):
        eq = make_exp(4.6)
        geq = as_general(eq)
        a = iterate_orbit(eq, (2.0, 3.1), 50)
        b = iterate_orbit(geq, (2.0, 3.1), 50)
        assert max(rel_err(x, y) for x, y in zip(a.values, b.values)) < 1e-12

    def test_positive_components_stay_positive(self):
        orbit = iterate_orbit(make_exp(4.6), (0.7, 5.2), 300)
        assert orbit.truncated_at is None
        assert all(v.imag == 0 and v.real > 0 for v in orbit.values)

    @pytest.mark.parametrize("build, group", [
        (separable_multiplicative_equation, GroupTag.ADDITIVE_COMPLEX),
        (separable_multiplicative_equation, GroupTag.ADDITIVE_REAL),
        (separable_additive_equation, GroupTag.MULTIPLICATIVE_POSITIVE),
        (separable_additive_equation, GroupTag.MULTIPLICATIVE_NONZERO),
    ])
    def test_separable_kind_must_combine_by_its_groups_operation(self, build, group):
        with pytest.raises(ValueError) as err:
            build(["x", "1/x"], "1", group=group)
        kind = "SeparableAdditive" if build is separable_additive_equation else "SeparableMultiplicative"
        assert str(err.value) == (f"kind {kind} does not combine by the operation "
                                  f"'{'+' if group.is_additive else '*'}' of group '{group.value}'")

    def test_as_separable_additive_matches_linear(self):
        eq = linear_equation([-3, 2], forcing="1")
        sep = as_separable_additive(eq)
        a = iterate_orbit(eq, (0.3, 0.7), 40)
        b = iterate_orbit(sep, (0.3, 0.7), 40)
        assert max(rel_err(x, y) for x, y in zip(a.values, b.values)) < 1e-12


def _complex_states(seed: int, order: int, count: int = 200):
    rng = Random(seed)
    for _ in range(count):
        state = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(order)]
        yield state, rng.randrange(0, 20)


class TestStepIsBitIdentical:
    """``step`` equals, exactly, the same operations written out by hand."""

    A, B, C = 0.7 - 0.3j, 1.3 + 0.4j, -0.4 + 0.9j

    def test_general(self):
        eq = general_equation(
            "x0 + a*(x0 - x1)/(x1 - x2) + exp(-x2)*x1^b - c*n", 3,
            params={"a": self.A, "b": self.B, "c": self.C},
        )
        for (x0, x1, x2), n in _complex_states(1, 3):
            n = complex(n)
            want = x0 + self.A * (x0 - x1) / (x1 - x2) + cmath.exp(-x2) * x1**self.B - self.C * n
            assert eq.step([x0, x1, x2], n) == want

    def test_linear(self):
        eq = linear_equation([self.A, self.B, self.C], forcing="c*0.9^n + a", params={"a": self.A, "c": self.C})
        for (x0, x1, x2), n in _complex_states(2, 3):
            want = self.C * (0.9 + 0j) ** complex(n) + self.A
            want = want - self.A * x0 - self.B * x1 - self.C * x2
            assert eq.step([x0, x1, x2], n) == want

    def test_separable_additive(self):
        eq = separable_additive_equation(
            ["a*x", "sin(x)", "x^2/3"], forcing="c*n", params={"a": self.A, "c": self.C}
        )
        for (x0, x1, x2), n in _complex_states(3, 3):
            want = self.C * complex(n) + self.A * x0 + cmath.sin(x1) + x2 ** (2 + 0j) / (3 + 0j)
            assert eq.step([x0, x1, x2], n) == want

    def test_separable_multiplicative(self):
        eq = separable_multiplicative_equation(
            ["exp(-x)", "x*exp(-x)"], forcing="exp(a) + n", params={"a": self.A},
            group=GroupTag.MULTIPLICATIVE_NONZERO,
        )
        for (x0, x1), n in _complex_states(4, 2):
            want = (cmath.exp(self.A) + complex(n)) * cmath.exp(-x0) * (x1 * cmath.exp(-x1))
            assert eq.step([x0, x1], n) == want

    def test_carrier_guard_names_component(self):
        eq = separable_multiplicative_equation(["x", "x - 2"], "1")
        with pytest.raises(
            CarrierError,
            match=r"component psi1 produced \(-1\+0j\), outside the group carrier in 'x1 - 2'",
        ):
            eq.step([3.0, 1.0], 0)

    def test_separable_additive_domain_error_names_the_lag(self):
        eq = separable_additive_equation(["1/x", "x"])
        with pytest.raises(DomainError, match=r"^division by zero in '1/x0'$"):
            eq.step([0j, 1 + 0j], 0)
        orbit = iterate_orbit(eq, (1, 0), 3)
        assert orbit.truncated_at == 1
        assert orbit.truncation_reason == "division by zero in '1/x0'"


def _reference_orbit(eq, init, steps):
    """``iterate_orbit`` as a plain loop over ``step``."""
    seq = [complex(v) for v in init]
    for n in range(steps):
        try:
            v = eq.step(seq[::-1][: eq.order], n)
            if not eq.group.contains(v):
                raise CarrierError(f"value {v!r} left the group carrier")
        except EvaluationError as exc:
            return tuple(seq[eq.order:]), n + 1, str(exc)
        seq.append(v)
    return tuple(seq[eq.order:]), None, None


def _assert_matches_reference(eq, init, steps):
    orbit = iterate_orbit(eq, init, steps)
    assert (orbit.values, orbit.truncated_at, orbit.truncation_reason) == _reference_orbit(
        eq, init, steps
    )
    return orbit


_PARAMS = {"a": 0.7 - 0.3j, "b": 0.2 + 0.1j, "c": -0.4 + 0.9j}


def _orbit_equations(order: int):
    """One equation of each kind, of the given order, with parameters."""
    yield general_equation(f"a*x0/(1 + abs(x{order - 1})^2) + b - c/(n + 1)", order, params=_PARAMS)
    yield linear_equation([0.3, -0.2 + 0.1j, 0.05][:order], forcing="c*0.9^n + a", params=_PARAMS)
    yield separable_additive_equation(
        ["0.5*x", "b*x/(1 + x*conj(x))", "0.1*exp(-abs(x))"][:order], forcing="c/(n + 1)",
        params=_PARAMS,
    )
    yield separable_multiplicative_equation(
        ["exp(-x)", "x*exp(-x)", "x^0.1"][:order], forcing="exp(a)", params={"a": 1.2}
    )


class TestOrbitIsBitIdentical:
    """``iterate_orbit`` equals, exactly, a plain loop over ``step``."""

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_every_kind_and_order(self, order):
        rng = Random(order)
        for eq in _orbit_equations(order):
            for steps in (0, 1, 7, 150):
                if eq.group.is_additive:
                    init = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(order)]
                else:
                    init = [rng.uniform(0.1, 4) for _ in range(order)]
                orbit = _assert_matches_reference(eq, init, steps)
                assert len(orbit.values) == steps and orbit.truncated_at is None

    def test_truncation_by_a_domain_error(self):
        eq = general_equation("x0 - 1 + 0/(x0 - 1)", 1)
        orbit = _assert_matches_reference(eq, (4,), 10)
        assert orbit.values == (3, 2, 1)
        assert orbit.truncated_at == 4
        assert orbit.truncation_reason == "division by zero in '0/(x0 - 1)'"

    @pytest.mark.parametrize(
        "components, init, values, truncated_at, reason",
        [
            (["x", "x - 2"], (3, 1), (1,), 2, "(-1+0j), outside the group carrier in 'x1 - 2'"),
            (["x + i", "x"], (1, 1), (), 1, "(1+1j), outside the group carrier in 'x0 + i'"),
        ],
    )
    def test_truncation_by_a_component_guard(self, components, init, values, truncated_at, reason):
        eq = separable_multiplicative_equation(components, "1")
        orbit = _assert_matches_reference(eq, init, 10)
        assert orbit.values == values
        assert orbit.truncated_at == truncated_at
        psi = "psi1" if values else "psi0"
        assert orbit.truncation_reason == f"component {psi} produced {reason}"

    @pytest.mark.parametrize(
        "rhs, group, init, values, reason",
        [
            ("x0 - 1", GroupTag.MULTIPLICATIVE_POSITIVE, 2.5, (1.5, 0.5), "value (-0.5+0j) left the group carrier"),
            ("x0 - 1", GroupTag.MULTIPLICATIVE_NONZERO, 3, (2, 1), "value 0j left the group carrier"),
            ("x0 + i*n*(n - 1)", GroupTag.MULTIPLICATIVE_POSITIVE, 2, (2, 2), "value (2+2j) left the group carrier"),
        ],
    )
    def test_truncation_by_the_final_carrier_check(self, rhs, group, init, values, reason):
        eq = general_equation(rhs, 1, group)
        orbit = _assert_matches_reference(eq, (init,), 10)
        assert orbit.values == values
        assert orbit.truncated_at == 3
        assert orbit.truncation_reason == reason

    def test_additive_real_orbit_truncates_off_the_reals(self):
        eq = general_equation("x0 + i", 1, GroupTag.ADDITIVE_REAL)
        orbit = _assert_matches_reference(eq, (1,), 3)
        assert orbit.values == ()
        assert orbit.truncated_at == 1
        assert orbit.truncation_reason == "value (1+1j) left the group carrier"


class TestPeriodDetection:
    def test_hd0_period_six_from_start(self):
        orbit = iterate_orbit(make_hd0(1.0), (1, 2), 22)
        assert detect_period(orbit, 1e-9, 8) == (6, 0)

    def test_constant_orbit(self):
        orbit = iterate_orbit(general_equation("x0", 1), (4,), 30)
        assert detect_period(orbit, 1e-9, 8) == (1, 0)

    def test_reciprocal_factor_period_two(self):
        eq = general_equation(
            "exp(a)/x0", 1, GroupTag.MULTIPLICATIVE_POSITIVE, params={"a": 4.6}
        )
        orbit = iterate_orbit(eq, (1,), 30)
        assert detect_period(orbit, 1e-9, 8)[0] == 2

    def test_multiples_certified_minimal_returned(self):
        orbit = iterate_orbit(make_hd0(1.3), (0.7, 1.9), 40)
        period, _ = detect_period(orbit, 1e-9, 13)
        assert period == 6
        seq = orbit.full_sequence
        for p in (6, 12):
            window = seq[-26:]
            assert all(
                abs(window[i + p] - window[i]) <= 1e-9 * (1 + abs(window[i]))
                for i in range(len(window) - p)
            )

    def test_onset_after_transient(self):
        tail = hd0_cycle(1, 2, 1.0) * 4
        seq = [9.9, -3.3] + tail
        assert detect_period(seq, 1e-9, 6) == (6, 2)

    def test_absence_is_none(self):
        rng = Random(3)
        seq = [complex(rng.uniform(0, 1)) for _ in range(60)]
        assert detect_period(seq, 1e-9, 10) is None


class TestCsv:
    def test_orbit_csv_layout(self):
        orbit = iterate_orbit(make_hd0(1.0), (1, 2), 2)
        buf = io.StringIO()
        write_orbit_csv(orbit, buf)
        assert buf.getvalue().splitlines() == [
            "n,re,im",
            "-1,1.0,0.0",
            "0,2.0,0.0",
            "1,2.0,0.0",
            "2,1.0,0.0",
        ]


def test_render_equation():
    assert render_equation(make_hd0(1.0)) == "x(n+1) = a*x(n)/x(n-1)"
    text = render_equation(linear_equation([-3, 2]))
    assert "x(n-1)" in text and text.startswith("x(n+1) = ")


# What ``scfact parse`` prints as the equation line of each sample document.
RENDERED_SAMPLES = {
    "2hd1.eq": "x(n+1) = x(n) + a*(x(n) - x(n-1))^2/(x(n-1) - x(n-2))",
    "exp.eq": "x(n+1) = exp(a)*exp(-x(n))*(x(n-1)*exp(-x(n-1)))",
    "hd0.eq": "x(n+1) = a*x(n)/x(n-1)",
    "hs.eq": "x(n+1) = a*x(n)*(1/x(n-1))",
    "hs3.eq": "x(n+1) = x(n) + a*(x(n) - x(n-1))/(x(n-1) - x(n-2))",
    "lin2_sep.eq": "x(n+1) = 0.2*0.9^n + 3*x(n) + -2*x(n-1)",
    "lin_32.eq": "x(n+1) = 0 - -3*x(n) - 2*x(n-1)",
    "nonred.eq": "x(n+1) = x(n)^2 + x(n-1)",
    "rk.eq": "x(n+1) = x(n)*(a*x(n-1)/x(n-2) + b)",
}


def test_render_every_sample_document():
    names = sorted(p.name for p in EQUATIONS_DIR.glob("*.eq"))
    assert names == sorted(RENDERED_SAMPLES)
    for name in names:
        assert render_equation(load_equation_file(EQUATIONS_DIR / name)) == RENDERED_SAMPLES[name]


def test_group_operations():
    add, mul = GroupTag.ADDITIVE_COMPLEX, GroupTag.MULTIPLICATIVE_POSITIVE
    assert add.combine(2, 3) == 5 and add.identity == 0
    assert mul.combine(2, 3) == 6 and mul.identity == 1
    assert mul.contains(2.5) and not mul.contains(-1) and not mul.contains(1 + 1j)
    assert GroupTag.MULTIPLICATIVE_NONZERO.contains(-3) and not GroupTag.MULTIPLICATIVE_NONZERO.contains(0)
    assert GroupTag.ADDITIVE_REAL.contains(-3) and not GroupTag.ADDITIVE_REAL.contains(1j)


def test_group_sampling_ranges():
    rng = Random(0)
    for _ in range(200):
        v = GroupTag.MULTIPLICATIVE_POSITIVE.sample(rng)
        assert math.exp(-3) <= v.real <= math.exp(3) and v.imag == 0
        w = GroupTag.ADDITIVE_REAL.sample(rng)
        assert -5 <= w.real <= 5 and w.imag == 0
        z = GroupTag.ADDITIVE_COMPLEX.sample(rng)
        assert -5 <= z.real <= 5 and -5 <= z.imag <= 5


from hypothesis import given
from hypothesis import strategies as st

_nonzero = st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False
)


@given(a=_nonzero, b=_nonzero)
def test_group_axioms_additive(a, b):
    g = GroupTag.ADDITIVE_COMPLEX
    assert g.combine(a, g.identity) == a
    assert g.combine(a, b) == g.combine(b, a)


@given(a=_nonzero)
def test_group_axioms_multiplicative(a):
    g = GroupTag.MULTIPLICATIVE_NONZERO
    assert g.combine(a, g.identity) == a
