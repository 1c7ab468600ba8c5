import cmath
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scfact.expressions import (
    BinOp,
    Call,
    Const,
    DomainError,
    EvaluationError,
    Neg,
    ParseError,
    UnboundVariableError,
    Var,
    as_expression,
    evaluate,
    format_expression,
    lower,
    parse_expression,
    substitute,
)

from helpers import rel_err


class TestParsing:
    def test_rhs_with_power_and_quotient(self):
        e = parse_expression("x0 + a*(x0-x1)^2/(x1-x2)")
        assert e.free_variables() == {"a", "x0", "x1", "x2"}
        got = evaluate(e, {"a": 1, "x0": 3, "x1": 1, "x2": 0})
        assert rel_err(got, 7) < 1e-12

    def test_constant_zero(self):
        e = parse_expression("0")
        assert e == Const(0j)
        assert e.free_variables() == frozenset()

    def test_exponential_rhs(self):
        e = parse_expression("x1*exp(a - x0 - x1)")
        got = evaluate(e, {"a": 4.6, "x0": 2.3, "x1": 2.3})
        assert rel_err(got, 2.3) < 1e-14

    def test_error_offset_after_trailing_operator(self):
        with pytest.raises(ParseError) as err:
            parse_expression("x0 + ")
        assert err.value.offset == 5
        assert err.value.expected is not None

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function name 'foo'"):
            parse_expression("foo(x)")

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            parse_expression("2x")

    def test_imaginary_unit_is_reserved(self):
        assert evaluate(parse_expression("i*i"), {}) == -1
        assert parse_expression("i").free_variables() == frozenset()

    def test_power_is_right_associative(self):
        assert evaluate(parse_expression("2^3^2"), {}) == 2**9

    def test_power_binds_through_unary_base(self):
        # per the grammar the base of ^ may be a negated atom
        assert evaluate(parse_expression("-2^2"), {}) == 4

    def test_negative_exponent_without_parens(self):
        assert rel_err(evaluate(parse_expression("2^-1"), {}), 0.5) < 1e-15

    def test_scientific_literals(self):
        assert evaluate(parse_expression("2.5e-3"), {}) == 2.5e-3
        assert evaluate(parse_expression(".5"), {}) == 0.5

    def test_unexpected_character(self):
        # A superscript digit is a digit to str.isdigit but not to float().
        for text, char, offset in [("x0 @ 3", "@", 3), ("x^²", "²", 2)]:
            with pytest.raises(ParseError, match=f"unexpected character '{char}'") as err:
                parse_expression(text)
            assert err.value.offset == offset

    @pytest.mark.parametrize(
        "text, offset",
        [
            ("(" * 200 + "x" + ")" * 200, 50),
            ("exp(" * 60 + "x" + ")" * 60, 200),
            ("-" * 5000 + "x", 50),
            ("x^" * 150 + "x", 101),
        ],
        ids=["parentheses", "calls", "minus", "powers"],
    )
    def test_nesting_limit_is_a_parse_error(self, text, offset):
        with pytest.raises(ParseError, match="nesting deeper than 50 levels") as err:
            parse_expression(text)
        assert err.value.offset == offset

    def test_nesting_up_to_the_limit_parses(self):
        assert parse_expression("(" * 50 + "x" + ")" * 50) == Var("x")
        assert evaluate(parse_expression("-" * 50 + "2"), {}) == 2
        assert evaluate(parse_expression("+".join(["(-exp(0)^1)"] * 150)), {}) == -150

    def test_limit_deep_parse_from_a_deep_caller(self):
        # A caller already 400 frames deep still parses the deepest accepted
        # input, and still gets a ParseError, not RecursionError, past it.
        def at_depth(k, text):
            return at_depth(k - 1, text) if k else parse_expression(text)

        assert at_depth(400, "exp(" * 50 + "x" + ")" * 50) == parse_expression("exp(" * 50 + "x" + ")" * 50)
        with pytest.raises(ParseError, match="nesting deeper"):
            at_depth(400, "(" * 51 + "x" + ")" * 51)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expression("(x0 + 1))")

    @pytest.mark.parametrize(
        "text, offset",
        [("x0 * 1e309", 5), ("2 + 9" + "9" * 400, 4), ("-1e400", 1)],
        ids=["product", "long-integer", "negated"],
    )
    def test_non_finite_literal_is_a_parse_error(self, text, offset):
        with pytest.raises(ParseError, match="is not finite") as err:
            parse_expression(text)
        assert err.value.offset == offset

    def test_largest_finite_literal_parses(self):
        assert parse_expression("1.7976931348623157e308") == Const(1.7976931348623157e308)


    def test_missing_close_paren(self):
        with pytest.raises(ParseError, match="expected '\\)'"):
            parse_expression("(x + 1")


class TestEvaluation:
    def test_difference(self):
        assert evaluate(parse_expression("x0 - x1"), {"x0": 5, "x1": 3}) == 2

    def test_conjugate_power_product_is_real(self):
        c1 = (1 + 1j * cmath.sqrt(3).real) / 2
        c2 = (1 - 1j * cmath.sqrt(3).real) / 2
        oracle = cmath.exp((c1 + c2) * cmath.log(2))
        a = evaluate(parse_expression("t^c"), {"t": 2, "c": c1})
        b = evaluate(parse_expression("t^c2"), {"t": 2, "c2": c2})
        assert rel_err(a * b, 2) < 1e-12
        assert rel_err(oracle, 2) < 1e-12

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError, match="unbound variable 'a'"):
            evaluate(parse_expression("a + 1"), {})

    def test_division_by_zero_names_subexpression(self):
        with pytest.raises(DomainError, match="division by zero"):
            evaluate(parse_expression("1/(x0 - x1)"), {"x0": 1, "x1": 1})

    def test_log_of_zero(self):
        with pytest.raises(DomainError, match="logarithm of zero"):
            evaluate(parse_expression("ln(x)"), {"x": 0})

    def test_zero_base_rules(self):
        assert evaluate(parse_expression("x^c"), {"x": 0, "c": 0.5}) == 0
        for bad in (0, -1, 1j):
            with pytest.raises(DomainError):
                evaluate(parse_expression("x^c"), {"x": 0, "c": bad})

    def test_principal_branch_magnitude(self):
        rng = Random(11)
        for _ in range(100):
            t = cmath.exp(rng.uniform(-2, 2)).real
            c = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            got = evaluate(parse_expression("t^c"), {"t": t, "c": c})
            assert rel_err(abs(got), t ** c.real) < 1e-12

    def test_principal_log_of_negative_real(self):
        got = evaluate(parse_expression("ln(x)"), {"x": -1})
        assert rel_err(got, 1j * cmath.pi) < 1e-15

    def test_functions(self):
        env = {"z": 3 + 4j}
        assert evaluate(parse_expression("abs(z)"), env) == 5
        assert evaluate(parse_expression("re(z)"), env) == 3
        assert evaluate(parse_expression("im(z)"), env) == 4
        assert evaluate(parse_expression("conj(z)"), env) == 3 - 4j
        assert rel_err(evaluate(parse_expression("sqrt(z)"), env), 2 + 1j) < 1e-15

    def test_evaluation_is_pure(self):
        e = parse_expression("sin(x)^2 + exp(x/3) - i*x")
        env = {"x": 1.7 - 0.3j}
        first = evaluate(e, env)
        assert all(evaluate(e, env) == first for _ in range(5))

    def test_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError):
            evaluate(parse_expression("exp(exp(x))"), {"x": 10})


class TestLowering:
    def test_arguments_are_positional_and_parameters_constant(self):
        f = lower(parse_expression("a*x0 - x1"), ("x1", "x0"), {"a": 2})
        assert f(1, 5) == 9
        assert f(0, 1) == 2

    def test_matches_the_arithmetic_it_spells_out_exactly(self):
        tree = parse_expression("a*x/(y - 1) + exp(-y)*x^b - ln(y)")
        f = lower(tree, ("x", "y"), {"a": 0.7 - 0.2j, "b": 1.3 + 0.4j})
        rng = Random(19)
        for _ in range(200):
            x = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            y = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            want = (0.7 - 0.2j) * x / (y - 1) + cmath.exp(-y) * x ** (1.3 + 0.4j) - cmath.log(y)
            assert f(x, y) == want

    def test_deep_sum_lowers_without_recursion(self):
        tree = parse_expression("+".join(["x"] * 5000))
        assert evaluate(tree, {"x": 1}) == 5000
        assert tree.free_variables() == {"x"}

    def test_unknown_operator_is_rejected_when_lowered(self):
        with pytest.raises(EvaluationError, match="unknown operator '%'"):
            lower(BinOp("%", Var("x"), Const(2)), ("x",))

    def test_unknown_function_is_rejected_when_lowered(self):
        with pytest.raises(EvaluationError, match="unknown function 'system'"):
            lower(Call("system", Var("x")), ("x",))

    def test_unbound_name_is_rejected_when_lowered(self):
        with pytest.raises(UnboundVariableError, match="unbound variable 'b'"):
            lower(parse_expression("a + b"), ("a",))

    def test_names_never_reach_the_generated_source(self):
        name = "__import__('os').getpid()"
        f = lower(BinOp("+", Var(name), Const(1)), (name,))
        assert f(2) == 3

    def test_domain_error_names_the_subexpression(self):
        f = lower(parse_expression("x + 1/(y - 2)"), ("x", "y"))
        with pytest.raises(DomainError, match=r"division by zero in '1/\(y - 2\)'"):
            f(1, 2)


class TestFormatting:
    def test_negative_one(self):
        assert format_expression(Const(-1)) == "-1"

    def test_no_spurious_parens(self):
        assert format_expression(parse_expression("x0+x1*x2")) == "x0 + x1*x2"

    def test_required_parens(self):
        e = parse_expression("(x0+x1)*x2")
        assert format_expression(e) == "(x0 + x1)*x2"
        rng = Random(5)
        for _ in range(10):
            env = {f"x{j}": complex(rng.uniform(-5, 5), rng.uniform(-5, 5)) for j in range(3)}
            assert rel_err(evaluate(parse_expression(format_expression(e)), env), evaluate(e, env)) < 1e-12

    def test_complex_constants_round_trip(self):
        for v in (3 + 2j, -1.5j, 2j, -4 - 1j, 0.25, -0.0 + 1j):
            e = Const(v)
            assert evaluate(parse_expression(format_expression(e)), {}) == complex(v)

    def test_tree_shapes_round_trip_exactly(self):
        x, y = Var("x"), Var("y")
        trees = [
            BinOp("-", x, BinOp("-", y, Const(1))),
            BinOp("/", x, BinOp("*", y, y)),
            BinOp("^", BinOp("^", x, Const(2)), y),
            Neg(BinOp("^", x, Const(2))),
            Neg(BinOp("+", x, y)),
            BinOp("^", Neg(x), Const(2)),
            BinOp("^", x, Neg(Const(2))),
            BinOp("^", x, Const(2j)),
            Call("exp", Neg(x)),
        ]
        env = {"x": 1.3 + 0.4j, "y": -0.7 + 2.2j}
        for tree in trees:
            text = format_expression(tree)
            assert evaluate(parse_expression(text), env) == evaluate(tree, env), text


def random_tree(rng: Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Const(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)))
        return Var(rng.choice(["x", "y", "z"]))
    pick = rng.random()
    if pick < 0.55:
        op = rng.choice(["+", "-", "*", "/", "^"])
        return BinOp(op, random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    if pick < 0.75:
        return Neg(random_tree(rng, depth - 1))
    func = rng.choice(["exp", "ln", "sqrt", "sin", "cos", "abs", "re", "im", "conj"])
    return Call(func, random_tree(rng, depth - 1))


def test_round_trip_200_random_trees():
    """format -> parse -> evaluate agrees within 1e-12 on random trees."""
    rng = Random(2024)
    passed = 0
    attempts = 0
    while passed < 200:
        attempts += 1
        assert attempts < 4000, "tree generation budget exhausted"
        tree = random_tree(rng, rng.randrange(1, 5))
        env = {v: complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for v in ("x", "y", "z")}
        try:
            want = evaluate(tree, env)
        except Exception:
            continue
        if not cmath.isfinite(want):
            continue
        text = format_expression(tree)
        got = evaluate(parse_expression(text), env)
        assert rel_err(got, want) < 1e-12, text
        passed += 1


@st.composite
def expression_trees(draw, max_depth=3):
    if max_depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            re = draw(st.floats(-3, 3, allow_nan=False))
            im = draw(st.floats(-3, 3, allow_nan=False))
            return Const(complex(re, im))
        return Var(draw(st.sampled_from(["x", "y"])))
    kind = draw(st.integers(0, 2))
    if kind == 0:
        op = draw(st.sampled_from(["+", "-", "*", "/", "^"]))
        return BinOp(
            op,
            draw(expression_trees(max_depth=max_depth - 1)),
            draw(expression_trees(max_depth=max_depth - 1)),
        )
    if kind == 1:
        return Neg(draw(expression_trees(max_depth=max_depth - 1)))
    func = draw(st.sampled_from(sorted(["exp", "ln", "sqrt", "sin", "cos", "abs", "re", "im", "conj"])))
    return Call(func, draw(expression_trees(max_depth=max_depth - 1)))


@settings(max_examples=150, deadline=None)
@given(
    tree=expression_trees(),
    xr=st.floats(-2, 2, allow_nan=False),
    xi=st.floats(-2, 2, allow_nan=False),
    yr=st.floats(-2, 2, allow_nan=False),
    yi=st.floats(-2, 2, allow_nan=False),
)
def test_round_trip_property(tree, xr, xi, yr, yi):
    from hypothesis import assume

    env = {"x": complex(xr, xi), "y": complex(yr, yi)}
    try:
        want = evaluate(tree, env)
    except Exception:
        assume(False)
        return
    assume(cmath.isfinite(want))
    got = evaluate(parse_expression(format_expression(tree)), env)
    assert rel_err(got, want) < 1e-12


# Hand-built trees, some of which the parser cannot produce, with the text the
# recursive formatter gave them; the stack-based formatter must match it.
FORMATTED_TREES = [
    (BinOp("-", Var("a"), BinOp("-", Var("b"), Var("c"))), "a - (b - c)"),
    (BinOp("-", BinOp("-", Var("a"), Var("b")), Var("c")), "a - b - c"),
    (BinOp("^", BinOp("^", Var("x"), Var("y")), Var("z")), "(x^y)^z"),
    (BinOp("^", Var("x"), BinOp("^", Var("y"), Var("z"))), "x^y^z"),
    (BinOp("^", Neg(Var("x")), Const(2)), "(-x)^2"),
    (Neg(BinOp("^", Var("x"), Const(2))), "-(x^2)"),
    (Neg(Neg(Var("x"))), "--x"),
    (Neg(Const(-2)), "--2"),
    (Neg(BinOp("*", Var("x"), Var("y"))), "-(x*y)"),
    (BinOp("*", Const(-2), Var("x")), "-2*x"),
    (BinOp("/", Var("x"), BinOp("*", Var("y"), Var("z"))), "x/(y*z)"),
    (BinOp("/", BinOp("/", Var("x"), Var("y")), Var("z")), "x/y/z"),
    (BinOp("*", BinOp("+", Var("x"), Var("y")), BinOp("-", Var("x"), Var("y"))), "(x + y)*(x - y)"),
    (BinOp("^", Const(-1), Const(0.5)), "(-1)^0.5"),
    (BinOp("^", Var("x"), Neg(Var("y"))), "x^-y"),
    (BinOp("^", Var("x"), Const(-2)), "x^-2"),
    (BinOp("^", Call("exp", Var("x")), Const(1j)), "exp(x)^i"),
    (BinOp("+", Var("x"), Const(-3)), "x + -3"),
    (BinOp("-", Var("x"), Const(2 - 1j)), "x - (2 - i)"),
    (BinOp("*", Const(2j), Var("x")), "2*i*x"),
    (BinOp("*", Var("x"), Const(-1j)), "x*-i"),
    (BinOp("+", Const(1j), Const(-1j)), "i + -i"),
    (Call("exp", BinOp("+", Var("a"), Const(1 + 1j))), "exp(a + (1 + i))"),
    (Call("ln", Neg(Call("sqrt", Var("x")))), "ln(-sqrt(x))"),
    (Const(3 - 2j), "3 - 2*i"),
    (Const(-0.5 + 1j), "-0.5 + i"),
    (Const(2.5j), "2.5*i"),
    (Const(1e20), "1e+20"),
    (Const(-1e16), "-1e+16"),
    (Const(0.1), "0.1"),
    (Const(-0.0), "0"),
]


@pytest.mark.parametrize("tree, text", FORMATTED_TREES, ids=[t for _, t in FORMATTED_TREES])
def test_formatter_output_is_unchanged(tree, text):
    assert format_expression(tree) == text
    assert format_expression(substitute(tree, {})) == text


def test_non_finite_constants_format_without_error():
    assert format_expression(Const(float("inf"))) == "inf"
    assert format_expression(Const(complex(float("-inf"), 2))) == "-inf + 2*i"
    assert format_expression(Const(complex(float("nan"), float("nan")))) == "nan + nan*i"


def test_deep_sum_formats_and_substitutes_without_recursion():
    text = "+".join(["x0"] * 5000)
    tree = parse_expression(text)
    swapped = substitute(tree, {"x0": Var("u")})
    assert format_expression(swapped) == " + ".join(["u"] * 5000)
    deep = Const(1)
    for _ in range(5000):
        deep = Neg(Call("exp", deep))
    assert format_expression(deep) == "-exp(" * 5000 + "1" + ")" * 5000


def test_substitute_replaces_variables():
    e = parse_expression("x0 + 2*x1")
    swapped = substitute(e, {"x0": Var("u"), "x1": parse_expression("u + v")})
    assert swapped.free_variables() == {"u", "v"}
    assert evaluate(swapped, {"u": 1, "v": 2}) == 1 + 2 * 3


def test_str_formats_and_non_expressions_are_rejected():
    assert str(Var("x") + 1) == "x + 1"
    with pytest.raises(TypeError, match="cannot treat 'x' as an expression"):
        as_expression("x")
    with pytest.raises(TypeError, match="not an expression: 'x'"):
        substitute(Neg("x"), {})
    with pytest.raises(TypeError, match="not an expression: 'x'"):
        format_expression(Neg("x"))
