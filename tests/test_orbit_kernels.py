"""Fused orbit loops against the helper-calling lowering they replaced.

``equations._orbit_loop`` splices the expression's statements into the loop
body, writes the function, division and guard checks inline and folds
subtrees that read no argument.  ``tests/helpers.py`` keeps the former
lowering and step loop; both must give the same values (equal ``repr``,
which is ``==`` that also matches the signs of zeros and ``nan``), the same
truncation index and reason, and the same errors down to the node.
"""

import math
from random import Random

import pytest

from scfact import (
    GroupTag,
    as_sc_factorization,
    factorize,
    general_equation,
    iterate_orbit,
    load_equation_file,
    separable_multiplicative_equation,
)
from scfact.equations import _IN_CARRIER, _general_rhs, _orbit_loop
from scfact.expressions import DomainError, _emit, lower, parse_expression

from helpers import (
    EQUATIONS_DIR,
    make_exp,
    reference_guards,
    reference_lower,
    reference_orbit_loop,
)

SAMPLES = sorted(EQUATIONS_DIR.glob("*.eq"))
FACTORIZABLE = [p for p in SAMPLES if p.stem not in ("hd0", "nonred")]


def _args(eq):
    return ("n",) + tuple(f"x{j}" for j in range(eq.order))


def reference_run(eq):
    """The orbit loop of ``eq`` as it ran before fusion."""
    tree = _general_rhs(eq, guarded=True)
    step = reference_lower(tree, _args(eq), eq.params, reference_guards(eq.group, eq.order))
    return reference_orbit_loop(step, eq.order, _IN_CARRIER[eq.group])


def _draw(eq, rng):
    return tuple(eq.group.sample(rng) for _ in range(eq.order))


def same(a, b) -> bool:
    """Equal runs, value by value: ``repr`` tells the signs of zeros apart
    and makes ``nan`` equal to itself."""
    return repr(a) == repr(b)


@pytest.mark.parametrize("path", SAMPLES, ids=lambda p: p.stem)
def test_fused_orbit_matches_the_reference_loop(path):
    eq = load_equation_file(path)
    reference = reference_run(eq)
    rng = Random(path.stem)
    for _ in range(4):
        init = _draw(eq, rng)
        assert same(eq._run(init, 150), reference(init, 150))


@pytest.mark.parametrize("path", FACTORIZABLE, ids=lambda p: p.stem)
def test_fused_cofactor_rebuild_matches_the_reference_loop(path):
    eq = load_equation_file(path)
    fact = as_sc_factorization(factorize(eq)[0])
    lags = tuple(f"x{j}" for j in range(fact.cofactor_order))
    step = reference_lower(fact.cofactor, ("n", "t") + lags, eq.params)
    reference = reference_orbit_loop(step, fact.cofactor_order, driven=True)
    rng = Random(path.stem)
    for _ in range(3):
        init = _draw(eq, rng)
        t_values = iterate_orbit(fact.factor, fact.factor_initial_values(init), 60).values
        assert same(fact._rebuild(init, t_values), reference(init, t_values))


# (equation, oldest-first initial values, truncation index, reason)
ERROR_DOCUMENTS = {
    "ln(0)": (general_equation("x0 + ln(x0 - 1)", 1), (1,), 1, "logarithm of zero in 'ln(x0 - 1)'"),
    "division by zero": (general_equation("x0/(n - 2)", 1), (1,), 3, "division by zero in 'x0/(n - 2)'"),
    "exp overflow": (general_equation("exp(x0)", 1), (2,), 3, "overflow in exp in 'exp(x0)'"),
    "abs overflow": (general_equation("abs(x0)", 1), (1.5e308 + 1.5e308j,), 1, "overflow in abs in 'abs(x0)'"),
    "psi guard": (
        separable_multiplicative_equation(["x", "x - 2"], "1"), (1, 3), 1,
        "component psi1 produced (-1+0j), outside the group carrier in 'x1 - 2'",
    ),
    "final carrier test": (
        general_equation("x0 - 2", 1, GroupTag.MULTIPLICATIVE_POSITIVE), (3,), 2,
        "value (-1+0j) left the group carrier",
    ),
    "additive_real leaves the reals": (
        general_equation("sqrt(x0)", 1, GroupTag.ADDITIVE_REAL), (-1,), 1, "value 1j left the group carrier",
    ),
    "zero base under ^": (
        general_equation("(x0 - 1)^(-1)", 1), (1,), 1,
        "zero base raised to exponent with non-positive real part in '(x0 - 1)^-1'",
    ),
    "folded ln(0)": (general_equation("x0 + ln(0)", 1), (1,), 1, "logarithm of zero in 'ln(0)'"),
    "folded exp(a) overflow": (make_exp(a=1000), (1, 2), 1, "overflow in exp in 'exp(a)'"),
}


@pytest.mark.parametrize("case", ERROR_DOCUMENTS)
def test_error_paths_match_the_reference(case):
    eq, init, truncated_at, reason = ERROR_DOCUMENTS[case]
    init = tuple(complex(v) for v in init)
    want = reference_run(eq)(init, 6)
    assert want[1:] == (truncated_at, reason)
    assert same(eq._run(init, 6), want)
    orbit = iterate_orbit(eq, init, 6)
    assert same((list(orbit.values), orbit.truncated_at, orbit.truncation_reason), want)

    # ``step`` at the failing state: the same error, naming the same node.
    n = truncated_at - 1
    window = ((init + tuple(want[0]))[n:n + eq.order])[::-1]
    tree = _general_rhs(eq, guarded=True)
    fused = lower(tree, _args(eq), eq.params, eq._guards)
    reference = reference_lower(tree, _args(eq), eq.params, reference_guards(eq.group, eq.order))
    try:
        expected = reference(complex(n), *window)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            fused(complex(n), *window)
        assert str(got.value) == str(exc)
        assert got.value.node is exc.node
        with pytest.raises(type(exc)) as got:
            eq.step(window, n)
        assert str(got.value) == reason
    else:  # the loop's own carrier test fails, not the step
        assert fused(complex(n), *window) == expected == eq.step(window, n)


def test_exp_eq_computes_exp_a_once_per_orbit():
    eq = load_equation_file(EQUATIONS_DIR / "exp.eq")
    slots = {"n": "cn", "x0": "x0", "x1": "x1"}
    lines, _, _ = _emit(_general_rhs(eq, guarded=True), slots, eq.params, eq._guards)
    assert sum(line.count("_exp(") for line in lines) == 2  # exp(-x0) and exp(-x1)
    # exp(a) overflows at a = 1000, so it stays in the loop and truncates the orbit.
    eq = make_exp(a=1000)
    lines, _, _ = _emit(_general_rhs(eq, guarded=True), slots, eq.params, eq._guards)
    assert sum(line.count("_exp(") for line in lines) == 3


def test_loop_computes_complex_n_only_when_the_tree_reads_n():
    run = _orbit_loop(parse_expression("x0 + 1"), 1)
    assert run((0j,), 3) == ([1, 2, 3], None, None)
    assert "complex" not in run.__code__.co_names
    run = _orbit_loop(parse_expression("x0 + n"), 1)
    assert run((0j,), 3) == ([0, 1, 3], None, None)
    assert "complex" in run.__code__.co_names


def _same_bits(a: complex, b: complex) -> bool:
    def part(x: float, y: float) -> bool:
        if math.isnan(x):
            return math.isnan(y)
        return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)

    return part(a.real, b.real) and part(a.imag, b.imag)


@pytest.mark.parametrize("text", ["sqrt(-1)", "sqrt(-0)", "ln(-1)", "ln(-2)", "(-1)^0.5", "(-4)^(-0.5)", "(-0)^2"])
def test_folding_keeps_signed_zeros(text):
    """A negated literal folds to ``-(1+0j) = -1-0j``, exactly as the unfolded
    code computes it, so folding moves no value across a branch cut."""
    tree = parse_expression(text)
    assert _emit(tree, {})[0] == []  # folded to a constant
    assert _same_bits(lower(tree, ())(), reference_lower(tree, ())())
    # The same subtree folded inside a tree that reads an argument.
    tree = parse_expression(f"{text}*x")
    assert _same_bits(lower(tree, ("x",))(1 + 0j), reference_lower(tree, ("x",))(1 + 0j))


@pytest.mark.parametrize("text", ["x*exp(2*500)", "x*(exp(1000) + 1)", "x*(1 + exp(exp(7)))"])
def test_a_constant_node_that_raises_keeps_its_error(text):
    """Inside each tree's constant subtree an inner node folds and an outer
    one overflows at lowering: the call raises the unfolded code's error,
    naming the same node."""
    tree = parse_expression(text)
    with pytest.raises(DomainError) as want:
        reference_lower(tree, ("x",))(1 + 0j)
    assert str(want.value).startswith("overflow in exp in ")
    with pytest.raises(DomainError) as got:
        lower(tree, ("x",))(1 + 0j)
    assert str(got.value) == str(want.value)
    assert got.value.node is want.value.node


def test_each_constant_node_folds_as_it_is_emitted():
    """``exp(7)`` folds although the node above it, ``exp(exp(7))``,
    overflows and keeps its lines."""
    lines, _, _ = _emit(parse_expression("x*(1 + exp(exp(7)))"), {"x": "x"})
    assert sum(line.count("_exp(") for line in lines) == 1
