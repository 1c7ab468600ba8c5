"""Shared builders for the canonical example equations."""

from __future__ import annotations

import cmath
from fractions import Fraction
from pathlib import Path
from random import Random

from scfact import (
    GroupTag,
    Orbit,
    general_equation,
    linear_equation,
    separable_additive_equation,
    separable_multiplicative_equation,
)
from scfact.expressions import BinOp, Const, EvaluationError, Neg, Var

EQUATIONS_DIR = Path(__file__).resolve().parent.parent / "equations"

C_PLUS = (1 + 1j * cmath.sqrt(3).real) / 2
C_MINUS = (1 - 1j * cmath.sqrt(3).real) / 2


def rel_err(a: complex, b: complex) -> float:
    return abs(a - b) / (1 + abs(b))


def make_exp(a: float = 4.6):
    """x(n+1) = x(n-1)*exp(a - x(n) - x(n-1)) as a separable product."""
    return separable_multiplicative_equation(
        ["exp(-x)", "x*exp(-x)"], "exp(a)", params={"a": a}, name="exp"
    )


def make_hd0(a: float = 1.0):
    """t(n+1) = a*t(n)/t(n-1), general kind."""
    return general_equation(
        "a*x0/x1", 2, GroupTag.MULTIPLICATIVE_POSITIVE, params={"a": a}, name="hd0"
    )


def make_hd0_separable(a: float = 1.0):
    """t(n+1) = a*t(n)/t(n-1) written with components t and 1/t."""
    return separable_multiplicative_equation(
        ["x", "1/x"], "a", params={"a": a}, name="hd0-sep"
    )


def make_hd1m_separable(a: float = 1.0):
    """t(n+1) = a*t(n)^2/t(n-1) written with components t^2 and 1/t."""
    return separable_multiplicative_equation(
        ["x^2", "1/x"], "a", params={"a": a}, name="hd1m-sep"
    )


def make_hs3(a: float = 1.0):
    """x(n+1) = x(n) + a*(x(n)-x(n-1))/(x(n-1)-x(n-2))."""
    return general_equation(
        "x0 + a*(x0 - x1)/(x1 - x2)",
        3,
        GroupTag.ADDITIVE_REAL,
        params={"a": a},
        name="hs3",
    )


def make_2hd1(a: float = 1.0):
    """x(n+1) = x(n) + a*(x(n)-x(n-1))^2/(x(n-1)-x(n-2))."""
    return general_equation(
        "x0 + a*(x0 - x1)^2/(x1 - x2)",
        3,
        GroupTag.ADDITIVE_REAL,
        params={"a": a},
        name="2hd1",
    )


def make_rk(k: int = 2, a: float = 0.3, b: float = 0.4):
    """x(n+1) = x(n)*(a*x(n-k+1)/x(n-k) + b), order k+1, positive orbits."""
    rhs = f"x0*(a*x{k - 1}/x{k} + b)"
    return general_equation(
        rhs, k + 1, GroupTag.MULTIPLICATIVE_POSITIVE, params={"a": a, "b": b}, name="rk"
    )


def make_lin2(q: float, forcing: str = "0"):
    """x(n+1) + p*x(n) + q*x(n-1) = forcing with p = -1-q (eigenvalues 1, q)."""
    return linear_equation([-1 - q, q], forcing, name="lin2")


def make_linear_separable(coefficients, forcing: str = "0"):
    """The separable-additive view phi_j(x) = -b_j*x of a linear equation."""
    comps = [f"{-complex(b).real!r}*x" if complex(b).imag == 0 else None for b in coefficients]
    if any(c is None for c in comps):
        raise ValueError("real coefficients only in this helper")
    return separable_additive_equation(comps, forcing)


def hd0_cycle(t_m1: complex, t_0: complex, a: complex) -> list[complex]:
    """The six-value cycle [t(-1), t(0), a*t0/t-1, a^2/t-1, a^2/t0, a*t-1/t0]."""
    return [t_m1, t_0, a * t_0 / t_m1, a**2 / t_m1, a**2 / t_0, a * t_m1 / t_0]


def draw_hs3_init(rng: Random) -> tuple[float, float, float]:
    """Initial values with ascending states and increments in [0.5, 2.5]
    (keeps the increment orbit positive and the complex-exponent route on
    the principal branch)."""
    x_m2 = rng.uniform(0.0, 2.0)
    x_m1 = x_m2 + rng.uniform(0.5, 2.5)
    x_0 = x_m1 + rng.uniform(0.5, 2.5)
    return (x_m2, x_m1, x_0)


def reference_cascade(system, init, steps):
    """``TriangularSystem.simulate`` written as a plain Python loop: one
    forcing call per step, then each stage in turn.  The compiled stages
    must give the same orbit and rows, bit for bit."""
    z = list(system.stage_initial_values(init))
    rows = [[v] for v in z]
    values: list[complex] = []
    truncated_at = None
    reason = None
    k = system.order - 1
    for n in range(steps):
        try:
            feed = system.source.forcing_at(n)
        except EvaluationError as exc:
            truncated_at, reason = n + 1, str(exc)
            break
        for i in range(k + 1):
            feed = feed + system.eigenvalues[i] * z[i]
            z[i] = feed
            rows[i].append(feed)
        values.append(z[k])
    return (
        Orbit(tuple(complex(v) for v in init), tuple(values), truncated_at, reason),
        tuple(tuple(row) for row in rows),
    )


def exact_eval(expr, env):
    """Value of ``expr`` in exact rational arithmetic, independent of
    ``expressions.lower``.  ``env`` maps every free name to a ``Fraction``.
    Supports real constants, ``+ - * /``, unary minus and ``^`` with an
    integer exponent; anything else raises ``ValueError``."""
    if isinstance(expr, Const):
        if expr.value.imag:
            raise ValueError(f"complex constant {expr.value!r}")
        return Fraction(expr.value.real)
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, Neg):
        return -exact_eval(expr.operand, env)
    if isinstance(expr, BinOp):
        a, b = exact_eval(expr.left, env), exact_eval(expr.right, env)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        if expr.op == "/":
            return a / b
        if expr.op == "^" and b.denominator == 1:
            return a ** b.numerator
    raise ValueError(f"no exact rational value for {expr!r}")
