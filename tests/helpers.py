"""Shared builders for the canonical example equations."""

from __future__ import annotations

import cmath
from collections.abc import Callable
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
from scfact.equations import CarrierError, _IN_CARRIER
from scfact.expressions import (
    BinOp,
    Const,
    DomainError,
    EvaluationError,
    Neg,
    UnboundVariableError,
    Var,
    _fold,
    lower,
)
from scfact.symmetry import Inversion, UnaryComponents

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


# ----------------------------------------------------------------------
# The helper-calling lowering and the loop around a lowered step that the
# fused orbit loops replaced, kept as the reference of a differential test:
# ``reference_lower`` calls one helper per function, division and power,
# folds nothing, and takes guards as helpers ``guard(value, node)``.
# ----------------------------------------------------------------------


def _checked(name: str, fn):
    def apply(v, node):
        try:
            return fn(complex(v))
        except OverflowError:
            raise DomainError(f"overflow in {name}", node) from None

    return apply


def _reference_ln(v, node):
    v = complex(v)
    if v == 0:
        raise DomainError("logarithm of zero", node)
    return cmath.log(v)


_REFERENCE_CALLS = {
    name: _checked(name, fn)
    for name, fn in (("exp", cmath.exp), ("sqrt", cmath.sqrt), ("sin", cmath.sin), ("cos", cmath.cos),
                     ("abs", lambda v: complex(abs(v))), ("re", lambda v: complex(v.real)),
                     ("im", lambda v: complex(v.imag)), ("conj", complex.conjugate))
}
_REFERENCE_CALLS["ln"] = _reference_ln


def _reference_div(a, b, node):
    if b == 0:
        raise DomainError("division by zero", node)
    return a / b


def _reference_power(w, c, node):
    w = complex(w)
    c = complex(c)
    if w == 0:
        if c.real > 0:
            return 0j
        raise DomainError("zero base raised to exponent with non-positive real part", node)
    try:
        return w**c
    except (OverflowError, ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"power failed ({exc})", node) from None


_REFERENCE_OPERATORS = {
    "+": "{0} + {1}",
    "-": "{0} - {1}",
    "*": "{0} * {1}",
    "/": "_div({0}, {1}, {2})",
    "^": "_power({0}, {1}, {2})",
}


def reference_lower(expr, args, consts=None, funcs=None) -> Callable[..., complex]:
    consts = consts or {}
    calls = {**_REFERENCE_CALLS, **(funcs or {})}
    namespace: dict = {"_div": _reference_div, "_power": _reference_power}
    slots = {name: f"a{j}" for j, name in enumerate(args)}

    def bind(value) -> str:
        name = f"k{len(namespace)}"
        namespace[name] = value
        return name

    lines: list[str] = []

    def emit(node, parts: list) -> str:
        if isinstance(node, Const):
            return bind(node.value)
        if isinstance(node, Var):
            if node.name not in slots:
                if node.name not in consts:
                    raise UnboundVariableError(f"unbound variable '{node.name}'", node)
                slots[node.name] = bind(consts[node.name])
            return slots[node.name]
        if isinstance(node, Neg):
            code = f"-{parts[0]}"
        elif isinstance(node, BinOp):
            code = _REFERENCE_OPERATORS[node.op].format(*parts, bind(node))
        else:
            code = f"{bind(calls[node.func])}({parts[0]}, {bind(node)})"
        temp = f"t{len(lines)}"
        lines.append(f"    {temp} = {code}\n")
        return temp

    result = _fold(expr, emit)
    params = ", ".join(f"a{j}" for j in range(len(args)))
    source = f"def lowered({params}):\n{''.join(lines)}    return {result}\n"
    exec(compile(source, "<reference lowered expression>", "exec"), namespace)
    return namespace["lowered"]


def reference_guards(group: GroupTag, order: int) -> dict:
    """The ``psi{j}`` carrier guards as ``reference_lower`` helpers."""
    test = _IN_CARRIER[group].format("v")

    def reject(v, node):
        raise CarrierError(f"component {node.func} produced {v!r}, outside the group carrier", node.arg)

    guard = eval(f"lambda v, node: v if {test} else reject(v, node)", {"reject": reject})
    return {f"psi{j}": guard for j in range(order)}


def reference_orbit_loop(step, lags: int, carrier=None, driven: bool = False):
    """``run(init, feed) -> (values, truncated_at, reason)`` calling the
    lowered ``step(complex(n), [t,] x0, ...)`` once per step."""
    window = [f"x{j}" for j in range(lags)]
    oldest_first = ", ".join(reversed(window))
    args = ", ".join(["complex(n)"] + (["t"] if driven else []) + window)
    lines = ["def run(init, feed):", "    values = []", "    append = values.append"]
    if lags:
        lines.append(f"    [{oldest_first}] = init[-{lags}:]")
    lines += [
        "    try:",
        "        for n, t in enumerate(feed):" if driven else "        for n in range(feed):",
        f"            v = step({args})",
    ]
    if carrier is not None:
        lines.append(f"            if not ({carrier.format('v')}):")
        lines.append('                raise CarrierError(f"value {v!r} left the group carrier")')
    lines.append("            append(v)")
    if lags:
        lines.append(f"            {oldest_first} = {', '.join(window[-2::-1] + ['v'])}")
    lines += [
        "    except EvaluationError as exc:",
        "        return values, n + 1, str(exc)",
        "    return values, None, None",
    ]
    namespace = {"step": step, "CarrierError": CarrierError, "EvaluationError": EvaluationError}
    exec(compile("\n".join(lines) + "\n", "<reference orbit loop>", "exec"), namespace)
    return namespace["run"]


def reference_form_symmetry(symmetry):
    """The evaluator of H that the compiled outputs replaced, as a function
    of a NEWEST-first point: the lowered ``h``'s combined in Python, one
    branch per shape, with the group inverse ``-a`` or ``1/a`` (zero raises
    :class:`CarrierError`).  ``evaluate_form_symmetry`` must give the same
    values, bit for bit, and raise on the same points."""
    additive = symmetry.group.is_additive
    shape = symmetry.shape

    def combine(a, b):
        return a + b if additive else a * b

    def invert(a):
        if additive:
            return -a
        if a == 0:
            raise CarrierError("cannot invert zero in a multiplicative group")
        return 1 / a

    if isinstance(shape, Inversion):
        return lambda point: tuple(
            combine(point[j - 1], invert(point[j])) for j in range(1, symmetry.m + 1)
        )
    if isinstance(shape, UnaryComponents):
        maps = [lower(h, ("x",), symmetry.params) for h in shape.components]

        def unary(point):
            acc = point[0]
            for j, h in enumerate(maps, start=1):
                acc = combine(acc, h(point[j]))
            return (acc,)

        return unary
    h = lower(shape.h, tuple(f"x{idx}" for idx in range(shape.arity)), symmetry.params)
    return lambda point: tuple(
        combine(point[j - 1], h(*point[j:j + shape.arity])) for j in range(1, symmetry.m + 1)
    )
