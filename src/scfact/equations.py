"""Difference equations, orbit iteration, and the equation document format.

An equation of order ``k+1`` prescribes ``x_{n+1}`` from the ``k+1`` most
recent states.  Four kinds are supported:

* ``General`` -- an arbitrary right-hand side over ``x0..xk`` and ``n``,
* ``Linear`` -- ``x_{n+1} + b_0 x_n + ... + b_k x_{n-k} = alpha_n``,
* ``SeparableAdditive`` -- ``x_{n+1} = alpha_n + phi_0(x_n) + ... + phi_k(x_{n-k})``,
* ``SeparableMultiplicative`` -- ``x_{n+1} = beta_n * psi_0(x_n) * ... * psi_k(x_{n-k})``,

each over one of four scalar groups (complex/real under addition, positive/
nonzero numbers under multiplication).

Variable convention: in a general right-hand side, ``x0`` stands for ``x_n``,
``x1`` for ``x_{n-1}``, ..., ``xk`` for ``x_{n-k}``; ``n`` is the time index.
Initial values, everywhere in this package, are given OLDEST FIRST:
``(x_{-k}, ..., x_{-1}, x_0)``.

Equations are immutable; orbit iteration is single-threaded per call and
concurrent iteration of the same equation is safe.

Orbits run in one compiled loop per equation (``_orbit_loop``), generated
on first use with the right-hand side's statements as its body.  The
cofactor rebuild of ``factorization.simulate_cascade`` and the first-order
stages of a linear equation's triangular cascade
(``TriangularSystem.simulate``) use the same loop, so every orbit of the
package runs through it.  It performs the operations of one
:meth:`DifferenceEquation.step` per index in the same order, so the values
are equal (``==``), at about 0.5 us per step of ``exp.eq``, where a loop
calling the lowered right-hand side took 1.1 us and a loop over ``step``
4.5 us (2-CPU sandbox, Python 3.11).
"""

from __future__ import annotations

import cmath
import re as _re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from math import exp as _math_exp
from operator import le, sub
from pathlib import Path
from random import Random
from typing import IO, Mapping, Optional, Sequence, Union

from .expressions import (
    Call,
    Const,
    DomainError,
    EvaluationError,
    Expression,
    NonFiniteLiteralError,
    ParseError,
    Var,
    _emit,
    as_expression,
    evaluate,
    format_expression,
    lower,
    parse_expression,
    substitute,
)

__all__ = [
    "GroupTag",
    "General",
    "Linear",
    "SeparableAdditive",
    "SeparableMultiplicative",
    "DifferenceEquation",
    "Orbit",
    "CarrierError",
    "DocumentError",
    "general_equation",
    "linear_equation",
    "separable_additive_equation",
    "separable_multiplicative_equation",
    "as_general",
    "as_separable_additive",
    "load_equation",
    "load_equation_file",
    "iterate_orbit",
    "detect_period",
    "write_orbit_csv",
    "render_equation",
]

_RESERVED_NAMES = {"n", "i", "x", "t"}
_LAG_NAME = _re.compile(r"^x\d+$")


class CarrierError(DomainError):
    """A value left the group's carrier during iteration."""


class GroupTag(Enum):
    """Abelian scalar group an equation lives on.

    The group operation, inverse, and identity are ``(+, negation, 0)`` for
    the additive tags and ``(*, reciprocal, 1)`` for the multiplicative ones.
    """

    ADDITIVE_COMPLEX = "additive"
    ADDITIVE_REAL = "additive_real"
    MULTIPLICATIVE_POSITIVE = "multiplicative"
    MULTIPLICATIVE_NONZERO = "multiplicative_nonzero"

    @property
    def is_additive(self) -> bool:
        return self in (GroupTag.ADDITIVE_COMPLEX, GroupTag.ADDITIVE_REAL)

    @property
    def identity(self) -> complex:
        return 0j if self.is_additive else 1 + 0j

    def combine(self, a: complex, b: complex) -> complex:
        return a + b if self.is_additive else a * b

    def contains(self, v: complex) -> bool:
        return _CONTAINS[self](complex(v))

    def sample(self, rng: Random) -> complex:
        """Random carrier element for verification draws: components uniform
        in [-5, 5] for additive groups, log-uniform in [e^-3, e^3] for
        multiplicative ones."""
        if self is GroupTag.ADDITIVE_COMPLEX:
            return complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if self is GroupTag.ADDITIVE_REAL:
            return complex(rng.uniform(-5, 5))
        return complex(_math_exp(rng.uniform(-3, 3)))


#: Carrier membership of a complex value ``{0}``, as source that generated
#: code inlines.
_IN_CARRIER = {
    GroupTag.ADDITIVE_COMPLEX: "True",
    GroupTag.ADDITIVE_REAL: "{0}.imag == 0",
    GroupTag.MULTIPLICATIVE_POSITIVE: "{0}.imag == 0 and {0}.real > 0",
    GroupTag.MULTIPLICATIVE_NONZERO: "{0} != 0",
}
_CONTAINS = {tag: eval(f"lambda v: {test.format('v')}") for tag, test in _IN_CARRIER.items()}


# ----------------------------------------------------------------------
# Equation kinds
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class General:
    rhs: Expression


@dataclass(frozen=True)
class Linear:
    coefficients: tuple[complex, ...]
    forcing: Expression


@dataclass(frozen=True)
class SeparableAdditive:
    components: tuple[Expression, ...]
    forcing: Expression


@dataclass(frozen=True)
class SeparableMultiplicative:
    components: tuple[Expression, ...]
    forcing: Expression


Kind = Union[General, Linear, SeparableAdditive, SeparableMultiplicative]


@dataclass(frozen=True)
class DifferenceEquation:
    """Order-(k+1) scalar recurrence of one of the four kinds.

    ``order`` equals k+1, the number of initial values.  ``params`` maps
    parameter names to complex scalars, bound as constants when the trees
    are lowered on first use.  ``var`` is the display letter used when
    rendering.

    A separable kind must combine by its group's operation.  The
    constructor checks the names each part uses: ``rhs`` the lags
    ``x0..xk`` and ``n``, each component ``phi{j}``/``psi{j}`` only ``x``,
    the ``forcing`` only ``n``, all of them also the parameters.  A
    :class:`ValueError` names the part by its document key and lists the
    allowed names; :func:`load_equation` reports it as a
    :class:`DocumentError` with the same text.  A parameter name must parse
    as itself and be neither reserved nor a lag.
    """

    order: int
    group: GroupTag
    kind: Kind
    params: Mapping[str, complex] = field(default_factory=dict)
    name: str = ""
    var: str = "x"

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be at least 1")
        object.__setattr__(
            self, "params", {k: complex(v) for k, v in dict(self.params).items()}
        )
        for pname in self.params:
            if pname in _RESERVED_NAMES or _LAG_NAME.match(pname):
                raise ValueError(f"parameter name '{pname}' is reserved")
            try:
                spelled = parse_expression(pname) == Var(pname)
            except ParseError:
                spelled = False
            if not spelled:
                raise ValueError(f"parameter name '{pname}' is not a name expressions can use")
        kind = self.kind
        if isinstance(kind, General):
            self._check_names("rhs", kind.rhs, {"n"} | {f"x{j}" for j in range(self.order)})
            return
        if isinstance(kind, Linear):
            coeffs = tuple(complex(c) for c in kind.coefficients)
            if len(coeffs) > self.order:
                raise ValueError("more coefficients than the order allows")
            coeffs = coeffs + (0j,) * (self.order - len(coeffs))
            object.__setattr__(self, "kind", Linear(coeffs, kind.forcing))
        elif isinstance(kind, (SeparableAdditive, SeparableMultiplicative)):
            if isinstance(kind, SeparableAdditive) != self.group.is_additive:
                sign = "+" if self.group.is_additive else "*"
                raise ValueError(f"kind {type(kind).__name__} does not combine by the "
                                 f"operation '{sign}' of group '{self.group.value}'")
            if len(kind.components) != self.order:
                raise ValueError(
                    f"expected {self.order} components, got {len(kind.components)}"
                )
            prefix = "phi" if isinstance(kind, SeparableAdditive) else "psi"
            for j, comp in enumerate(kind.components):
                self._check_names(f"{prefix}{j}", comp, {"x"})
        else:
            raise TypeError(f"unknown kind {kind!r}")
        self._check_names("forcing", kind.forcing, {"n"})

    def _check_names(self, key: str, expr: Expression, variables: set[str]):
        allowed = variables | set(self.params)
        bad = expr.free_variables() - allowed
        if bad:
            raise ValueError(
                f"key '{key}' uses free variable(s) {sorted(bad)}; allowed: {sorted(allowed)}"
            )

    # -- evaluation --------------------------------------------------
    # Each tree is lowered once, on first use (see ``expressions.lower``).

    @cached_property
    def _rhs(self):
        lags = tuple(f"x{j}" for j in range(self.order))
        return lower(_general_rhs(self, guarded=True), ("n",) + lags, self.params, self._guards)

    @cached_property
    def _run(self):
        """The orbit loop, compiled once (see ``_orbit_loop``), testing each
        value against the group's carrier."""
        tree = _general_rhs(self, guarded=True)
        return _orbit_loop(tree, self.order, self.params, self._guards, _IN_CARRIER[self.group])

    @property
    def _guards(self):
        """The carrier guard of each ``psi{j}`` call (see ``expressions._emit``)."""
        return {f"psi{j}": (_IN_CARRIER[self.group], _reject_component) for j in range(self.order)}

    @cached_property
    def _forcing(self):
        if isinstance(self.kind, General):
            raise TypeError("general equations have no separate forcing term")
        return lower(self.kind.forcing, ("n",), self.params)

    @cached_property
    def _components(self):
        """The separable components, each a function of ``x``."""
        return tuple(lower(comp, ("x",), self.params) for comp in self.kind.components)

    def forcing_at(self, n: int) -> complex:
        return self._forcing(complex(n))

    def step(self, history: Sequence[complex], n: int) -> complex:
        """Next value from ``history`` given NEWEST first:
        ``history[j] = x_{n-j}``, one value per lag."""
        return self._rhs(complex(n), *map(complex, history))


def _reject_component(v: complex, node: Call):
    raise CarrierError(f"component {node.func} produced {v!r}, outside the group carrier", node.arg)


def _orbit_loop(
    expr: Expression,
    lags: int,
    consts: Optional[Mapping[str, complex]] = None,
    funcs: Optional[Mapping[str, tuple]] = None,
    carrier: Optional[str] = None,
    driven: bool = False,
):
    """Compile, once, the loop that computes ``expr`` along an orbit.

    Returns ``run(init, feed) -> (values, truncated_at, reason)``.  The
    newest ``lags`` values of the oldest-first ``init`` start the window,
    which lives in local variables ``x0`` (newest) to ``x{lags-1}`` and
    rotates after each step.  Step ``n`` computes ``expr`` over ``n`` (as
    ``complex(n)``, only if ``expr`` reads it) and the window; a ``driven``
    loop runs once per value ``t`` of ``feed`` and ``expr`` reads ``t`` as
    well, otherwise ``feed`` is the number of steps.  The lines of
    ``expressions._emit``, with ``consts`` and ``funcs`` as there, form the
    loop body, so a step performs the operations of the lowered ``expr`` in
    the same order; like its arguments, ``init`` and ``feed`` are complex.
    ``carrier``, a test from ``_IN_CARRIER``, raises :class:`CarrierError`
    for a value outside it.  The first :class:`EvaluationError` ends the run
    with ``truncated_at = n + 1`` and its message as ``reason``.
    """
    window = [f"x{j}" for j in range(lags)]  # newest first
    slots = {"n": "cn", **({"t": "t"} if driven else {}), **{x: x for x in window}}
    body, v, namespace = _emit(expr, slots, consts, funcs)
    oldest_first = ", ".join(reversed(window))
    lines = ["def run(init, feed):", "    values = []", "    append = values.append"]
    if lags:
        lines.append(f"    [{oldest_first}] = init[-{lags}:]")
    lines += [
        "    try:",
        "        for n, t in enumerate(feed):" if driven else "        for n in range(feed):",
    ]
    if "n" in expr.free_variables():
        lines.append("            cn = complex(n)")
    lines += [f"            {line}" for line in body]
    if carrier is not None:
        lines.append(f"            if not ({carrier.format(v)}):")
        lines.append(f'                raise CarrierError(f"value {{{v}!r}} left the group carrier")')
    lines.append(f"            append({v})")
    if lags:
        lines.append(f"            {oldest_first} = {', '.join(window[-2::-1] + [v])}")
    lines += [
        "    except EvaluationError as exc:",
        "        return values, n + 1, str(exc)",
        "    return values, None, None",
    ]
    namespace.update(CarrierError=CarrierError, EvaluationError=EvaluationError)
    exec(compile("\n".join(lines) + "\n", "<orbit loop>", "exec"), namespace)
    return namespace["run"]


# ----------------------------------------------------------------------
# Convenience constructors (accept expression source text)
# ----------------------------------------------------------------------


def _expr(source) -> Expression:
    return parse_expression(source) if isinstance(source, str) else as_expression(source)


def general_equation(rhs, order, group=GroupTag.ADDITIVE_COMPLEX, params=None, name=""):
    return DifferenceEquation(order, group, General(_expr(rhs)), params or {}, name)


def linear_equation(coefficients, forcing="0", params=None, order=None, group=GroupTag.ADDITIVE_COMPLEX, name=""):
    coeffs = tuple(complex(c) for c in coefficients)
    if order is None:
        order = max(len(coeffs), 1)
    return DifferenceEquation(order, group, Linear(coeffs, _expr(forcing)), params or {}, name)


def separable_additive_equation(components, forcing="0", params=None, group=GroupTag.ADDITIVE_COMPLEX, name=""):
    comps = tuple(_expr(c) for c in components)
    return DifferenceEquation(len(comps), group, SeparableAdditive(comps, _expr(forcing)), params or {}, name)


def separable_multiplicative_equation(components, forcing="1", params=None, group=GroupTag.MULTIPLICATIVE_POSITIVE, name=""):
    comps = tuple(_expr(c) for c in components)
    return DifferenceEquation(len(comps), group, SeparableMultiplicative(comps, _expr(forcing)), params or {}, name)


# ----------------------------------------------------------------------
# Kind conversions
# ----------------------------------------------------------------------


def _general_rhs(eq: DifferenceEquation, guarded: bool = False) -> Expression:
    """The right-hand side over ``x0..xk``.  ``guarded`` wraps each
    multiplicative component in a call ``psi{j}(...)`` for the carrier guard."""
    kind = eq.kind
    if isinstance(kind, General):
        return kind.rhs
    rhs: Expression = kind.forcing
    if isinstance(kind, Linear):
        for j, b in enumerate(kind.coefficients):
            rhs = rhs - Const(b) * Var(f"x{j}")
        return rhs
    for j, comp in enumerate(kind.components):
        term = substitute(comp, {"x": Var(f"x{j}")})
        if isinstance(kind, SeparableAdditive):
            rhs = rhs + term
        else:
            rhs = rhs * (Call(f"psi{j}", term) if guarded else term)
    return rhs


def as_general(eq: DifferenceEquation) -> DifferenceEquation:
    """Rewrite any kind as a general right-hand side over ``x0..xk``."""
    if isinstance(eq.kind, General):
        return eq
    return DifferenceEquation(eq.order, eq.group, General(_general_rhs(eq)), eq.params, eq.name, eq.var)


def as_separable_additive(eq: DifferenceEquation) -> DifferenceEquation:
    """View a linear equation as separable-additive with components
    ``phi_j(x) = -b_j * x``."""
    if not isinstance(eq.kind, Linear):
        raise TypeError("only linear equations convert to separable-additive form")
    comps = tuple(Const(-b) * Var("x") for b in eq.kind.coefficients)
    return DifferenceEquation(eq.order, eq.group, SeparableAdditive(comps, eq.kind.forcing), eq.params, eq.name, eq.var)


# ----------------------------------------------------------------------
# Orbits
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Orbit:
    """A simulated trajectory.

    ``initial_values`` are ``(x_{-k}, ..., x_0)`` oldest first; ``values``
    are ``x_1, x_2, ...``.  When a domain error cut the run short,
    ``truncated_at`` records the time index of the first value that could
    not be computed.
    """

    initial_values: tuple[complex, ...]
    values: tuple[complex, ...]
    truncated_at: Optional[int] = None
    truncation_reason: Optional[str] = None

    @property
    def full_sequence(self) -> tuple[complex, ...]:
        return self.initial_values + self.values

    @property
    def order(self) -> int:
        return len(self.initial_values)


def iterate_orbit(eq: DifferenceEquation, init: Sequence[complex], steps: int) -> Orbit:
    """Iterate ``eq`` for ``steps`` steps from oldest-first initial values.

    Initial values outside the group's carrier raise :class:`ValueError`.
    Domain errors (division by zero, log of zero, a value leaving the
    carrier) truncate the orbit; the truncation index and reason are
    recorded on the returned :class:`Orbit` rather than raised.
    """
    init = tuple(complex(v) for v in init)
    if len(init) != eq.order:
        raise ValueError(f"expected {eq.order} initial values, got {len(init)}")
    for v in init:
        if not eq.group.contains(v):
            raise ValueError(f"initial value {v!r} is outside the group carrier")
    values, truncated_at, reason = eq._run(init, steps)
    return Orbit(init, tuple(values), truncated_at, reason)


def _smallest_period(seq: Sequence[complex], tol: float, max_period: int) -> Optional[int]:
    """The period of :func:`detect_period`, without its onset."""
    window = seq[-2 * max_period:] if len(seq) > 2 * max_period else seq
    bounds = [tol * (1 + abs(a)) for a in window]
    for p in range(1, min(max_period + 1, len(window))):
        if abs(window[p] - window[0]) <= bounds[0] and all(
            map(le, map(abs, map(sub, window[p:], window)), bounds)
        ):
            return p
    return None


def detect_period(
    orbit: Union[Orbit, Sequence[complex]], tol: float = 1e-5, max_period: int = 64
) -> Optional[tuple[int, int]]:
    """Smallest period ``p <= max_period`` of the orbit tail, if any.

    Checks ``|x_{n+p} - x_n| <= tol*(1+|x_n|)`` over the final
    ``2*max_period`` values; the contract presumes the orbit holds at least
    ``3*max_period`` values (shorter inputs are handled best-effort over
    whatever tail exists).  Returns ``(period, onset)`` where ``onset`` is
    the first position in the full stored sequence from which the relation
    holds through the end, or ``None`` when no period qualifies.
    """
    seq = list(orbit.full_sequence) if isinstance(orbit, Orbit) else [complex(v) for v in orbit]
    p = _smallest_period(seq, tol, max_period)
    if p is None:
        return None
    for j in range(len(seq) - p - 1, -1, -1):
        if not abs(seq[j + p] - seq[j]) <= tol * (1 + abs(seq[j])):
            return p, j + 1
    return p, 0


def write_orbit_csv(orbit: Orbit, stream: IO[str]) -> None:
    """Rows ``n,re,im`` starting at ``n = -k``."""
    stream.write("n,re,im\n")
    k = orbit.order - 1
    for idx, v in enumerate(orbit.full_sequence):
        stream.write(f"{idx - k},{v.real!r},{v.imag!r}\n")


# ----------------------------------------------------------------------
# Equation documents.  Line-based: sections in brackets, `key = value`,
# strings double-quoted, lists bracketed, `#` comments.
# ----------------------------------------------------------------------


class DocumentError(Exception):
    """Malformed equation document."""


_GROUPS = {tag.value: tag for tag in GroupTag}
_KINDS = ("general", "linear", "separable")


def _strip_comment(line: str) -> str:
    out = []
    quoted = False
    for ch in line:
        if ch == '"':
            quoted = not quoted
        if ch == "#" and not quoted:
            break
        out.append(ch)
    return "".join(out)


def _raw_sections(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in ("equation", "params"):
                raise DocumentError(f"line {lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise DocumentError(f"line {lineno}: expected 'key = value'")
        if current is None:
            raise DocumentError(f"line {lineno}: key outside any section")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise DocumentError(f"line {lineno}: expected 'key = value'")
        if key in sections[current]:
            raise DocumentError(f"line {lineno}: duplicate key '{key}'")
        sections[current][key] = value
    return sections


def _string_value(raw: str, key: str) -> str:
    if len(raw) >= 2 and raw[0] == '"' and raw[-1] == '"':
        return raw[1:-1]
    raise DocumentError(f"key '{key}' must be a double-quoted string")


def _constant_value(raw: str, key: str) -> complex:
    if len(raw) >= 2 and raw[0] == '"' and raw[-1] == '"':
        raw = raw[1:-1]
    try:
        expr = parse_expression(raw)
    except NonFiniteLiteralError as exc:
        raise DocumentError(f"key '{key}' must be finite, got {complex(exc.value)!r}") from None
    except Exception as exc:
        raise DocumentError(f"key '{key}': {exc}") from None
    if expr.free_variables():
        raise DocumentError(f"key '{key}' must be a constant")
    try:
        value = evaluate(expr, {})
    except EvaluationError as exc:
        raise DocumentError(f"key '{key}': {exc}") from None
    if not cmath.isfinite(value):
        raise DocumentError(f"key '{key}' must be finite, got {value!r}")
    return value


def _int_value(raw: str, key: str) -> int:
    v = _constant_value(raw, key)  # finite, so int() cannot overflow
    if v.imag != 0 or v.real != int(v.real):
        raise DocumentError(f"key '{key}' must be an integer")
    return int(v.real)


def _list_value(raw: str, key: str) -> list[complex]:
    if not (raw.startswith("[") and raw.endswith("]")):
        raise DocumentError(f"key '{key}' must be a bracketed list")
    inner = raw[1:-1].strip()
    # The expression grammar has no comma, so every comma separates items.
    # An item's error names it by its 0-based index, as in ``key 'b[1]'``.
    return [_constant_value(p.strip(), f"{key}[{i}]") for i, p in enumerate(inner.split(","))] if inner else []


def _expression_value(raw: str, key: str) -> Expression:
    text = _string_value(raw, key)
    try:
        return parse_expression(text)
    except Exception as exc:
        raise DocumentError(f"key '{key}': {exc}") from None


def load_equation(text: str, *, name: str = "") -> DifferenceEquation:
    """Parse an equation document into a :class:`DifferenceEquation`.

    The reader types each value; the names an expression may use are
    checked by the :class:`DifferenceEquation` constructor."""
    sections = _raw_sections(text)
    if "equation" not in sections:
        raise DocumentError("missing [equation] section")
    eqsec = dict(sections["equation"])
    params = {
        key: _constant_value(raw, key) for key, raw in sections.get("params", {}).items()
    }

    def take(key: str, required: bool = True) -> Optional[str]:
        if key in eqsec:
            return eqsec.pop(key)
        if required:
            raise DocumentError(f"missing key '{key}'")
        return None

    doc_name = take("name", required=False)
    if doc_name is not None:
        name = _string_value(doc_name, "name")
    order = _int_value(take("order"), "order")
    if order < 1:
        raise DocumentError("order must be at least 1")
    group_raw = _string_value(take("group"), "group")
    if group_raw not in _GROUPS:
        raise DocumentError(f"unknown group '{group_raw}'")
    group = _GROUPS[group_raw]
    kind_raw = _string_value(take("kind"), "kind")
    if kind_raw not in _KINDS:
        raise DocumentError(f"unknown kind '{kind_raw}'")

    kind: Kind
    if kind_raw == "general":
        kind = General(_expression_value(take("rhs"), "rhs"))
    elif kind_raw == "linear":
        b = _list_value(take("b"), "b")
        if len(b) != order:
            raise DocumentError(f"expected {order} coefficients in 'b', got {len(b)}")
        kind = Linear(tuple(b), _expression_value(take("forcing"), "forcing"))
    else:
        prefix = "phi" if group.is_additive else "psi"
        comps = [_expression_value(take(f"{prefix}{j}"), f"{prefix}{j}") for j in range(order)]
        forcing = _expression_value(take("forcing"), "forcing")
        if group.is_additive:
            kind = SeparableAdditive(tuple(comps), forcing)
        else:
            kind = SeparableMultiplicative(tuple(comps), forcing)

    if eqsec:
        raise DocumentError(f"unexpected key(s) in [equation]: {sorted(eqsec)}")
    try:
        return DifferenceEquation(order, group, kind, params, name)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def load_equation_file(path) -> DifferenceEquation:
    path = Path(path)
    return load_equation(path.read_text(encoding="utf-8-sig"), name=path.stem)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


def _lag_display(var: str, j: int) -> str:
    return f"{var}(n)" if j == 0 else f"{var}(n-{j})"


def render_equation(eq: DifferenceEquation) -> str:
    """One-line display such as ``x(n+1) = x(n-1)*exp(a - x(n) - x(n-1))``."""
    v = eq.var
    rhs = as_general(eq).kind.rhs
    mapping = {f"x{j}": Var(_lag_display(v, j)) for j in range(eq.order)}
    return f"{v}(n+1) = {format_expression(substitute(rhs, mapping))}"
