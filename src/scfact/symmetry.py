"""Form symmetries: HD1 detection and reduction-constant solving.

Two constructive families are covered.  An equation that is homogeneous of
degree 1 (HD1) relative to its group,

    f(u_0*t, ..., u_k*t) = f(u_0, ..., u_k) * t    for all carrier t,

carries the inversion symmetry ``H_j(u) = u_{j-1} * u_j^{-1}`` and reduces by
one order.  A separable equation reduces to a first-order factor whenever a
constant ``c`` satisfies, for all carrier points,

    additive:        c^{k+1} z = c^k phi_0(z) + ... + phi_k(z)
    multiplicative:  psi_0(t)^{c^k} psi_1(t)^{c^{k-1}} ... psi_k(t) = t^{c^{k+1}}

(the multiplicative identity is checked in log domain, which is equivalent
for ``t > 0`` and avoids overflow and branch ambiguity).  For linear
equations the constants are exactly the eigenvalues, obtained analytically
from the characteristic polynomial.  For other separable equations the
identity at each probe point is a polynomial of degree k+1 in ``c``; the
constants are the common roots, found as the roots of one probe polynomial
refined by Gauss-Newton iteration over all probes.

HD1 is detected by randomized sampling with recorded witnesses, not proof:
there is no decision procedure for arbitrary expressions.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import cached_property
from math import exp
from random import Random
from typing import Mapping, Optional, Sequence, Union

from .equations import (
    DifferenceEquation,
    General,
    GroupTag,
    Linear,
    SeparableAdditive,
    SeparableMultiplicative,
)
from .expressions import (
    Const,
    EvaluationError,
    Expression,
    Var,
    lower,
)
from .polynomials import (
    Polynomial,
    RootEntry,
    RootFindingError,
    characteristic_polynomial,
    find_roots,
)

__all__ = [
    "Inversion",
    "UnaryComponents",
    "GeneralMap",
    "FormSymmetry",
    "HD1Report",
    "ReductionConstant",
    "ReductionConstantSet",
    "ProbeSet",
    "SymmetryError",
    "ConstantValidationError",
    "check_hd1",
    "solve_reduction_constant",
    "build_additive_form_symmetry",
    "build_multiplicative_form_symmetry",
    "evaluate_form_symmetry",
    "probe_set",
    "additive_reduction_residual",
    "multiplicative_reduction_residual",
]

_PROBE_SEED = 0x5EED
_PROBE_COUNT = 32


class SymmetryError(Exception):
    pass


class ConstantValidationError(SymmetryError):
    def __init__(self, value: complex, residual: float, tol: float):
        self.value = value
        self.residual = residual
        super().__init__(
            f"constant {value!r} fails the reduction identity: "
            f"residual {residual:.3e} exceeds {tol:.3e}"
        )


# ----------------------------------------------------------------------
# Form symmetry shapes
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Inversion:
    """h(t) = t^{-1}; components ``H_j(u) = u_{j-1} * u_j^{-1}`` (type (k,1))."""


@dataclass(frozen=True)
class UnaryComponents:
    """h_1..h_k, each unary in ``x``; ``H(u) = u_0 * h_1(u_1) * ... * h_k(u_k)``
    (type (1,k))."""

    components: tuple[Expression, ...]


@dataclass(frozen=True)
class GeneralMap:
    """User-supplied ``h`` over ``x0..x{arity-1}``; components
    ``H_j(u) = u_{j-1} * h(u_j, ..., u_{j+arity-1})`` (type (m, k+1-m))."""

    h: Expression
    arity: int


Shape = Union[Inversion, UnaryComponents, GeneralMap]


@dataclass(frozen=True)
class FormSymmetry:
    """Order-reducing map H from (k+1)-tuples of states to m-tuples."""

    m: int
    group: GroupTag
    shape: Shape
    constant: Optional[complex] = None
    params: Mapping[str, complex] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params", dict(self.params))
        if isinstance(self.shape, UnaryComponents) and self.m != 1:
            raise ValueError("unary-component symmetries have m = 1")
        if self.m < 1:
            raise ValueError("m must be at least 1")

    @cached_property
    def _maps(self) -> tuple:
        """The shape's expressions, each lowered once: ``h_j(x)`` for unary
        components, ``h(x0, ..., x{arity-1})`` for a general map."""
        if isinstance(self.shape, UnaryComponents):
            return tuple(lower(h, ("x",), self.params) for h in self.shape.components)
        if isinstance(self.shape, GeneralMap):
            args = tuple(f"x{idx}" for idx in range(self.shape.arity))
            return (lower(self.shape.h, args, self.params),)
        return ()

    @property
    def input_arity(self) -> int:
        """Number of states H consumes (= k+1 of the source equation)."""
        if isinstance(self.shape, Inversion):
            return self.m + 1
        if isinstance(self.shape, UnaryComponents):
            return len(self.shape.components) + 1
        return self.m + self.shape.arity


def evaluate_form_symmetry(
    symmetry: FormSymmetry, point: Sequence[complex]
) -> tuple[complex, ...]:
    """Apply H to a state given NEWEST first: ``point[j] = u_j``.

    Returns the m outputs ``(H_1(u), ..., H_m(u))``.
    """
    point = [complex(v) for v in point]
    if len(point) != symmetry.input_arity:
        raise ValueError(
            f"expected {symmetry.input_arity} inputs, got {len(point)}"
        )
    group = symmetry.group
    shape = symmetry.shape
    if isinstance(shape, Inversion):
        return tuple(
            group.combine(point[j - 1], group.invert(point[j]))
            for j in range(1, symmetry.m + 1)
        )
    if isinstance(shape, UnaryComponents):
        acc = point[0]
        for j, h in enumerate(symmetry._maps, start=1):
            acc = group.combine(acc, h(point[j]))
        return (acc,)
    (h,) = symmetry._maps
    return tuple(
        group.combine(point[j - 1], h(*point[j:j + shape.arity]))
        for j in range(1, symmetry.m + 1)
    )


# ----------------------------------------------------------------------
# HD1 detection
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HD1Witness:
    point: tuple[complex, ...]
    scale: complex
    time_index: int
    residual: float


@dataclass(frozen=True)
class HD1Report:
    verdict: bool
    samples: int
    max_residual: float
    witness: Optional[HD1Witness] = None


def check_hd1(
    eq: DifferenceEquation,
    samples: int = 500,
    tol: float = 1e-9,
    seed: int = 0,
) -> HD1Report:
    """Randomized test of homogeneity of degree 1 relative to ``eq.group``.

    Draws ``samples`` random states and group elements (and a random time
    index, since the property must hold at every ``n``) and compares
    ``f(u_0*t, ..., u_k*t)`` against ``f(u)*t`` with relative tolerance
    ``tol``.  Sample points hitting domain errors are resampled, up to ten
    times the requested budget.
    """
    if isinstance(eq.kind, Linear):
        raise TypeError(
            "HD1 sampling applies to general/separable kinds; "
            "linear equations reduce through their eigenvalues"
        )
    group = eq.group
    rng = Random(seed)
    tested = 0
    attempts = 0
    budget = samples * 10
    max_residual = 0.0
    witness: Optional[HD1Witness] = None
    while tested < samples:
        if attempts >= budget:
            raise SymmetryError(
                f"domain errors exhausted the sampling budget ({budget} draws)"
            )
        attempts += 1
        state = [group.sample(rng) for _ in range(eq.order)]
        shift = group.sample(rng)
        n = rng.randrange(0, 11)
        try:
            base = eq.step(state, n)
            moved = eq.step([group.combine(u, shift) for u in state], n)
        except EvaluationError:
            continue
        expected = group.combine(base, shift)
        residual = abs(moved - expected) / (1 + abs(expected))
        tested += 1
        if residual > max_residual:
            max_residual = residual
            if residual > tol and witness is None:
                witness = HD1Witness(tuple(state), shift, n, residual)
    return HD1Report(max_residual <= tol, tested, max_residual, witness)


# ----------------------------------------------------------------------
# Reduction constants
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ReductionConstant:
    value: complex
    multiplicity: int
    residual: float


@dataclass(frozen=True)
class ReductionConstantSet:
    """Constants satisfying the reduction identity, ordered by (re, im).

    ``analytic`` is set when they came from the characteristic polynomial
    rather than numeric search."""

    constants: tuple[ReductionConstant, ...]
    analytic: bool

    def expanded(self) -> tuple[complex, ...]:
        out: list[complex] = []
        for c in self.constants:
            out.extend([c.value] * c.multiplicity)
        return tuple(out)

    def __len__(self) -> int:
        return len(self.constants)


@dataclass(frozen=True)
class ProbeSet:
    """Probe points of a separable equation and, per point, the residual
    polynomial of the reduction identity in ``c`` (ascending).

    Additive, per complex z: ``[-phi_k(z), ..., -phi_0(z), z]``.
    Multiplicative, log domain, per t > 0: ``[ln psi_k(t), ..., ln psi_0(t), -ln t]``.
    """

    points: tuple[complex, ...]
    polys: tuple[Polynomial, ...]


def probe_set(eq: DifferenceEquation) -> ProbeSet:
    """The equation's probe set, built on first use and kept on ``eq``."""
    probes = eq.__dict__.get("_probe_set")
    if probes is None:
        probes = _build_probe_set(eq)
        object.__setattr__(eq, "_probe_set", probes)
    return probes


def _build_probe_set(eq: DifferenceEquation, count: int = _PROBE_COUNT) -> ProbeSet:
    kind = eq.kind
    if not isinstance(kind, (SeparableAdditive, SeparableMultiplicative)):
        raise TypeError("reduction residuals require a separable equation")
    additive = isinstance(kind, SeparableAdditive)
    rng = Random(_PROBE_SEED)
    points: list[complex] = []
    polys: list[Polynomial] = []
    attempts = 0
    while len(polys) < count and attempts < count * 10:
        attempts += 1
        if additive:
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if abs(z) < 0.1:
                continue
        else:
            z = complex(exp(rng.uniform(-3, 3)))
        try:
            values = [comp(z) for comp in eq._components]
        except EvaluationError:
            continue
        if additive:
            coeffs = [-v for v in reversed(values)] + [z]
            if not all(cmath.isfinite(c) for c in coeffs):
                continue
        else:
            if any(v == 0 or not cmath.isfinite(v) for v in values):
                continue
            coeffs = [cmath.log(v) for v in reversed(values)] + [-cmath.log(z)]
            if max(abs(c) for c in coeffs) < 1e-9:
                continue  # degenerate point (t too close to a common fixed value)
        points.append(z)
        polys.append(Polynomial(coeffs))
    if len(polys) < count:
        raise SymmetryError("could not assemble probe points for the components")
    return ProbeSet(tuple(points), tuple(polys))


def _max_residual(polys: Sequence[Polynomial], c: complex) -> float:
    return max(abs(p(c)) for p in polys)


def additive_reduction_residual(eq: DifferenceEquation, c: complex) -> float:
    """Max over the probe points of ``|c^{k+1} z - sum c^{k-j} phi_j(z)|``."""
    if not isinstance(eq.kind, SeparableAdditive):
        raise TypeError("additive residuals require a separable-additive equation")
    return _max_residual(probe_set(eq).polys, complex(c))


def multiplicative_reduction_residual(eq: DifferenceEquation, c: complex) -> float:
    """Max over probe points t > 0 of the log-domain identity residual
    ``|sum c^{k-j} ln psi_j(t) - c^{k+1} ln t|``."""
    if not isinstance(eq.kind, SeparableMultiplicative):
        raise TypeError("multiplicative residuals require a separable-multiplicative equation")
    return _max_residual(probe_set(eq).polys, complex(c))


def _gauss_newton(polys, derivs, c: complex, iterations: int = 80) -> complex:
    for _ in range(iterations):
        num = 0j
        den = 0.0
        for p, dp in zip(polys, derivs):
            r = p(c)
            g = dp(c)
            num += g.conjugate() * r
            den += abs(g) ** 2
        if den == 0:
            break
        delta = -num / den
        c = c + delta
        if abs(delta) <= 1e-15 * (1 + abs(c)):
            break
    return c


def solve_reduction_constant(
    eq: DifferenceEquation, tol: float = 1e-8
) -> ReductionConstantSet:
    """All constants ``c`` satisfying the reduction identity for ``eq``.

    Linear equations: exactly the roots of the characteristic polynomial
    (``analytic`` result).  Separable kinds: at each probe point the
    identity is a polynomial in ``c``, and the constants are the common
    roots of these polynomials.  The roots of the probe polynomial with the
    largest leading coefficient (the next one if root finding fails) are
    the starts; each is refined by Gauss-Newton iteration over all probes
    and kept if its max residual is at most ``tol``.  A start of
    multiplicity m (as :func:`find_roots` certifies it) is refined on the
    (m-1)th derivatives of all probes, where it is a simple root, and keeps
    that multiplicity.  Every common root is a root of that polynomial, so
    the result is complete whenever its root finding converges.  Duplicates
    within 1e-6 merge.  An empty result is a value, not an error.
    """
    if isinstance(eq.kind, Linear):
        roots = find_roots(characteristic_polynomial(eq))
        entries = sorted(
            roots.entries, key=lambda e: (e.value.real, e.value.imag)
        )
        return ReductionConstantSet(
            tuple(ReductionConstant(e.value, e.multiplicity, e.residual) for e in entries),
            analytic=True,
        )
    if isinstance(eq.kind, General):
        raise TypeError("reduction constants require a linear or separable equation")
    polys = probe_set(eq).polys
    starts: Sequence[RootEntry] = ()
    for p in sorted(polys, key=lambda q: -abs(q.coefficients[-1])):
        if p.degree == 0:
            continue
        try:
            starts = find_roots(p).entries
        except RootFindingError:
            continue
        break

    # derivatives[i] holds the i-th derivatives of the probe polynomials.  A
    # common root of multiplicity m is a simple root of the (m-1)th ones.
    derivatives = [polys]
    found: list[tuple[complex, int, float]] = []
    for start in starts:
        m = start.multiplicity
        while len(derivatives) <= m:
            derivatives.append([p.derivative() for p in derivatives[-1]])
        c = _gauss_newton(derivatives[m - 1], derivatives[m], start.value)
        if not cmath.isfinite(c):
            continue
        residual = _max_residual(polys, c)
        if residual <= tol:
            found.append((c, m, residual))

    merged: list[tuple[complex, int, float]] = []
    for c, m, residual in sorted(found, key=lambda item: item[2]):
        if all(abs(c - existing) > 1e-6 * (1 + abs(existing)) for existing, _, _ in merged):
            merged.append((c, m, residual))

    constants = [ReductionConstant(c, m, residual) for c, m, residual in merged]
    constants.sort(key=lambda rc: (rc.value.real, rc.value.imag))
    return ReductionConstantSet(tuple(constants), analytic=False)


# ----------------------------------------------------------------------
# Symmetry construction for the separable classes
# ----------------------------------------------------------------------


def _validated(eq: DifferenceEquation, c: complex, validate: bool, tol: float, residual_fn) -> complex:
    c = complex(c)
    if validate:
        residual = residual_fn(eq, c)
        if residual > tol:
            raise ConstantValidationError(c, residual, tol)
    return c


def build_additive_form_symmetry(
    eq: DifferenceEquation, c: complex, validate: bool = True, tol: float = 1e-8
) -> FormSymmetry:
    """Components ``h_j(z) = c^j z - c^{j-1} phi_0(z) - ... - phi_{j-1}(z)``
    for j = 1..k, assembled as expression trees."""
    if not isinstance(eq.kind, SeparableAdditive):
        raise TypeError("additive symmetry construction requires a separable-additive equation")
    c = _validated(eq, c, validate, tol, additive_reduction_residual)
    phis = eq.kind.components
    k = eq.order - 1
    components = []
    for j in range(1, k + 1):
        expr: Expression = Const(c**j) * Var("x")
        for idx in range(j):
            expr = expr - Const(c ** (j - 1 - idx)) * phis[idx]
        components.append(expr)
    return FormSymmetry(1, eq.group, UnaryComponents(tuple(components)), c, eq.params)


def build_multiplicative_form_symmetry(
    eq: DifferenceEquation, c: complex, validate: bool = True, tol: float = 1e-8
) -> FormSymmetry:
    """Components ``h_j(t) = t^{c^j} psi_0(t)^{-c^{j-1}} ... psi_{j-1}(t)^{-1}``
    for j = 1..k (every earlier-component factor carries an inverse power)."""
    if not isinstance(eq.kind, SeparableMultiplicative):
        raise TypeError(
            "multiplicative symmetry construction requires a separable-multiplicative equation"
        )
    c = _validated(eq, c, validate, tol, multiplicative_reduction_residual)
    psis = eq.kind.components
    k = eq.order - 1
    components = []
    for j in range(1, k + 1):
        expr: Expression = Var("x") ** Const(c**j)
        for idx in range(j):
            expr = expr * (psis[idx] ** Const(-(c ** (j - 1 - idx))))
        components.append(expr)
    return FormSymmetry(1, eq.group, UnaryComponents(tuple(components)), c, eq.params)
