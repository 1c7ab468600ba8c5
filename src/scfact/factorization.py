"""Semiconjugate factorizations: construction, simulation, verification.

A factorization splits an order-(k+1) equation into a factor equation of
order m in the reduced variable and a cofactor of order k+1-m that rebuilds
the original variable, linked by the form symmetry H through the
semiconjugacy identity ``H o F_n = Phi_n o H`` (F_n, Phi_n the unfoldings of
the source and factor equations).  Solving the factor first and feeding its
values through the cofactor reproduces every solution of the source, which
is what :func:`verify_equivalence` checks numerically; the identity itself
is checked pointwise by :func:`verify_semiconjugacy`.

Linear equations factor completely: peeling one eigenvalue per level yields
a triangular system of k+1 first-order stages whose coefficients are the
characteristic roots.  The per-level cofactor coefficients are computed by
synthetic deflation, which reproduces the one-step coefficient recursion
exactly and keeps a single code path for every level.

Complex intermediates (factor orbits with complex reduction constants) are
kept complex; callers asserting a real orbit should check the reconstructed
imaginary parts, as the verification report does.
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate
from math import exp
from random import Random
from typing import Optional, Sequence, Union

from .equations import (
    CarrierError,
    DifferenceEquation,
    General,
    GroupTag,
    Linear,
    Orbit,
    SeparableAdditive,
    _lag_display,
    _orbit_loop,
    as_general,
    as_separable_additive,
    iterate_orbit,
    render_equation,
)
from .expressions import (
    Const,
    EvaluationError,
    Expression,
    Var,
    format_complex,
    format_expression,
    lower,
    substitute,
)
from .polynomials import (
    Polynomial,
    characteristic_polynomial,
    deflate,
    find_roots,
)
from .symmetry import (
    FormSymmetry,
    Inversion,
    ReductionConstantSet,
    UnaryComponents,
    _draws,
    build_additive_form_symmetry,
    build_multiplicative_form_symmetry,
    check_hd1,
    evaluate_form_symmetry,
    probe_set,
    solve_reduction_constant,
)

__all__ = [
    "ScFactorization",
    "TriangularSystem",
    "FactorizationError",
    "NoFormSymmetryError",
    "SemiconjugacyReport",
    "EquivalenceReport",
    "TrialSummary",
    "make_factorization",
    "factorize",
    "as_sc_factorization",
    "factor_hd1",
    "factor_separable_additive",
    "factor_separable_multiplicative",
    "factor_linear_full",
    "simulate_factorization",
    "simulate_cascade",
    "verify_semiconjugacy",
    "verify_equivalence",
    "verify_trials",
    "render_factorization",
    "render_triangular_system",
]


class FactorizationError(Exception):
    pass


class NoFormSymmetryError(FactorizationError):
    """No recipe here constructs a form symmetry of the equation."""


@dataclass(frozen=True)
class ScFactorization:
    """Factor equation (order m), cofactor rule, and the symmetry linking
    them to the source.

    The cofactor is an expression over ``t`` (the just-computed factor value
    ``t_{n+1}``) and the lags ``x0..x{k-m}`` of the original variable; the
    factor's initial values are the symmetry applied to the source's initial
    state.
    """

    source: DifferenceEquation
    symmetry: FormSymmetry
    factor: DifferenceEquation
    cofactor: Expression

    @property
    def m(self) -> int:
        return self.factor.order

    @cached_property
    def _cofactor(self):
        """The cofactor lowered once, a function of ``(n, t, x0, ..., x{k-m})``."""
        lags = tuple(f"x{j}" for j in range(self.cofactor_order))
        return lower(self.cofactor, ("n", "t") + lags, self.source.params)

    @cached_property
    def _rebuild(self):
        """The cofactor loop, compiled once: ``run(init, t_values)`` rebuilds
        the source values from the factor orbit's (see ``_orbit_loop``)."""
        return _orbit_loop(self.cofactor, self.cofactor_order, self.source.params, driven=True)

    @property
    def cofactor_order(self) -> int:
        return self.source.order - self.factor.order

    def factor_initial_values(self, init: Sequence[complex]) -> tuple[complex, ...]:
        """Initial values for the factor equation, oldest first, from the
        source's oldest-first initial values.  A domain error of H, or a
        value outside the factor's carrier, raises :class:`EvaluationError`."""
        outputs = evaluate_form_symmetry(self.symmetry, init[::-1])[::-1]
        for v in outputs:
            if not self.factor.group.contains(v):
                raise CarrierError(f"factor initial value {v!r} is outside the group carrier")
        return outputs


def _check_shapes(eq: DifferenceEquation, symmetry: FormSymmetry, factor: DifferenceEquation):
    if symmetry.input_arity != eq.order:
        raise ValueError(
            f"symmetry consumes {symmetry.input_arity} states, equation holds {eq.order}"
        )
    if factor.order != symmetry.m:
        raise ValueError("factor order must equal the symmetry's output count")
    if symmetry.group.is_additive != eq.group.is_additive:
        raise ValueError(f"symmetry group '{symmetry.group.value}' and equation group "
                         f"'{eq.group.value}' have different operations")


def make_factorization(
    eq: DifferenceEquation, symmetry: FormSymmetry, factor: DifferenceEquation
) -> ScFactorization:
    """Assemble the cofactor rule for any symmetry shape.

    The cofactor realizes ``x_{n+1} = t_{n+1} * h(x_n, ..., x_{n-k+m})^{-1}``
    in the group's notation (difference for additive groups, quotient for
    multiplicative ones).
    """
    _check_shapes(eq, symmetry, factor)
    additive = eq.group.is_additive
    t = Var("t")
    shape = symmetry.shape
    if isinstance(shape, Inversion):
        cofactor = t + Var("x0") if additive else t * Var("x0")
    elif isinstance(shape, UnaryComponents):
        terms = [substitute(comp, {"x": Var(f"x{j}")}) for j, comp in enumerate(shape.components)]
        if additive:
            cofactor = reduce(operator.sub, terms, t)
        else:
            cofactor = t / reduce(operator.mul, terms) if terms else t
    else:
        cofactor = t - shape.h if additive else t / shape.h
    return ScFactorization(eq, symmetry, factor, cofactor)


# ----------------------------------------------------------------------
# Constructions
# ----------------------------------------------------------------------


def factor_hd1(eq: DifferenceEquation, seed: int = 0) -> ScFactorization:
    """Type-(k,1) reduction of an HD1 equation by substitution.

    In the right-hand side, the current state becomes the group identity and
    each lag ``x_{n-i}`` becomes the inverse of the running product
    ``t_n * ... * t_{n-i+1}`` of reduced variables; the cofactor is the
    one-step link ``x_{n+1} = t_{n+1} * x_n``.  The caller is responsible
    for the HD1 property itself (see ``check_hd1``); the substituted factor
    is still validated on random carrier samples.
    """
    if isinstance(eq.kind, Linear):
        raise TypeError("linear equations factor through factor_linear_full")
    if eq.order < 2:
        raise ValueError("an order-1 equation has nothing to reduce")
    src = as_general(eq)
    k = eq.order - 1
    group = eq.group
    mapping: dict[str, Expression] = {"x0": Const(group.identity)}
    running = accumulate((Var(f"x{i}") for i in range(k)), group.combine)
    for i, product in enumerate(running, 1):
        mapping[f"x{i}"] = -product if group.is_additive else Const(1) / product
    factor_rhs = substitute(src.kind.rhs, mapping)
    factor = DifferenceEquation(k, group, General(factor_rhs), eq.params, eq.name, var="t")

    def draw(rng: Random) -> complex:
        return factor.step([group.sample(rng) for _ in range(k)], rng.randrange(0, 11))

    error = FactorizationError("substituted factor hits domain errors on most validation samples")
    _draws(Random(seed), 8, 32, draw, error)

    symmetry = FormSymmetry(k, group, Inversion(), params=eq.params)
    return make_factorization(eq, symmetry, factor)


def factor_separable_additive(
    eq: DifferenceEquation, c: complex, validate: bool = True, tol: float = 1e-8
) -> ScFactorization:
    """Type-(1,k) reduction of a separable-additive equation.

    Factor ``z_{n+1} = alpha_n + c z_n``; cofactor
    ``x_{n+1} = z_{n+1} - h_1(x_n) - ... - h_k(x_{n-k+1})``; the reduced
    variable starts at ``z_0 = x_0 + sum_j h_j(x_{-j})``.  ``z`` is complex
    when ``c`` is, even for a real source, so the factor's group is always
    the complex additive one.
    """
    symmetry = build_additive_form_symmetry(eq, c, validate=validate, tol=tol)
    c = symmetry.constant
    factor = DifferenceEquation(
        1, GroupTag.ADDITIVE_COMPLEX, Linear((-c,), eq.kind.forcing), eq.params, eq.name, var="z"
    )
    return make_factorization(eq, symmetry, factor)


def factor_separable_multiplicative(
    eq: DifferenceEquation, c: complex, validate: bool = True, tol: float = 1e-8
) -> ScFactorization:
    """Type-(1,k) reduction of a separable-multiplicative equation.

    Factor ``r_{n+1} = beta_n * r_n^c``; cofactor
    ``y_{n+1} = r_{n+1} / (h_1(y_n) ... h_k(y_{n-k+1}))``; the reduced
    variable starts at ``r_0 = y_0 h_1(y_{-1}) ... h_k(y_{-k})``.  A complex
    ``c`` makes the factor orbit complex, so the factor is tagged with the
    nonzero multiplicative group rather than the positive one.
    """
    symmetry = build_multiplicative_form_symmetry(eq, c, validate=validate, tol=tol)
    c = symmetry.constant
    for t in probe_set(eq).points:
        for j, h in enumerate(symmetry._maps):
            value = h(t)
            if value == 0 or not cmath.isfinite(value):
                raise FactorizationError(
                    f"component h_{j + 1} leaves the carrier at t = {t.real:.4g}"
                )
    factor_group = eq.group if c.imag == 0 else GroupTag.MULTIPLICATIVE_NONZERO
    factor_rhs = eq.kind.forcing * (Var("x0") ** Const(c))
    factor = DifferenceEquation(
        1, factor_group, General(factor_rhs), eq.params, eq.name, var="r"
    )
    return make_factorization(eq, symmetry, factor)


@dataclass(frozen=True)
class TriangularSystem:
    """Complete cascade of first-order stages for a linear equation.

    Stage i obeys ``z_{i,n+1} = input_i(n) + c_i * z_{i,n}`` where the input
    of stage 0 is the forcing and every later stage consumes the stage above
    it; the last stage carries the solution itself.  ``levels[i]`` holds the
    coefficients of the order-(k-i) cofactor equation left after peeling
    ``c_0..c_i`` (so the last level is empty), which is exactly what the
    stage-i initial value transform needs.
    """

    source: DifferenceEquation
    eigenvalues: tuple[complex, ...]
    levels: tuple[tuple[complex, ...], ...]
    residuals: tuple[float, ...]

    @property
    def order(self) -> int:
        return self.source.order

    def characteristic(self) -> Polynomial:
        return characteristic_polynomial(self.source)

    def reconstructed_polynomial(self) -> Polynomial:
        return Polynomial.from_roots(self.eigenvalues)

    def stage_initial_values(self, init: Sequence[complex]) -> tuple[complex, ...]:
        init = [complex(v) for v in init]
        if len(init) != self.order:
            raise ValueError(f"expected {self.order} initial values")
        x0 = init[-1]
        out = []
        for level in self.levels:
            z = x0
            for j, beta in enumerate(level, start=1):
                z += beta * init[-1 - j]
            out.append(z)
        return tuple(out)

    @cached_property
    def _stages(self):
        """The stages compiled once by ``_orbit_loop``: stage 0 runs
        ``alpha(n) + c_0*z`` for a number of steps, and each later stage is
        driven by the values of the stage above, ``t + c_i*z``."""
        src = self.source
        head, *rest = (Const(c) * Var("x0") for c in self.eigenvalues)
        first = _orbit_loop(src.kind.forcing + head, 1, src.params)
        return (first,) + tuple(_orbit_loop(Var("t") + term, 1, driven=True) for term in rest)

    def simulate(
        self, init: Sequence[complex], steps: int
    ) -> tuple[Orbit, tuple[tuple[complex, ...], ...]]:
        """Run the cascade; returns the reconstructed orbit and every
        stage's value row (stage 0 is the innermost factor).  A forcing
        error truncates every stage at the same index."""
        z = self.stage_initial_values(init)
        head, *rest = self._stages
        values, truncated_at, reason = head(z[:1], steps)
        rows = [z[:1] + tuple(values)]
        for run, start in zip(rest, z[1:]):
            values = run((start,), values)[0]
            rows.append((start,) + tuple(values))
        orbit = Orbit(tuple(complex(v) for v in init), rows[-1][1:], truncated_at, reason)
        return orbit, tuple(rows)


def factor_linear_full(
    eq: DifferenceEquation, root_order: Optional[Sequence[complex]] = None
) -> TriangularSystem:
    """Full triangular factorization of a linear equation.

    Eigenvalues are the characteristic roots ordered by descending magnitude
    (ties by ascending argument) unless ``root_order`` overrides the peel
    order; any order produces an equivalent cascade.  Each level's
    coefficients come from synthetic deflation by ``(z - c)``.
    """
    if not isinstance(eq.kind, Linear):
        raise TypeError("full triangular factorization requires a linear equation")
    poly = characteristic_polynomial(eq)
    if root_order is None:
        roots = find_roots(poly).expanded()
    else:
        roots = tuple(complex(c) for c in root_order)
        if len(roots) != poly.degree:
            raise ValueError(f"expected {poly.degree} eigenvalues, got {len(roots)}")
    levels = []
    residuals = []
    current = poly
    for c in roots:
        residuals.append(abs(current(c)))
        current = deflate(current, c)
        descending = tuple(reversed(current.coefficients))
        levels.append(descending[1:])
    return TriangularSystem(eq, tuple(roots), tuple(levels), tuple(residuals))


def factorize(
    eq: DifferenceEquation, constant: Optional[complex] = None, tol: float = 1e-8, seed: int = 0, validate: bool = True
) -> tuple[Union[ScFactorization, TriangularSystem], Optional[ReductionConstantSet]]:
    """Factor ``eq`` by the recipe of its kind: completely if linear
    (``constant`` is ignored), by substitution if ``check_hd1`` finds it HD1
    on 500 samples, and by ``constant`` (default: its first reduction
    constant) if separable.  Returns the factorization and, for the separable
    kinds, every reduction constant found.  Raises :class:`NoFormSymmetryError`
    when the equation has no form symmetry."""
    kind = eq.kind
    if isinstance(kind, Linear):
        return factor_linear_full(eq), None
    if isinstance(kind, General):
        report = check_hd1(eq, samples=500, tol=1e-9, seed=seed)
        if not report.verdict:
            raise NoFormSymmetryError(
                "no form symmetry found "
                f"(HD1 check failed with max residual {report.max_residual:.3e})"
            )
        return factor_hd1(eq, seed=seed), None
    constants = solve_reduction_constant(eq, tol=tol)
    if constant is None:
        if not constants.constants:
            raise NoFormSymmetryError("no form symmetry found")
        constant = constants.constants[0].value
    build = factor_separable_additive if isinstance(kind, SeparableAdditive) else factor_separable_multiplicative
    return build(eq, constant, validate=validate, tol=tol), constants


def as_sc_factorization(fact: Union[ScFactorization, TriangularSystem]) -> ScFactorization:
    """``fact`` itself, or for a triangular system its first level as a
    form-symmetry factorization: the type-(1,k) reduction of the equation in
    separable-additive form by ``eigenvalues[0]``, which needs an additive
    group."""
    if isinstance(fact, TriangularSystem):
        if not fact.source.group.is_additive:
            raise FactorizationError(f"a linear equation on group '{fact.source.group.value}' "
                                     "has no separable-additive form symmetry")
        return factor_separable_additive(as_separable_additive(fact.source), fact.eigenvalues[0])
    return fact


# ----------------------------------------------------------------------
# Simulation through a factorization
# ----------------------------------------------------------------------


def simulate_factorization(
    fact: ScFactorization, init: Sequence[complex], steps: int
) -> tuple[Orbit, Orbit]:
    """Run the factor equation from the transformed initial values, then
    rebuild the source orbit through the cofactor.  Returns both orbits."""
    x_orbit, (factor_orbit,) = simulate_cascade((fact,), init, steps)
    return x_orbit, factor_orbit


def simulate_cascade(
    stages: Sequence[ScFactorization], init: Sequence[complex], steps: int
) -> tuple[Orbit, tuple[Orbit, ...]]:
    """Simulate nested factorizations: ``stages[i+1]`` factors the reduced
    variable of ``stages[i]``.  Returns the reconstructed source orbit and
    the reduced-variable orbits from outermost to innermost."""
    stages = list(stages)
    if not stages:
        raise ValueError("need at least one factorization stage")
    for outer, inner in zip(stages, stages[1:]):
        if inner.source.order != outer.factor.order:
            raise ValueError("cascade stages do not chain: order mismatch")
    head = stages[0]
    t_init = head.factor_initial_values(init)
    if len(stages) == 1:
        t_orbit = iterate_orbit(head.factor, t_init, steps)
        deeper: tuple[Orbit, ...] = ()
    else:
        t_orbit, deeper = simulate_cascade(stages[1:], t_init, steps)
    # Rebuild x through the cofactor; a truncated factor orbit truncates x.
    init = tuple(complex(v) for v in init)
    values, truncated_at, reason = head._rebuild(init, t_orbit.values)
    if truncated_at is None:
        truncated_at, reason = t_orbit.truncated_at, t_orbit.truncation_reason
    x_orbit = Orbit(init, tuple(values), truncated_at, reason)
    return x_orbit, (t_orbit,) + deeper


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SemiconjugacyReport:
    passed: bool
    samples: int
    max_residual: float
    witness: Optional[tuple[tuple[complex, ...], int, float]] = None


@dataclass(frozen=True)
class EquivalenceReport:
    passed: bool
    steps: int
    max_residual: float
    failure_index: Optional[int] = None
    note: str = ""
    #: Largest relative imaginary part seen on the reconstructed orbit;
    #: a factorization with complex intermediates reports a real orbit only
    #: when this stays at rounding scale.
    max_reconstructed_imag: float = 0.0


def verify_semiconjugacy(
    eq: DifferenceEquation,
    symmetry: FormSymmetry,
    factor: DifferenceEquation,
    samples: int = 200,
    tol: float = 1e-9,
    seed: int = 0,
) -> SemiconjugacyReport:
    """Pointwise check of ``H o F_n = Phi_n o H`` on random carrier states.

    ``F_n`` is the unfolding of ``eq`` and ``Phi_n`` that of ``factor``;
    both sides are compared componentwise with relative tolerance ``tol``
    at random time indices.  Domain errors are resampled within a 10x
    budget.  Works for user-supplied symmetries of any type (m, k+1-m).
    """
    _check_shapes(eq, symmetry, factor)
    group = eq.group

    def draw(rng: Random) -> tuple:
        state = [group.sample(rng) for _ in range(eq.order)]
        n = rng.randrange(0, 11)
        advanced = [eq.step(state, n)] + state[:-1]
        image = evaluate_form_symmetry(symmetry, state)
        lhs = evaluate_form_symmetry(symmetry, advanced)
        rhs = (factor.step(list(image), n),) + tuple(image[:-1])
        return tuple(state), n, max(abs(a - b) / (1 + abs(b)) for a, b in zip(lhs, rhs))

    budget = samples * 10
    error = FactorizationError(f"domain errors exhausted the sampling budget ({budget} draws)")
    tested = _draws(Random(seed), samples, budget, draw, error)
    max_residual = max([0.0, *(t[-1] for t in tested)])
    witness = next((t for t in tested if t[-1] > tol), None)
    return SemiconjugacyReport(max_residual <= tol, len(tested), max_residual, witness)


Factorization = Union[ScFactorization, TriangularSystem, Sequence[ScFactorization]]


def _simulate_any(fact: Factorization, init, steps) -> Orbit:
    if isinstance(fact, TriangularSystem):
        return fact.simulate(init, steps)[0]
    if isinstance(fact, ScFactorization):
        return simulate_factorization(fact, init, steps)[0]
    return simulate_cascade(tuple(fact), init, steps)[0]


def verify_equivalence(
    eq: DifferenceEquation,
    fact: Factorization,
    init: Sequence[complex],
    steps: int,
    tol: float = 1e-6,
) -> EquivalenceReport:
    """Compare direct iteration of ``eq`` against the factorization route
    (factor orbit from transformed initial values, then cofactor
    reconstruction) over ``steps`` steps at relative tolerance ``tol``.  A
    route whose ``factor_initial_values`` raises fails at ``n = 0``."""
    direct = iterate_orbit(eq, init, steps)
    try:
        via = _simulate_any(fact, init, steps)
    except EvaluationError as exc:  # no factor orbit starts
        via = Orbit(tuple(init), (), 0, str(exc))
    if direct.truncated_at is not None or via.truncated_at is not None:
        idx = min(
            v for v in (direct.truncated_at, via.truncated_at) if v is not None
        )
        first, which = (direct, "direct path") if direct.truncated_at == idx else (via, "factorization path")
        return EquivalenceReport(
            False, steps, float("inf"), idx, note=f"domain error on the {which}: {first.truncation_reason}"
        )
    max_residual = 0.0
    max_imag = 0.0
    failure = None
    for n, (a, b) in enumerate(zip(via.values, direct.values), start=1):
        residual = abs(a - b) / (1 + abs(b))
        if residual > max_residual:
            max_residual = residual
        if failure is None and residual > tol:
            failure = n
        imag_scale = abs(a.imag) / (1 + abs(a.real))
        if imag_scale > max_imag:
            max_imag = imag_scale
    return EquivalenceReport(
        max_residual <= tol, steps, max_residual, failure, max_reconstructed_imag=max_imag
    )


@dataclass(frozen=True)
class TrialSummary:
    """What :func:`verify_trials` found.  ``complex_route``: the reduction
    constant is complex; ``real_reconstruction``: every trial rebuilt a real
    orbit (imaginary parts at most 1e-8 relative)."""

    trials: int
    failures: int
    max_residual: float
    complex_route: bool
    real_reconstruction: bool


def verify_trials(
    eq: DifferenceEquation, fact: Union[ScFactorization, TriangularSystem],
    trials: int = 20, steps: int = 100, seed: int = 0, tol: float = 1e-9,
) -> TrialSummary:
    """Run :func:`verify_equivalence` from ``trials`` initial states drawn
    from ``Random(seed)``, at relative tolerance ``max(tol, 1e-9)``.  A trial
    that fails for any reason (a domain error on either path, or a residual
    over the tolerance) is redrawn, up to 10 draws in all; its last draw
    counts."""
    tol = max(tol, 1e-9)
    c = fact.eigenvalues[0] if isinstance(fact, TriangularSystem) else fact.symmetry.constant
    complex_route = c is not None and c.imag != 0
    # A complex reduction constant realizes complex powers on the principal
    # branch, which is faithful only while the reduced variable's logarithm
    # stays inside (-pi, pi); narrower draws keep the whole orbit there.
    narrow = complex_route and not eq.group.is_additive
    rng = Random(seed)
    worst = 0.0
    failures = 0
    real_reconstruction = True
    for _ in range(trials):
        for _attempt in range(10):
            if narrow:
                init = tuple(complex(exp(rng.uniform(-1.5, 1.5))) for _ in range(eq.order))
            else:
                init = tuple(eq.group.sample(rng) for _ in range(eq.order))
            report = verify_equivalence(eq, fact, init, steps, tol=tol)
            if report.failure_index is None:
                break
        worst = max(worst, report.max_residual)
        if not report.passed:
            failures += 1
        if report.max_reconstructed_imag > 1e-8:
            real_reconstruction = False
    return TrialSummary(trials, failures, worst, complex_route, real_reconstruction)


# ----------------------------------------------------------------------
# Text reports
# ----------------------------------------------------------------------


def _symmetry_lines(fact: ScFactorization) -> list[str]:
    sym = fact.symmetry
    src = fact.source
    k1 = src.order
    op = " + " if src.group.is_additive else "*"
    lines = []
    if isinstance(sym.shape, Inversion):
        if src.group.is_additive:
            parts = [f"u{j - 1} - u{j}" for j in range(1, sym.m + 1)]
        else:
            parts = [f"u{j - 1}/u{j}" for j in range(1, sym.m + 1)]
        args = ", ".join(f"u{j}" for j in range(k1))
        lines.append(f"form symmetry: H({args}) = [{', '.join(parts)}]")
    elif isinstance(sym.shape, UnaryComponents):
        args = ", ".join(f"u{j}" for j in range(k1))
        terms = op.join(["u0"] + [f"h{j}(u{j})" for j in range(1, k1)])
        lines.append(f"form symmetry: H({args}) = {terms}")
        for j, comp in enumerate(sym.shape.components, start=1):
            lines.append(f"  h{j}(x) = {format_expression(comp)}")
    else:
        lines.append(f"form symmetry: components u(j-1){op}h with h = {format_expression(sym.shape.h)}")
    if sym.constant is not None:
        lines.append(f"reduction constant: c = {format_complex(sym.constant)}")
    return lines


def render_factorization(fact: ScFactorization, constant_residual: Optional[float] = None) -> str:
    src = fact.source
    fvar = fact.factor.var
    lines = [
        f"equation: {render_equation(src)}",
        f"reduction type: ({fact.m}, {fact.cofactor_order}) of order {src.order}",
    ]
    lines.extend(_symmetry_lines(fact))
    if constant_residual is not None:
        lines.append(f"constant residual: {constant_residual:.3e}")
    lines.append(f"factor: {render_equation(fact.factor)}")
    mapping = {"t": Var(f"{fvar}(n+1)")}
    for j in range(fact.cofactor_order):
        mapping[f"x{j}"] = Var(_lag_display(src.var, j))
    lines.append(
        f"cofactor: {src.var}(n+1) = {format_expression(substitute(fact.cofactor, mapping))}"
    )
    return "\n".join(lines)


def render_triangular_system(system: TriangularSystem) -> str:
    src = system.source
    poly = system.characteristic()
    terms = []
    for power in range(poly.degree, -1, -1):
        coeff = poly.coefficients[power]
        if coeff == 0:
            continue
        piece = format_complex(coeff) if power == 0 else (
            f"z^{power}" if power > 1 else "z"
        )
        if power > 0 and coeff != 1:
            piece = f"({format_complex(coeff)})*{piece}"
        terms.append(piece)
    lines = [
        f"equation: {render_equation(src)}",
        f"characteristic polynomial: {' + '.join(terms)}",
        "eigenvalues: "
        + ", ".join(
            f"{format_complex(c)} (residual {r:.2e})"
            for c, r in zip(system.eigenvalues, system.residuals)
        ),
    ]
    k = system.order - 1
    for i, c in enumerate(system.eigenvalues):
        feed = "alpha(n)" if i == 0 else f"z{i - 1}(n+1)"
        zname = f"z{i}" if i < k else src.var
        prev = f"z{i}" if i < k else src.var
        lines.append(f"stage {i}: {zname}(n+1) = {feed} + ({format_complex(c)})*{prev}(n)")
    for i, level in enumerate(system.levels[:-1]):
        rendered = ", ".join(format_complex(b) for b in level)
        lines.append(f"level {i + 1} cofactor coefficients: [{rendered}]")
    return "\n".join(lines)
