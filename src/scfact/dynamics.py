"""Fixed points, stability, initial-value bifurcation sweeps, orbit loci.

The sweep machinery follows the sampling protocol of discarding a transient
and keeping the orbit tail: for every grid value of the swept initial
coordinate the orbit runs ``transient + keep`` steps, the final ``keep``
values are retained, and a period is detected on the tail when one exists.
Grid points are independent; a domain error invalidates only its own point.

The locus check follows a source orbit through a factorization: the form
symmetry's factor orbit ``t_n`` picks, at every step, the cofactor curve
``u -> cofactor(t_{n+1}, u)`` the next state lies on.  A factor orbit of
period p puts the states on p curves visited in turn, so every period of
the source is a multiple of p.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Mapping, Optional, Sequence

from .equations import (
    DifferenceEquation,
    General,
    Orbit,
    _smallest_period,
    as_general,
    iterate_orbit,
)
from .expressions import EvaluationError
from .polynomials import Polynomial, find_roots

__all__ = [
    "FixedPointScan",
    "StabilityReport",
    "BifurcationData",
    "LocusReport",
    "find_fixed_points",
    "linearize_at",
    "bifurcation_sweep",
    "factor_locus",
    "init_from_coordinates",
    "write_bifurcation_csv",
]

_FIXED_POINT_SAMPLES = 2001  # scan points of find_fixed_points
_FIXED_POINT_TOL = 1e-10  # bisection width and merge distance of fixed points
_NON_HYPERBOLIC_TOL = 1e-9  # eigenvalue moduli this close to 1 are non-hyperbolic
_MAX_PERIOD = 64  # longest period a sweep looks for


def _require_autonomous(eq: DifferenceEquation) -> None:
    kind = eq.kind
    source = kind.rhs if isinstance(kind, General) else kind.forcing
    if "n" in source.free_variables():
        raise ValueError("this analysis requires an autonomous equation")


@dataclass(frozen=True)
class FixedPointScan:
    """Isolated real fixed points; ``dense`` flags a degenerate equation
    (identity-like map) whose fixed points fill the interval."""

    points: tuple[float, ...]
    dense: bool


def find_fixed_points(eq: DifferenceEquation, interval: tuple[float, float]) -> FixedPointScan:
    """Real solutions of ``f(x, ..., x) = x`` on ``interval``.

    Dense sampling locates sign changes (refined by bisection) and
    near-exact zeros; duplicates within ``1e-10 * max(1, |x|)`` merge.  An
    empty result is a value.  When nearly every sample solves the equation
    the interval is reported as dense instead of listing points.
    """
    _require_autonomous(eq)
    # The scan probes the map off the orbit carrier (boundaries, perturbed
    # states), so it evaluates the general form, which enforces no carrier.
    eq = as_general(eq)
    lo, hi = float(interval[0]), float(interval[1])
    if not hi > lo:
        raise ValueError("interval must be increasing")

    def g(x: float) -> Optional[float]:
        try:
            v = eq.step([complex(x)] * eq.order, 0)
        except EvaluationError:
            return None
        if abs(v.imag) > 1e-9 * (1 + abs(v.real)):
            return None
        return v.real - x

    tol, samples = _FIXED_POINT_TOL, _FIXED_POINT_SAMPLES
    xs = [lo + (hi - lo) * i / (samples - 1) for i in range(samples)]
    gs = [g(x) for x in xs]
    scale = max((abs(v) for v in gs if v is not None), default=0.0)
    valid = [v for v in gs if v is not None]
    if valid and sum(1 for v in valid if abs(v) <= tol * (1 + abs(v))) >= 0.95 * len(valid):
        return FixedPointScan((), dense=True)

    roots: list[float] = []

    def push(x: float) -> None:
        for r in roots:
            if abs(x - r) <= max(tol, tol * abs(r)):
                return
        roots.append(x)

    for x, v in zip(xs, gs):
        if v is not None and abs(v) <= 1e-12 * (1 + scale):
            push(x)
    for (x0, v0), (x1, v1) in zip(zip(xs, gs), zip(xs[1:], gs[1:])):
        if v0 is None or v1 is None or v0 == 0 or v1 == 0:
            continue
        if (v0 > 0) == (v1 > 0):
            continue
        a, b, fa = x0, x1, v0
        for _ in range(200):
            mid = 0.5 * (a + b)
            fm = g(mid)
            if fm is None:
                break
            if fm == 0 or (b - a) < tol:
                a = b = mid
                break
            if (fm > 0) == (fa > 0):
                a, fa = mid, fm
            else:
                b = mid
        push(0.5 * (a + b))
    return FixedPointScan(tuple(sorted(roots)), dense=False)


@dataclass(frozen=True)
class StabilityReport:
    fixed_point: float
    eigenvalues: tuple[complex, ...]
    classifications: tuple[str, ...]


def linearize_at(eq: DifferenceEquation, x_bar: float) -> StabilityReport:
    """Eigenvalues of the linearization at a fixed point.

    Partial derivatives with respect to each lag are taken by central
    differences with step ``1e-6 * (1 + |x_bar|)``; the eigenvalues are the
    roots of ``z^{k+1} - sum_j (df/dx_j) z^{k-j}``.  Each eigenvalue is
    classified by its magnitude: below 1 stable, above 1 unstable, within
    1e-9 of 1 non-hyperbolic.
    """
    _require_autonomous(eq)
    eq = as_general(eq)  # no carrier guards, as in find_fixed_points
    x_bar = float(x_bar)
    k1 = eq.order
    h = 1e-6 * (1 + abs(x_bar))
    partials = []
    base = [complex(x_bar)] * k1
    for j in range(k1):
        up = list(base)
        down = list(base)
        up[j] += h
        down[j] -= h
        partials.append((eq.step(up, 0) - eq.step(down, 0)) / (2 * h))
    coeffs = tuple(-p for p in reversed(partials)) + (1 + 0j,)
    eigenvalues = find_roots(Polynomial(coeffs)).expanded()
    labels = []
    for lam in eigenvalues:
        mag = abs(lam)
        if abs(mag - 1) <= _NON_HYPERBOLIC_TOL:
            labels.append("non-hyperbolic")
        elif mag < 1:
            labels.append("stable")
        else:
            labels.append("unstable")
    return StabilityReport(x_bar, eigenvalues, tuple(labels))


# ----------------------------------------------------------------------
# Bifurcation sweeps over initial values
# ----------------------------------------------------------------------


def init_from_coordinates(order: int, coords: Mapping[str, complex]) -> tuple[complex, ...]:
    """Build oldest-first initial values from coordinates named ``x0``,
    ``x-1``, ..., ``x-k``."""
    wanted = {("x0" if j == 0 else f"x-{j}"): j for j in range(order)}
    values: dict[int, complex] = {}
    for name, value in coords.items():
        if name not in wanted:
            raise KeyError(f"unknown initial coordinate '{name}'")
        values[wanted[name]] = complex(value)
    missing = [name for name, j in wanted.items() if j not in values]
    if missing:
        raise KeyError(f"missing initial coordinate(s): {sorted(missing)}")
    return tuple(values[j] for j in range(order - 1, -1, -1))


@dataclass(frozen=True)
class BifurcationData:
    """Per-grid-point orbit tails from a sweep of one initial coordinate."""

    grid: tuple[float, ...]
    samples: tuple[Optional[tuple[complex, ...]], ...]
    periods: tuple[Optional[int], ...]
    failures: tuple[Optional[str], ...]

    def period_census(self) -> dict[int, int]:
        census: dict[int, int] = {}
        for p in self.periods:
            if p is not None:
                census[p] = census.get(p, 0) + 1
        return census


def bifurcation_sweep(
    eq: DifferenceEquation,
    fixed: Mapping[str, complex],
    sweep_name: str,
    grid: Sequence[float],
    transient: int,
    keep: int,
    period_tol: float = 1e-5,
) -> BifurcationData:
    """Sweep one initial coordinate over ``grid`` (strictly increasing).

    Each grid point iterates ``transient + keep`` steps, keeps the final
    ``keep`` values of the full sequence, and records the detected period
    (if any) of the orbit.  Domain errors mark the point invalid and the
    sweep continues.
    """
    grid = [float(v) for v in grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    steps = transient + keep
    samples: list[Optional[tuple[complex, ...]]] = []
    periods: list[Optional[int]] = []
    failures: list[Optional[str]] = []
    total_len = eq.order + steps
    effective_max = min(_MAX_PERIOD, max(1, total_len // 3))
    for value in grid:
        coords = dict(fixed)
        coords[sweep_name] = value
        init = init_from_coordinates(eq.order, coords)
        orbit = iterate_orbit(eq, init, steps)
        if orbit.truncated_at is not None:
            samples.append(None)
            periods.append(None)
            failures.append(orbit.truncation_reason)
            continue
        sequence = orbit.full_sequence
        samples.append(sequence[-keep:])
        periods.append(_smallest_period(sequence, period_tol, effective_max))
        failures.append(None)
    return BifurcationData(tuple(grid), tuple(samples), tuple(periods), tuple(failures))


def write_bifurcation_csv(data: BifurcationData, stream: IO[str]) -> None:
    """Rows ``param,sample`` (real parts); an invalid point emits one
    ``param,NaN`` row."""
    stream.write("param,sample\n")
    for value, tail in zip(data.grid, data.samples):
        prefix = f"{value!r},"
        if tail is None:
            stream.write(f"{prefix}NaN\n")
        elif tail:
            stream.write(prefix + ("\n" + prefix).join([repr(v.real) for v in tail]) + "\n")


# ----------------------------------------------------------------------
# Orbit locus on the cofactor curves
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LocusReport:
    passed: bool
    period: Optional[int]  # of the factor orbit; None when it has none
    worst_residual: float
    first_failure: Optional[int] = None


def factor_locus(fact, orbit: Orbit, tol: float = 1e-6) -> LocusReport:
    """Check that each step of ``orbit`` lies on its phase's cofactor curve.

    ``fact`` is a factorization of the orbit's equation (an
    ``ScFactorization``).  Its factor runs from the form symmetry of the
    orbit's initial values for as many steps as the orbit; ``period`` is
    the factor orbit's (``detect_period`` at ``tol``, at most 64).  Step
    ``n`` must give ``x_{n+1} = cofactor(n, t_j, x_n, ...)`` with phase
    ``j = (n+1) mod period`` (``j = n+1`` when there is no period), at
    relative residual ``|x_{n+1} - cofactor| / (1 + |x_{n+1}|)``.  A domain
    error, or a factor orbit cut short, counts as an infinite residual.
    ``passed`` needs a period and every residual within ``tol``;
    ``first_failure`` is the first ``n`` over it.
    """
    t_orbit = iterate_orbit(fact.factor, fact.factor_initial_values(orbit.initial_values), len(orbit.values))
    period = _smallest_period(t_orbit.full_sequence, tol, _MAX_PERIOD)
    ts = t_orbit.full_sequence[fact.factor.order - 1:]  # t_0, t_1, ...
    xs = orbit.full_sequence
    newest, lags = orbit.order - 1, fact.cofactor_order
    worst, first_failure = 0.0, None
    for n, x_next in enumerate(orbit.values):
        j = (n + 1) % period if period else n + 1
        window = xs[n + newest - lags + 1:n + newest + 1][::-1]  # x_n first
        try:
            curve = fact._cofactor(complex(n), ts[j], *window) if j < len(ts) else None
        except EvaluationError:
            curve = None
        residual = float("inf") if curve is None else abs(x_next - curve) / (1 + abs(x_next))
        worst = max(worst, residual)
        if residual > tol and first_failure is None:
            first_failure = n
    return LocusReport(period is not None and worst <= tol, period, worst, first_failure)
