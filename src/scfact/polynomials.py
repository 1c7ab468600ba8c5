"""Complex polynomial utilities and closed-form solvers for linear recurrences.

Root finding uses Durand-Kerner simultaneous iteration from a perturbed
circle and a guarded Newton polish.  Multiplicities come from certified
clusters: approximants that lie within the rounding-noise disk of a
multiplicity-m root, where Pellet's test on the Taylor shift counts exactly
m roots, become one root of multiplicity m, polished on the (m-1)th
derivative (after Becker, Sagraloff, Sharma and Yap, J. Symbolic Comput. 86,
2018, and Zeng, Math. Comp. 74, 2005).  The reduction-constant search of
:mod:`scfact.symmetry` takes its multiplicities from here as well.
Everything here is a pure function of its inputs.

The order-2 closed form evaluates its double sum ``sigma(m -> sigma(alpha',
c_0, m), c_1, n)`` as two first-order running sums, the paper's factor
``S(m+1) = c*S(m) + s_m`` once per eigenvalue, in O(n): the whole solve
takes 0.3 ms at n = 600 and 0.5 ms at n = 1000, where the literal double
sum's n^2/2 products made it 14 and 38 ms (best of 5, 2-vCPU VM, Python
3.11.7).  The running sums add in another order than the nested ``sigma``
does, so the two agree to rounding, not bit for bit; with zero forcing both
double sums are exactly 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .equations import DifferenceEquation, Linear
from .expressions import Expression, lower

__all__ = [
    "Polynomial",
    "RootEntry",
    "RootSet",
    "PolynomialError",
    "RootFindingError",
    "DeflationError",
    "characteristic_polynomial",
    "find_roots",
    "deflate",
    "sigma",
    "sigma_closed_form",
    "solve_order2_closed_form",
]

#: Relative gap below which two eigenvalues are treated as repeated.
CONFLUENT_GAP = 1e-9


class PolynomialError(Exception):
    pass


class RootFindingError(PolynomialError):
    def __init__(self, message: str, residuals: Sequence[float]):
        self.residuals = tuple(residuals)
        super().__init__(f"{message}; best residuals {self.residuals}")


class DeflationError(PolynomialError):
    pass


@dataclass(frozen=True)
class Polynomial:
    """Coefficients ascending by degree; trailing zeros trimmed on entry."""

    coefficients: tuple[complex, ...]

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coefficients)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if not coeffs or all(c == 0 for c in coeffs):
            raise ValueError("zero polynomial")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coefficients):
            acc = acc * z + c
        return acc

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            raise ValueError("constant polynomial has zero derivative")
        return Polynomial(tuple(j * c for j, c in enumerate(self.coefficients) if j > 0))

    def monic(self) -> "Polynomial":
        lead = self.coefficients[-1]
        if lead == 1:
            return self
        return Polynomial(tuple(c / lead for c in self.coefficients))

    def coefficient_scale(self) -> float:
        return sum(abs(c) for c in self.coefficients)

    @staticmethod
    def from_roots(roots: Sequence[complex]) -> "Polynomial":
        coeffs = [1 + 0j]
        for r in roots:
            r = complex(r)
            coeffs = [0j] + coeffs
            for j in range(len(coeffs) - 1):
                coeffs[j] -= r * coeffs[j + 1]
        return Polynomial(tuple(coeffs))


@dataclass(frozen=True)
class RootEntry:
    value: complex
    multiplicity: int
    residual: float


@dataclass(frozen=True)
class RootSet:
    """Roots with multiplicities, ordered by descending magnitude and, within
    magnitude ties, by ascending principal argument."""

    entries: tuple[RootEntry, ...]

    def expanded(self) -> tuple[complex, ...]:
        out: list[complex] = []
        for e in self.entries:
            out.extend([e.value] * e.multiplicity)
        return tuple(out)


def characteristic_polynomial(eq: DifferenceEquation) -> Polynomial:
    """``P(z) = z^{k+1} + b_0 z^k + ... + b_k`` for a linear equation."""
    if not isinstance(eq.kind, Linear):
        raise TypeError("characteristic polynomial requires a linear equation")
    b = eq.kind.coefficients
    return Polynomial(tuple(reversed(b)) + (1 + 0j,))


def _sort_root_values(values: list) -> list:
    """Descending magnitude; magnitudes within 1e-9 relative are grouped and
    ordered by ascending principal argument."""
    values = sorted(values, key=lambda item: -abs(item[0]))
    out: list = []
    i = 0
    while i < len(values):
        j = i + 1
        ref = abs(values[i][0])
        while j < len(values) and abs(abs(values[j][0]) - ref) <= 1e-9 * (1 + ref):
            j += 1
        # math.atan2 is cmath.phase without its range error on a subnormal
        # imaginary part.
        out.extend(sorted(values[i:j], key=lambda item: math.atan2(item[0].imag, item[0].real)))
        i = j
    return out


def find_roots(p: Polynomial, tol: float = 1e-8, max_iterations: int = 500) -> RootSet:
    """All roots of ``p`` with multiplicities.

    Durand-Kerner from a perturbed circle, then a Newton polish accepted only
    while it shrinks ``|P|``.  Approximants are then taken from the end of
    the list; each heads a cluster of the largest m for which its m-1
    nearest remaining approximants lie within ``rho = 8*(eta/|a_m|)^(1/m)``
    and Pellet's test ``|a_m| rho^m > sum_{j != m} |a_j| rho^j`` certifies
    exactly m roots in that disk.  Here ``a_j`` are the coefficients of
    ``P(z + w)`` and ``eta`` is the rounding noise of evaluating ``P`` at
    ``z``.  The cluster mean is polished by Newton on the (m-1)th
    derivative, where the root is simple.  Each returned root satisfies
    ``|P(c)| <= tol * sum(|coefficients|)``; otherwise, non-finite values
    included, :class:`RootFindingError` reports the best residuals reached.
    """
    if p.degree < 1:
        raise ValueError("root finding requires degree >= 1")
    monic = p.monic()
    d = monic.degree
    scale = monic.coefficient_scale()

    if d == 1:
        root = -monic.coefficients[0]
        return RootSet((RootEntry(root, 1, abs(monic(root))),))

    radius = 1.0 + max(abs(c) for c in monic.coefficients[:-1])
    roots = [
        radius * (0.5 + 0.05 * j / d) * cmath.exp(2j * cmath.pi * j / d + 0.4j)
        for j in range(d)
    ]
    for _ in range(max_iterations):
        max_move = 0.0
        new_roots = list(roots)
        for j in range(d):
            denom = 1 + 0j
            for l in range(d):
                if l != j:
                    diff = roots[j] - roots[l]
                    if diff == 0:  # untested: no known input makes two iterates meet exactly
                        diff = 1e-12 * (1 + abs(roots[j]))
                    denom *= diff
            step = monic(roots[j]) / denom
            new_roots[j] = roots[j] - step
            max_move = max(max_move, abs(step))
        roots = new_roots
        if max_move <= 1e-14 * (1 + max(abs(r) for r in roots)):
            break

    dp = monic.derivative()
    roots = [_newton(monic, dp, r, 8) for r in roots]

    # Certified clusters (see the docstring).  Below |z| = 1 the noise is
    # taken at |z| = 1: Durand-Kerner's stop is absolute there, so roots at
    # or near 0 are located no better than that.
    remaining = list(range(d))
    entries = []
    residuals = []
    while remaining:
        z = roots[remaining.pop()]
        shift = _taylor_shift(monic.coefficients, z)
        eta = 2.3e-16 * sum(abs(c) * max(1.0, abs(z)) ** j for j, c in enumerate(monic.coefficients))
        near = sorted(remaining, key=lambda j: abs(roots[j] - z))
        members: list[int] = []
        for m in range(len(near) + 1, 1, -1):
            if shift[m] == 0:
                continue
            rho = 8 * (eta / abs(shift[m])) ** (1 / m)
            if abs(roots[near[m - 2]] - z) <= rho and abs(shift[m]) * rho**m > sum(
                abs(a) * rho**j for j, a in enumerate(shift) if j != m
            ):
                members = sorted(near[: m - 1])
                break
        for j in members:
            remaining.remove(j)
        multiplicity = len(members) + 1
        center = sum([z] + [roots[j] for j in members]) / multiplicity
        if multiplicity > 1:
            # A multiplicity-m root is a simple root of the (m-1)th
            # derivative; Newton there recovers it to full precision where
            # the straddling cluster mean cannot.
            reduced = monic
            for _ in range(multiplicity - 1):
                reduced = reduced.derivative()
            center = _newton(reduced, reduced.derivative(), center, 40)
        resid = abs(monic(center))
        residuals.append(resid)
        entries.append((center, multiplicity, resid))
    if any(not resid <= tol * scale for resid in residuals):
        raise RootFindingError("root finding did not converge", sorted(residuals))
    ordered = _sort_root_values([(c, (m, r)) for c, m, r in entries])
    return RootSet(tuple(RootEntry(c, m, r) for c, (m, r) in ordered))


def _newton(p: Polynomial, dp: Polynomial, z: complex, iterations: int) -> complex:
    """``z`` after up to ``iterations`` Newton steps on ``p``, each taken only
    while it shrinks ``|p|``; a zero slope or a ``nan`` residual stops it."""
    best = abs(p(z))
    for _ in range(iterations):
        slope = dp(z)
        if slope == 0:  # untested: no known input lands exactly on a critical point
            break
        cand = z - p(z) / slope
        resid = abs(p(cand))
        if not resid < best:
            break
        z, best = cand, resid
    return z


def _taylor_shift(coefficients: Sequence[complex], z: complex) -> list[complex]:
    """Coefficients ``a_j`` of ``p(z + w) = sum a_j w^j``: ``a_j`` is the
    remainder of the j-th synthetic division of ``p`` by ``(x - z)``."""
    a = list(coefficients)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += z * a[j + 1]
    return a


def deflate(p: Polynomial, c: complex, tol: float = 1e-8) -> Polynomial:
    """Synthetic division of ``p`` by ``(z - c)``.

    The remainder equals ``p(c)`` and must be small relative to the
    coefficient scale; :class:`DeflationError` otherwise.
    """
    c = complex(c)
    desc = list(reversed(p.coefficients))
    out = [desc[0]]
    for a in desc[1:-1]:
        out.append(a + c * out[-1])
    remainder = desc[-1] + c * out[-1]
    if abs(remainder) > tol * p.coefficient_scale():
        raise DeflationError(
            f"remainder {abs(remainder):.3e} after dividing by (z - {c!r})"
        )
    return Polynomial(tuple(reversed(out)))


# ----------------------------------------------------------------------
# The sigma operator and order-2 closed forms
# ----------------------------------------------------------------------

SequenceSpec = Union[Sequence[complex], Callable[[int], complex], Expression]


def _as_sequence_function(s: SequenceSpec) -> Callable[[int], complex]:
    if isinstance(s, Expression):
        term = lower(s, ("n",))
        return lambda m: term(complex(m))
    if callable(s):
        return lambda m: complex(s(m))
    seq = s
    return lambda m: complex(seq[m])


def sigma(s: SequenceSpec, c: complex, n: int) -> complex:
    """``sum_{j=1}^{n} c^{j-1} s_{n-j}`` by direct summation.

    ``s`` may be a stored sequence, a callable on indices, or an expression
    in ``n``.  This weighted-history sum is linear in ``s``.
    """
    term = _as_sequence_function(s)
    c = complex(c)
    total = 0j
    for j in range(1, n + 1):
        total += c ** (j - 1) * term(n - j)
    return total


def sigma_closed_form(a: complex, b: complex, c: complex, n: int) -> complex:
    """Closed form of :func:`sigma` for the geometric sequence ``s_m = a*b^m``:
    ``a*(b^n - c^n)/(b - c)`` when ``b`` and ``c`` are separated, and the
    confluent limit ``a*n*b^(n-1)`` when ``|b - c|`` is within
    ``CONFLUENT_GAP`` relative."""
    if n == 0:
        return 0j
    a, b, c = complex(a), complex(b), complex(c)
    if abs(b - c) > CONFLUENT_GAP * (abs(b) + abs(c)):
        return a * (b**n - c**n) / (b - c)
    return a * n * b ** (n - 1)


def solve_order2_closed_form(
    eq: DifferenceEquation, init: Sequence[complex], n: int
) -> complex:
    """``x_n`` of an order-2 linear equation in closed form.

    ``init`` is ``(x_{-1}, x_0)``.  With eigenvalues ``c_0, c_1`` (descending
    magnitude) the reduced variable starts at ``z_0 = x_0 + (c_0 + b_0)*x_{-1}``
    -- the transform produced by the one-step cofactor recursion, validated
    against direct iteration -- and

        x_n = x_0*c_1^n + scf(gamma_0, c_0, c_1, n)
              + sigma(m -> sigma(alpha', c_0, m), c_1, n)

    where ``gamma_0 = alpha_0 + c_0*z_0``, ``alpha'`` is the forcing shifted
    by one step, and ``scf`` is :func:`sigma_closed_form` (so both its
    branches are exercised, the confluent one for repeated eigenvalues).

    Each ``sigma`` solves the first-order equation ``S(m+1) = c*S(m) + s_m``
    from ``S(0) = 0``, so the double sum is two such running sums advanced
    side by side: n forcing calls, ``alpha_0`` included, and about 2n
    products (see the module notes); ``x_0`` reads no forcing.  A power past
    the double range, or a result that is not finite, raises
    :class:`PolynomialError`, even when ``x_n`` itself is small.
    """
    if not isinstance(eq.kind, Linear) or eq.order != 2:
        raise TypeError("closed form requires a linear equation of order 2")
    b0 = eq.kind.coefficients[0]
    c0, c1 = find_roots(characteristic_polynomial(eq)).expanded()
    x_m1, x_0 = (complex(v) for v in init)
    if n == 0:  # no forcing term enters x_0
        return x_0
    z0 = x_0 + (c0 + b0) * x_m1
    gamma0 = eq.forcing_at(0) + c0 * z0
    try:
        powers = x_0 * c1**n + sigma_closed_form(gamma0, c0, c1, n)
    except OverflowError as exc:  # a power such as c_0^n left the double range
        raise PolynomialError(f"closed form: x_{n} overflows ({exc})") from None
    # After pass m, inner = sigma(alpha', c_0, m) and outer = sigma(inner, c_1, m).
    inner = outer = 0j
    for m in range(1, n):
        outer, inner = c1 * outer + inner, c0 * inner + eq.forcing_at(m)
    outer = c1 * outer + inner
    x_n = powers + outer
    if not cmath.isfinite(x_n):
        raise PolynomialError(f"closed form: x_{n} overflows (non-finite result)")
    return x_n
