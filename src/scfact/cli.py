"""Command-line surface: parse/validate, simulate, factor, verify, solve, sweep.

Exit codes: 0 on success, 1 on validation or verification failure, 2 on
usage errors.  Initial values are given oldest first (``x_{-k},...,x_0``),
matching the library convention.  Complex flag values are ``re,im`` pairs;
all numbers are decimal doubles.  Commands are deterministic for a given
``--seed`` and identical invocations produce byte-identical CSV output.
"""

from __future__ import annotations

import cmath
from random import Random
from typing import Optional

import click

from .dynamics import bifurcation_sweep, write_bifurcation_csv
from .equations import (
    DifferenceEquation,
    DocumentError,
    General,
    Linear,
    SeparableAdditive,
    SeparableMultiplicative,
    as_separable_additive,
    detect_period,
    iterate_orbit,
    load_equation_file,
    render_equation,
    write_orbit_csv,
)
from .expressions import format_complex
from .factorization import (
    FactorizationError,
    ScFactorization,
    factor_hd1,
    factor_linear_full,
    factor_separable_additive,
    factor_separable_multiplicative,
    render_factorization,
    render_triangular_system,
    verify_equivalence,
    verify_semiconjugacy,
)
from .polynomials import PolynomialError, solve_order2_closed_form
from .symmetry import (
    ConstantValidationError,
    check_hd1,
    solve_reduction_constant,
)


def _load(path: str) -> DifferenceEquation:
    try:
        return load_equation_file(path)
    except OSError as exc:
        raise click.ClickException(f"cannot read {path}: {exc}")
    except DocumentError as exc:
        raise click.ClickException(f"{path}: {exc}")


def _parse_init(text: str, order: int) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise click.UsageError(f"cannot parse initial values {text!r}")
    if len(values) != order:
        raise click.UsageError(f"expected {order} initial values, got {len(values)}")
    return values


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]))
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise click.UsageError(f"cannot parse complex value {text!r}; use 're,im'")


def _output(path: Optional[str]):
    """The ``--out`` destination, stdout for none or ``-``; a path that cannot
    be opened exits 1 with a one-line message."""
    if path is None or path == "-":
        return click.open_file("-", "w", encoding=None, errors=None)
    try:
        return click.open_file(path, "w", encoding="utf-8")
    except OSError as exc:
        raise click.ClickException(f"cannot write {path}: {exc.strerror or exc}")


class _Commands(click.Group):
    """Every :class:`PolynomialError` (root finding, deflation) ends a
    command with a one-line message and exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except PolynomialError as exc:
            raise click.ClickException(str(exc))


@click.group(cls=_Commands)
def main():
    """Reduce, simulate, and verify scalar difference equations."""


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--init", "init_text", required=True, help="initial values, oldest first")
@click.option("--steps", default=100, show_default=True, type=int)
@click.option("--out", default=None, help="CSV destination (default: stdout)")
@click.option("--tol", default=None, type=float, help="period-detection tolerance [1e-5]")
@click.option("--seed", default=0, show_default=True, type=int, help="reproducibility seed (simulation is deterministic)")
def simulate(file, init_text, steps, out, tol, seed):
    """Iterate an equation and write the orbit CSV, reporting any period."""
    eq = _load(file)
    init = _parse_init(init_text, eq.order)
    try:
        orbit = iterate_orbit(eq, init, steps)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    with _output(out) as fh:
        write_orbit_csv(orbit, fh)
    total = len(orbit.full_sequence)
    detected = detect_period(orbit, tol or 1e-5, min(64, max(1, (total - 2) // 2)))
    if detected:
        click.echo(f"period {detected[0]}")
    if orbit.truncated_at is not None:
        click.echo(
            f"truncated at n={orbit.truncated_at}: {orbit.truncation_reason}",
            err=True,
        )
        raise SystemExit(1)


def _choose_constant(constants, requested: Optional[complex]) -> complex:
    if requested is not None:
        return requested
    if not constants.constants:
        raise click.ClickException("no form symmetry found")
    return constants.constants[0].value


def _build_sc_factorization(
    eq: DifferenceEquation,
    constant: Optional[complex],
    tol: float,
    seed: int,
    validate: bool = True,
) -> tuple[ScFactorization, Optional[object]]:
    """Dispatch on kind; returns the factorization and, for separable kinds,
    the full constant set for reporting."""
    kind = eq.kind
    try:
        if isinstance(kind, (SeparableAdditive, SeparableMultiplicative)):
            constants = solve_reduction_constant(eq, tol=tol)
            c = _choose_constant(constants, constant)
            if isinstance(kind, SeparableAdditive):
                return factor_separable_additive(eq, c, validate=validate, tol=tol), constants
            return factor_separable_multiplicative(eq, c, validate=validate, tol=tol), constants
        if isinstance(kind, General):
            report = check_hd1(eq, samples=500, tol=1e-9, seed=seed)
            if not report.verdict:
                raise click.ClickException(
                    "no form symmetry found "
                    f"(HD1 check failed with max residual {report.max_residual:.3e})"
                )
            return factor_hd1(eq, seed=seed), None
    except (ConstantValidationError, FactorizationError) as exc:
        raise click.ClickException(str(exc))
    raise click.ClickException("linear equations use the triangular route")


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--constant", default=None, help="reduction constant as 're,im'")
@click.option("--out", default=None, help="report destination (default: stdout)")
@click.option("--tol", default=1e-8, show_default=True, type=float)
@click.option("--seed", default=0, show_default=True, type=int)
def factor(file, constant, out, tol, seed):
    """Construct and print a semiconjugate factorization."""
    eq = _load(file)
    requested = _parse_complex(constant) if constant is not None else None
    with _output(out) as fh:
        if isinstance(eq.kind, Linear):
            system = factor_linear_full(eq)
            fh.write(render_triangular_system(system) + "\n")
            return
        fact, constants = _build_sc_factorization(eq, requested, tol, seed)
        if constants is not None:
            lines = [
                f"  c = {format_complex(rc.value)} (multiplicity {rc.multiplicity}, "
                f"residual {rc.residual:.2e})"
                for rc in constants.constants
            ]
            fh.write("reduction constants:\n" + "\n".join(lines) + "\n")
        residual = None
        if constants is not None and fact.symmetry.constant is not None:
            for rc in constants.constants:
                if abs(rc.value - fact.symmetry.constant) <= 1e-9 * (1 + abs(rc.value)):
                    residual = rc.residual
        fh.write(render_factorization(fact, residual) + "\n")


def _random_init(
    eq: DifferenceEquation, rng: Random, narrow: bool = False
) -> tuple[complex, ...]:
    # A factorization with a complex reduction constant realizes complex
    # powers on the principal branch, which is faithful only while the
    # reduced variable's logarithm stays inside (-pi, pi); narrower draws
    # keep the whole orbit in that region.
    if narrow and not eq.group.is_additive:
        from math import exp

        return tuple(
            complex(exp(rng.uniform(-1.5, 1.5))) for _ in range(eq.order)
        )
    return tuple(eq.group.sample(rng) for _ in range(eq.order))


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--steps", default=100, show_default=True, type=int)
@click.option("--trials", default=20, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--tol", default=1e-9, show_default=True, type=float)
@click.option("--constant", default=None, help="inject a reduction constant 're,im'")
def verify(file, steps, trials, seed, tol, constant):
    """Check the semiconjugacy identity and solution equivalence."""
    eq = _load(file)
    requested = _parse_complex(constant) if constant is not None else None
    equivalence_tol = max(tol, 1e-9)

    if isinstance(eq.kind, Linear):
        system = factor_linear_full(eq)
        sep = as_separable_additive(eq)
        fact = factor_separable_additive(sep, system.eigenvalues[0])
        target = system
    else:
        fact, _ = _build_sc_factorization(
            eq, requested, 1e-8, seed, validate=requested is None
        )
        target = fact

    semi = verify_semiconjugacy(
        eq, fact.symmetry, fact.factor, samples=200, tol=tol, seed=seed
    )
    status = "pass" if semi.passed else "FAIL"
    click.echo(
        f"semiconjugacy: {status} ({semi.samples} samples, "
        f"max residual {semi.max_residual:.3e})"
    )

    rng = Random(seed)
    worst = 0.0
    failures = 0
    complex_route = (
        fact.symmetry.constant is not None and fact.symmetry.constant.imag != 0
    )
    real_reconstruction = True
    for _ in range(trials):
        report = None
        for _attempt in range(10):
            init = _random_init(eq, rng, narrow=complex_route)
            report = verify_equivalence(eq, target, init, steps, tol=equivalence_tol)
            if report.failure_index is None or report.passed:
                break
        assert report is not None
        worst = max(worst, report.max_residual)
        if not report.passed:
            failures += 1
        if report.max_reconstructed_imag > 1e-8:
            real_reconstruction = False
    status = "pass" if failures == 0 else f"FAIL ({failures} of {trials} trials)"
    click.echo(
        f"equivalence: {status} ({trials} trials x {steps} steps, "
        f"max residual {worst:.3e})"
    )
    if complex_route and real_reconstruction and failures == 0:
        click.echo("note: complex intermediates, real orbit")
    if failures or not semi.passed:
        raise SystemExit(1)


@main.command("solve-linear")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--init", "init_text", required=True, help="initial values, oldest first")
@click.option("--n", "n_index", required=True, type=int, help="target index n")
@click.option("--tol", default=1e-8, show_default=True, type=float, help="route-agreement tolerance")
@click.option("--seed", default=0, show_default=True, type=int, help="reproducibility seed (solve is deterministic)")
def solve_linear(file, init_text, n_index, tol, seed):
    """Evaluate x_n by cascade, direct iteration, and (order 2) closed form."""
    eq = _load(file)
    if not isinstance(eq.kind, Linear):
        raise click.UsageError("solve-linear requires a linear equation")
    if n_index < 0:
        raise click.UsageError("--n must be non-negative")
    init = _parse_init(init_text, eq.order)
    direct_orbit = iterate_orbit(eq, init, n_index)
    if direct_orbit.truncated_at is not None:
        raise click.ClickException(
            f"direct iteration failed: {direct_orbit.truncation_reason}"
        )
    direct = direct_orbit.full_sequence[-1] if n_index else complex(init[-1])
    if not cmath.isfinite(direct):
        raise click.ClickException(
            f"direct iteration: x_{n_index} = {format_complex(direct)} is not finite"
        )
    system = factor_linear_full(eq)
    cascade_orbit, _ = system.simulate(init, n_index)
    cascade = cascade_orbit.full_sequence[-1] if n_index else complex(init[-1])
    click.echo(f"direct iteration: x_{n_index} = {format_complex(direct)}")
    click.echo(f"triangular cascade: x_{n_index} = {format_complex(cascade)}")
    values = [direct, cascade]
    if eq.order == 2:
        try:
            closed = solve_order2_closed_form(eq, init, n_index)
        except OverflowError as exc:
            raise click.ClickException(f"closed form: x_{n_index} overflows ({exc})")
        click.echo(f"closed form: x_{n_index} = {format_complex(closed)}")
        values.append(closed)
    scale = 1 + abs(direct)
    if any(abs(v - direct) > tol * scale for v in values):
        click.echo(f"routes disagree beyond {tol:g} relative", err=True)
        raise SystemExit(1)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--fix", "fixes", multiple=True, help="fixed coordinate name=value")
@click.option("--sweep", "sweep_spec", required=True, help="name=lo:hi:count")
@click.option("--transient", default=100, show_default=True, type=int)
@click.option("--keep", default=200, show_default=True, type=int)
@click.option("--tol", default=1e-5, show_default=True, type=float)
@click.option("--out", default=None, help="CSV destination (default: stdout)")
@click.option("--seed", default=0, show_default=True, type=int, help="reproducibility seed (the sweep is deterministic)")
def bifurcate(file, fixes, sweep_spec, transient, keep, tol, out, seed):
    """Sweep one initial coordinate and report the period census."""
    eq = _load(file)
    fixed = {}
    for item in fixes:
        name, sep, value = item.partition("=")
        if not sep:
            raise click.UsageError(f"--fix expects name=value, got {item!r}")
        try:
            fixed[name.strip()] = float(value)
        except ValueError:
            raise click.UsageError(f"cannot parse fixed value in {item!r}")
    name, sep, rng_text = sweep_spec.partition("=")
    parts = rng_text.split(":")
    if not sep or len(parts) != 3:
        raise click.UsageError("--sweep expects name=lo:hi:count")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise click.UsageError(f"cannot parse sweep range {rng_text!r}")
    if count < 1:
        raise click.UsageError("sweep count must be at least 1")
    grid = [lo] if count == 1 else [lo + (hi - lo) * j / (count - 1) for j in range(count)]
    try:
        data = bifurcation_sweep(
            eq, fixed, name.strip(), grid, transient, keep, period_tol=tol
        )
    except KeyError as exc:
        raise click.UsageError(str(exc.args[0]))
    except ValueError as exc:
        raise click.UsageError(str(exc))
    with _output(out) as fh:
        write_bifurcation_csv(data, fh)
    census = data.period_census()
    click.echo("period census:")
    for period in sorted(census):
        click.echo(f"  period {period}: {census[period]} point(s)")
    aperiodic = sum(1 for p, f in zip(data.periods, data.failures) if p is None and f is None)
    click.echo(f"  no period detected: {aperiodic} point(s)")
    invalid = sum(1 for f in data.failures if f is not None)
    if invalid:
        click.echo(f"  invalid: {invalid} point(s)")


@main.command("parse")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", default=0, show_default=True, type=int, help="reproducibility seed (parsing is deterministic)")
def parse_cmd(file, seed):
    """Validate an equation document and print its normalized form."""
    eq = _load(file)
    kind = eq.kind
    kind_name = {
        General: "general",
        Linear: "linear",
        SeparableAdditive: "separable (additive)",
        SeparableMultiplicative: "separable (multiplicative)",
    }[type(kind)]
    click.echo(f"name: {eq.name or '(unnamed)'}")
    click.echo(f"kind: {kind_name}")
    click.echo(f"order: {eq.order}")
    click.echo(f"group: {eq.group.value}")
    if eq.params:
        rendered = ", ".join(
            f"{k} = {format_complex(v)}" for k, v in sorted(eq.params.items())
        )
        click.echo(f"params: {rendered}")
    click.echo(render_equation(eq))


if __name__ == "__main__":
    main()
