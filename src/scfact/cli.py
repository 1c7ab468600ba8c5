"""Command-line surface: parse/validate, simulate, factor, verify, solve, sweep.

Exit codes: 0 on success, 1 on validation or verification failure, 2 on
usage errors.  Initial values are given oldest first (``x_{-k},...,x_0``),
matching the library convention.  Complex flag values are ``re,im`` pairs;
all numbers are finite decimal doubles, and counts have lower bounds.
Commands are deterministic for a given ``--seed`` and identical invocations
produce byte-identical CSV output.
"""

from __future__ import annotations

import cmath
from typing import Optional

import click

from . import dynamics, equations, expressions, factorization, polynomials, symmetry


def __getattr__(name: str):
    """The typed errors a command reports, read from their modules on first use."""
    for module in (equations, expressions, polynomials, symmetry, factorization):
        if name.endswith("Error") and name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _load(path: str) -> equations.DifferenceEquation:
    try:
        return equations.load_equation_file(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise click.ClickException(f"cannot read {path}: {exc}")
    except equations.DocumentError as exc:
        raise click.ClickException(f"{path}: {exc}")


def _parse_init(text: str, order: int) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise click.UsageError(f"cannot parse initial values {text!r}")
    if not all(map(cmath.isfinite, values)):
        raise click.UsageError(f"initial values must be finite, got {text!r}")
    if len(values) != order:
        raise click.UsageError(f"expected {order} initial values, got {len(values)}")
    return values


def _parse_finite(text: str, what: str) -> float:
    try:
        number = float(text)
    except ValueError:
        raise click.UsageError(f"cannot parse {what}")
    if not cmath.isfinite(number):
        raise click.UsageError(f"{what} is not finite")
    return number


def _tolerance(ctx, param, value: float) -> float:
    """The callback of every ``--tol``: finite and at least 0."""
    if not (cmath.isfinite(value) and value >= 0):
        raise click.BadParameter(f"{value!r} is not a finite number at least 0", ctx, param)
    return value


def _parse_complex(text: str) -> complex:
    try:
        value = complex(*map(float, text.split(",")))
    except (ValueError, TypeError):
        raise click.UsageError(f"cannot parse complex value {text!r}; use 're,im'")
    if not cmath.isfinite(value):
        raise click.UsageError(f"complex value {text!r} is not finite")
    return value


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
    """Every typed library error (root finding, deflation, symmetry search and
    validation, factorization, evaluation) ends a command with one line, exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, SystemExit):
            raise  # before reading the error types, which would run modules a parse never needs
        except (polynomials.PolynomialError, factorization.FactorizationError, symmetry.SymmetryError,
                expressions.EvaluationError) as exc:
            raise click.ClickException(str(exc))


@click.group(cls=_Commands)
def main():
    """Reduce, simulate, and verify scalar difference equations."""


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--init", "init_text", required=True, help="initial values, oldest first")
@click.option("--steps", default=100, show_default=True, type=click.IntRange(min=0))
@click.option("--out", default=None, help="CSV destination (default: stdout)")
@click.option("--tol", default=1e-5, show_default=True, type=float, callback=_tolerance, help="period-detection tolerance")
@click.option("--seed", default=0, show_default=True, type=int, help="reproducibility seed (simulation is deterministic)")
def simulate(file, init_text, steps, out, tol, seed):
    """Iterate an equation and write the orbit CSV, reporting any period."""
    eq = _load(file)
    init = _parse_init(init_text, eq.order)
    try:
        orbit = equations.iterate_orbit(eq, init, steps)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    with _output(out) as fh:
        equations.write_orbit_csv(orbit, fh)
    total = len(orbit.full_sequence)
    period = equations._smallest_period(orbit.full_sequence, tol, min(64, max(1, (total - 2) // 2)))
    if period:
        click.echo(f"period {period}")
    if orbit.truncated_at is not None:
        click.echo(
            f"truncated at n={orbit.truncated_at}: {orbit.truncation_reason}",
            err=True,
        )
        raise SystemExit(1)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--constant", default=None, help="reduction constant as 're,im'")
@click.option("--out", default=None, help="report destination (default: stdout)")
@click.option("--tol", default=1e-8, show_default=True, type=float, callback=_tolerance)
@click.option("--seed", default=0, show_default=True, type=int)
def factor(file, constant, out, tol, seed):
    """Construct and print a semiconjugate factorization."""
    eq = _load(file)
    requested = _parse_complex(constant) if constant is not None else None
    with _output(out) as fh:
        fact, constants = factorization.factorize(eq, requested, tol, seed)
        if isinstance(fact, factorization.TriangularSystem):
            fh.write(factorization.render_triangular_system(fact) + "\n")
            return
        residual = None
        if constants is not None:
            lines = [
                f"  c = {expressions.format_complex(rc.value)} (multiplicity {rc.multiplicity}, "
                f"residual {rc.residual:.2e})"
                for rc in constants.constants
            ]
            fh.write("reduction constants:\n" + "\n".join(lines) + "\n")
            for rc in constants.constants:
                if abs(rc.value - fact.symmetry.constant) <= 1e-9 * (1 + abs(rc.value)):
                    residual = rc.residual
        fh.write(factorization.render_factorization(fact, residual) + "\n")


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--steps", default=100, show_default=True, type=click.IntRange(min=1))
@click.option("--trials", default=20, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--tol", default=1e-9, show_default=True, type=float, callback=_tolerance)
@click.option("--constant", default=None, help="inject a reduction constant 're,im'")
def verify(file, steps, trials, seed, tol, constant):
    """Check the semiconjugacy identity and solution equivalence."""
    eq = _load(file)
    requested = _parse_complex(constant) if constant is not None else None
    fact, _ = factorization.factorize(eq, requested, seed=seed, validate=requested is None)
    route = factorization.as_sc_factorization(fact)
    semi = factorization.verify_semiconjugacy(eq, route.symmetry, route.factor, samples=200, tol=tol, seed=seed)
    status = "pass" if semi.passed else "FAIL"
    click.echo(
        f"semiconjugacy: {status} ({semi.samples} samples, "
        f"max residual {semi.max_residual:.3e})"
    )

    summary = factorization.verify_trials(eq, fact, trials, steps, seed, tol)
    status = "pass" if summary.failures == 0 else f"FAIL ({summary.failures} of {trials} trials)"
    click.echo(
        f"equivalence: {status} ({trials} trials x {steps} steps, "
        f"max residual {summary.max_residual:.3e})"
    )
    if summary.complex_route and summary.real_reconstruction and summary.failures == 0:
        click.echo("note: complex intermediates, real orbit")
    if summary.failures or not semi.passed:
        raise SystemExit(1)


@main.command("solve-linear")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--init", "init_text", required=True, help="initial values, oldest first")
@click.option("--n", "n_index", required=True, type=click.IntRange(min=0), help="target index n")
@click.option("--tol", default=1e-8, show_default=True, type=float, callback=_tolerance, help="route-agreement tolerance")
@click.option("--seed", default=0, show_default=True, type=int, help="reproducibility seed (solve is deterministic)")
def solve_linear(file, init_text, n_index, tol, seed):
    """Evaluate x_n by cascade, direct iteration, and (order 2) closed form."""
    eq = _load(file)
    if not isinstance(eq.kind, equations.Linear):
        raise click.UsageError("solve-linear requires a linear equation")
    init = _parse_init(init_text, eq.order)
    direct_orbit = equations.iterate_orbit(eq, init, n_index)
    if direct_orbit.truncated_at is not None:
        raise click.ClickException(
            f"direct iteration failed: {direct_orbit.truncation_reason}"
        )
    direct = direct_orbit.full_sequence[-1]
    if not cmath.isfinite(direct):
        raise click.ClickException(
            f"direct iteration: x_{n_index} = {expressions.format_complex(direct)} is not finite"
        )
    system = factorization.factor_linear_full(eq)
    cascade_orbit, _ = system.simulate(init, n_index)
    cascade = cascade_orbit.full_sequence[-1]
    click.echo(f"direct iteration: x_{n_index} = {expressions.format_complex(direct)}")
    click.echo(f"triangular cascade: x_{n_index} = {expressions.format_complex(cascade)}")
    values = [direct, cascade]
    if eq.order == 2:
        closed = polynomials.solve_order2_closed_form(eq, init, n_index)
        click.echo(f"closed form: x_{n_index} = {expressions.format_complex(closed)}")
        values.append(closed)
    scale = 1 + abs(direct)
    if any(abs(v - direct) > tol * scale for v in values):
        click.echo(f"routes disagree beyond {tol:g} relative", err=True)
        raise SystemExit(1)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--fix", "fixes", multiple=True, help="fixed coordinate name=value")
@click.option("--sweep", "sweep_spec", required=True, help="name=lo:hi:count")
@click.option("--transient", default=100, show_default=True, type=click.IntRange(min=0))
@click.option("--keep", default=200, show_default=True, type=click.IntRange(min=1))
@click.option("--tol", default=1e-5, show_default=True, type=float, callback=_tolerance)
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
        fixed[name.strip()] = _parse_finite(value, f"fixed value in {item!r}")
    name, sep, rng_text = sweep_spec.partition("=")
    parts = rng_text.split(":")
    if not sep or len(parts) != 3:
        raise click.UsageError("--sweep expects name=lo:hi:count")
    lo, hi = (_parse_finite(part, f"sweep range {rng_text!r}") for part in parts[:2])
    try:
        count = int(parts[2])
    except ValueError:
        raise click.UsageError(f"cannot parse sweep range {rng_text!r}")
    if count < 1:
        raise click.UsageError("sweep count must be at least 1")
    if count > 1 and not cmath.isfinite(hi - lo):
        raise click.UsageError(f"sweep range {rng_text!r} is too wide")
    grid = [lo] if count == 1 else [lo + (hi - lo) * j / (count - 1) for j in range(count)]
    try:
        data = dynamics.bifurcation_sweep(
            eq, fixed, name.strip(), grid, transient, keep, period_tol=tol
        )
    except KeyError as exc:
        raise click.UsageError(str(exc.args[0]))
    except ValueError as exc:
        raise click.UsageError(str(exc))
    with _output(out) as fh:
        dynamics.write_bifurcation_csv(data, fh)
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
        equations.General: "general",
        equations.Linear: "linear",
        equations.SeparableAdditive: "separable (additive)",
        equations.SeparableMultiplicative: "separable (multiplicative)",
    }[type(kind)]
    click.echo(f"name: {eq.name or '(unnamed)'}")
    click.echo(f"kind: {kind_name}")
    click.echo(f"order: {eq.order}")
    click.echo(f"group: {eq.group.value}")
    if eq.params:
        rendered = ", ".join(
            f"{k} = {expressions.format_complex(v)}" for k, v in sorted(eq.params.items())
        )
        click.echo(f"params: {rendered}")
    click.echo(equations.render_equation(eq))


if __name__ == "__main__":
    main()  # runs only in a subprocess, which line coverage does not count
