"""Acceptance gate: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` -- each criterion reports one
``ACCEPTANCE n: PASS/FAIL`` line on the terminal as it completes.
"""

import cmath
import math
import time
from random import Random

import pytest

from scfact import (
    as_separable_additive,
    bifurcation_sweep,
    characteristic_polynomial,
    check_hd1,
    detect_period,
    evaluate,
    factor_hd1,
    factor_linear_full,
    factor_locus,
    factor_separable_additive,
    factor_separable_multiplicative,
    factorize,
    general_equation,
    iterate_orbit,
    linear_equation,
    linearize_at,
    parse_expression,
    simulate_cascade,
    simulate_factorization,
    solve_order2_closed_form,
    solve_reduction_constant,
    verify_equivalence,
    verify_semiconjugacy,
)
from scfact.expressions import format_expression
from scfact.equations import GroupTag

from helpers import (
    C_PLUS,
    draw_hs3_init,
    hd0_cycle,
    make_2hd1,
    make_exp,
    make_hd0_separable,
    make_hd1m_separable,
    make_hs3,
    make_rk,
    rel_err,
)
from test_expressions import random_tree


@pytest.fixture(autouse=True)
def acceptance_banner(request):
    yield
    marker = request.node.get_closest_marker("criterion")
    rep = getattr(request.node, "rep_call", None)
    if marker is None or rep is None:
        return
    number, description = marker.args
    status = "PASS" if rep.passed else "FAIL"
    writer = request.config.pluginmanager.get_plugin("terminalreporter")
    if writer is not None:
        writer.write_line(f"ACCEPTANCE {number}: {status} - {description}")


@pytest.mark.criterion(1, "linear cascade equivalence, 50 random equations")
def test_criterion_1_linear_cascade_equivalence():
    rng = Random(101)
    started = time.monotonic()
    for trial in range(50):
        order = rng.randrange(2, 8)
        coeffs = [rng.uniform(-2, 2) for _ in range(order)]
        if trial % 2 == 0:
            forcing = "0"
        else:
            forcing = f"{rng.uniform(-1, 1)!r}*({rng.uniform(0.5, 1.2)!r}^n)"
        eq = linear_equation(coeffs, forcing)
        system = factor_linear_full(eq)

        poly = characteristic_polynomial(eq)
        recon = system.reconstructed_polynomial()
        assert max(
            abs(a - b) for a, b in zip(recon.coefficients, poly.coefficients)
        ) <= 1e-8

        init = [rng.uniform(-1, 1) for _ in range(order)]
        report = verify_equivalence(eq, system, init, 50, tol=1e-6)
        assert report.passed, (coeffs, report.max_residual)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"


@pytest.mark.criterion(2, "reduction constants of the p+q=-1 family are {1, q}")
def test_criterion_2_eigenvalue_identity():
    rng = Random(102)
    checked = 0
    while checked < 10:
        q = rng.uniform(-2, 2)
        if abs(q - 1) < 1e-3:
            continue  # merged double constant would be {1, 1}, not two values
        eq = linear_equation([-1 - q, q], name="lin2")
        constants = solve_reduction_constant(eq)
        got = sorted(constants.expanded(), key=lambda z: z.real)
        want = sorted([1.0, q])
        assert len(got) == 2
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-8
        checked += 1


@pytest.mark.criterion(3, "order-2 closed forms match iteration (both sigma branches)")
def test_criterion_3_closed_forms():
    rng = Random(103)
    for trial in range(30):
        style = trial % 3
        if style == 0:
            b = [rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)]
            forcing = "0"
        elif style == 1:
            c = rng.uniform(-1.2, 1.2)
            b = [-2 * c, c * c]  # (z - c)^2: repeated eigenvalue branch
            forcing = "0"
        else:
            b = [rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)]
            forcing = f"{rng.uniform(-1, 1)!r}*({rng.uniform(0.4, 1.1)!r}^n)"
        eq = linear_equation(b, forcing)
        init = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        n = rng.randrange(1, 26)
        direct = iterate_orbit(eq, init, n).values[-1]
        closed = solve_order2_closed_form(eq, init, n)
        assert rel_err(closed, direct) < 1e-8, (b, forcing, init, n)


@pytest.mark.criterion(4, "HD1 detection suite at tol 1e-9 with 500 samples")
def test_criterion_4_hd1_suite():
    for eq in (make_rk(2, 1.0, 0.5), make_rk(3, 1.0, 0.5), make_2hd1(1.0), make_hs3(1.0)):
        report = check_hd1(eq, samples=500, tol=1e-9, seed=11)
        assert report.verdict, (eq.name, report.max_residual)
        assert report.samples == 500
    square = check_hd1(
        general_equation("x0^2", 1, GroupTag.ADDITIVE_REAL), samples=500, tol=1e-9, seed=11
    )
    assert not square.verdict
    assert square.witness is not None


@pytest.mark.criterion(5, "third-order square-increment equation: explicit sum formula")
def test_criterion_5_example2_closed_form():
    a = 1.0
    eq = make_2hd1(a)
    init = (0.0, 1.0, 3.0)
    x0, t0 = 3.0, 2.0
    s0 = 2.0  # (x0 - x_{-1}) / (x_{-1} - x_{-2})
    direct = iterate_orbit(eq, init, 20)
    fact = factor_hd1(eq)
    reconstructed, _ = simulate_factorization(fact, init, 20)
    assert rel_err(direct.values[0], 7) < 1e-12
    assert rel_err(direct.values[1], 15) < 1e-12
    for n in range(1, 21):
        closed = x0 + t0 * sum(s0**j * a ** (j * (j + 1) / 2) for j in range(1, n + 1))
        assert rel_err(closed, direct.values[n - 1]) < 1e-8
        assert rel_err(reconstructed.values[n - 1], direct.values[n - 1]) < 1e-8


@pytest.mark.criterion(6, "ratio-increment equation: factor period 6 and explicit solution")
def test_criterion_6_example3_period_and_solution():
    rng = Random(106)
    for trial in range(20):
        a = 1.0 if trial % 2 == 0 else 1.6
        eq = make_hs3(a)
        t_m1 = rng.choice([-1, 1]) * rng.uniform(0.4, 2.2)
        t_0 = rng.choice([-1, 1]) * rng.uniform(0.4, 2.2)
        x_m2 = rng.uniform(-1, 1)
        init = (x_m2, x_m2 + t_m1, x_m2 + t_m1 + t_0)
        fact = factor_hd1(eq)
        x_orbit, t_orbit = simulate_factorization(fact, init, 60)
        assert t_orbit.truncated_at is None
        detected = detect_period(t_orbit, tol=1e-9, max_period=8)
        assert detected is not None and detected[0] == 6, (a, init)

        cycle = hd0_cycle(t_m1, t_0, a)
        sigma = sum(cycle)
        x_0 = init[-1]
        for n in range(1, 61):
            rho = n % 6
            tail = sum(cycle[(i + 1) % 6] for i in range(n - rho + 1, n + 1))
            explicit = x_0 + (sigma / 6) * (n - rho) + tail
            assert rel_err(x_orbit.values[n - 1], explicit) < 1e-8, (a, init, n)


@pytest.mark.criterion(7, "exponential equation: r-period, locus, sweep census, eigenvalues")
def test_criterion_7_example4_properties():
    a = 4.6
    eq = make_exp(a)
    rng = Random(107)

    # (a) induced r-sequence has period 2 within 1e-9
    for _ in range(10):
        x_m1, x_0 = rng.uniform(0.3, 5.0), rng.uniform(0.3, 5.0)
        r0 = x_0 / (x_m1 * math.exp(-x_m1))
        if abs(r0 - math.exp(a / 2)) < 1e-3:
            continue
        seq = iterate_orbit(eq, (x_m1, x_0), 300).full_sequence
        expected = {1: math.exp(a) / r0, 0: r0}
        for n in range(1, len(seq) - 1):
            r = seq[n + 1].real / (seq[n].real * math.exp(-seq[n].real))
            assert rel_err(r, expected[n % 2]) < 1e-9

    # (b) locus on the factorization's cofactor curves at 1e-6 over 300
    # steps, 20 random pairs in (0, 6]^2; the factor r-orbit has period 2,
    # or 1 at r0 = e^{a/2}
    fact = factorize(eq)[0]
    for _ in range(20):
        x_m1, x_0 = rng.uniform(1e-6, 6.0), rng.uniform(1e-6, 6.0)
        report = factor_locus(fact, iterate_orbit(eq, (x_m1, x_0), 300), 1e-6)
        assert report.passed and report.period in (1, 2)

    # (c) sweep: nonempty period-2 census, no odd period beyond 1
    started = time.monotonic()
    grid = [2.3 + 2.5 * j / 499 for j in range(500)]
    data = bifurcation_sweep(eq, {"x-1": 2.3}, "x0", grid, 100, 200)
    elapsed = time.monotonic() - started
    census = data.period_census()
    assert census.get(2, 0) > 0
    assert all(p == 1 or p % 2 == 0 for p in census)
    for period, value in zip(data.periods, data.grid):
        if period == 1:
            assert value == 2.3
    assert elapsed < 30.0, f"sweep took {elapsed:.1f}s"

    # (d) linearization eigenvalues at both fixed points
    interior = sorted(e.real for e in linearize_at(eq, 2.3).eigenvalues)
    assert abs(interior[0] + 1.3) < 1e-3 and abs(interior[1] + 1.0) < 1e-3
    origin = sorted(e.real for e in linearize_at(eq, 0.0).eigenvalues)
    w = math.exp(2.3)
    assert abs(origin[0] + w) < 1e-3 * w and abs(origin[1] - w) < 1e-3 * w


@pytest.mark.criterion(8, "full triangular cascade of the ratio-increment equation")
def test_criterion_8_example5_ftf():
    hs3 = make_hs3(1.0)
    hd0_sep = make_hd0_separable(1.0)
    constants = solve_reduction_constant(hd0_sep)
    c_plus = next(c.value for c in constants.constants if c.value.imag > 0)
    assert abs(c_plus - C_PLUS) < 1e-9
    outer = factor_hd1(hs3)
    inner = factor_separable_multiplicative(hd0_sep, c_plus)
    rng = Random(108)
    for _ in range(20):
        init = draw_hs3_init(rng)
        direct = iterate_orbit(hs3, init, 60)
        via, _ = simulate_cascade([outer, inner], init, 60)
        assert direct.truncated_at is None and via.truncated_at is None
        assert max(rel_err(p, q) for p, q in zip(via.values, direct.values)) < 1e-6
        assert max(abs(v.imag) for v in via.values) <= 1e-8


@pytest.mark.criterion(9, "semiconjugacy verifier: all produced factorizations; corrupted factor fails")
def test_criterion_9_semiconjugacy_everywhere():
    """Every construction route the suite exercises, with its identity
    checked pointwise at tol 1e-9 on 200 samples."""
    from scfact import FormSymmetry, GeneralMap, make_factorization, separable_additive_equation

    produced = []
    for a in (4.6, 2.5):
        eq = make_exp(a)
        produced.append((eq, factor_separable_multiplicative(eq, -1.0)))
    eq = make_hd0_separable(1.0)
    produced.append((eq, factor_separable_multiplicative(eq, C_PLUS)))
    eq = make_hd1m_separable(1.0)
    produced.append((eq, factor_separable_multiplicative(eq, 1.0)))
    hd1_sources = (
        make_2hd1(1.0),
        make_hs3(1.0),
        make_rk(2, 0.3, 0.4),
        make_rk(2, 0.6, 0.7),
        make_rk(3, 1.0, 0.5),
        general_equation(
            "x0*((1 + 0.5*cos(n))*x1/x2 + 0.7)", 3, GroupTag.MULTIPLICATIVE_POSITIVE
        ),
    )
    for eq in hd1_sources:
        produced.append((eq, factor_hd1(eq)))
    sep = as_separable_additive(linear_equation([-3, 2], forcing="0.2*(0.9^n)"))
    produced.append((sep, factor_separable_additive(sep, 2.0)))
    produced.append((sep, factor_separable_additive(sep, 1.0)))
    degenerate = separable_additive_equation(["x"], "0")
    produced.append((degenerate, factor_separable_additive(degenerate, 1.0)))
    intermediate = general_equation("x1 + 0.5*(x0 - x2) + 1", 4, GroupTag.ADDITIVE_REAL)
    sym = FormSymmetry(
        2, GroupTag.ADDITIVE_REAL, GeneralMap(parse_expression("-x1"), 2)
    )
    inter_factor = general_equation("0.5*x0 + 1", 2, GroupTag.ADDITIVE_REAL)
    produced.append((intermediate, make_factorization(intermediate, sym, inter_factor)))

    for eq, fact in produced:
        report = verify_semiconjugacy(eq, fact.symmetry, fact.factor, 200, 1e-9, seed=13)
        assert report.passed, (eq.name, report.max_residual)

    eq = make_2hd1(1.0)
    fact = factor_hd1(eq)
    wrong = general_equation("a*x0^3/x1", 2, GroupTag.ADDITIVE_REAL, params={"a": 1.0})
    bad = verify_semiconjugacy(eq, fact.symmetry, wrong, 200, 1e-9, seed=13)
    assert not bad.passed and bad.witness is not None


@pytest.mark.criterion(10, "delay ratio equation: decay below 1e-6 / growth above 1e6")
def test_criterion_10_example1_asymptotics():
    rng = Random(110)
    for (a, b), direction in [((0.3, 0.4), "down"), ((0.8, 0.7), "up")]:
        eq = make_rk(2, a, b)
        for _ in range(5):
            init = [math.exp(rng.uniform(-0.7, 0.7)) for _ in range(3)]
            orbit = iterate_orbit(eq, init, 500)
            magnitudes = [abs(v) for v in orbit.values]
            if direction == "down":
                assert min(magnitudes) < 1e-6, (a, b, init)
            else:
                assert max(magnitudes) > 1e6, (a, b, init)


@pytest.mark.criterion(11, "expression round-trip on 200 random trees at 1e-12")
def test_criterion_11_parser_round_trip():
    rng = Random(111)
    passed = 0
    attempts = 0
    while passed < 200:
        attempts += 1
        assert attempts < 4000
        tree = random_tree(rng, rng.randrange(1, 5))
        env = {v: complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for v in ("x", "y", "z")}
        try:
            want = evaluate(tree, env)
        except Exception:
            continue
        if not cmath.isfinite(want):
            continue
        got = evaluate(parse_expression(format_expression(tree)), env)
        assert rel_err(got, want) < 1e-12
        passed += 1
