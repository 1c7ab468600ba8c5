"""The four benchmark workloads.  Each builds, from the workload seed alone,
the inputs it hands to the CLI (ranges, initial values, ``--seed`` values,
generated equation documents) and the check for every command's output.

Sizes: ``full`` is what the benchmark measures; ``smallest`` runs every
command type once on tiny inputs, for the self-test.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Optional

import checks

SAMPLES = ("2hd1", "exp", "hd0", "hs", "hs3", "lin2_sep", "lin_32", "nonred", "rk")
# Documents with a constructive factorization (hd0 is HD0, nonred has none).
FACTORIZABLE = ("exp", "hs", "hs3", "2hd1", "rk", "lin2_sep", "lin_32")
# 2hd1 is left out: its increments can round to zero within 12 steps, which
# the CLI correctly reports as a domain error (exit 1).
SIMULATED = ("hd0", "exp", "rk", "hs", "hs3", "lin_32", "lin2_sep")
MULTIPLICATIVE = {"exp", "hd0", "hs", "rk"}
SEPARABLE = ("exp", "hs", "lin2_sep")
# Command mixes (see README): the 50th and 90th percentiles of the command
# times must fall in the middle of a group of commands of like cost, never in
# the gap between two groups, where machine noise moves them.  Hence the
# trials of the smaller verify command per document: each costs about 0.18 s
# on a 2-vCPU VM with Python 3.11, and the larger one, with 2.5 times the
# trials, about 0.35 s.
VERIFY_TRIALS = {"exp": 220, "hs": 100, "hs3": 140, "2hd1": 90, "rk": 120, "lin2_sep": 120, "lin_32": 340}


@dataclass
class Command:
    args: list[str]  # arguments after ``scfact``
    check: checks.Check
    units: int = 1  # workload units finished when the command succeeds
    out: Optional[Path] = None  # the --out file, when the command writes one


@dataclass
class Workload:
    name: str
    why: str  # the reason the workload was chosen
    unit: str  # the unit of work
    docs: list[Path]  # the documents set-up loads
    commands: list[Command]
    probes: list[Command] = field(default_factory=list)  # known-defect contract probes, untimed


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 10**6))


def _doc(root: Path, name: str) -> Path:
    return root / "equations" / f"{name}.eq"


def _decimal(value: Fraction) -> str:
    """Exact decimal text of a fraction whose denominator divides a power of 10."""
    return format(Decimal(value.numerator) / Decimal(value.denominator), "f")


def _doc_summary(path: Path) -> tuple[str, str, int]:
    """(name, kind as ``scfact parse`` prints it, order) read from the document text."""
    text = path.read_text(encoding="utf-8")
    field_of = lambda key: re.search(rf'^{key}\s*=\s*"?([^"\n#]+)"?', text, re.M)[1].strip()
    kind = field_of("kind")
    if kind == "separable":
        group = "additive" if field_of("group").startswith("additive") else "multiplicative"
        kind = f"separable ({group})"
    return field_of("name"), kind, int(field_of("order"))


def _factor(root: Path, rng: random.Random, name: str) -> Command:
    order = _doc_summary(_doc(root, name))[2]
    return Command(
        ["factor", str(_doc(root, name)), "--seed", _seed(rng)],
        checks.expect_exit(0, checks.constants_output(name, order)),
    )


def sweep(root: Path, work: Path, seed: int, size: str) -> Workload:
    rng = random.Random(seed)
    full = size == "full"
    transient, keep = (100, 200) if full else (20, 40)
    # (sample, grid points of each command, fixed x(-1) range, sweep start
    # range, sweep width).  Positive starts keep both maps on their carrier,
    # so no point is invalid.
    specs = (
        ("hd0", (120, 120), (0.5, 3.0), (0.2, 2.0), 3.0),
        ("exp", (120, 170, 250), (1.0, 4.0), (0.5, 3.0), 2.5),
    )
    commands = []
    for name, sizes, (fix_lo, fix_hi), lo_range, width in specs:
        sizes = sizes if full else (6,)
        for i, points in enumerate(sizes):
            # Each command takes its own stratum of the fixed coordinate, so
            # every seed covers the whole range and costs about the same.
            stratum = (fix_hi - fix_lo) / len(sizes)
            fix = f"{rng.uniform(fix_lo + stratum * i, fix_lo + stratum * (i + 1)):.4f}"
            lo = f"{rng.uniform(*lo_range):.4f}"
            hi = f"{float(lo) + width:.4f}"
            out = work / f"sweep-{name}-{i}.csv"
            commands.append(
                Command(
                    ["bifurcate", str(_doc(root, name)), "--fix", f"x-1={fix}",
                     "--sweep", f"x0={lo}:{hi}:{points}", "--transient", str(transient),
                     "--keep", str(keep), "--out", str(out), "--seed", _seed(rng)],
                    checks.expect_exit(0, checks.sweep_csv(name, float(lo), float(hi), points, keep)),
                    units=points,
                    out=out,
                )
            )
    docs = [_doc(root, "exp"), _doc(root, "hd0")]
    why = ("bifurcate on exp.eq and hd0.eq: per-step work (step, evaluate) and CSV writing dominate; "
           "interpreter set-up is about 31% of command time")
    return Workload("sweep", why, "points", docs, commands)


def verify(root: Path, work: Path, seed: int, size: str) -> Workload:
    rng = random.Random(seed)
    full = size == "full"
    long_steps = 200 if full else 10
    names = FACTORIZABLE if full else ("exp", "hs3")
    commands = []
    for name in names:
        # The chaotic exp orbits amplify rounding past the 1e-9 tolerance
        # beyond about 100 steps, so exp keeps the README's 60.
        steps = min(60, long_steps) if name == "exp" else long_steps
        commands.append(_factor(root, rng, name))
        for trials in (VERIFY_TRIALS[name], VERIFY_TRIALS[name] * 5 // 2) if full else (2,):
            commands.append(
                Command(
                    ["verify", str(_doc(root, name)), "--steps", str(steps), "--trials", str(trials),
                     "--seed", _seed(rng)],
                    checks.expect_exit(0, checks.verify_output(trials, steps)),
                    units=trials,
                )
            )
    commands.append(
        Command(["verify", str(_doc(root, "nonred")), "--steps", str(long_steps), "--trials", "20",
                 "--seed", _seed(rng)],
                checks.expect_exit(1, checks.one_line_error("Error: no form symmetry found")), units=0)
    )
    docs = [_doc(root, name) for name in names] + [_doc(root, "nonred")]
    why = ("factor then verify on each factorizable sample plus nonred.eq: "
           "constant search, HD1 sampling and both verifiers")
    return Workload("verify", why, "trials", docs, commands)


_ROOTS = [Fraction(p, 20) for p in range(-18, 19) if p]  # |root| < 1, exact decimals


def _distinct_roots(rng: random.Random, count: int, avoid=()) -> list[Fraction]:
    out: list[Fraction] = []
    while len(out) < count:
        c = rng.choice(_ROOTS)
        if all(abs(c - o) >= Fraction(1, 5) for o in [*out, *avoid]):
            out.append(c)
    return out


def _linear_doc(path: Path, roots: list[Fraction], forcing: Fraction) -> list[Fraction]:
    """Write a linear document with characteristic roots ``roots``; returns ``b``."""
    poly = [Fraction(1)]  # monic, descending powers
    for c in roots:
        poly = [a - c * b for a, b in zip(poly + [Fraction(0)], [Fraction(0)] + poly)]
    b = poly[1:]
    path.write_text(
        f'[equation]\nname = "{path.stem}"\norder = {len(roots)}\ngroup = "additive"\nkind = "linear"\n'
        f"b = [{', '.join(_decimal(v) for v in b)}]\nforcing = \"{_decimal(forcing)}\"\n",
        encoding="utf-8",
    )
    return b


def _solve_linear(path: Path, b, forcing, rng: random.Random, n: int, units: int) -> Command:
    init = [Fraction(rng.randint(-8, 8), 4) for _ in b]
    exact = checks.linear_oracle(b, forcing, init, n)
    routes = 3 if len(b) == 2 else 2
    return Command(
        ["solve-linear", str(path), "--init", ",".join(_decimal(v) for v in init), "--n", str(n),
         "--tol", "1e-8", "--seed", _seed(rng)],
        checks.expect_exit(0, checks.solve_linear_output(exact, n, routes, 1e-8)),
        units=units,
    )


def linear(root: Path, work: Path, seed: int, size: str) -> Workload:
    rng = random.Random(seed)
    full = size == "full"
    commands, docs = [], []
    # One document with distinct roots and one with a double root, so both
    # branches of sigma_closed_form run; different horizons give the two
    # solves different costs.
    for label, roots, n in (("distinct", _distinct_roots(rng, 2), 600 if full else 20),
                            ("repeated", _distinct_roots(rng, 1) * 2, 1000 if full else 20)):
        forcing = Fraction(rng.randint(1, 16), 8) * rng.choice((-1, 1))
        path = work / f"linear_{label}.eq"
        b = _linear_doc(path, roots, forcing)
        docs.append(path)
        commands.append(_solve_linear(path, b, forcing, rng, n, units=n))
    double = _distinct_roots(rng, 1)
    roots = double * 2 + _distinct_roots(rng, 2, avoid=double)
    path = work / "linear_order4.eq"
    _linear_doc(path, roots, Fraction(0))
    docs.append(path)
    commands.append(
        Command(["factor", str(path), "--seed", _seed(rng)],
                checks.expect_exit(0, checks.constants_output("linear_order4", 4, [complex(r) for r in roots])),
                units=0)
    )
    why = ("solve-linear at a long horizon and factor of an order-4 repeated-root document: "
           "the O(n^2) closed form, root finding")
    return Workload("linear", why, "indices", docs, commands)


def _init_values(rng: random.Random, name: str, order: int) -> list[str]:
    lo, hi = (0.5, 3.0) if name in MULTIPLICATIVE else (-2.0, 2.0)
    return [f"{rng.uniform(lo, hi):.4f}" for _ in range(order)]


def startup(root: Path, work: Path, seed: int, size: str) -> Workload:
    rng = random.Random(seed)
    full = size == "full"
    commands = []
    for name in SAMPLES if full else ("exp",):
        commands.append(
            Command(["parse", str(_doc(root, name)), "--seed", _seed(rng)],
                    checks.expect_exit(0, checks.parse_output(*_doc_summary(_doc(root, name)))))
        )
    for name in SIMULATED if full else ("hd0",):
        init = _init_values(rng, name, _doc_summary(_doc(root, name))[2])
        commands.append(
            Command(["simulate", str(_doc(root, name)), "--init", ",".join(init), "--steps", "12",
                     "--seed", _seed(rng)],
                    checks.expect_exit(0, checks.orbit_csv(name, [float(v) for v in init], 12)))
        )
    for name in FACTORIZABLE if full else ("exp",):
        commands.append(_factor(root, rng, name))
    # The separable samples' factor runs the reduction-constant scan, the
    # costliest short command.  A second seed of each makes that group about
    # a fifth of the round, so the 90th percentile falls in its middle.
    for name in SEPARABLE if full else ():
        commands.append(_factor(root, rng, name))
    lin_32_b = [Fraction(-3), Fraction(2)]  # as in equations/lin_32.eq
    commands.append(_solve_linear(_doc(root, "lin_32"), lin_32_b, Fraction(0), rng, 10, units=1))
    # ROADMAP Open item 3 inputs: fixed, checked against the error contract
    # rather than a hash, so the defects show until they are fixed.
    lin_32 = str(_doc(root, "lin_32"))
    probes = [
        Command(["simulate", lin_32, "--init", "0,1", "--steps", "1100"], checks.error_contract),
        Command(["solve-linear", lin_32, "--init", "0,1", "--n", "2000"], checks.error_contract),
    ]
    docs = [_doc(root, name) for name in (SAMPLES if full else ("exp", "hd0", "lin_32"))]
    why = ("README short commands on every sample: "
           "interpreter start-up, import and parsing, where load-time costs show")
    return Workload("startup", why, "commands", docs, commands, probes)


BUILDERS = {"sweep": sweep, "verify": verify, "linear": linear, "startup": startup}
