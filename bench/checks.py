"""Output checks for the benchmark: the CLI's documented contract plus
independent oracles that recompute results without importing scfact.

Every check takes an :class:`Outcome` and returns ``None`` when the output is
correct, or a one-line reason when it is not.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

Check = Callable[["Outcome"], Optional[str]]


@dataclass(frozen=True)
class Outcome:
    code: int
    stdout: str
    stderr: str
    out: Optional[bytes] = None  # contents of the --out file, if the command has one


def run_check(check: Check, outcome: Outcome) -> Optional[str]:
    """``check(outcome)``, with output too malformed to read counted as a failure."""
    try:
        return check(outcome)
    except (ArithmeticError, AttributeError, LookupError, TypeError, ValueError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"


# ----------------------------------------------------------------------
# Parsing what the CLI prints
# ----------------------------------------------------------------------


def _imag(text: str) -> float:
    if text in ("i", "-i"):
        return -1.0 if text == "-i" else 1.0
    if not text.endswith("*i"):
        raise ValueError(f"not an imaginary part: {text!r}")
    return float(text[:-2])


def parse_number(text: str) -> complex:
    """Read a scalar as the CLI prints it: ``2``, ``-0.5 + 0.87*i``, ``-i``."""
    text = text.strip()
    m = re.fullmatch(r"(\S+) ([+-]) (\S+)", text)
    if m:
        im = _imag(m[3])
        return complex(float(m[1]), -im if m[2] == "-" else im)
    if text.endswith("i"):
        return complex(0.0, _imag(text))
    return complex(float(text))


def _close(a: complex, b: complex, tol: float) -> bool:
    return abs(a - b) <= tol * (1 + abs(b))


def _match_sets(got: Sequence[complex], want: Sequence[complex], tol: float) -> bool:
    """Multiset equality within ``tol`` (greedy nearest matching)."""
    if len(got) != len(want):
        return False
    pool = list(got)
    for w in want:
        best = min(range(len(pool)), key=lambda j: abs(pool[j] - w))
        if not _close(pool[best], w, tol):
            return False
        pool.pop(best)
    return True


def _csv_rows(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"CSV header is not {header!r}")
    return [line.split(",") for line in lines[1:]]


def _lines(out: Outcome) -> list[str]:
    return out.stdout.splitlines()


# ----------------------------------------------------------------------
# Independent reference maps of the sample documents (parameters as in
# equations/*.eq).  Each takes the newest-first history and the index n.
# ----------------------------------------------------------------------

REFERENCE_MAPS: dict[str, Callable[[Sequence[float], int], float]] = {
    "hd0": lambda x, n: x[0] / x[1],
    "hs": lambda x, n: x[0] / x[1],
    "exp": lambda x, n: math.exp(4.6 - x[0] - x[1]) * x[1],
    "rk": lambda x, n: x[0] * (0.3 * x[1] / x[2] + 0.4),
    "hs3": lambda x, n: x[0] + (x[0] - x[1]) / (x[1] - x[2]),
    "lin_32": lambda x, n: 3 * x[0] - 2 * x[1],
    "lin2_sep": lambda x, n: 3 * x[0] - 2 * x[1] + 0.2 * 0.9**n,
}

# Reduction constants (separable kinds) and eigenvalues (linear kind) of
# the sample documents, from the derivations in their header comments.
KNOWN_CONSTANTS: dict[str, tuple[complex, ...]] = {
    "exp": (-1,),
    "hs": (complex(0.5, -math.sqrt(3) / 2), complex(0.5, math.sqrt(3) / 2)),
    "lin2_sep": (1, 2),
    "lin_32": (2, 1),
}

EXP_A = 4.6  # equations/exp.eq: forcing exp(a)


def linear_oracle(b: Sequence[Fraction], forcing: Fraction, init: Sequence[Fraction], n: int) -> Fraction:
    """Exact ``x_n`` of ``x(n+1) + b0 x(n) + ... + bk x(n-k) = forcing``
    from oldest-first initial values, iterated in rational arithmetic."""
    history = list(reversed(init))  # newest first
    for _ in range(n):
        nxt = forcing - sum(bj * xj for bj, xj in zip(b, history))
        history = [nxt] + history[:-1]
    return history[0]


# ----------------------------------------------------------------------
# Checks, one factory per command type
# ----------------------------------------------------------------------


def expect_exit(code: int, check: Check) -> Check:
    def run(out: Outcome) -> Optional[str]:
        if out.code != code:
            tail = (out.stderr.strip().splitlines() or [""])[-1]
            return f"exit {out.code}, expected {code}: {tail[:160]}"
        return check(out)

    return run


def one_line_error(prefix: str) -> Check:
    def run(out: Outcome) -> Optional[str]:
        lines = [line for line in out.stderr.splitlines() if line.strip()]
        if len(lines) != 1 or not lines[0].startswith(prefix):
            return f"expected one stderr line starting {prefix!r}, got {out.stderr[:160]!r}"
        return None

    return run


def parse_output(name: str, kind: str, order: int) -> Check:
    def run(out: Outcome) -> Optional[str]:
        want = [f"name: {name}", f"kind: {kind}", f"order: {order}"]
        if _lines(out)[:3] != want:
            return f"parse summary {_lines(out)[:3]} differs from {want}"
        return None

    return run


def orbit_csv(doc: str, init: Sequence[float], steps: int) -> Check:
    """Orbit CSV against the reference map; hd0 and hs must report period 6."""
    step = REFERENCE_MAPS[doc]

    def run(out: Outcome) -> Optional[str]:
        order = len(init)
        csv_lines = [line for line in _lines(out) if "," in line]
        rows = _csv_rows("\n".join(csv_lines), "n,re,im")
        if len(rows) != order + steps:
            return f"{len(rows)} orbit rows, expected {order + steps}"
        history = list(reversed(init))
        expected = list(init)
        for n in range(steps):
            v = step(history, n)
            expected.append(v)
            history = [v] + history[:-1]
        for idx, (row, want) in enumerate(zip(rows, expected)):
            if int(row[0]) != idx - (order - 1):
                return f"row {idx} has index {row[0]}"
            got = complex(float(row[1]), float(row[2]))
            if not (math.isfinite(got.real) and math.isfinite(got.imag)):
                return f"non-finite orbit value at n={row[0]}"
            if not _close(got, want, 1e-6):
                return f"x({row[0]}) = {got} but the reference map gives {want}"
        if doc in ("hd0", "hs") and "period 6" not in _lines(out):
            return "period 6 not reported"
        return None

    return run


def constants_output(doc: str, order: int, expected: Optional[Sequence[complex]] = None) -> Check:
    """``scfact factor`` report: known constants or eigenvalues, or the
    HD1 reduction type for general documents."""
    want = tuple(expected) if expected is not None else KNOWN_CONSTANTS.get(doc)

    def run(out: Outcome) -> Optional[str]:
        text = out.stdout
        if want is None:
            line = f"reduction type: ({order - 1}, 1) of order {order}"
            return None if line in _lines(out) else f"missing {line!r}"
        eig = [line for line in _lines(out) if line.startswith("eigenvalues: ")]
        if eig:
            got = [parse_number(m) for m in re.findall(r"(?:^|, )(.+?) \(residual [^)]*\)", eig[0][13:])]
        else:
            got = [parse_number(m) for m in re.findall(r"c = (.+?) \(multiplicity", text)]
        if not _match_sets(got, want, 1e-8):
            return f"constants {got} differ from {list(want)}"
        return None

    return run


def verify_output(trials: int, steps: int) -> Check:
    def run(out: Outcome) -> Optional[str]:
        lines = _lines(out)
        if not lines or not lines[0].startswith("semiconjugacy: pass (200 samples"):
            return f"semiconjugacy line {lines[:1]}"
        if len(lines) < 2 or not lines[1].startswith(f"equivalence: pass ({trials} trials x {steps} steps"):
            return f"equivalence line {lines[1:2]}"
        return None

    return run


def solve_linear_output(exact: Fraction, n: int, routes: int, tol: float) -> Check:
    """Every route's ``x_n`` within ``tol`` relative of the exact value."""
    want = float(exact)

    def run(out: Outcome) -> Optional[str]:
        values = [parse_number(line.split(" = ", 1)[1]) for line in _lines(out) if f": x_{n} = " in line]
        if len(values) != routes:
            return f"{len(values)} routes printed, expected {routes}"
        for v in values:
            if not _close(v, want, tol):
                return f"x_{n} = {v} but the exact rational iteration gives {want!r}"
        return None

    return run


def sweep_csv(doc: str, lo: float, hi: float, count: int, keep: int) -> Check:
    """Bifurcation CSV and census.  The workloads' positive starts keep both
    maps on their carrier, so every point must be valid: ``keep`` finite
    samples, no NaN row, no ``invalid`` census line.  The exp map keeps the
    factor invariant ``r(n) r(n+1) = e^a`` with ``r(n) = x(n) e^{x(n-1)} /
    x(n-1)``; every hd0 orbit has a period dividing 6."""

    def run(out: Outcome) -> Optional[str]:
        grid = [lo] if count == 1 else [lo + (hi - lo) * j / (count - 1) for j in range(count)]
        rows = _csv_rows(out.out.decode("utf-8"), "param,sample")
        tails: dict[float, list[float]] = {}
        for param, sample in rows:
            tails.setdefault(float(param), []).append(float(sample))
        if len(tails) != count or not all(_close(p, g, 1e-12) for p, g in zip(tails, grid)):
            return f"{len(tails)} sweep parameters do not match the {count}-point grid"
        invalid = re.search(r"invalid: (\d+) point", out.stdout)
        if invalid:
            return f"{invalid[1]} invalid points"
        census = {int(m[1]): int(m[2]) for m in re.finditer(r"period (\d+): (\d+) point", out.stdout)}
        counted = sum(census.values()) + sum(
            int(m[1]) for m in re.finditer(r"no period detected: (\d+) point", out.stdout)
        )
        if counted != count:
            return f"census covers {counted} of {count} points"
        ea = math.exp(EXP_A)
        for p, tail in tails.items():
            if len(tail) != keep or not all(math.isfinite(v) for v in tail):
                return f"point {p}: {len(tail)} samples or non-finite values"
            if doc == "exp":
                r = [tail[i] * math.exp(tail[i - 1]) / tail[i - 1] for i in range(1, keep)]
                if any(not _close(a * b, ea, 1e-9) for a, b in zip(r, r[1:])):
                    return f"point {p}: factor invariant r(n)r(n+1) = e^a broken"
            elif doc == "hd0" and any(not _close(tail[i + 6], tail[i], 1e-9) for i in range(keep - 6)):
                return f"point {p}: orbit is not 6-periodic"
        if doc == "hd0" and set(census) - {1, 2, 3, 6}:
            return f"hd0 census reports periods {sorted(census)}"
        return None

    return run


def error_contract(out: Outcome) -> Optional[str]:
    """ROADMAP robustness contract: exit 0 with all-finite output, or exit
    1 or 2 with a one-line message and no traceback."""
    if out.code == 0:
        text = out.stdout + (out.out or b"").decode("utf-8")
        if re.search(r"\b(nan|inf)\b", text, re.IGNORECASE):
            return "exit 0 with non-finite values in the output"
        return None
    if out.code in (1, 2):
        lines = [line for line in out.stderr.splitlines() if line.strip()]
        if len(lines) == 1 and "Traceback" not in out.stderr:
            return None
        return f"exit {out.code} with {len(lines)} stderr lines (traceback: {'Traceback' in out.stderr})"
    return f"exit {out.code}"
