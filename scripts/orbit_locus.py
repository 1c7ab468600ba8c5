#!/usr/bin/env python3
"""State-space locus of an orbit on its factorization's cofactor curves.

    python3 scripts/orbit_locus.py equations/exp.eq --init 2.3,3.0

Factors the document, iterates the orbit from ``--init`` (oldest first) and
checks with ``factor_locus`` that every step lies on the cofactor curve
``xi_j(u) = cofactor(t_j, u)`` of its phase j, where the factor orbit t has
period p and step n has phase (n+1) mod p.  Writes CSV rows ``kind,t,value``:
the consecutive pairs ``orbit,x(n),x(n+1)`` after ``--discard`` steps, then
each curve ``xi0`` ... ``xi{p-1}`` sampled over the orbit's range.  Exits 0
when the check passes and 1 when it fails; a document without an order-1
cofactor, or any other input error, exits 2 with one line.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from scfact import (
    DocumentError,
    EvaluationError,
    FactorizationError,
    PolynomialError,
    SymmetryError,
    as_sc_factorization,
    factor_locus,
    factorize,
    iterate_orbit,
    load_equation_file,
)

_SAMPLES = 400  # points per sampled curve


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("document")
    parser.add_argument("--init", required=True, help="initial values, oldest first, comma-separated")
    parser.add_argument("--steps", type=int, default=300)
    parser.add_argument("--discard", type=int, default=100)
    parser.add_argument("--out", default="locus.csv")
    args = parser.parse_args(argv)

    try:
        eq = load_equation_file(args.document)
        fact = as_sc_factorization(factorize(eq)[0])
        if fact.cofactor_order != 1:
            raise ValueError(f"the cofactor has order {fact.cofactor_order}; curves need order 1")
        orbit = iterate_orbit(eq, [float(v) for v in args.init.split(",")], args.steps)
        out = open(args.out, "w", encoding="utf-8")
    except (OSError, DocumentError, FactorizationError, PolynomialError, SymmetryError, ValueError) as exc:
        print(f"orbit_locus: {exc}", file=sys.stderr)
        return 2
    report = factor_locus(fact, orbit, tol=1e-6)
    print(f"factor period {report.period}; locus check: {'pass' if report.passed else 'FAIL'} "
          f"(worst residual {report.worst_residual:.2e})")

    xs = [v.real for v in orbit.full_sequence[orbit.order - 1:]]  # x_0, x_1, ...
    period = report.period or 0
    t_orbit = iterate_orbit(fact.factor, fact.factor_initial_values(orbit.initial_values), period)
    phases = t_orbit.full_sequence[fact.factor.order - 1:][:period]  # t_0, ..., t_{p-1}
    lo, hi = min(xs), max(xs)
    with out as fh:
        fh.write("kind,t,value\n")
        for u, v in zip(xs[args.discard:], xs[args.discard + 1:]):
            fh.write(f"orbit,{u!r},{v!r}\n")
        for j, t in enumerate(phases):
            for i in range(_SAMPLES):
                u = lo + (hi - lo) * i / (_SAMPLES - 1)
                try:
                    value = fact._cofactor(0j, t, complex(u))
                except EvaluationError:
                    continue
                fh.write(f"xi{j},{u!r},{value.real!r}\n")
    print(f"wrote {args.out}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
