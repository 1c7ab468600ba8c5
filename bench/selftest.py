#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload at its smallest size, untraced and traced, and checks
that each metric is reported by name with its unit and sample count, that
the last line is the result object BENCHMARK.json describes, that traced
self times plus the tracer's overhead add up to the command spans, and that
the benchmark refuses to run in a tree holding only BENCHMARK.json and the
benchmark itself.
Takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sweep", "verify", "linear", "startup")

END_TO_END = {"work_per_s": "units/s", "cmd_p50_s": "s", "cmd_p90_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "failed_ratio": "ratio"}
FUNCTIONS = (
    "expressions.parse_expression", "expressions.evaluate",
    "equations.load_equation_file", "equations.step", "equations.iterate_orbit", "equations.detect_period",
    "equations.write_orbit_csv",
    "polynomials.find_roots", "polynomials.sigma", "polynomials.solve_order2_closed_form",
    "symmetry.solve_reduction_constant", "symmetry.check_hd1", "symmetry.evaluate_form_symmetry",
    "symmetry.build_additive_form_symmetry", "symmetry.build_multiplicative_form_symmetry",
    "factorization.factor_hd1", "factorization.factor_separable_additive",
    "factorization.factor_separable_multiplicative", "factorization.factor_linear_full",
    "factorization.verify_semiconjugacy", "factorization.verify_equivalence",
    "factorization.simulate_factorization", "factorization.TriangularSystem.simulate",
    "dynamics.bifurcation_sweep", "dynamics.write_bifurcation_csv",
)
PER_LAYER = {
    "cli.interp_ms": "ms", "cli.import_ms": "ms", "cli.self_ms": "ms",
    "expressions.evaluate.ns_per_node": "ns", "expressions.domain_errors": "count",
    **{f"equations.step.{kind}.us_per_call": "us" for kind in ("general", "linear", "sep_add", "sep_mult")},
    "equations.iterate_orbit.steps": "count", "equations.truncated_ratio": "ratio",
    "symmetry.constants_kept": "count", "factorization.equivalence_attempts_per_trial": "ratio",
    "dynamics.points": "count", "dynamics.invalid_ratio": "ratio", "dynamics.csv_bytes": "bytes",
    "trace.overhead_ratio": "ratio", "trace.overhead_ms": "ms",
    **{f"{name}.calls": "count" for name in FUNCTIONS},
    **{f"{name}.self_ms": "ms" for name in FUNCTIONS},
}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--size", "smallest"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_metrics(where: str, metrics: dict, expected: dict) -> list[str]:
    problems = []
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            problems.append(f"{where}: metric {name} missing")
        elif m["unit"] != unit or not isinstance(m["samples"], int) or not math.isfinite(m["value"]):
            problems.append(f"{where}: metric {name} = {m}, expected unit {unit} and an integer sample count")
    return problems


def check_result(where: str, last: dict, declared: list[dict]) -> list[str]:
    problems = []
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(last)}")
    if not last.get("correct") or last.get("failed") != 0 or last.get("attempted", 0) < 1:
        problems.append(f"{where}: result {last.get('correct')}, {last.get('failed')} of {last.get('attempted')} failed")
    want = {spec["name"]: spec["unit"] for spec in declared}
    got = {name: m["unit"] for name, m in last.get("metrics", {}).items()}
    if got != want:
        problems.append(f"{where}: result metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    return problems


def check_spans(where: str, path: Path) -> list[str]:
    """Per request, the self times of its spans add up to its root span."""
    data = json.loads(path.read_text())
    spans = {s[0]: s for s in data["spans"]}
    children: dict[int, float] = {}
    for span_id, parent, _, _, start, end in spans.values():
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + (end - start)
    totals: dict[int, list[float]] = {}
    for span_id, parent, request, name, start, end in spans.values():
        entry = totals.setdefault(request, [0.0, 0.0])
        entry[0] += (end - start) - children.get(span_id, 0.0)
        if parent is None:
            entry[1] += end - start
    problems = [f"{where}: request {r} self times sum to {s:.9f}s, root span {root:.9f}s"
                for r, (s, root) in totals.items() if root and abs(s - root) > 1e-9 * max(1.0, root) + 1e-12]
    if not totals:
        problems.append(f"{where}: no spans recorded")
    return problems


def check_bare_tree() -> list[str]:
    """In a tree with only BENCHMARK.json and bench/, the benchmark must fail without a result."""
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "sweep", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare tree: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare_tree()
    for workload in WORKLOADS:
        for trace in (0, 1):
            where = f"{workload} --trace {trace}"
            proc = run(ROOT, workload, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-400:]}")
                continue
            last, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
            problems += check_result(where, last, spec["per_layer" if trace else "end_to_end"])
            problems += check_metrics(where, report["metrics"], PER_LAYER if trace else END_TO_END)
            env = report["environment"]
            if env["seed"] != 3 or env["code.src_lines"] < 1 or not report["why"]:
                problems.append(f"{where}: environment record {env}")
            if any(o["stdout_sha256"] is None for o in report["outputs"]):
                problems.append(f"{where}: missing output hash")
            if trace:
                total, span = report["self_plus_overhead_ms"], report["command_span_ms"]
                if abs(total - span) > 1e-6 * span:
                    problems.append(f"{where}: self times plus overhead {total} ms != spans {span} ms")
                problems += check_spans(where, ROOT / report["spans_file"])
            elif workload == "startup":
                probes = report["contract_probes"]
                share = sum(not p["passed"] for p in probes) / (report["attempted"] + len(probes))
                if len(probes) != 2 or report["metrics"]["failed_ratio"]["value"] != share:
                    problems.append(f"{where}: failed_ratio does not count exactly the contract probes")
            print(f"ok  {where}" if not problems else f"... {where}", flush=True)
    for problem in problems:
        print("FAIL", problem)
    print("self-test passed" if not problems else f"self-test failed: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
