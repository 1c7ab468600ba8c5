#!/usr/bin/env python3
"""Benchmark of the scfact command line.

    python3 bench/run.py --workload {sweep,verify,linear,startup} --seed N --seconds S --trace {0,1}

``--trace 0`` runs the workload's CLI commands as subprocesses, one at a
time (a closed loop with one client), and reports the end-to-end metrics.
``--trace 1`` runs the same commands inside this process, alternating
untraced and traced rounds, and reports per-layer metrics taken from spans
around scfact's public functions (see ``tracer.py``).

Either mode prints a table, one JSON report line (every metric with unit
and sample count, output hashes, the environment) and, as the last line,
the result object whose metrics are the ones named in BENCHMARK.json.
Every input is generated from ``--seed``; every output is checked.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
import workloads
from tracer import ROOT_SPAN, TRACED, SPAN_NAMES, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 9  # least number of fresh interpreters timed for set-up (and for cli.interp_ms, cli.import_ms)
MIN_TIMED = 110  # invocations, so that at least ten lie above the 90th percentile
MAX_STRETCH = 4  # a run stops at MAX_STRETCH * --seconds even if MIN_TIMED is not reached
CHILD_TIMEOUT = 120.0
SETUP_CODE = (
    "import sys, scfact.cli\n"
    "from scfact.equations import load_equation_file\n"
    "for path in sys.argv[1:]:\n"
    "    load_equation_file(path)\n"
)


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def label(args: list[str]) -> str:
    """The command as a user would type it, with checkout paths made relative
    and the per-run work directory shown as ``<work>``."""
    text = " ".join(a.replace(str(ROOT) + os.sep, "") for a in args)
    return "scfact " + re.sub(r"\.bench_out/work-[^/\s]+/", "<work>/", text)


def digest(outcome: checks.Outcome) -> tuple:
    sha = lambda data: hashlib.sha256(data).hexdigest() if data is not None else None
    return outcome.code, sha(outcome.stdout.encode("utf-8")), sha(outcome.out)


# ----------------------------------------------------------------------
# Subprocesses
# ----------------------------------------------------------------------


@dataclass
class ChildResult:
    wall: float
    rss_kb: int
    outcome: checks.Outcome


class Runner:
    """Runs one child at a time with stdout and stderr in files of the work
    directory, and takes its resource usage from ``os.wait4``."""

    def __init__(self, work: Path):
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
        self.stdout = open(work / "stdout", "w+b")
        self.stderr = open(work / "stderr", "w+b")

    def close(self) -> None:
        self.stdout.close()
        self.stderr.close()

    def run(self, argv: list[str], out: Path | None = None) -> ChildResult:
        for fh in (self.stdout, self.stderr):
            fh.seek(0)
            fh.truncate()
        if out is not None and out.exists():
            out.unlink()
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=self.stdout, stderr=self.stderr, cwd=ROOT, env=self.env)
        watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.stdout.seek(0)
        self.stderr.seek(0)
        outcome = checks.Outcome(
            code,
            self.stdout.read().decode("utf-8", "replace"),
            self.stderr.read().decode("utf-8", "replace"),
            out.read_bytes() if out is not None and out.exists() else None,
        )
        return ChildResult(wall, usage.ru_maxrss, outcome)

    def python(self, args: list[str]) -> ChildResult:
        return self.run([sys.executable, *args])

    def scfact(self, cmd: workloads.Command) -> ChildResult:
        return self.run([sys.executable, "-m", "scfact.cli", *cmd.args], cmd.out)


# ----------------------------------------------------------------------
# Checked rounds shared by both modes
# ----------------------------------------------------------------------


class Ledger:
    """Checks the first round's outputs, then requires every later
    invocation of the same command to reproduce them byte for byte."""

    def __init__(self, wl: workloads.Workload, seed: int):
        self.wl = wl
        self.seed = seed
        self.expected: list[tuple] = []
        self.passed: list[bool] = []
        self.outputs: list[dict] = []
        self.reasons: list[str] = []
        self.attempted = 0
        self.failed = 0

    def first(self, index: int, outcome: checks.Outcome) -> bool:
        cmd = self.wl.commands[index]
        reason = checks.run_check(cmd.check, outcome)
        self.expected.append(digest(outcome))
        self.passed.append(reason is None)
        code, stdout_sha, out_sha = self.expected[-1]
        self.outputs.append({"cmd": label(cmd.args), "seed": self.seed, "exit": code,
                             "stdout_sha256": stdout_sha, "out_sha256": out_sha,
                             "out_bytes": len(outcome.out) if outcome.out is not None else None})
        return self._record(reason, cmd)

    def repeat(self, index: int, outcome: checks.Outcome) -> bool:
        cmd = self.wl.commands[index]
        if not self.passed[index]:
            return self._record("output failed its check in the first round", cmd)
        same = digest(outcome) == self.expected[index]
        return self._record(None if same else "output differs from the first round", cmd)

    def _record(self, reason: str | None, cmd: workloads.Command) -> bool:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{label(cmd.args)}: {reason}")
        return reason is None


def run_probes(wl: workloads.Workload, runner: Runner) -> list[dict]:
    results = []
    for probe in wl.probes:
        outcome = runner.scfact(probe).outcome
        reason = checks.run_check(probe.check, outcome)
        results.append({"cmd": label(probe.args), "exit": outcome.code, "passed": reason is None,
                        "reason": reason})
    return results


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------


def measure(wl: workloads.Workload, seed: int, seconds: float, runner: Runner) -> tuple[dict, dict, Ledger]:
    runner.python(["-c", "import scfact.cli"])  # fill the bytecode cache before timing
    docs = [str(p) for p in wl.docs]
    setup: list[float] = []

    def set_up() -> None:
        res = runner.python(["-c", SETUP_CODE, *docs])
        if res.outcome.code != 0:
            raise SystemExit(f"set-up failed: {res.outcome.stderr.strip()[-300:]}")
        setup.append(res.wall)

    ledger = Ledger(wl, seed)
    for i, cmd in enumerate(wl.commands):
        ledger.first(i, runner.scfact(cmd).outcome)

    walls: list[float] = []
    throughput: list[float] = []  # units per second of each round
    rss_kb = 0
    start = perf_counter()
    while True:
        set_up()  # one per round, so that set-up is timed under the same conditions as the commands
        units, busy = 0, 0.0
        for i, cmd in enumerate(wl.commands):
            res = runner.scfact(cmd)
            walls.append(res.wall)
            busy += res.wall
            rss_kb = max(rss_kb, res.rss_kb)
            if ledger.repeat(i, res.outcome):
                units += cmd.units
        throughput.append(units / busy)
        elapsed = perf_counter() - start
        if (elapsed >= seconds and len(walls) >= MIN_TIMED) or elapsed >= MAX_STRETCH * seconds:
            break
    while len(setup) < SETUP_REPS:
        set_up()

    probes = run_probes(wl, runner)
    probe_failures = sum(not p["passed"] for p in probes)
    p90 = statistics.quantiles(walls, n=10)[8] if len(walls) > 1 else walls[0]
    n = len(walls)
    metrics = {
        "work_per_s": metric(statistics.median(throughput), "units/s", len(throughput)),
        "cmd_p50_s": metric(statistics.median(walls), "s", n),
        "cmd_p90_s": metric(p90, "s", n),
        "setup_s": metric(statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": metric(rss_kb / 1024, "MB", n),
        "failed_ratio": metric((ledger.failed + probe_failures) / (ledger.attempted + len(probes)), "ratio",
                               ledger.attempted + len(probes)),
    }
    extra = {
        "unit_of_work": wl.unit,
        "input_size": {"commands_per_round": len(wl.commands),
                       "units_per_round": sum(c.units for c in wl.commands)},
        "timed_seconds": sum(walls),
        # Share of command time that a fresh interpreter's set-up alone takes.
        "setup_share": statistics.median(setup) * len(wl.commands) * len(throughput) / sum(walls),
        "samples_above_p90": sum(w > p90 for w in walls),
        "contract_probes": probes,
    }
    return metrics, extra, ledger


# ----------------------------------------------------------------------
# --trace 1: per-layer metrics
# ----------------------------------------------------------------------


def invoke(cli, click, cmd: workloads.Command, tracer: Tracer | None = None) -> checks.Outcome:
    """One CLI invocation inside this process, as ``scfact`` would run it."""
    if cmd.out is not None and cmd.out.exists():
        cmd.out.unlink()
    out, err = io.StringIO(), io.StringIO()
    main = lambda: cli.main.main(args=list(cmd.args), prog_name="scfact", standalone_mode=False)
    with redirect_stdout(out), redirect_stderr(err):
        try:
            tracer.run_request(main) if tracer is not None else main()
            code = 0
        except click.ClickException as exc:
            code = exc.exit_code
            err.write(f"Error: {exc.format_message()}\n")
        except click.exceptions.Exit as exc:
            code = exc.exit_code
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    data = cmd.out.read_bytes() if cmd.out is not None and cmd.out.exists() else None
    return checks.Outcome(code, out.getvalue(), err.getvalue(), data)


def function_names() -> list[str]:
    return [f"{module}.{SPAN_NAMES.get(attr, attr)}" for module, attrs in TRACED.items() for attr in attrs]


def traced_run(wl: workloads.Workload, seed: int, seconds: float, runner: Runner, spans_path: Path):
    sys.path.insert(0, str(ROOT / "src"))
    import click
    import scfact.cli as cli

    interp = [runner.python(["-c", "pass"]).wall for _ in range(SETUP_REPS)]
    imports = [runner.python(["-c", "import scfact.cli"]).wall for _ in range(SETUP_REPS)]

    ledger = Ledger(wl, seed)
    for i, cmd in enumerate(wl.commands):
        ledger.first(i, invoke(cli, click, cmd))
    tracer = Tracer()
    untraced, traced = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        for i, cmd in enumerate(wl.commands):
            ledger.repeat(i, invoke(cli, click, cmd))
        untraced.append(perf_counter() - t0)
        tracer.install()
        try:
            t0 = perf_counter()
            for i, cmd in enumerate(wl.commands):
                ledger.repeat(i, invoke(cli, click, cmd, tracer))
            traced.append(perf_counter() - t0)
        finally:
            tracer.uninstall()
        tracer.recording = False  # spans are kept for the first traced round only
        if perf_counter() - start >= seconds:
            break

    rounds = len(traced)
    stats = tracer.stats
    count = lambda key: tracer.counters.get(key, 0)
    calls = {name: stats[name].calls for name in function_names()}
    ms = lambda total: total * 1000 / rounds  # seconds over all rounds -> ms per round
    interp_ms = statistics.median(interp) * 1000
    import_ms = statistics.median(imports) * 1000 - interp_ms
    m: dict[str, dict] = {
        "cli.interp_ms": metric(interp_ms, "ms", len(interp)),
        "cli.import_ms": metric(import_ms, "ms", len(imports)),
        "cli.self_ms": metric(ms(stats[ROOT_SPAN].self_time), "ms", stats[ROOT_SPAN].calls),
    }
    for name in function_names():
        m[f"{name}.calls"] = metric(calls[name] / rounds, "count", rounds)
        m[f"{name}.self_ms"] = metric(ms(stats[name].self_time), "ms", calls[name])
    nodes = count("expressions.nodes")
    m["expressions.evaluate.ns_per_node"] = metric(
        stats["expressions.evaluate"].self_time * 1e9 / nodes if nodes else 0.0, "ns", int(nodes))
    m["expressions.domain_errors"] = metric(count("expressions.domain_errors") / rounds, "count", rounds)
    for kind, stat in tracer.step_kinds.items():
        m[f"equations.step.{kind}.us_per_call"] = metric(
            stat.total * 1e6 / stat.calls if stat.calls else 0.0, "us", stat.calls)
    orbits = calls["equations.iterate_orbit"]
    m["equations.iterate_orbit.steps"] = metric(count("equations.iterate_orbit.steps") / rounds, "count",
                                                orbits)
    m["equations.truncated_ratio"] = metric(count("equations.truncated") / orbits if orbits else 0.0,
                                            "ratio", orbits)
    m["symmetry.constants_kept"] = metric(count("symmetry.constants_kept") / rounds, "count",
                                          calls["symmetry.solve_reduction_constant"])
    trials = sum(c.units for c in wl.commands if c.args[0] == "verify") * rounds
    m["factorization.equivalence_attempts_per_trial"] = metric(
        calls["factorization.verify_equivalence"] / trials if trials else 0.0, "ratio", trials)
    points = count("dynamics.points")
    m["dynamics.points"] = metric(points / rounds, "count", calls["dynamics.bifurcation_sweep"])
    m["dynamics.invalid_ratio"] = metric(count("dynamics.invalid") / points if points else 0.0, "ratio",
                                         int(points))
    sweeps = [o for c, o in zip(wl.commands, ledger.outputs) if c.args[0] == "bifurcate"]
    m["dynamics.csv_bytes"] = metric(sum(o["out_bytes"] for o in sweeps), "bytes", len(sweeps))
    m["trace.overhead_ratio"] = metric(statistics.median(t / u for t, u in zip(traced, untraced)), "ratio",
                                       rounds)
    m["trace.overhead_ms"] = metric(ms(tracer.overhead), "ms", rounds)

    # Self time per layer (module).  A CLI invocation also pays one
    # interpreter start and one import of scfact.cli, measured above.
    layers = {"cli": ms(stats[ROOT_SPAN].self_time) + (interp_ms + import_ms) * len(wl.commands)}
    for name in function_names():
        module = name.split(".")[0]
        layers[module] = layers.get(module, 0.0) + ms(stats[name].self_time)
    root_ms = ms(stats[ROOT_SPAN].total)
    # Equals root_ms: the wrapper time around non-root spans is in trace.overhead_ms.
    self_sum = ms(sum(s.self_time for s in stats.values()) + tracer.overhead)

    spans_path.write_text(json.dumps({
        "fields": ["id", "parent", "request", "name", "start_s", "end_s"],
        "requests": {i + 1: label(c.args) for i, c in enumerate(wl.commands)},  # the first traced round
        "spans": tracer.spans,
    }))
    extra = {
        "rounds": rounds,
        "layer_self_ms": layers,
        "inclusive_ms": {name: ms(stats[name].total) for name in function_names()},
        "command_span_ms": root_ms,
        "self_plus_overhead_ms": self_sum,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans_recorded": len(tracer.spans),
    }
    return m, extra, ledger


# ----------------------------------------------------------------------
# Environment and output
# ----------------------------------------------------------------------


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    sources = (ROOT / "src" / "scfact").glob("*.py")
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sources)
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "click": importlib.metadata.version("click"),
        "git_commit": commit,
        "seed": seed,
        "code.src_lines": src_lines,
    }


def declared_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "smallest"))
    args = parser.parse_args()

    if not (ROOT / "src" / "scfact" / "cli.py").is_file() or not (ROOT / "equations").is_dir():
        print(f"error: no scfact source tree (src/scfact, equations/) under {ROOT}", file=sys.stderr)
        return 2

    declared = declared_metrics(args.trace)
    work = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work)
    try:
        wl = workloads.BUILDERS[args.workload](ROOT, work, args.seed, args.size)
        if args.trace:
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            metrics, extra, ledger = traced_run(wl, args.seed, args.seconds, runner, spans_path)
        else:
            metrics, extra, ledger = measure(wl, args.seed, args.seconds, runner)
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)

    for name, m in metrics.items():
        print(f"{wl.name:8s} {name:52s} {m['value']:14.6g} {m['unit']:8s} n={m['samples']}")
    if ledger.reasons:
        print("failures:\n  " + "\n  ".join(ledger.reasons))
    report = {
        "workload": wl.name, "why": wl.why, "trace": args.trace, "size": args.size,
        "environment": environment(args.seed), "metrics": metrics, **extra,
        "attempted": ledger.attempted, "failed": ledger.failed, "failures": ledger.reasons,
        "outputs": ledger.outputs,
    }
    print(json.dumps({"report": report}))
    result = {}
    for spec in declared:
        m = metrics[spec["name"]]
        if m["unit"] != spec["unit"]:
            raise SystemExit(f"metric {spec['name']} has unit {m['unit']}, BENCHMARK.json says {spec['unit']}")
        result[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
