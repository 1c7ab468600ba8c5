#!/usr/bin/env python3
"""Line coverage of ``src/scfact/`` under the test suite, standard library only.

    python3 scripts/coverage.py [--tests PATH]

Runs ``pytest.main`` on PATH (default: the repository's ``tests``) in this
process, from the repository root, under ``sys.settrace`` and
``threading.settrace``.  The executable lines of a module are the lines in
the ``co_lines()`` tables of all its code objects.  Prints the unreached
lines of each module and the totals, and writes them to
``COVERAGE_<short sha>.json`` at the repository root.  Lines that run only
in a subprocess (such as ``cli.py``'s ``main()`` under ``__main__``) are not
counted as reached.  A run takes about 25 s, four times the suite's own time.
"""

import argparse
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "scfact"


def executable_lines(path: Path) -> set[int]:
    """Lines named by the ``co_lines()`` table of any code object in ``path``."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def spans(lines: list[int], executable: set[int]) -> list[str]:
    """``lines`` as ranges, joining neighbours with no executable line between."""
    out: list[list[int]] = []
    for line in lines:
        if out and not any(j in executable for j in range(out[-1][1] + 1, line)):
            out[-1][1] = line
        else:
            out.append([line, line])
    return [f"{a}" if a == b else f"{a}-{b}" for a, b in out]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tests", type=Path, default=ROOT / "tests", help="pytest path (default: tests)")
    tests = str(parser.parse_args().tests.resolve())
    os.chdir(ROOT)

    files = {str(path): path.stem for path in sorted(PACKAGE.glob("*.py"))}
    reached: dict[str, set[int]] = {name: set() for name in files.values()}

    def local(frame, event, arg):
        if event == "line":
            reached[files[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        if frame.f_code.co_filename not in files:
            return None
        reached[files[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", tests])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    report: dict[str, dict] = {}
    for path, name in files.items():
        executable = executable_lines(Path(path))
        missed = sorted(executable - reached[name])
        report[name] = {"executable": len(executable), "unreached": spans(missed, executable),
                        "unreached_count": len(missed)}
    total = sum(entry["executable"] for entry in report.values())
    missed = sum(entry["unreached_count"] for entry in report.values())
    print(f"\n{missed} of {total} executable lines unreached "
          f"({100 * (total - missed) / total:.1f}% reached); lines run only in subprocesses are not counted")
    for name, entry in sorted(report.items(), key=lambda item: -item[1]["unreached_count"]):
        if entry["unreached_count"]:
            print(f"  {name} {entry['unreached_count']}: {', '.join(entry['unreached'])}")

    sha = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                         capture_output=True, text=True).stdout.strip() or "unknown"
    out = Path(f"COVERAGE_{sha}.json")
    out.write_text(json.dumps({"commit": sha, "executable": total, "unreached": missed,
                               "modules": report}, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
