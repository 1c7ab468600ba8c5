"""The golden-output corpus: a fixed list of ``scfact`` commands and the
exit code, stdout and stderr each one produced, stored under ``golden/``.

Commands run in process through click's ``CliRunner`` from the repository
root.  A stream longer than ``VERBATIM_LIMIT`` bytes is stored as its byte
count and sha256; every other stream is stored verbatim, so a changed
output reads as a diff.  ``exp``, ``ln`` and ``^`` go through the platform's
libm, so the corpus header records the Python version and the platform the
outputs were made on.

``test_golden.py`` compares; only ``scripts/regen_golden.py`` writes.
"""

from __future__ import annotations

import hashlib
import platform
from pathlib import Path

from click.testing import CliRunner

from scfact.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
HEADER = GOLDEN_DIR / "HEADER"
VERBATIM_LIMIT = 64 * 1024

SAMPLES = ("2hd1", "exp", "hd0", "hs", "hs3", "lin2_sep", "lin_32", "nonred", "rk")


def _doc(name: str) -> str:
    return f"equations/{name}.eq"


def _cases() -> list[list[str]]:
    cases = []
    for name in SAMPLES:
        cases.append(["parse", _doc(name)])
        cases.append(["factor", _doc(name)])
        cases.append(["verify", _doc(name), "--trials", "5", "--steps", "60", "--seed", "7"])
    cases.append(["verify", _doc("exp"), "--constant", "0.5,0"])
    # The README's commands; its sweep writes the CSV to stdout instead of
    # sweep.csv, so that the CSV is compared too.
    cases += [
        ["parse", _doc("exp")],
        ["simulate", _doc("hd0"), "--init", "1,2", "--steps", "12"],
        ["factor", _doc("exp")],
        ["factor", _doc("lin_32")],
        ["verify", _doc("hs"), "--steps", "60", "--trials", "20", "--seed", "7"],
        ["solve-linear", _doc("lin_32"), "--init", "0,1", "--n", "10"],
        ["bifurcate", _doc("exp"), "--fix", "x-1=2.3", "--sweep", "x0=2.3:4.8:500",
         "--transient", "100", "--keep", "200", "--out", "-"],
    ]
    # Orbits past the double range: `simulate` writes `nan` rows and exits 0;
    # `solve-linear` overflows in direct iteration (init 0,1) and in the
    # closed form's 2^2000 (init 1,1, where every x_n is 1).
    cases += [
        ["simulate", _doc("lin_32"), "--init", "0,1", "--steps", "1100"],
        ["solve-linear", _doc("lin_32"), "--init", "0,1", "--n", "2000"],
        ["solve-linear", _doc("lin_32"), "--init", "1,1", "--n", "2000"],
    ]
    # A forced order-2 solve: its closed-form digits depend on the order in
    # which the forcing terms are summed.
    cases.append(["solve-linear", "tests/lin_forced.eq", "--init", "0.5,-1", "--n", "600"])
    # One small sweep per equation kind.
    for name, fix, sweep in (
        ("exp", "x-1=2.3", "x0=0.5:3.5:5"),
        ("hd0", "x-1=1.5", "x0=0.5:2.5:5"),
        ("lin2_sep", "x-1=0.5", "x0=-1:1:5"),
        ("lin_32", "x-1=0", "x0=-1:1:5"),
    ):
        cases.append(["bifurcate", _doc(name), "--fix", fix, "--sweep", sweep,
                      "--transient", "20", "--keep", "12"])
    unique = []
    for args in cases:
        if args not in unique:
            unique.append(args)
    return unique


CASES = _cases()


def case_name(args: list[str]) -> str:
    """File stem of a case: the command, the sample and the options, joined."""
    words = [args[0], Path(args[1]).stem] + [a.lstrip("-") or "stdout" for a in args[2:]]
    return "_".join(w.replace("=", "-").replace(":", "-").replace(",", "-") for w in words)


def environment() -> str:
    libc = "-".join(platform.libc_ver()) or "unknown libc"
    return (
        f"python {platform.python_version()}\n"
        f"platform {platform.system()} {platform.machine()} {libc}\n"
    )


def _stream(label: str, data: bytes) -> str:
    if len(data) > VERBATIM_LIMIT:
        return f"--- {label}: {len(data)} bytes, sha256 {hashlib.sha256(data).hexdigest()}\n"
    return f"--- {label}: {len(data)} bytes\n{data.decode('utf-8')}"


def record(args: list[str]) -> str:
    """Run one command from the repository root and render what it did."""
    result = CliRunner().invoke(main, args)
    lines = "$ scfact " + " ".join(args) + f"\nexit {result.exit_code}\n"
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        lines += f"exception {type(result.exception).__name__}: {result.exception}\n"
    return lines + _stream("stdout", result.stdout_bytes) + _stream("stderr", result.stderr_bytes)


def golden_path(args: list[str]) -> Path:
    return GOLDEN_DIR / f"{case_name(args)}.txt"
