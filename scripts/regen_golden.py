#!/usr/bin/env python3
"""Regenerate the golden-output corpus under tests/golden/.

    python3 scripts/regen_golden.py

Runs every command of ``tests/golden_corpus.py`` and rewrites its file and
the corpus header, then deletes files of commands no longer listed.  It
prints each file it added, changed or deleted, one per line.  A change that
regenerates the corpus must name each of those files and why it changed.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from golden_corpus import CASES, GOLDEN_DIR, HEADER, environment, golden_path, record


def _write(path: Path, text: str) -> str:
    """Write ``text`` to ``path``; returns "added", "changed" or ""."""
    old = path.read_text(encoding="utf-8") if path.exists() else None
    path.write_text(text, encoding="utf-8", newline="")
    return "added" if old is None else "changed" if old != text else ""


def main() -> int:
    os.chdir(ROOT)
    GOLDEN_DIR.mkdir(exist_ok=True)
    kept = {HEADER}
    report = [(_write(HEADER, environment()), HEADER)]
    for args in CASES:
        path = golden_path(args)
        report.append((_write(path, record(args)), path))
        kept.add(path)
    for path in sorted(GOLDEN_DIR.glob("*.txt")):
        if path not in kept:
            path.unlink()
            report.append(("deleted", path))
    for status, path in report:
        if status:
            print(f"{status} {path.relative_to(ROOT)}")
    print(f"wrote {len(CASES)} cases to {GOLDEN_DIR.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
