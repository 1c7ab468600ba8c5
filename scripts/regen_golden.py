#!/usr/bin/env python3
"""Regenerate the golden-output corpus under tests/golden/.

    python3 scripts/regen_golden.py

Runs every command of ``tests/golden_corpus.py`` and rewrites its file and
the corpus header, then deletes files of commands no longer listed.  A
change that regenerates the corpus must name each changed file and why it
changed.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from golden_corpus import CASES, GOLDEN_DIR, HEADER, environment, golden_path, record


def main() -> int:
    os.chdir(ROOT)
    GOLDEN_DIR.mkdir(exist_ok=True)
    HEADER.write_text(environment(), encoding="utf-8", newline="")
    kept = {HEADER}
    for args in CASES:
        path = golden_path(args)
        path.write_text(record(args), encoding="utf-8", newline="")
        kept.add(path)
    for path in GOLDEN_DIR.glob("*.txt"):
        if path not in kept:
            path.unlink()
    print(f"wrote {len(CASES)} cases to {GOLDEN_DIR.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
