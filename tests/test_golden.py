"""Every command of the golden corpus prints what it printed when the corpus
was recorded (see ``golden_corpus.py``; regenerate with
``scripts/regen_golden.py``)."""

import pytest

from golden_corpus import CASES, HEADER, ROOT, case_name, environment, golden_path, record

REGENERATION_RULE = (
    "if the change is intended, regenerate with scripts/regen_golden.py, and "
    "list each file that it reports as added, changed or deleted in CHANGES.md "
    "with the reason it changed"
)


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("args", CASES, ids=[case_name(args) for args in CASES])
def test_output_matches_corpus(args):
    recorded = HEADER.read_text(encoding="utf-8")
    assert recorded == environment(), (
        f"the golden corpus was recorded on\n{recorded}but this is\n{environment()}"
        "regenerate it with scripts/regen_golden.py on this platform"
    )
    path = golden_path(args)
    assert record(args) == path.read_text(encoding="utf-8"), (
        f"output differs from {path.relative_to(ROOT)}; {REGENERATION_RULE}"
    )
