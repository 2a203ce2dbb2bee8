"""Golden reports: generated corpora and their ``--no-timing`` reports.

The files under ``tests/golden/`` were saved from an earlier build and are
compared byte for byte, so any change in verdicts, witnesses or rendering
shows up here.  Regenerate them only for a deliberate behaviour change.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from seclab.cli import main

GOLDEN = Path(__file__).parent / "golden"
SEEDS = (20260822, 7)


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_corpus_and_reports_match_golden(seed, capsys):
    stem = GOLDEN / f"gen-max12-seed{seed}"
    manifest = stem.with_suffix(".manifest")
    assert main(["gen", "--max-order", "12", "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == manifest.read_text()
    for fmt, suffix in (("text", ".text"), ("structured", ".json")):
        assert main(["run", str(manifest), "--no-timing", "--format", fmt]) == 0
        assert capsys.readouterr().out == stem.with_suffix(suffix).read_text(), (seed, fmt)
