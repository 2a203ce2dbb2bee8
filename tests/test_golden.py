"""Golden reports: generated corpora and their ``--no-timing`` reports.

The files under ``tests/golden/`` were saved from an earlier build and are
compared byte for byte, so any change in verdicts, witnesses or rendering
shows up here.  Regenerate them only for a deliberate behaviour change.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fingerprints
import seclab
from seclab.catalog import preset_extensions
from seclab.cli import main
from seclab.extensions import enumerate_sections
from seclab.manifest import generate_corpus

GOLDEN = Path(__file__).parent / "golden"
SEEDS = (20260822, 7)
DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
README = Path(__file__).parents[1] / "README.md"


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_corpus_and_reports_match_golden(seed, capsys):
    stem = GOLDEN / f"gen-max12-seed{seed}"
    manifest = stem.with_suffix(".manifest")
    assert main(["gen", "--max-order", "12", "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == manifest.read_text()
    for fmt, suffix in (("text", ".text"), ("structured", ".json")):
        assert main(["run", str(manifest), "--no-timing", "--format", fmt]) == 0
        assert capsys.readouterr().out == stem.with_suffix(suffix).read_text(), (seed, fmt)


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_corpus_does_not_depend_on_warm_caches(seed):
    """Cached searches hand back the objects, labels included, of whoever
    called them first; the corpus must not pick those labels up."""
    for _, ext in preset_extensions(12):
        enumerate_sections(ext)
    manifest = GOLDEN / f"gen-max12-seed{seed}.manifest"
    assert generate_corpus(12, seed) == manifest.read_text()


def _order_64_corpus_matches_golden(seed, tmp_path, capsys):
    """Tables up to order 64, validated by Light's test.  The 400 KB
    manifest is kept only as its SHA-256; its structured report in full."""
    stem = GOLDEN / f"gen-max64-seed{seed}"
    assert main(["gen", "--max-order", "64", "--seed", str(seed)]) == 0
    text = capsys.readouterr().out
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == stem.with_suffix(".manifest.sha256").read_text().split()[0]
    manifest = tmp_path / "corpus.manifest"
    manifest.write_text(text)
    assert main(["run", str(manifest), "--no-timing", "--format", "structured"]) == 0
    assert capsys.readouterr().out == stem.with_suffix(".json").read_text()


def test_order_64_corpus_and_report_match_golden(tmp_path, capsys):
    """Seeds 20260824 and 20260825 run ``decide a'`` and ``verify`` jobs,
    so their reports read the descent labels of ``_diagonal``."""
    for seed in (20260823, 20260824, 20260825):
        _order_64_corpus_matches_golden(seed, tmp_path, capsys)


def test_first_cli_corpus_manifest_and_report_match_golden(tmp_path, capsys):
    """``gen --max-order 64 --seed 20260822`` is the first manifest of
    every ``cli-corpus`` benchmark round."""
    _order_64_corpus_matches_golden(20260822, tmp_path, capsys)


def test_census_pattern_reports_match_golden_and_spell_their_names(capsys):
    """The least instance of each verdict pattern of the census (pinned by
    ``test_verdict_census_over_inclusion_locals``), each with a ``verify``
    job and every ``decide`` job.  Each ``verify`` block's (density,
    split, a, a', a'', b, c) spells the name of its section."""
    stem = GOLDEN / "census-patterns"
    assert main(["run", str(stem.with_suffix(".manifest")), "--no-timing"]) == 0
    text = capsys.readouterr().out
    assert text == stem.with_suffix(".text").read_text()
    keys = ("density", "split", "a", "a_prime", "a_doubleprime", "b", "c")
    names = []
    for head, *body in (block.splitlines() for block in text.split("\n\n")):
        if head.startswith("== verify "):
            fields = dict(line.split(": ", 1) for line in body)
            names.append(head.split()[2])
            assert names[-1] == "p" + "".join({"yes": "T", "no": "F"}[fields[k]] for k in keys)
    assert len(set(names)) == 7


def test_layer_fingerprints_match_golden():
    """One SHA-256 per layer (see ``tests/fingerprints.py``); after a
    deliberate change, ``PYTHONPATH=src python tests/fingerprints.py --write``."""
    moved = fingerprints.moved_layers(fingerprints.compute())
    assert not moved, f"layers moved: {', '.join(moved)}"


def test_layer_fingerprints_do_not_depend_on_warm_caches():
    """S3's subgroup searches, run first in a fresh interpreter, leave
    subgroups whose parent is labelled S3 where D3 (an equal group) would
    leave D3; no layer may hash that label."""
    code = (
        "import fingerprints\n"
        "from seclab.catalog import symmetric_group\n"
        "from seclab.groups import all_normal_subgroups, all_subgroups\n"
        "all_normal_subgroups(symmetric_group(3)), all_subgroups(symmetric_group(3))\n"
        "print(fingerprints.moved_layers(fingerprints.compute()))\n"
    )
    path = os.pathsep.join((str(Path(seclab.__file__).parents[1]), str(Path(__file__).parent)))
    run = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    )
    assert run.stdout == "[]\n"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_matches_golden(demo):
    """Each demo, run in a fresh interpreter on this build of seclab."""
    env = dict(os.environ, PYTHONPATH=str(Path(seclab.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, check=True
    )
    assert run.stdout == (GOLDEN / "demos" / f"{demo.stem}.out").read_bytes()


def test_readme_quick_start_prints_its_closing_comment():
    """README's Quick start block, run in a fresh interpreter, prints what
    its last line, a comment, says it prints; so an API rename cannot
    leave the README stale."""
    section = README.read_text().split("## Quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    comment = code.rstrip().rsplit("\n", 1)[1]
    assert comment == "# True (0, 1) True"
    env = dict(os.environ, PYTHONPATH=str(Path(seclab.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout == comment[2:] + "\n"
