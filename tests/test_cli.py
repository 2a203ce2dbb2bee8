"""The seclab command line: run, gen, formats, determinism, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seclab
from seclab.cli import main

SMALL = """
group C2 table [[0,1],[1,0]]
group V4 table [[0,1,2,3],[1,0,3,2],[2,3,0,1],[3,2,1,0]]
hom iota C2 V4 [1]
hom pi V4 C2 [0,1]
extension ext C2 V4 C2 iota pi
job sections ext
job jordan V4 gens=2
"""


@pytest.fixture()
def small_manifest(tmp_path):
    path = tmp_path / "small.man"
    path.write_text(SMALL)
    return str(path)


def test_run_text_report(small_manifest, capsys):
    assert main(["run", small_manifest, "--no-timing"]) == 0
    out = capsys.readouterr().out
    assert "== sections ext" in out
    assert "sections: 2" in out
    assert "covers: no" in out
    assert "elapsed" not in out


def test_a_fresh_run_imports_no_dataclasses(small_manifest):
    """Record classes are plain classes, so starting ``seclab run`` neither
    imports ``dataclasses`` nor the ``inspect`` it pulls in."""
    script = (
        "import sys, seclab.cli\n"
        f"code = seclab.cli.main(['run', '--no-timing', {small_manifest!r}])\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(seclab.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert "== sections ext" in done.stdout
    assert done.stdout.splitlines()[-1] == "[]"


def test_gen_and_run_do_not_depend_on_the_hash_seed():
    """``gen --max-order 24 --seed 5`` piped into a structured run gives the
    same bytes under two hash seeds, each step in a fresh interpreter: no
    manifest name, class number or report order may follow set or dict
    hashing."""
    reports = []
    for hash_seed in ("0", "12345"):
        env = dict(
            os.environ, PYTHONPATH=str(Path(seclab.__file__).parents[1]), PYTHONHASHSEED=hash_seed
        )
        cli = [sys.executable, "-m", "seclab.cli"]
        gen = subprocess.run(
            cli + ["gen", "--max-order", "24", "--seed", "5"],
            env=env, capture_output=True, check=True,
        )
        run = subprocess.run(
            cli + ["run", "--format", "structured", "--no-timing", "-"],
            input=gen.stdout, env=env, capture_output=True, check=True,
        )
        reports.append(run.stdout)
    assert reports[0] == reports[1] and b'"job": "verify"' in reports[0]


def test_run_with_timing_mentions_elapsed(small_manifest, capsys):
    assert main(["run", small_manifest]) == 0
    assert "elapsed: " in capsys.readouterr().out


def test_run_structured_report(small_manifest, capsys):
    assert main(["run", small_manifest, "--format=structured", "--no-timing"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [j["job"] for j in data["jobs"]] == ["sections", "jordan"]
    assert data["jobs"][0]["classes_mod_kernel"] == [[0], [1]]


def test_reports_are_byte_identical_without_timing(small_manifest, capsys):
    main(["run", small_manifest, "--no-timing"])
    first = capsys.readouterr().out
    main(["run", small_manifest, "--no-timing"])
    assert capsys.readouterr().out == first


def test_gen_pipes_into_run(tmp_path, capsys):
    assert main(["gen", "--max-order=8", "--seed=2"]) == 0
    text = capsys.readouterr().out
    assert main(["gen", "--max-order=8", "--seed=2"]) == 0
    assert capsys.readouterr().out == text
    path = tmp_path / "gen.man"
    path.write_text(text)
    assert main(["run", str(path), "--no-timing"]) == 0
    assert "== jordan" in capsys.readouterr().out


def test_missing_file_is_a_clean_error(capsys):
    assert main(["run", "/nonexistent/x.man"]) == 1
    assert "error:" in capsys.readouterr().err


def test_syntax_error_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.man"
    path.write_text("group G table [[0,1],[1,0]]\njob dance G\n")
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "dance" in err


def test_huge_integer_in_a_manifest_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "huge.man"
    path.write_text("group C2 table [[0,1],[1,0]]\nhom f C2 C2 [1" + "0" * 5000 + "]\n")
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: ") and "Traceback" not in err


def test_stdin_manifest(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(SMALL))
    assert main(["run", "-", "--no-timing"]) == 0
    assert "sections: 2" in capsys.readouterr().out


def test_broken_invariant_exits_3(monkeypatch, capsys):
    monkeypatch.setattr("seclab.catalog.check_density", lambda family: False)
    assert main(["gen", "--max-order=8", "--seed=2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal invariant broken: ")
    assert "failed to cover" in captured.err


@pytest.mark.parametrize(
    "max_order, names",
    [("0", "at most 0"), ("3", "at most 3"), ("65", "stops at order 64")],
)
def test_gen_outside_the_catalog_bounds_is_a_clean_error(max_order, names, capsys):
    assert main(["gen", "--max-order", max_order]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and names in captured.err


def test_non_utf8_manifest_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "latin1.man"
    path.write_bytes(SMALL.encode() + b"# caf\xe9\n")
    assert main(["run", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "not UTF-8" in captured.err
