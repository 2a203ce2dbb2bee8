"""Manifest grammar, the job runner, the builder, corpus generation."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seclab.manifest as manifest_mod
from seclab.cohomology import constant_coefficients, h1
from seclab.errors import (
    IncompatibleTower,
    ManifestSyntaxError,
    NoInverse,
    UnknownName,
    ValidationError,
)
from seclab.extensions import Extension
from seclab.groups import FiniteGroup, GroupHom, cyclic_group, group_from_permutations
from seclab.localglobal import (
    LocalSections,
    decide_a,
    decide_a_doubleprime,
    standard_corpus,
)
from seclab.manifest import (
    ManifestBuilder,
    generate_corpus,
    parse_manifest,
    run_program,
)

V4_OVER_C2 = """
group C2 table [[0,1],[1,0]]
group V4 table [[0,1,2,3],[1,0,3,2],[2,3,0,1],[3,2,1,0]]
hom iota C2 V4 [1]
hom pi V4 C2 [0,1]   # kernel is the second factor
extension ext C2 V4 C2 iota pi
hom s1 C2 V4 [2]
hom s2 C2 V4 [3]
sections ls ext {
  s s1
  s s2
}
job sections ext
job decide b ls
job decide a' ls
job density ls
"""


def test_parse_and_run_the_failing_instance():
    program = parse_manifest(V4_OVER_C2)
    groups = {n for n, obj in program.names.items() if isinstance(obj, FiniteGroup)}
    assert groups == {"C2", "V4"}
    assert program.names["ls"].family.thetas[0].map == (0, 1)
    results, code = run_program(program, timing=False)
    assert code == 0
    by_job = {(r["job"], r.get("variant")): r for r in results}
    assert by_job[("sections", None)]["sections"] == 2
    assert by_job[("decide", "b")]["holds"] is False
    assert by_job[("decide", "a'")]["holds"] is False
    assert by_job[("decide", "a'")]["failing_provenance"] == "constant-quotient-of-E"
    assert by_job[("density", None)]["dense"] is True


@pytest.mark.parametrize("variant", ["a", "a''"])
def test_decide_a_and_a_doubleprime_jobs_report_their_check(variant):
    program = parse_manifest(V4_OVER_C2 + f"job decide {variant} ls\n")
    ls = program.names["ls"]
    check = decide_a(ls, standard_corpus(ls)) if variant == "a" else decide_a_doubleprime(ls)
    results, code = run_program(program, timing=False)
    assert code == 0
    assert not check.holds
    assert results[-1] == {
        "job": "decide",
        "target": "ls",
        "line": 17,
        "variant": variant,
        "holds": False,
        "classes_checked": check.classes_checked,
        "failing_provenance": check.failing_entry.provenance,
        "failing_module_order": check.failing_entry.coeff.M.order,
        "failing_class": list(check.failing_class.values),
    }


def test_perm_and_cycle_notation():
    program = parse_manifest(
        "group K4 perm 4 (0,1)(2,3) (0,2)(1,3)\n"
        "group C3 perm 3 (0,1,2)\n"
    )
    assert program.names["K4"].order == 4
    assert program.names["C3"].order == 3


def test_aut_coeff_h1_roundtrip():
    text = (
        "group C2 table [[0,1],[1,0]]\n"
        "group C3 table [[0,1,2],[1,2,0],[2,0,1]]\n"
        "group A aut C3\n"
        "hom act C2 A [1]\n"
        "coeff w C3 act\n"
        "job h1 w\n"
    )
    h1.cache_clear()
    program = parse_manifest(text)
    results, code = run_program(program, timing=False)
    assert code == 0
    # inversion action on C3: three cocycles, one class
    assert results[0]["cocycles"] == 3
    assert results[0]["classes"] == 1
    # the job reads value tuples and builds no Cocycle record
    built = vars(h1(program.names["w"]))
    assert "cocycles" not in built and "representatives" not in built


def test_oversize_aut_line_exits_with_a_line(tmp_path, capsys):
    """Aut(C3xC3xC3) has 11,232 elements, over the closure bound."""
    from seclab.cli import main

    cube = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    table = [[cube.index(tuple((x + y) % 3 for x, y in zip(p, q))) for q in cube] for p in cube]
    path = tmp_path / "aut27.man"
    path.write_text(f"group G table {table}\ngroup A aut G\n")
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: ")
    assert "automorphism group order 11232 is over the bound of 10080" in err


def test_coeff_action_may_land_in_a_table_equal_to_aut():
    """Aut(C3) declared as a plain table serves a coeff line as an aut line does."""
    head = "group C2 table [[0,1],[1,0]]\ngroup C3 table [[0,1,2],[1,2,0],[2,0,1]]\n"
    tail = "hom act C2 T [1]\ncoeff w C3 act\njob h1 w\n"
    by_aut = parse_manifest(head + "group T aut C3\n" + tail)
    by_table = parse_manifest(head + "group T table [[0,1],[1,0]]\n" + tail)
    assert by_table.names["w"] == by_aut.names["w"]
    report = run_program(by_table, timing=False)
    assert report == run_program(by_aut, timing=False)
    assert report[0][0]["classes"] == 1


def test_jordan_pushout_fibre_tower_jobs():
    b = ManifestBuilder()
    s3 = group_from_permutations(3, [(1, 0, 2), (1, 2, 0)], label="S3")[0]
    name = b.add_group(s3)
    b.add_job("jordan", name, gens="3")
    b.add_job("jordan", name)
    text = b.text()
    results, code = run_program(parse_manifest(text), timing=False)
    assert code == 0
    assert results[0] == {
        "job": "jordan",
        "target": name,
        "line": 2,
        "subgroup_order": 3,
        "union_size": 3,
        "bound": 5,
        "covers": False,
    }
    # no generators: the trivial subgroup, one conjugate, the identity alone
    assert results[1] == dict(results[0], line=3, subgroup_order=1, union_size=1, bound=1)


def test_parse_error_messages_carry_line_numbers():
    cases = [
        ("widget X\n", ManifestSyntaxError, "line 1"),
        ("group 9bad table [[0]]\n", ManifestSyntaxError, "line 1"),
        ("group G table [[0,1],[1,0]]\ngroup G table [[0]]\n", ManifestSyntaxError, "line 2"),
        ("group G blob [[0]]\n", ManifestSyntaxError, "blob"),
        ("group G table [[0,1],[1,!]]\n", ManifestSyntaxError, "JSON"),
        ("hom f X Y [0]\n", UnknownName, "line 1"),
        ("group G table [[0,1],[1,1]]\n", NoInverse, "line 1"),
        ("group G perm 3 (0,1)(1,2)\n", ManifestSyntaxError, "repeated"),
        ("group G perm 3 (0,9)\n", ManifestSyntaxError, "outside"),
        ("group C2 table [[0,1],[1,0]]\nfamily F C2 {\n", ManifestSyntaxError, "line 2: unterminated"),
        ("job frobnicate X\n", ManifestSyntaxError, "frobnicate"),
        ("job decide z X\n", ManifestSyntaxError, "variant"),
        ("job jordan X spins=3\n", ManifestSyntaxError, "spins"),
        ("job sections\n", ManifestSyntaxError, "target"),
    ]
    for text, err, needle in cases:
        with pytest.raises(err) as info:
            parse_manifest(text)
        assert needle in str(info.value)


def test_runtime_job_errors_carry_line_numbers():
    text = V4_OVER_C2 + "job tower ls exts=ext maps=pi\n"
    with pytest.raises(IncompatibleTower) as info:
        run_program(parse_manifest(text))
    assert "line" in str(info.value)


def test_builder_roundtrip_preserves_objects():
    c2 = cyclic_group(2)
    s3 = group_from_permutations(3, [(1, 0, 2), (1, 2, 0)], label="S3")[0]
    c3 = cyclic_group(3)
    ext = Extension(GroupHom(c3, s3, (0, 3, 4)), GroupHom(s3, c2, (0, 1, 1, 0, 0, 1)))
    s1 = GroupHom(c2, s3, (0, 1))
    ls = LocalSections(ext, (s1,))
    coeff = constant_coefficients(c2, c3)

    b = ManifestBuilder()
    ls_name = b.add_sections(ls, "inst")
    coeff_name = b.add_coeff(coeff, "w")
    fam_name = b.add_family(ls.family, "fam")
    program = parse_manifest(b.text())
    assert program.names[ls_name] == ls
    assert program.names[coeff_name] == coeff
    assert program.names[fam_name] == ls.family


def test_builder_deduplicates_equal_objects():
    b = ManifestBuilder()
    c2 = cyclic_group(2)
    assert b.add_group(c2) == b.add_group(cyclic_group(2))
    h = GroupHom(c2, c2, (0, 1))
    assert b.add_hom(h) == b.add_hom(GroupHom(c2, c2, (0, 1)))


def test_aut_groups_with_equal_tables_stay_distinct():
    # Aut(C3) and Aut(C4) share the C2 table; the coeff lines must still
    # resolve each action against the right base group.
    c3, c4 = cyclic_group(3), cyclic_group(4)
    inv3 = constant_coefficients(c3, c3)
    b = ManifestBuilder()
    from seclab.cohomology import GammaGroup

    gamma = cyclic_group(2)
    coeff3 = GammaGroup(gamma, c3, ((0, 1, 2), (0, 2, 1)))
    coeff4 = GammaGroup(gamma, c4, ((0, 1, 2, 3), (0, 3, 2, 1)))
    n3 = b.add_coeff(coeff3)
    n4 = b.add_coeff(coeff4)
    program = parse_manifest(b.text())
    assert program.names[n3] == coeff3
    assert program.names[n4] == coeff4


def test_generate_corpus_is_deterministic_and_runs():
    a = generate_corpus(10, 5)
    assert a == generate_corpus(10, 5)
    assert a != generate_corpus(10, 6)
    results, code = run_program(parse_manifest(a), timing=False)
    assert code == 0
    run_again, _ = run_program(parse_manifest(a), timing=False)
    assert results == run_again


def test_verify_failure_sets_exit_code(monkeypatch):
    program = parse_manifest(V4_OVER_C2 + "job verify ls\n")

    class Broken:
        a = type("X", (), {"holds": True})()
        a_prime = type("X", (), {"holds": True})()
        a_doubleprime = type("X", (), {"holds": True})()
        holds_b = True
        holds_c = True
        density = False
        split = True
        implications = (("c=>a", False),)
        all_implications_hold = False

    monkeypatch.setattr(manifest_mod, "verify_equivalences", lambda ls: Broken())
    results, code = run_program(program, timing=False)
    assert code == 2
    assert results[-1]["all_implications_hold"] is False


def test_timing_key_presence_follows_flag():
    program = parse_manifest("group C2 table [[0,1],[1,0]]\njob jordan C2 gens=1\n")
    with_timing, _ = run_program(program, timing=True)
    without, _ = run_program(program, timing=False)
    assert "elapsed" in with_timing[0]
    assert "elapsed" not in without[0]


GOLDEN = Path(__file__).parent / "golden"
FIBRE_BASE = """
group C2 table [[0,1],[1,0]]
group A aut C2
hom act C2 A [0]
coeff M C2 act
hom id C2 C2 [1]
family F C2 {
  local C2 id
}
"""
HUGE = "1" + "0" * 5000  # past the int-to-str digit limit that json.loads keeps


#: Malformed manifests by name: the text, the line its error names, and a
#: needle of the message.  ``tests/golden/malformed-manifests.txt`` holds
#: the full stderr and exit code of each.
MALFORMED = {
    "string-entry": ('group G table [["a"]]\n', 1, "not an integer"),
    "int-table": ("group G table 5\n", 1, "list of rows"),
    "string-row": ('group G table [[0,1],"ab"]\n', 1, "row 1"),
    "jordan": ("group G table [[0,1],[1,0]]\njob jordan G gens=7\n", 2, "generator 7"),
    "jordan-negative": ("group G table [[0,1],[1,0]]\njob jordan G gens=0,-1\n", 2, "generator -1"),
    "hom-image": ("group C2 table [[0,1],[1,0]]\nhom f C2 C2 [5]\n", 2, "generator image 5"),
    "hom-image-negative": (
        "group C2 table [[0,1],[1,0]]\nhom f C2 C2 [-1]\n", 2, "generator image -1"
    ),
    "pushout": (V4_OVER_C2 + "job pushout ext gens=5\n", 17, "generator 5"),
    "fibre": (FIBRE_BASE + "job fibre F coeff=M alpha=0,5\n", 10, "cocycle value 5"),
    "repeated-option": (
        "group G table [[0,1],[1,0]]\njob jordan G gens=0 gens=1\n",
        2,
        "option 'gens' given twice",
    ),
    "perm-negative-degree": ("group G perm -2 ()\n", 1, "degree -2 is negative"),
    "hom-image-bool": ("group C2 table [[0,1],[1,0]]\nhom f C2 C2 [true]\n", 2, "list of integers"),
    "perm-trailing-text": ("group G perm 3 (0,1)zz (0,1,2)junk\n", 1, "got '(0,1)zz'"),
    "family-line": (
        "group C2 table [[0,1],[1,0]]\nfamily F C2 {\n  local C2 nope\n}\n", 3, "no hom"
    ),
    "sections-line": (V4_OVER_C2 + "sections t ext {\n  s s1\n  s s2 s1\n}\n", 19, "one hom name"),
    "block-keyword": (V4_OVER_C2 + "sections t ext {\n  s s1\n  local s2\n}\n", 19, "got 'local'"),
    "bad-cycle": ("group G perm 3 (0,x)\n", 1, "bad cycle '0,x'"),
    "group-short": ("group G\n", 1, "group needs a name and a form"),
    "perm-short": ("group G perm 3\n", 1, "perm needs a degree and generators"),
    "perm-bad-degree": ("group G perm x ()\n", 1, "bad degree 'x'"),
    "aut-arity": ("group C2 table [[0,1],[1,0]]\ngroup A aut\n", 2, "exactly one source group"),
    "hom-short": ("group C2 table [[0,1],[1,0]]\nhom f C2\n", 2, "hom needs a name"),
    "extension-iota": (
        V4_OVER_C2 + "extension e2 C2 V4 C2 pi pi\n", 17, "pi does not map C2 into V4"
    ),
    "extension-pi": (
        V4_OVER_C2 + "extension e2 C2 V4 C2 iota iota\n", 17, "iota does not map V4 onto C2"
    ),
    "family-source": (
        V4_OVER_C2 + "family F C2 {\n  local V4 s1\n}\n", 18, "s1 does not start from V4"
    ),
    "jordan-bad-list": (
        "group G table [[0,1],[1,0]]\njob jordan G gens=a\n", 2, "bad generator list 'a'"
    ),
    "density-unknown": (
        "group G table [[0,1],[1,0]]\njob density nope\n", 2, "no family or sections named"
    ),
    "table-huge-int": (
        f"# one entry of 5,001 digits\ngroup G table [[0,1],[1,{HUGE}]]\n", 2, "bad JSON for table"
    ),
    "hom-huge-int": (
        f"group C2 table [[0,1],[1,0]]\nhom f C2 C2 [{HUGE}]\n", 2, "bad JSON for generator"
    ),
    "coeff-not-aut": (
        "group C2 table [[0,1],[1,0]]\nhom f C2 C2 [1]\ncoeff w C2 f\n",
        3,
        "f must land in the aut-declared group of C2",
    ),
    "coeff-other-aut": (
        "group C2 table [[0,1],[1,0]]\ngroup C3 table [[0,1,2],[1,2,0],[2,0,1]]\n"
        "group A aut C3\nhom act C2 A [0]\ncoeff w C2 act\n",
        5,
        "act must land in the aut-declared group of C2",
    ),
    "family-header": (
        "group C2 table [[0,1],[1,0]]\nfamily F C2\n", 2, "family needs a name, a base group"
    ),
    "fibre-no-coeff": (FIBRE_BASE + "job fibre F alpha=0,0\n", 10, "no coeff named ''"),
    "group-is-hom": (
        "group C2 table [[0,1],[1,0]]\nhom f C2 C2 [1]\nhom g f C2\n", 3, "no group named 'f'"
    ),
    "density-hom": (
        "group C2 table [[0,1],[1,0]]\nhom f C2 C2 [1]\njob density f\n", 3, "no family or sec"
    ),
    "empty-table": ("group G table []\n", 1, "empty table has no identity element"),
    "coeff-arity": (
        "group C2 table [[0,1],[1,0]]\ncoeff M C2\n", 2, "coeff needs a name, a module group"
    ),
    "perm-huge-degree": (
        "group G perm 400000000 (0,1)\n", 1, "degree 400000000 is over the bound of 10080"
    ),
}


@pytest.mark.parametrize("text, line, needle", MALFORMED.values(), ids=MALFORMED)
def test_malformed_tables_and_job_elements_exit_with_a_line(tmp_path, capsys, text, line, needle):
    from seclab.cli import main

    path = tmp_path / "bad.man"
    path.write_text(text)
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: ")
    assert needle in err


def _malformed_report(tmp_path: Path) -> str:
    """Each MALFORMED manifest run by ``seclab run``: name, exit code, stderr."""
    from seclab.cli import main

    blocks = []
    for name, (text, _, _) in MALFORMED.items():
        path = tmp_path / "bad.man"
        path.write_text(text)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["run", str(path)])
        blocks.append(f"== {name}: exit {code} ==\n{err.getvalue()}")
    return "".join(blocks)


def test_malformed_manifests_print_their_golden_errors(tmp_path):
    """The full stderr of every malformed manifest, as an earlier build
    printed it; after a deliberate change, save ``_malformed_report`` there."""
    assert _malformed_report(tmp_path) == (GOLDEN / "malformed-manifests.txt").read_text()


# ---------------------------------------------------------------------------
# fuzzing the front door

GOLDEN_MANIFESTS = tuple(p.read_text() for p in sorted(GOLDEN.glob("*.manifest")))
_INTEGER = re.compile(r"(?<![\w.:/-])-?\d+")
_WRONG_JSON = ("5", '"x"', "null", "true", "{}", "[true]", "[1.5]", '[[0,1],"ab"]', "[[]]", "[]")
_NEW_INTEGERS = (-1, -2, 0, 1, 2, 5, 12, 13, 64, 99)


def _mutate(text: str, rnd) -> str:
    """One token-level edit of ``text``: a token dropped, swapped or
    duplicated, an integer replaced, a JSON value of the wrong type, the
    text cut short (truncating any open block), or a line repeated (so a
    name is declared twice).  ``rnd`` is a ``random.Random``."""
    lines = text.splitlines()
    i = rnd.randrange(len(lines))
    tokens = lines[i].split()
    kind = rnd.choice(("drop", "swap", "duplicate", "integer", "json", "truncate", "repeat"))
    if kind == "truncate":
        return "\n".join(lines[:i]) + "\n"
    if kind == "repeat":
        lines.insert(i, lines[i])
    elif kind == "integer":
        spots = list(_INTEGER.finditer(lines[i]))
        if spots:
            m = rnd.choice(spots)
            new = str(rnd.choice(_NEW_INTEGERS))
            lines[i] = lines[i][: m.start()] + new + lines[i][m.end() :]
    elif tokens:
        j, k = rnd.randrange(len(tokens)), rnd.randrange(len(tokens))
        if kind == "drop":
            del tokens[j]
        elif kind == "swap":
            tokens[j], tokens[k] = tokens[k], tokens[j]
        elif kind == "duplicate":
            tokens.insert(j, tokens[j])
        else:
            blobs = [n for n, t in enumerate(tokens) if t.startswith("[")] or [j]
            tokens[rnd.choice(blobs)] = rnd.choice(_WRONG_JSON)
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@given(st.sampled_from(GOLDEN_MANIFESTS), st.randoms(use_true_random=False), st.integers(1, 3))
@settings(deadline=None, max_examples=400)
def test_mutated_golden_manifests_run_or_fail_with_a_line(text, rnd, edits):
    for _ in range(edits):
        text = _mutate(text, rnd)
    try:
        run_program(parse_manifest(text), timing=False)
    except ValidationError as err:
        m = re.match(r"line (\d+): (?!line )", str(err))
        assert m, f"{type(err).__name__} without exactly one line: {err}"
        assert 1 <= int(m.group(1)) <= len(text.splitlines()), str(err)
