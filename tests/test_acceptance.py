"""Acceptance gate: one test per advertised guarantee, one verdict line each.

Verdicts collect in ``VERDICTS``; the terminal-summary hook in conftest.py
prints them as a block at the end of every run, one line per criterion.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List

from seclab.catalog import (
    coefficient_catalog,
    preset_extensions,
    preset_groups,
    seeded_instances,
    seeded_transport_pairs,
)
from seclab.cli import main as cli_main
from seclab.cohomology import (
    cohomologous,
    conjugation_coefficients,
    enumerate_cocycles,
    h1,
    inner_pullback,
)
from seclab.extensions import Extension, enumerate_sections, lifts_up_to_conjugacy
from seclab.groups import (
    GroupHom,
    all_subgroups,
    cyclic_group,
    enumerate_homs,
    full_subgroup,
    group_from_table,
    image,
    is_bijective,
    is_class_preserving,
    trivial_group,
    trivial_subgroup,
    union_of_conjugates,
)
from seclab.localglobal import (
    LocalFamily,
    LocalSections,
    check_density,
    decide_a,
    decide_a_doubleprime,
    decide_a_prime,
    decide_b,
    decide_c,
    interpolating_homs,
    interpolating_section_from_hom,
    pushout_tower,
    standard_corpus,
    tower_limit_sections,
    transport_family,
)

SEED = 20260822

VERDICTS: List[str] = []


def _report(num: int, ok: bool, detail: str) -> None:
    VERDICTS.append(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}")


def _instances():
    if not hasattr(_instances, "cache"):
        _instances.cache = seeded_instances(SEED, 200, 24)
    return _instances.cache


_decided: Dict[int, Dict[str, object]] = {}


def _get(i: int, key: str):
    row = _decided.setdefault(i, {})
    if key not in row:
        ls = _instances()[i]
        if key == "a":
            row[key] = decide_a(ls, standard_corpus(ls)).holds
        elif key == "a_prime":
            row[key] = decide_a_prime(ls).holds
        elif key == "a_doubleprime":
            row[key] = decide_a_doubleprime(ls).holds
        elif key == "b":
            row[key] = decide_b(ls)
        elif key == "c":
            row[key] = decide_c(ls)
        elif key == "split":
            row[key] = bool(enumerate_sections(ls.ext).sections)
        elif key == "density":
            row[key] = check_density(ls.family)
        else:
            raise KeyError(key)
    return row[key]


def test_criterion_01_conjugation_pullback_identity():
    started = time.perf_counter()
    checked = 0
    try:
        for gamma in preset_groups(12):
            for coeff in coefficient_catalog(gamma, 8):
                for a in enumerate_cocycles(coeff):
                    for g in gamma.elements:
                        assert cohomologous(a, inner_pullback(a, g)) is not None
                        checked += 1
    except AssertionError:
        _report(1, False, f"pullback left its class after {checked} checks")
        raise
    elapsed = time.perf_counter() - started
    ok = elapsed < 120
    _report(1, ok, f"{checked} pullback identities over presets in {elapsed:.1f}s")
    assert ok, f"runtime budget exceeded: {elapsed:.1f}s"


def test_criterion_02_lift_classes_match_h1():
    base_maps = with_lifts = 0
    try:
        for _, ext in preset_extensions(24):
            for delta in preset_groups(8):
                for phibar in enumerate_homs(delta, ext.Gamma):
                    classes = lifts_up_to_conjugacy(ext, phibar)
                    base_maps += 1
                    if classes:
                        with_lifts += 1
                        coeff = conjugation_coefficients(
                            image(ext.iota), classes[0][0]
                        )
                        assert len(classes) == h1(coeff).class_count
    except AssertionError:
        _report(2, False, f"class count mismatch after {base_maps} base maps")
        raise
    _report(2, True, f"{base_maps} base maps, {with_lifts} with lifts, counts match")


def test_criterion_03_a_prime_iff_b():
    started = time.perf_counter()
    try:
        for i in range(len(_instances())):
            assert _get(i, "a_prime") == (_get(i, "b") is not None), f"instance {i}"
    except AssertionError as err:
        _report(3, False, f"decide_a_prime and decide_b disagree: {err}")
        raise
    elapsed = time.perf_counter() - started
    ok = elapsed < 300
    _report(
        3, ok, f"a' and b agree on {len(_instances())} seeded instances in {elapsed:.1f}s"
    )
    assert ok, f"runtime budget exceeded: {elapsed:.1f}s"


def test_criterion_04_a_doubleprime_iff_c_on_split():
    split_count = 0
    try:
        for i in range(len(_instances())):
            has_c = _get(i, "c") is not None
            if _get(i, "split"):
                split_count += 1
                assert _get(i, "a_doubleprime") == has_c, f"instance {i}: a'' vs c"
            if has_c:
                assert _get(i, "a"), f"instance {i}: c without a"
            if _get(i, "a"):
                assert _get(i, "a_doubleprime"), f"instance {i}: a without a''"
    except AssertionError as err:
        _report(4, False, str(err))
        raise
    _report(
        4,
        True,
        f"a'' and c agree on {split_count} split instances; c=>a=>a'' held on all 200",
    )


def test_criterion_05_dense_instances_agree():
    dense_count = 0
    try:
        for i in range(len(_instances())):
            if not _get(i, "density"):
                continue
            dense_count += 1
            values = {
                _get(i, "a"),
                _get(i, "a_prime"),
                _get(i, "b") is not None,
                _get(i, "c") is not None,
            }
            assert len(values) == 1, f"instance {i}: dense but properties split"
    except AssertionError as err:
        _report(5, False, str(err))
        raise
    _report(5, True, f"a, a', b, c agree pairwise on {dense_count} dense instances")


def test_criterion_06_constructed_conjugators_stay_in_kernel():
    built = 0
    try:
        for i in range(len(_instances())):
            if not _get(i, "density"):
                continue
            witness = _get(i, "b")
            if witness is None:
                continue
            ls = _instances()[i]
            section, conjugators = interpolating_section_from_hom(ls, witness)
            kernel_image = set(ls.ext.iota.map)
            assert ls.ext.is_section(section)
            assert all(c in kernel_image for c in conjugators), f"instance {i}"
            built += 1
    except Exception:
        _report(6, False, f"conjugator re-validation failed after {built} sections")
        raise
    _report(6, True, f"{built} sections constructed, every conjugator in the kernel image")


def test_criterion_07_covering_bound_for_proper_subgroups():
    checked = 0
    try:
        for g in preset_groups(24):
            for sub in all_subgroups(g):
                if len(sub.elements) == g.order:
                    continue
                cover = union_of_conjugates(sub)
                assert not cover.covers, f"{g.label}: proper subgroup covered"
                assert len(cover.union) <= cover.bound, f"{g.label}: bound violated"
                checked += 1
    except AssertionError as err:
        _report(7, False, str(err))
        raise
    _report(7, True, f"{checked} proper subgroups: union proper and within bound")


def test_criterion_08_class_preserving_endomorphisms_are_bijective():
    found = 0
    try:
        for g in preset_groups(16):
            for endo in enumerate_homs(g, g):
                if is_class_preserving(endo):
                    assert is_bijective(endo), f"{g.label}: {endo.map}"
                    found += 1
    except AssertionError as err:
        _report(8, False, str(err))
        raise
    _report(8, True, f"{found} class-preserving endomorphisms, all bijective")


def test_criterion_09_smallest_sectionless_instance():
    try:
        c2, c4, t = cyclic_group(2), cyclic_group(4), trivial_group()
        ext = Extension(GroupHom(c2, c4, (0, 2)), GroupHom(c4, c2, (0, 1, 0, 1)))
        assert enumerate_sections(ext).count == 0
        ls = LocalSections(ext, (GroupHom(t, c4, (0,)),))
        homs = [u.map for u in interpolating_homs(ls)]
        assert (0, 2) in homs, "nontrivial interpolating homomorphism missing"
    except AssertionError as err:
        _report(9, False, str(err))
        raise
    _report(9, True, "order-4 over order-2: zero sections, nontrivial hom (0,2) interpolates")


def test_criterion_10_transport_preserves_density():
    try:
        pairs = seeded_transport_pairs(SEED, 50)
        for i, (fam, sub) in enumerate(pairs):
            assert check_density(fam), f"pair {i} input not dense"
            moved = transport_family(fam, sub)
            assert check_density(moved), f"pair {i} lost density"
            # the checks transport_family skips: its locals, their maps and the family
            for t in moved.thetas:
                assert group_from_table(t.source.table) == t.source, f"pair {i} local group"
                assert GroupHom(t.source, t.target, t.map) == t, f"pair {i} local map"
            assert LocalFamily(moved.gamma, moved.thetas) == moved, f"pair {i} family"
    except AssertionError as err:
        _report(10, False, str(err))
        raise
    _report(10, True, "density preserved across 50 seeded transported families")


def test_criterion_11_tower_chains_and_empty_levels():
    chains = empties = 0
    try:
        for ls in _instances()[:40]:
            a = ls.ext.A
            levels, maps = pushout_tower(ls.ext, [trivial_subgroup(a), full_subgroup(a)])
            result = tower_limit_sections(levels, maps, ls)
            assert len(result.level_sizes) == 3
            if result.empty_levels:
                empties += 1
                assert result.chain is None
                for j in result.empty_levels:
                    assert result.level_sizes[j] == 0
            else:
                chains += 1
                assert result.chain is not None and len(result.chain) == 3
                for q, u, v in zip(maps, result.chain, result.chain[1:]):
                    assert tuple(q.map[x] for x in u.map) == v.map
        # a tower guaranteed to have empty lower levels and a full top
        c3 = cyclic_group(3)
        from seclab.groups import direct_product

        e2 = direct_product(c3, c3)
        ext = Extension(
            GroupHom(c3, e2, (0, 1, 2)),
            GroupHom(e2, c3, tuple(x // 3 for x in e2.elements)),
        )
        ls = LocalSections(ext, (GroupHom(c3, e2, (0, 3, 6)), GroupHom(c3, e2, (0, 4, 8))))
        levels, maps = pushout_tower(ext, [trivial_subgroup(c3), full_subgroup(c3)])
        result = tower_limit_sections(levels, maps, ls)
        assert result.empty_levels == (0, 1)
        assert result.level_sizes == (0, 0, 1)
        assert result.chain is None
        empties += 1
    except AssertionError as err:
        _report(11, False, str(err))
        raise
    _report(11, True, f"{chains} compatible chains, {empties} towers reporting empty levels")


def test_criterion_12_cli_reports_are_byte_identical(tmp_path, capsys):
    try:
        assert cli_main(["gen", "--max-order=12", f"--seed={SEED}"]) == 0
        manifest = capsys.readouterr().out
        path = tmp_path / "corpus.man"
        path.write_text(manifest)
        outputs = {}
        for fmt in ("text", "structured"):
            runs = []
            for _ in range(2):
                code = cli_main(["run", str(path), f"--format={fmt}", "--no-timing"])
                assert code == 0
                runs.append(capsys.readouterr().out.encode())
            assert runs[0] == runs[1], f"{fmt} reports differ between runs"
            outputs[fmt] = runs[0]
        json.loads(outputs["structured"])
    except AssertionError as err:
        _report(12, False, str(err))
        raise
    _report(
        12,
        True,
        f"both report formats byte-identical across runs ({len(outputs['text'])} text bytes)",
    )
