"""Layer fingerprints: one SHA-256 per layer over the values it computes.

Each layer walks a fixed slice of the catalog and hashes what the library
computes there: tables, maps, index partitions, cocycle values, verdicts
and witnesses.  Items are encoded as JSON value tuples, never as reprs, so
a change to how records are built or printed moves no digest, while any
change to what they hold does.  ``test_golden.py`` compares the digests
with ``tests/golden/fingerprints.json`` and names each layer that moved.

After a deliberate change of results, regenerate the file with

    PYTHONPATH=src python tests/fingerprints.py --write

and list the layers that moved in CHANGES.md.  Without ``--write`` the
script prints the layers that moved and exits 1 if any did.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from seclab.catalog import (
    coefficient_catalog,
    preset_extensions,
    preset_groups,
    seeded_instances,
)
from seclab.cohomology import h1
from seclab.extensions import enumerate_sections
from seclab.groups import (
    all_normal_subgroups,
    all_subgroups,
    automorphism_group,
    conjugacy_classes,
    enumerate_homs,
    quotient,
)
from seclab.localglobal import _corpora, verify_equivalences
from seclab.manifest import generate_corpus, parse_manifest, run_program

FILE = Path(__file__).parent / "golden" / "fingerprints.json"
INSTANCE_SEED = 20260822
GEN_SEEDS = (20260822, 20260823, 20260824, 20260825)


def _table(g):
    """A group's values; labels are hashed only where a preset names them,
    because cached searches hand back the labels of their first caller."""
    return g.table, g.identity, g.inverse


def _map(hom):
    return None if hom is None else hom.map


def homs():
    groups = preset_groups(12)
    for src in groups:
        for tgt in groups:
            yield src.label, tgt.label, [h.map for h in enumerate_homs(src, tgt)]


def coefficients():
    for gamma in preset_groups(12):
        for coeff in coefficient_catalog(gamma, 8):
            classes = h1(coeff)
            yield (
                gamma.label,
                coeff.M.label,
                coeff.action,
                list(classes.values),
                classes.classes,
                list(classes.representative_values),
            )


def subgroups():
    for g in preset_groups(24):
        normal = all_normal_subgroups(g)
        quotients = [quotient(g, n) for n in normal]
        yield (
            g.label,
            _table(g),
            [s.elements for s in all_subgroups(g)],
            [n.elements for n in normal],
            [(q.label, _table(q), proj.map) for q, proj in quotients],
            conjugacy_classes(g),
        )


def automorphisms():
    for g in preset_groups(16):
        aut, auts = automorphism_group(g)
        yield g.label, _table(aut), [a.map for a in auts]


def sections():
    for name, ext in preset_extensions(16):
        report = enumerate_sections(ext)
        yield (
            name,
            ext.iota.map,
            ext.pi.map,
            [s.map for s in report.sections],
            report.classes_mod_A,
        )


def descent_corpus():
    """Every system of the (a) corpus, failing or not, as built."""
    for _, ext in preset_extensions(16):
        for entry in _corpora(ext, enumerate_sections(ext).sections)[1]:
            yield entry.provenance, _table(entry.coeff.M), entry.coeff.action


def _descent(check):
    entry = check.failing_entry
    return (
        check.holds,
        None if entry is None else (entry.provenance, _table(entry.coeff.M), entry.coeff.action),
        None if check.failing_class is None else check.failing_class.values,
        check.classes_checked,
    )


def verdicts():
    for ls in seeded_instances(INSTANCE_SEED, 200, 24):
        report = verify_equivalences(ls)
        yield (
            _table(ls.ext.E),
            ls.ext.iota.map,
            ls.ext.pi.map,
            [theta.map for theta in ls.family.thetas],
            [s.map for s in ls.sections],
            report.density,
            report.split,
            _descent(report.a),
            _descent(report.a_prime),
            _descent(report.a_doubleprime),
            _map(report.b),
            _map(report.c),
            report.implications,
        )


def gen():
    for seed in GEN_SEEDS:
        yield seed, generate_corpus(64, seed)


def reports():
    """The ``seclab run --no-timing`` results behind both report formats."""
    for seed, text in gen():
        yield seed, run_program(parse_manifest(text), timing=False)


LAYERS = {
    "enumerate_homs": homs,
    "coefficient_catalog_h1": coefficients,
    "subgroups_quotients_classes": subgroups,
    "automorphism_group": automorphisms,
    "enumerate_sections": sections,
    "descent_corpus": descent_corpus,
    "seeded_verdicts": verdicts,
    "gen_max64": gen,
    "run_max64": reports,
}


def digest(layer) -> str:
    h = hashlib.sha256()
    for item in layer():
        h.update(json.dumps(item, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def compute():
    return {name: digest(layer) for name, layer in LAYERS.items()}


def moved_layers(digests):
    """The layers whose digest differs from the committed file."""
    golden = json.loads(FILE.read_text())
    return sorted(n for n in golden.keys() | digests.keys() if golden.get(n) != digests.get(n))


def main(argv):
    digests = compute()
    if argv == ["--write"]:
        FILE.write_text(json.dumps(digests, indent=2) + "\n")
        return 0
    if argv:
        print("usage: fingerprints.py [--write]", file=sys.stderr)
        return 2
    moved = moved_layers(digests)
    for name in moved:
        print(f"moved: {name}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
