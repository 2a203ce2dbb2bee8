"""Finite-scale laboratory for sections of group extensions and their
local-global interpolation properties."""

from __future__ import annotations

from .errors import ValidationError
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    cyclic_group,
    direct_product,
    enumerate_homs,
    group_from_permutations,
    group_from_table,
    identity_hom,
    trivial_group,
    union_of_conjugates,
)
from .extensions import Extension, enumerate_sections, pushout
from .cohomology import (
    Cocycle,
    GammaGroup,
    cohomologous,
    enumerate_cocycles,
    h1,
    inner_pullback,
    lifts_up_to_conjugacy,
)
from .localglobal import (
    EquivalenceReport,
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
    verify_equivalences,
)
from .catalog import preset_extensions, preset_group, preset_groups, seeded_instances
from .manifest import ManifestBuilder, generate_corpus, parse_manifest, run_program

__version__ = "0.1.0"

__all__ = [
    "ValidationError",
    "FiniteGroup",
    "GroupHom",
    "Subgroup",
    "cyclic_group",
    "direct_product",
    "enumerate_homs",
    "group_from_permutations",
    "group_from_table",
    "identity_hom",
    "trivial_group",
    "union_of_conjugates",
    "Extension",
    "enumerate_sections",
    "pushout",
    "Cocycle",
    "GammaGroup",
    "cohomologous",
    "enumerate_cocycles",
    "h1",
    "inner_pullback",
    "lifts_up_to_conjugacy",
    "EquivalenceReport",
    "LocalFamily",
    "LocalSections",
    "check_density",
    "decide_a",
    "decide_a_doubleprime",
    "decide_a_prime",
    "decide_b",
    "decide_c",
    "interpolating_homs",
    "interpolating_section_from_hom",
    "pushout_tower",
    "standard_corpus",
    "tower_limit_sections",
    "transport_family",
    "verify_equivalences",
    "preset_extensions",
    "preset_group",
    "preset_groups",
    "seeded_instances",
    "ManifestBuilder",
    "generate_corpus",
    "parse_manifest",
    "run_program",
    "__version__",
]
