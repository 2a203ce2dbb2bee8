"""A line-oriented manifest format for describing and running instances.

A manifest declares groups, homomorphisms, extensions, coefficient systems,
local families, and local sections, then queues jobs against them.  Parsing
is strict — every error carries its line number — and serialization is
canonical, so a generated manifest is byte-stable and round-trips.
"""

from __future__ import annotations

import json
import re
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .catalog import (
    _class_representative_family,
    preset_groups,
    seeded_instances,
    seeded_transport_pairs,
)
from .cohomology import Cocycle, GammaGroup, constant_coefficients, h1
from .errors import ManifestSyntaxError, UnknownName, ValidationError
from .extensions import Extension, _sections, enumerate_sections, pushout
from .groups import (
    FiniteGroup,
    GroupHom,
    _Record,
    _check_indices,
    _check_int,
    _check_order,
    _check_types,
    _trusted,
    automorphism_group,
    cyclic_group,
    direct_product,
    full_subgroup,
    generating_set,
    group_from_permutations,
    group_from_table,
    hom_from_generator_images,
    subgroup_generated,
    union_of_conjugates,
)
from .localglobal import (
    LocalFamily,
    LocalSections,
    check_density,
    decide_a,
    decide_a_doubleprime,
    decide_a_prime,
    decide_b,
    decide_c,
    diagonal_fibre,
    pushout_tower,
    standard_corpus,
    tower_limit_sections,
    verify_equivalences,
)

__all__ = [
    "Job",
    "ManifestProgram",
    "ManifestBuilder",
    "parse_manifest",
    "run_program",
    "generate_corpus",
]

_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_.:/-]*$")
_CYCLES = re.compile(r"\(([^()]*)\)")
_CYCLE_TOKEN = re.compile(r"(?:\([^()]*\))+")
_INTEGER = re.compile(r"-?[0-9]+")
_INTEGERS = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")

_DECIDE_VARIANTS = ("a", "a'", "a''", "b", "c")
#: Each job command's target kinds and the options it takes.
_JOBS = {
    "sections": (("extension",), ()),
    "h1": (("coeff",), ()),
    "pushout": (("extension",), ("gens",)),
    "decide": (("sections",), ()),
    "density": (("family", "sections"), ()),
    "fibre": (("family",), ("coeff", "alpha")),
    "jordan": (("group",), ("gens",)),
    "verify": (("sections",), ()),
    "tower": (("sections",), ("exts", "maps")),
}


class Job(_Record):
    """One queued command: what to run, against which named object."""

    _fields = {
        "line": int, "command": str, "variant": (str, type(None)), "target": str, "options": tuple
    }

    def option(self, key: str) -> Optional[str]:
        for k, v in self.options:
            if k == key:
                return v
        return None


class ManifestProgram:
    """Everything a manifest declared: ``names`` maps each name, global across
    kinds, to its live object; ``jobs`` holds the queued jobs in line order."""

    def __init__(self) -> None:
        self.names: Dict[str, object] = {}
        self.jobs: List[Job] = []


#: The class of each kind of declared object, named as in messages.
_KINDS = {
    "group": FiniteGroup,
    "hom": GroupHom,
    "extension": Extension,
    "coeff": GammaGroup,
    "family": LocalFamily,
    "sections": LocalSections,
}


# ---------------------------------------------------------------------------
# parsing


@contextmanager
def _at_line(line_no: int) -> Iterator[None]:
    """Prefix ``line N: `` to a ValidationError raised inside, keeping its
    type; an error already prefixed by an inner block line passes through."""
    try:
        yield
    except ValidationError as err:
        if str(err).startswith("line "):
            raise
        raise type(err)(f"line {line_no}: {err}") from err


def _check_name(name: str, program: ManifestProgram) -> str:
    if not _NAME.match(name):
        raise ManifestSyntaxError(f"bad name {name!r}")
    if name in program.names:
        raise ManifestSyntaxError(f"duplicate name {name!r}")
    return name


def _lookup(program: ManifestProgram, name: str, *kinds: str):
    """The object declared as ``name``, which must be of one of ``kinds``."""
    obj = program.names.get(name)
    if not isinstance(obj, tuple(_KINDS[kind] for kind in kinds)):
        raise UnknownName(f"no {' or '.join(kinds)} named {name!r}")
    return obj


def _read_ints(text: str, what: str, pattern: re.Pattern = _INTEGERS) -> List[int]:
    """The ASCII integers of ``text``, comma-separated unless ``pattern`` is
    :data:`_INTEGER`; ``int`` alone would take ``+``, ``_`` and other digits."""
    try:
        if pattern.fullmatch(text):
            return [int(v) for v in text.split(",")]
    except ValueError:  # an int past the str conversion limit
        pass
    raise ManifestSyntaxError(f"bad {what} {text!r}")


def _parse_perm_token(token: str, degree: int) -> Tuple[int, ...]:
    if not _CYCLE_TOKEN.fullmatch(token):
        raise ManifestSyntaxError(f"expected cycle notation, got {token!r}")
    img = list(range(degree))
    touched = set()
    for body in _CYCLES.findall(token):
        if not body.strip():
            continue
        points = _read_ints(body, "cycle")
        _check_indices(points, degree, ManifestSyntaxError, "cycle point")
        for p in points:
            if p in touched:
                raise ManifestSyntaxError(f"point {p} repeated across cycles")
            touched.add(p)
        for a, b in zip(points, points[1:] + points[:1]):
            img[a] = b
    return tuple(img)


def _parse_json_tail(tokens: Sequence[str], what: str):
    blob = " ".join(tokens)
    try:
        return json.loads(blob)
    except ValueError:  # a JSONDecodeError, or an int past the str conversion limit
        raise ManifestSyntaxError(f"bad JSON for {what}: {blob!r}") from None


def _parse_group(tokens: List[str], program: ManifestProgram) -> None:
    if len(tokens) < 3:
        raise ManifestSyntaxError("group needs a name and a form")
    name = _check_name(tokens[1], program)
    form = tokens[2]
    if form == "table":
        rows = _parse_json_tail(tokens[3:], "table")
        program.names[name] = group_from_table(rows, label=name)
    elif form == "perm":
        if len(tokens) < 5:
            raise ManifestSyntaxError("perm needs a degree and generators")
        (degree,) = _read_ints(tokens[3], "degree", _INTEGER)
        _check_int(degree, "degree", 0)  # both before a cycle is read against it
        _check_order(degree, "permutation degree")
        gens = [_parse_perm_token(t, degree) for t in tokens[4:]]
        program.names[name] = group_from_permutations(degree, gens, label=name)[0]
    elif form == "aut":
        if len(tokens) != 4:
            raise ManifestSyntaxError("aut needs exactly one source group")
        program.names[name] = automorphism_group(_lookup(program, tokens[3], "group"))[0]
    else:
        raise ManifestSyntaxError(f"unknown group form {form!r}")


def _parse_hom(tokens: List[str], program: ManifestProgram) -> None:
    if len(tokens) < 4:
        raise ManifestSyntaxError("hom needs a name, source, target, and images")
    name = _check_name(tokens[1], program)
    src = _lookup(program, tokens[2], "group")
    tgt = _lookup(program, tokens[3], "group")
    images = _parse_json_tail(tokens[4:] or ["[]"], "generator images")
    if not isinstance(images, list) or not all(type(i) is int for i in images):
        raise ManifestSyntaxError("generator images must be a list of integers")
    program.names[name] = hom_from_generator_images(src, tgt, tuple(images))


def _parse_extension(tokens: List[str], program: ManifestProgram) -> None:
    if len(tokens) != 7:
        raise ManifestSyntaxError("extension needs name, A, E, G, iota, pi")
    name = _check_name(tokens[1], program)
    a = _lookup(program, tokens[2], "group")
    e = _lookup(program, tokens[3], "group")
    g = _lookup(program, tokens[4], "group")
    iota = _lookup(program, tokens[5], "hom")
    pi = _lookup(program, tokens[6], "hom")
    if iota.source != a or iota.target != e:
        raise ManifestSyntaxError(f"{tokens[5]} does not map {tokens[2]} into {tokens[3]}")
    if pi.source != e or pi.target != g:
        raise ManifestSyntaxError(f"{tokens[6]} does not map {tokens[3]} onto {tokens[4]}")
    program.names[name] = Extension(iota, pi)


def _parse_coeff(tokens: List[str], program: ManifestProgram) -> None:
    if len(tokens) != 4:
        raise ManifestSyntaxError("coeff needs a name, a module group, and an action hom")
    name = _check_name(tokens[1], program)
    m = _lookup(program, tokens[2], "group")
    act = _lookup(program, tokens[3], "hom")
    aut, auts = automorphism_group(m)
    if act.target != aut:
        raise ManifestSyntaxError(f"{tokens[3]} must land in the aut-declared group of {tokens[2]}")
    # an action read through a validated hom into Aut(M)'s table is an action
    rows = tuple(auts[act.map[g]].map for g in act.source.elements)
    program.names[name] = _trusted(GammaGroup, act.source, m, rows)


def _parse_block(
    lines: Sequence[Tuple[int, List[str]]],
    start: int,
    inner_keyword: str,
) -> Tuple[List[Tuple[int, List[str]]], int]:
    """The lines of the block opened at ``lines[start]``, and the index of
    its closing brace; the caller has checked the header."""
    body = []
    i = start + 1
    while i < len(lines):
        inner_no, inner = lines[i]
        if inner == ["}"]:
            return body, i
        if inner[0] != inner_keyword:
            with _at_line(inner_no):
                raise ManifestSyntaxError(f"expected {inner_keyword!r} or '}}', got {inner[0]!r}")
        body.append((inner_no, inner))
        i += 1
    raise ManifestSyntaxError("unterminated block")


def parse_manifest(text: str) -> ManifestProgram:
    """Parse manifest text into resolved objects and queued jobs."""
    _check_types((text,), (str,), ManifestSyntaxError, "manifest {}", ("text",))
    program = ManifestProgram()
    lines: List[Tuple[int, List[str]]] = []
    for i, raw in enumerate(re.split(r"\r\n?|\n", text), start=1):  # as files count lines
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((i, stripped.split()))
    idx = 0
    while idx < len(lines):
        line_no, tokens = lines[idx]
        keyword = tokens[0]
        with _at_line(line_no):
            if keyword == "group":
                _parse_group(tokens, program)
            elif keyword == "hom":
                _parse_hom(tokens, program)
            elif keyword == "extension":
                _parse_extension(tokens, program)
            elif keyword == "coeff":
                _parse_coeff(tokens, program)
            elif keyword == "family":
                if len(tokens) != 4 or tokens[3] != "{":
                    raise ManifestSyntaxError("family needs a name, a base group, and '{'")
                name = _check_name(tokens[1], program)
                gamma = _lookup(program, tokens[2], "group")
                body, idx = _parse_block(lines, idx, "local")
                thetas = []
                for inner_no, inner in body:
                    with _at_line(inner_no):
                        if len(inner) != 3:
                            raise ManifestSyntaxError("local needs a group and a hom")
                        src = _lookup(program, inner[1], "group")
                        theta = _lookup(program, inner[2], "hom")
                        if theta.source != src:
                            raise ManifestSyntaxError(f"{inner[2]} does not start from {inner[1]}")
                    thetas.append(theta)
                program.names[name] = LocalFamily(gamma, tuple(thetas))
            elif keyword == "sections":
                if len(tokens) != 4 or tokens[3] != "{":
                    raise ManifestSyntaxError("sections needs a name, an extension, and '{'")
                name = _check_name(tokens[1], program)
                ext = _lookup(program, tokens[2], "extension")
                body, idx = _parse_block(lines, idx, "s")
                secs = []
                for inner_no, inner in body:
                    with _at_line(inner_no):
                        if len(inner) != 2:
                            raise ManifestSyntaxError("s needs exactly one hom name")
                        secs.append(_lookup(program, inner[1], "hom"))
                program.names[name] = LocalSections(ext, tuple(secs))
            elif keyword == "job":
                program.jobs.append(_parse_job(tokens, line_no))
            else:
                raise ManifestSyntaxError(f"unknown keyword {keyword!r}")
        idx += 1
    return program


def _parse_job(tokens: List[str], line_no: int) -> Job:
    if len(tokens) < 3:
        raise ManifestSyntaxError("job needs a command and a target")
    command = tokens[1]
    if command not in _JOBS:
        raise ManifestSyntaxError(f"unknown job command {command!r}")
    variant = None
    rest = tokens[2:]
    if command == "decide":
        if len(rest) < 2:
            raise ManifestSyntaxError("decide needs a variant and a target")
        variant = rest[0]
        if variant not in _DECIDE_VARIANTS:
            raise ManifestSyntaxError(f"unknown decide variant {variant!r}")
        rest = rest[1:]
    target = rest[0]
    options = []
    for tok in rest[1:]:
        if "=" not in tok:
            raise ManifestSyntaxError(f"expected key=value, got {tok!r}")
        key, value = tok.split("=", 1)
        if key not in _JOBS[command][1]:
            raise ManifestSyntaxError(f"job {command!r} takes no option {key!r}")
        if any(k == key for k, _ in options):
            raise ManifestSyntaxError(f"option {key!r} given twice")
        options.append((key, value))
    return Job(line_no, command, variant, target, tuple(options))


# ---------------------------------------------------------------------------
# running


def _element_list(value: Optional[str], what: str, group: FiniteGroup) -> List[int]:
    """A comma-separated list of elements of ``group``, range-checked."""
    elements = _read_ints(value, f"{what} list") if value else []
    _check_indices(elements, group.order, ManifestSyntaxError, what)
    return elements


def _run_job(job: Job, program: ManifestProgram) -> Dict[str, object]:
    target = _lookup(program, job.target, *_JOBS[job.command][0])
    if job.command == "sections":
        report = enumerate_sections(target)
        return {
            "sections": report.count,
            "classes_mod_kernel": [list(c) for c in report.classes_mod_A],
        }
    if job.command == "h1":
        classes = h1(target)
        return {
            "cocycles": len(classes.values),
            "classes": classes.class_count,
            "representatives": [list(v) for v in classes.representative_values],
        }
    if job.command == "pushout":
        gens = _element_list(job.option("gens"), "generator", target.A)
        smaller, _ = pushout(target, subgroup_generated(target.A, gens))
        return {
            "kernel_order": smaller.A.order,
            "middle_order": smaller.E.order,
            "base_order": smaller.Gamma.order,
            "splits": bool(_sections(smaller)),
        }
    if job.command == "decide":
        if job.variant == "a":
            check = decide_a(target, standard_corpus(target))
        elif job.variant == "a'":
            check = decide_a_prime(target)
        elif job.variant == "a''":
            check = decide_a_doubleprime(target)
        else:
            witness = decide_b(target) if job.variant == "b" else decide_c(target)
            return {
                "variant": job.variant,
                "holds": witness is not None,
                "witness": list(witness.map) if witness else None,
            }
        result: Dict[str, object] = {"variant": job.variant, "holds": check.holds}
        if not check.holds:
            result["failing_provenance"] = check.failing_entry.provenance
            result["failing_module_order"] = check.failing_entry.coeff.M.order
            result["failing_class"] = list(check.failing_class.values)
        return result
    if job.command == "density":
        if isinstance(target, LocalSections):
            target = target.family
        return {"dense": check_density(target)}
    if job.command == "fibre":
        coeff = _lookup(program, job.option("coeff") or "", "coeff")
        values = _element_list(job.option("alpha"), "cocycle value", coeff.M)
        fib = diagonal_fibre(Cocycle(coeff, tuple(values)), target)
        return {"size": len(fib), "classes": [list(b.values) for b in fib]}
    if job.command == "jordan":
        sub = subgroup_generated(target, _element_list(job.option("gens"), "generator", target))
        cover = union_of_conjugates(sub)
        return {
            "subgroup_order": len(sub.elements),
            "union_size": len(cover.union),
            "bound": cover.bound,
            "covers": cover.covers,
        }
    if job.command == "verify":
        rep = verify_equivalences(target)
        return {
            "a": rep.a.holds,
            "a_prime": rep.a_prime.holds,
            "a_doubleprime": rep.a_doubleprime.holds,
            "b": rep.holds_b,
            "c": rep.holds_c,
            "density": rep.density,
            "split": rep.split,
            "implications": [[name, ok] for name, ok in rep.implications],
            "all_implications_hold": rep.all_implications_hold,
        }
    # tower, the last command _parse_job admits
    ext_names = job.option("exts").split(",") if job.option("exts") else []
    map_names = job.option("maps").split(",") if job.option("maps") else []
    levels = [_lookup(program, n, "extension") for n in ext_names]
    maps = [_lookup(program, n, "hom") for n in map_names]
    res = tower_limit_sections(levels, maps, target)
    return {
        "level_sizes": list(res.level_sizes),
        "empty_levels": list(res.empty_levels),
        "chain": [list(u.map) for u in res.chain] if res.chain else None,
    }


def run_program(
    program: ManifestProgram, timing: bool = True
) -> Tuple[List[Dict[str, object]], int]:
    """Run every queued job in order.

    Returns per-job result dictionaries and the process exit code: 0 when
    clean, 2 when a verify job saw an implication fail.
    """
    results = []
    exit_code = 0
    for job in program.jobs:
        started = time.perf_counter()
        with _at_line(job.line):
            outcome = _run_job(job, program)
        elapsed = time.perf_counter() - started
        header: Dict[str, object] = {
            "job": job.command,
            "target": job.target,
            "line": job.line,
        }
        if job.variant is not None:
            header["variant"] = job.variant
        header.update(outcome)
        if timing:
            header["elapsed"] = round(elapsed, 6)
        results.append(header)
        if job.command == "verify" and not outcome["all_implications_hold"]:
            exit_code = 2
    return results, exit_code


# ---------------------------------------------------------------------------
# building and generating


class ManifestBuilder:
    """Accumulates declarations with canonical names and emits manifest text.

    Equal objects are declared once and reuse their first name, so builder
    output is deterministic for a deterministic call sequence.
    """

    def __init__(self) -> None:
        self._lines: List[str] = []
        self._names: Dict[Tuple[str, object], str] = {}
        self._used: set = set()

    def comment(self, text: str) -> None:
        self._lines.append(f"# {text}")

    def _declare(
        self,
        kind: str,
        obj: object,
        hint: Optional[str],
        prefix: str,
        lines: Callable[[str], List[str]],
    ) -> str:
        """The name of ``obj`` as a ``kind``.  On first sight that is a fresh
        name, from ``hint`` or else ``prefix``, declared by ``lines(name)``."""
        key = (kind, obj)
        if key not in self._names:
            base = re.sub(r"[^A-Za-z0-9_.:/-]", "", hint or "")
            if not base or not _NAME.match(base):
                base = prefix
            name, n = base, 1
            while name in self._used:
                name = f"{base}_{n}"
                n += 1
            self._used.add(name)
            self._names[key] = name
            self._lines.extend(lines(name))
        return self._names[key]

    def add_group(self, g: FiniteGroup) -> str:
        def lines(name: str) -> List[str]:
            blob = json.dumps(g.table, separators=(",", ":"))
            return [f"group {name} table {blob}"]

        return self._declare("group", g, g.label, "g", lines)

    def add_aut_group(self, m: FiniteGroup) -> str:
        m_name = self.add_group(m)
        return self._declare(
            "aut", m, f"Aut_{m_name}", "aut", lambda name: [f"group {name} aut {m_name}"]
        )

    def add_hom(
        self, h: GroupHom, hint: Optional[str] = None, target: Optional[str] = None
    ) -> str:
        """Declare ``h``; ``target`` names its target when that is not
        declared as a table (the Aut group of a coefficient system)."""
        src = self.add_group(h.source)
        tgt = target or self.add_group(h.target)

        def lines(name: str) -> List[str]:
            images = [h.map[x] for x in generating_set(h.source)]
            return [f"hom {name} {src} {tgt} {json.dumps(images, separators=(',', ':'))}"]

        return self._declare("hom", h, hint, "f", lines)

    def add_extension(self, ext: Extension, hint: Optional[str] = None) -> str:
        parts = [self.add_group(g) for g in (ext.A, ext.E, ext.Gamma)]
        parts += [self.add_hom(ext.iota), self.add_hom(ext.pi)]
        return self._declare(
            "extension", ext, hint, "ext", lambda name: [f"extension {name} {' '.join(parts)}"]
        )

    def add_coeff(self, coeff: GammaGroup, hint: Optional[str] = None) -> str:
        m = self.add_group(coeff.M)
        aut, auts = automorphism_group(coeff.M)
        index = {a.map: i for i, a in enumerate(auts)}
        # the rows of a validated system form a hom into Aut(M)'s table
        act = _trusted(GroupHom, coeff.gamma, aut, tuple(index[row] for row in coeff.action))
        act_name = self.add_hom(act, "act", self.add_aut_group(coeff.M))
        return self._declare(
            "coeff", coeff, hint, "w", lambda name: [f"coeff {name} {m} {act_name}"]
        )

    def add_family(self, fam: LocalFamily, hint: Optional[str] = None) -> str:
        gamma = self.add_group(fam.gamma)
        body = [f"  local {self.add_group(t.source)} {self.add_hom(t)}" for t in fam.thetas]
        return self._declare(
            "family", fam, hint, "fam", lambda name: [f"family {name} {gamma} {{", *body, "}"]
        )

    def add_sections(self, ls: LocalSections, hint: Optional[str] = None) -> str:
        ext = self.add_extension(ls.ext)
        body = [f"  s {self.add_hom(s)}" for s in ls.sections]
        return self._declare(
            "sections", ls, hint, "ls", lambda name: [f"sections {name} {ext} {{", *body, "}"]
        )

    def add_job(
        self,
        command: str,
        target: str,
        variant: Optional[str] = None,
        **options: str,
    ) -> None:
        parts = ["job", command]
        if variant is not None:
            parts.append(variant)
        parts.append(target)
        for key in sorted(options):
            parts.append(f"{key}={options[key]}")
        self._lines.append(" ".join(parts))

    def text(self) -> str:
        return "\n".join(self._lines) + "\n"


def generate_corpus(max_order: int, seed: int) -> str:
    """Emit a deterministic manifest exercising every job type.

    Identical arguments give byte-identical text: all content is drawn from
    the preset catalog and seeded generators.
    """
    _check_int(max_order, "max_order")
    _check_int(seed, "seed")
    b = ManifestBuilder()
    b.comment(f"generated corpus: max order {max_order}, seed {seed}")

    b.comment("covering estimates for every preset group")
    for g in dict.fromkeys(preset_groups(max_order)):  # equal groups once, the first seen
        name = b.add_group(g)
        b.add_job("jordan", name, gens=str(g.elements[1]))

    b.comment("seeded local-section instances")
    instances = seeded_instances(seed, 6, min(max_order, 12))
    for i, ls in enumerate(instances):
        name = b.add_sections(ls, f"inst{i}")
        b.add_job("sections", b.add_extension(ls.ext))
        b.add_job("decide", name, "a'")
        b.add_job("decide", name, "b")
        b.add_job("decide", name, "c")
        b.add_job("density", name)
    for i, ls in enumerate(instances[:2]):
        b.add_job("verify", b.add_sections(ls))

    b.comment("dense families for transport checks")
    for fam, _sub in seeded_transport_pairs(seed, 3, min(max_order, 12)):
        b.add_job("density", b.add_family(fam))

    if max_order >= 6:
        b.comment("cohomology of the smallest nonabelian base")
        s3 = next(g for g in preset_groups(max_order) if g.label == "S3")
        coeff2, coeff3 = (constant_coefficients(s3, cyclic_group(n)) for n in (2, 3))
        for coeff in (coeff2, coeff3):
            b.add_job("h1", b.add_coeff(coeff))
        fam = b.add_family(_class_representative_family(s3))
        alpha = h1(coeff2).representatives[-1]
        b.add_job(
            "fibre",
            fam,
            alpha=",".join(str(v) for v in alpha.values),
            coeff=b.add_coeff(coeff2),
        )

    if max_order >= 9:
        b.comment("a tower whose top level is empty")
        c3 = cyclic_group(3)
        e2 = direct_product(c3, c3)
        pi = GroupHom(e2, c3, tuple(x // 3 for x in e2.elements))
        ext = Extension(GroupHom(c3, e2, (0, 1, 2)), pi)
        ls = LocalSections(ext, (GroupHom(c3, e2, (0, 3, 6)), GroupHom(c3, e2, (0, 4, 8))))
        levels, maps = pushout_tower(ext, [full_subgroup(c3)])
        ls_name = b.add_sections(ls, "flat")
        ext_names = ",".join(b.add_extension(lv) for lv in levels)
        map_names = ",".join(b.add_hom(q) for q in maps)
        b.add_job("tower", ls_name, exts=ext_names, maps=map_names)
        b.add_job("pushout", b.add_extension(ext), gens="1")

    return b.text()
