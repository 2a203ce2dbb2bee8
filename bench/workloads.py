"""The three workloads: what each sets up, times and checks.

A workload's round is a list of items, and a run repeats the whole round.
``setup`` imports ``seclab`` and builds the inputs; the runner times it.  ``run_item`` is the timed call into the
program; ``check`` compares what the items returned with the brute-force
oracles of ``tests/oracles.py`` and with properties every answer must have.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import re
import resource
import subprocess
import sys
from collections import defaultdict
from typing import Dict, List, NamedTuple, Sequence, Tuple

ACCEPTANCE_SEED = 20260822

#: Candidate maps an oracle may enumerate for one item (|E|^|Gamma| for
#: homs into the middle group, |M|^|Gamma| for cocycles).  Items above it
#: get only the property checks.
ORACLE_BUDGET = 20000


class Record(NamedTuple):
    """One attempted item, what the program returned, and whether the
    operation failed."""

    item: object
    output: object
    failed: bool


class Checks:
    """Output checks of one run, counted as attempted and failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.by_kind: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
        self.first_failures: List[str] = []

    def expect(self, kind: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        self.by_kind[kind][0] += 1
        if not ok:
            self.failed += 1
            self.by_kind[kind][1] += 1
            if len(self.first_failures) < 20:
                self.first_failures.append(f"{kind}: {detail}")

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "by_kind": {k: {"attempted": v[0], "failed": v[1]} for k, v in sorted(self.by_kind.items())},
            "first_failures": self.first_failures,
        }


def implication_diagram(density, split, a, a1, a2, b, c) -> List[Tuple[str, bool]]:
    """The implications that are theorems at this scale, from the verdicts."""
    return [
        ("c=>a", (not c) or a),
        ("a=>a'", (not a) or a1),
        ("a=>a''", (not a) or a2),
        ("b=>a'", (not b) or a1),
        ("a'=>b", (not a1) or b),
        ("split&a''=>c", (not (split and a2)) or c),
        ("density=>abc-agree", (not density) or (a == a1 == b == c)),
    ]


class Workload:
    name = ""
    #: empty the caches before every item rather than once per round
    fresh_caches_per_item = False
    #: fewest rounds an untraced run repeats, however long they take
    min_repeats = 1

    def __init__(self, seed: int, oracles, workdir: str) -> None:
        self.seed = seed
        self.oracles = oracles
        self.workdir = workdir

    def setup(self) -> None:
        self.import_modules()
        self.build()

    def import_modules(self) -> None:
        raise NotImplementedError

    def build(self) -> None:
        raise NotImplementedError

    def round_items(self) -> Sequence:
        raise NotImplementedError

    def run_item(self, item, in_process: bool = True):
        raise NotImplementedError

    def failed(self, item, output) -> bool:
        return isinstance(output, BaseException)

    def timed(self, item, output) -> bool:
        """Does the item count in the latency and throughput metrics?"""
        return True

    def check(self, records: Sequence[Record], checks: Checks) -> None:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------


class VerifyBatch(Workload):
    """``verify_equivalences`` on a batch of seeded local-section instances.

    The batch is the acceptance seed's: across seeds the cost of a drawn
    batch of this size varies threefold, more than any bound could hold, so
    the workload seed only sets the order in which the instances run.  Each
    instance starts from emptied caches, as a fresh caller would, so its
    latency does not depend on that order.
    """

    name = "verify-batch"
    fresh_caches_per_item = True
    count = 120
    max_middle = 16

    def import_modules(self) -> None:
        self.catalog = importlib.import_module("seclab.catalog")
        self.localglobal = importlib.import_module("seclab.localglobal")

    def build(self) -> None:
        instances = self.catalog.seeded_instances(ACCEPTANCE_SEED, self.count, self.max_middle)
        order = list(range(len(instances)))
        random.Random(self.seed).shuffle(order)
        self.items = [(i, instances[i]) for i in order]

    def round_items(self):
        return self.items

    def run_item(self, item, in_process: bool = True):
        try:
            return self.localglobal.verify_equivalences(item[1])
        except Exception as err:  # a failed operation, reported, not raised
            return err

    @staticmethod
    def _signature(rep) -> tuple:
        return (
            rep.density,
            rep.split,
            rep.a.holds,
            rep.a_prime.holds,
            rep.a_doubleprime.holds,
            rep.b.map if rep.b is not None else None,
            rep.c.map if rep.c is not None else None,
            rep.implications,
            rep.all_implications_hold,
        )

    def check(self, records, checks) -> None:
        o = self.oracles
        first: Dict[int, tuple] = {}
        for rec in records:
            if rec.failed:
                continue
            index, ls = rec.item
            rep = rec.output
            sig = self._signature(rep)
            if index in first:
                checks.expect("same-answer-every-round", sig == first[index], f"instance {index}")
                continue
            first[index] = sig
            diagram = implication_diagram(
                rep.density, rep.split, rep.a.holds, rep.a_prime.holds,
                rep.a_doubleprime.holds, rep.b is not None, rep.c is not None,
            )
            checks.expect(
                "implications",
                list(rep.implications) == diagram and all(v for _, v in diagram)
                and rep.all_implications_hold,
                f"instance {index}: reported {rep.implications}, recomputed {diagram}",
            )
            gamma, mid = ls.ext.Gamma, ls.ext.E
            images = [set(theta.map) for theta in ls.family.thetas]
            checks.expect(
                "density-oracle",
                rep.density == o.oracle_density(gamma.table, images),
                f"instance {index}",
            )
            if mid.order ** gamma.order > ORACLE_BUDGET:
                continue
            interp = o.oracle_interpolating_homs(
                gamma.table, mid.table,
                [theta.map for theta in ls.family.thetas],
                [s.map for s in ls.sections],
            )
            want = tuple(interp[0]) if interp else None
            checks.expect(
                "least-b-witness-oracle",
                (rep.b.map if rep.b is not None else None) == want,
                f"instance {index}: {rep.b} vs {want}",
            )
            split = bool(o.oracle_sections(gamma.table, mid.table, ls.ext.pi.map))
            checks.expect("split-oracle", rep.split == split, f"instance {index}")


# ---------------------------------------------------------------------------


class CocycleCensus(Workload):
    """The criterion-01 loop over every preset base and coefficient system.

    Systems are grouped by (base, coefficient group).  The round takes one
    system, chosen by the workload seed, from each run of ``share``
    consecutive systems of every group: the sample follows the catalog's
    spread of costs, so a round's cost and tail hardly depend on the seed.
    """

    name = "cocycle-census"
    max_base = 12
    max_m = 8
    share = 8

    def import_modules(self) -> None:
        self.catalog = importlib.import_module("seclab.catalog")
        self.cohomology = importlib.import_module("seclab.cohomology")

    def build(self) -> None:
        rng = random.Random(self.seed)
        self.items = []
        for gamma in self.catalog.preset_groups(self.max_base):
            groups: Dict[str, list] = {}
            for coeff in self.catalog.coefficient_catalog(gamma, self.max_m):
                groups.setdefault(coeff.M.label, []).append(coeff)
            for members in groups.values():
                for start in range(0, len(members), self.share):
                    self.items.append(rng.choice(members[start : start + self.share]))

    def round_items(self):
        return self.items

    def run_item(self, coeff, in_process: bool = True):
        co = self.cohomology
        try:
            cocycles = co.enumerate_cocycles(coeff)
            classes = co.h1(coeff)
            broken = 0
            for a in cocycles:
                for g in coeff.gamma.elements:
                    if co.cohomologous(a, co.inner_pullback(a, g)) is None:
                        broken += 1
            return tuple(c.values for c in cocycles), classes.class_count, broken
        except Exception as err:  # a failed operation, reported, not raised
            return err

    def check(self, records, checks) -> None:
        o = self.oracles
        first: Dict[int, tuple] = {}
        for rec in records:
            if rec.failed:
                continue
            coeff = rec.item
            where = f"{coeff.gamma.label} on {coeff.M.label}"
            if id(coeff) in first:
                checks.expect("same-answer-every-round", rec.output == first[id(coeff)], where)
                continue
            first[id(coeff)] = rec.output
            values, class_count, broken = rec.output
            checks.expect("pullback-identity", broken == 0, f"{where}: {broken} pullbacks left their class")
            checks.expect(
                "census-shape",
                1 <= class_count <= len(values) and list(values) == sorted(set(values)),
                where,
            )
            if coeff.M.order ** coeff.gamma.order > ORACLE_BUDGET:
                continue
            args = (coeff.gamma.table, coeff.M.table, coeff.action)
            checks.expect("cocycles-oracle", list(values) == o.oracle_cocycles(*args), where)
            checks.expect("h1-oracle", class_count == o.oracle_h1_class_count(*args), where)


# ---------------------------------------------------------------------------

#: Manifests the front door must reject with ``error: line N: ...``.
MALFORMED = (
    'group G table [["a"]]\n',
    "group G table 5\n",
    "group G table [[0,1],[1,0]]\njob jordan G gens=7\n",
)
_ERROR_LINE = re.compile(r"^error: line \d+: ")


class CliCorpus(Workload):
    """``seclab run --format structured --no-timing`` on generated manifests,
    one interpreter per manifest, plus the malformed ones.

    The manifests come from fixed seeds, the acceptance seed first: a
    manifest's cost depends tenfold on its seed, so seed-drawn corpora this
    small could not be compared.  The workload seed sets the order of the
    rest of the round.
    """

    name = "cli-corpus"
    # in-process runs start every manifest as cold as a new interpreter does
    fresh_caches_per_item = True
    max_order = 64
    seeds = tuple(ACCEPTANCE_SEED + i for i in range(4))
    # four timed manifests a round are few samples for a median
    min_repeats = 2

    def __init__(self, seed, oracles, workdir) -> None:
        super().__init__(seed, oracles, workdir)
        self.src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

    def import_modules(self) -> None:
        self.cli = importlib.import_module("seclab.cli")

    def build(self) -> None:
        items = []
        for s in self.seeds:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = self.cli.main(["gen", "--max-order", str(self.max_order), "--seed", str(s)])
            if code != 0:
                raise RuntimeError(f"gen --seed {s} exited {code}")
            items.append(("gen", s, self._write(f"gen-{s}.txt", out.getvalue())))
        for i, text in enumerate(MALFORMED):
            items.append(("malformed", i, self._write(f"malformed-{i}.txt", text)))
        rest = items[1:]
        random.Random(self.seed).shuffle(rest)
        self.items = [items[0]] + rest

    def _write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def round_items(self):
        return self.items

    def run_item(self, item, in_process: bool = False):
        argv = ["run", "--format", "structured", "--no-timing", item[2]]
        if in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.cli.main(argv)
                except Exception as exc:  # an uncaught error is the outcome
                    code = None
                    err.write(f"{type(exc).__name__}: {exc}\n")
            return code, out.getvalue(), err.getvalue()
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        try:
            done = subprocess.run(
                [sys.executable, "-m", "seclab.cli", *argv],
                capture_output=True, text=True, env=env, timeout=150,
            )
        except subprocess.TimeoutExpired:
            return None, "", "timed out"
        return done.returncode, done.stdout, done.stderr

    def failed(self, item, output) -> bool:
        # a generated manifest's exit code is checked, not counted as failed
        code, _, err = output
        return item[0] == "malformed" and not (code == 1 and _ERROR_LINE.match(err))

    def timed(self, item, output) -> bool:
        return item[0] == "gen" and output[0] == 0

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    @staticmethod
    def _group_orders(path: str) -> Dict[str, int]:
        orders = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                tokens = line.split()
                if len(tokens) >= 4 and tokens[0] == "group" and tokens[2] == "table":
                    orders[tokens[1]] = len(json.loads(" ".join(tokens[3:])))
        return orders

    def check(self, records, checks) -> None:
        first: Dict[int, str] = {}
        for rec in records:
            kind, seed, path = rec.item
            if kind != "gen":
                continue
            code, stdout, stderr = rec.output
            if seed in first:
                checks.expect("same-report-every-round", stdout == first[seed], f"manifest {seed}")
                continue
            first[seed] = stdout
            checks.expect("exit-0", code == 0, f"manifest {seed} exited {code}: {stderr[-200:]}")
            try:
                jobs = json.loads(stdout)["jobs"]
            except (ValueError, KeyError, TypeError) as err:
                checks.expect("structured-json", False, f"manifest {seed}: {err}")
                continue
            checks.expect("structured-json", True, "")
            orders = self._group_orders(path)
            variants: Dict[str, Dict[str, bool]] = defaultdict(dict)
            for job in jobs:
                where = f"manifest {seed} line {job['line']}"
                if job["job"] == "decide":
                    variants[job["target"]][job["variant"]] = job["holds"]
                elif job["job"] == "jordan":
                    checks.expect("jordan-bound", job["union_size"] <= job["bound"], where)
                    whole = job["subgroup_order"] == orders[job["target"]]
                    checks.expect("jordan-covers", job["covers"] == whole, where)
                elif job["job"] == "verify":
                    diagram = implication_diagram(
                        job["density"], job["split"], job["a"], job["a_prime"],
                        job["a_doubleprime"], job["b"], job["c"],
                    )
                    checks.expect(
                        "implications",
                        [tuple(p) for p in job["implications"]] == diagram
                        and all(v for _, v in diagram) and job["all_implications_hold"],
                        where,
                    )
            for target, got in sorted(variants.items()):
                if "a'" in got and "b" in got:
                    checks.expect("a'-agrees-with-b", got["a'"] == got["b"], f"manifest {seed} {target}")
