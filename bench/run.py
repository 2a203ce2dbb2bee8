"""Run one seclab benchmark workload and print its metrics.

    python3 bench/run.py --workload verify-batch --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and the oracles from ``tests/oracles.py``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  A fuller record, with the
machine and run settings, goes to ``bench/results/`` (``--out``).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
ORACLES = os.path.join(ROOT, "tests", "oracles.py")

if HERE not in sys.path:
    sys.path.insert(0, HERE)

import summary  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = {
    w.name: w for w in (workloads.VerifyBatch, workloads.CocycleCensus, workloads.CliCorpus)
}

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "items/s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

_SPAN_METRICS = (
    ("cohomology.GammaGroup.validate", ("calls", "self_s")),
    ("cohomology.pullback_coefficients", ("self_s",)),
    ("cohomology.restrict_class", ("self_s",)),
    ("cohomology.pullback_class", ("self_s",)),
    ("cohomology.Cocycle.validate", ("calls", "self_s")),
    ("cohomology.inner_pullback", ("self_s",)),
    ("cohomology.cohomologous", ("self_s",)),
    ("cohomology.enumerate_cocycles", ("calls", "misses", "candidates", "self_s")),
    ("cohomology.h1", ("calls", "misses", "self_s")),
    ("groups.enumerate_homs", ("calls", "misses", "candidates", "self_s")),
    ("groups.group_from_table", ("calls", "self_s")),
    ("groups.GroupHom.validate", ("calls", "self_s")),
    ("groups.quotient", ("self_s",)),
    ("groups.all_normal_subgroups", ("self_s",)),
    ("groups.partition_by_conjugation", ("self_s",)),
    ("groups.union_of_conjugates", ("self_s",)),
    ("extensions.enumerate_sections", ("calls", "self_s")),
) + tuple(
    (f"localglobal.{f}", ("total_s", "self_s"))
    for f in (
        "verify_equivalences", "standard_corpus", "decide_a", "decide_a_prime",
        "decide_a_doubleprime", "decide_b", "decide_c", "check_density",
    )
) + (
    ("catalog.seeded_instances", ("total_s",)),
    ("catalog.coefficient_catalog", ("total_s",)),
    ("manifest.generate_corpus", ("total_s",)),
    ("manifest.parse_manifest", ("self_s",)),
    ("manifest.run_program", ("self_s",)),
    ("cli.main", ("self_s",)),
)

#: The cache sites of ``seclab`` at the time the benchmark was written.
CACHE_SITES = (
    "catalog._lifts", "catalog.coefficient_catalog", "catalog.preset_extensions",
    "catalog.preset_groups", "cohomology.enumerate_cocycles", "cohomology.h1",
    "groups._derivation", "groups.all_normal_subgroups", "groups.all_subgroups",
    "groups.automorphism_group", "groups.automorphisms", "groups.class_index",
    "groups.conjugacy_classes", "groups.enumerate_homs", "groups.generating_set",
)

PER_LAYER = tuple(
    (f"{span}.{field}", "s" if field.endswith("_s") else "count")
    for span, fields in _SPAN_METRICS
    for field in fields
) + (("localglobal.classes_checked", "count"),) + tuple(
    (f"cache.{site}.{kind}", "count") for site in CACHE_SITES for kind in ("hits", "misses")
) + (("trace.overhead_s", "s"),)


#: Probe time, in seconds, that defines the reference speed: about what
#: ``SpeedProbe`` measures on the machine of the README's figures when it
#: runs unhindered.
REFERENCE_PROBE_S = 0.0015


class SpeedProbe:
    """Times a fixed interpreter loop on each allowed CPU, at most every
    ``RECHECK_S`` seconds, and keeps the process on the fastest.

    On a shared machine a CPU can run this interpreter 40% slower than
    usual for seconds or minutes at a time, while something else uses its
    core.  Each timed span is scaled by the reference probe time over the
    mean of the probes taken just before and just after it, so it reads as
    a time at the reference speed.  Where affinity cannot be set, the
    probe still runs on the current CPU.
    """

    RECHECK_S = 0.5

    def __init__(self) -> None:
        try:
            self.cpus = sorted(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            self.cpus = []
        self.last = -self.RECHECK_S
        self.samples: List[float] = []

    def settle(self, force: bool = False) -> None:
        if not force and time.perf_counter() - self.last < self.RECHECK_S:
            return
        best = None
        if len(self.cpus) > 1:
            try:
                times = {}
                for cpu in self.cpus:
                    os.sched_setaffinity(0, {cpu})
                    times[cpu] = self._probe()
                best = min(times, key=times.get)
                os.sched_setaffinity(0, {best})
            except OSError:
                self.cpus = []
        self.samples.append(times[best] if best is not None else self._probe())
        self.last = time.perf_counter()

    def scaled(self, seconds: float, first: int) -> float:
        """``seconds`` at the reference speed, for a span that began just
        after probe ``first`` and ended at the latest probe."""
        around = self.samples[first:]
        return seconds * REFERENCE_PROBE_S / (sum(around) / len(around))

    @staticmethod
    def _probe() -> float:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            total = 0
            for i in range(20000):
                total += i * i % 7
            best = min(best, time.perf_counter() - start)
        return best


def purge_seclab() -> None:
    """Forget every imported ``seclab`` module so the next import is fresh."""
    for name in [n for n in sys.modules if n == "seclab" or n.startswith("seclab.")]:
        del sys.modules[name]
    gc.collect()


def load_oracles():
    spec = importlib.util.spec_from_file_location("seclab_bench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_round(wl, sites, records, in_process, reset, cpu) -> List[Optional[Tuple[float, float]]]:
    """Attempt every item of the round once.

    Returns each item's latency and its latency at the reference speed, or
    None for an item that failed or does not count in the latency metrics.
    """
    latencies: List[Optional[Tuple[float, float]]] = []
    if not wl.fresh_caches_per_item:
        reset(sites)
    for item in wl.round_items():
        if wl.fresh_caches_per_item:
            reset(sites)
        cpu.settle()
        first = len(cpu.samples) - 1
        start = time.perf_counter()
        output = wl.run_item(item, in_process=in_process)
        elapsed = time.perf_counter() - start
        cpu.settle()
        bad = wl.failed(item, output)
        timed = not bad and wl.timed(item, output)
        latencies.append((elapsed, cpu.scaled(elapsed, first)) if timed else None)
        records.append(workloads.Record(item, output, bad))
    return latencies


def time_metrics(setup_times: List[float], latencies: List[float]) -> Dict[str, float]:
    tail = summary.tail_percentile(latencies)
    p50 = statistics.median(latencies)
    return {
        "setup_s": statistics.median(setup_times),
        "items_per_s": len(latencies) / sum(latencies),
        "item_p50_ms": 1000 * p50,
        # below the tail rule's sample count the median stands in (README)
        "item_p90_ms": 1000 * (tail if tail is not None else p50),
    }


def timed_run(wl, seconds: int) -> dict:
    """Set up ``SETUP_REPEATS`` times, then repeat the round until at least
    ``seconds`` have passed, and at least ``wl.min_repeats`` times; the
    latency metrics pool every repetition."""
    cpu = SpeedProbe()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        purge_seclab()
        cpu.settle(force=True)
        first = len(cpu.samples) - 1
        start = time.perf_counter()
        wl.setup()
        elapsed = time.perf_counter() - start
        cpu.settle(force=True)
        setup_times.append((elapsed, cpu.scaled(elapsed, first)))
    sites = tracing.cache_sites()
    records: List[workloads.Record] = []
    latencies: List[Optional[Tuple[float, float]]] = []
    repeats = 0
    start = time.perf_counter()
    while True:
        latencies += run_round(wl, sites, records, False, tracing.clear_caches, cpu)
        repeats += 1
        if repeats >= wl.min_repeats and time.perf_counter() - start >= seconds:
            break
    measured_s = time.perf_counter() - start
    checks = workloads.Checks()
    start = time.perf_counter()
    wl.check(records, checks)
    check_s = time.perf_counter() - start
    timed = [t for t in latencies if t is not None]
    if not timed:
        raise SystemExit(f"bench: no item of {wl.name} completed; see the checks above")
    raw, metrics = (
        time_metrics([s[k] for s in setup_times], [t[k] for t in timed]) for k in (0, 1)
    )
    raw["peak_rss_mb"] = metrics["peak_rss_mb"] = wl.peak_rss_mb()
    tail_ok = summary.tail_percentile([t[0] for t in timed]) is not None
    return {
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END},
        "attempted": len(records),
        "failed": sum(r.failed for r in records),
        "checks": checks,
        "detail": {
            "raw_metrics": raw,
            "probe_s": cpu.samples,
            "setup_times_s": [s[0] for s in setup_times],
            "repeats": repeats,
            "measured_s": measured_s,
            "check_s": check_s,
            "timed_items": len(timed),
            "item_p90_is_tail": tail_ok,
            "cache_sites": sorted(sites),
        },
    }


def traced_run(wl) -> dict:
    """Set up, then run the round once untraced and once traced.

    Set-up is traced too, after the import.  Both passes do the same work,
    so their difference is the tracing overhead, and every count repeats
    exactly from run to run.
    """
    cpu = SpeedProbe()
    purge_seclab()
    wl.import_modules()
    sites = tracing.cache_sites()
    tracer = tracing.Tracer()
    tracing.clear_caches(sites)
    with tracer:
        wl.build()
    tracer.harvest_caches(sites)

    start = time.perf_counter()
    run_round(wl, sites, [], True, tracing.clear_caches, cpu)
    untraced_s = time.perf_counter() - start

    tracing.clear_caches(sites)
    records: List[workloads.Record] = []
    with tracer:
        start = time.perf_counter()
        run_round(wl, sites, records, True, tracer.harvest_caches, cpu)
        traced_s = time.perf_counter() - start
    tracer.harvest_caches(sites)
    checks = workloads.Checks()
    wl.check(records, checks)

    values: Dict[str, float] = {}
    for name, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name == "trace.overhead_s":
            values[name] = traced_s - untraced_s
        elif field == "calls":
            values[name] = tracer.calls[span]
        elif field == "self_s":
            values[name] = tracer.self_s[span]
        elif field == "total_s":
            values[name] = tracer.total_s[span]
        else:
            values[name] = tracer.counts[name]
    layers = sorted(set(tracer.calls))
    return {
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER},
        "attempted": len(records),
        "failed": sum(r.failed for r in records),
        "checks": checks,
        "detail": {
            "untraced_round_s": untraced_s,
            "traced_round_s": traced_s,
            "layers": {
                n: {"calls": tracer.calls[n], "total_s": tracer.total_s[n], "self_s": tracer.self_s[n]}
                for n in layers
            },
            "counts": dict(sorted(tracer.counts.items())),
            "cache_sites": sorted(sites),
            "spans_kept": tracer.spans,
            "spans_dropped": tracer.spans_dropped,
        },
    }


def machine() -> dict:
    commit = None
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": commit,
        "source_sha256": source_digest(),
    }


def source_digest() -> str:
    """Hash of the package sources, which identifies the code measured even
    in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "seclab")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.ACCEPTANCE_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(HERE, "results"),
                        help="directory for the result record (default: bench/results)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "seclab", "__init__.py")):
        print(f"bench: no seclab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if not os.path.isfile(ORACLES):
        print(f"bench: oracles not found at {ORACLES}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)

    started = time.time()
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        wl = WORKLOADS[args.workload](args.seed, load_oracles(), workdir)
        result = traced_run(wl) if args.trace else timed_run(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = result.pop("checks")
    line = {
        "correct": checks.failed == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_unix": started,
        "wall_s": time.time() - started,
        "machine": machine(),
        **line,
        "checks": checks.as_dict(),
        "detail": result["detail"],
    }
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(
        args.out, f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(started * 1000)}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{line['attempted']} attempted, {line['failed']} failed, "
          f"checks {checks.attempted} attempted, {checks.failed} failed")
    for msg in checks.first_failures:
        print(f"  check failed: {msg}")
    for name, m in line["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
