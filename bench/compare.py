"""Compare two sets of benchmark results, parent against change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the records ``bench/run.py`` writes.  For every
workload and end-to-end metric it prints both sides' medians and
quartiles, the share of pairs the change won, and a verdict: improved,
within bound, worse or unresolved (see ``summary.verdict``).  Runs pair up
by seed, then by start time.  From traced records it lists every layer
whose median self time moved by more than a tenth.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import summary  # noqa: E402

#: A layer's self time must move by more than this share to be listed.
LAYER_SHIFT = 0.10


def load(directory: str) -> dict:
    """Records by (workload, trace), each list sorted by seed then start."""
    out = defaultdict(list)
    for path in glob.glob(os.path.join(directory, "*.json")):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        out[(rec["workload"], rec["trace"])].append(rec)
    for recs in out.values():
        recs.sort(key=lambda r: (r["seed"], r["started_unix"]))
    return out


def compare(parent: dict, change: dict, spec: dict) -> list:
    lines = []
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for workload in sorted({w for w, t in parent if t == 0} & {w for w, t in change if t == 0}):
        p_runs, c_runs = parent[(workload, 0)], change[(workload, 0)]
        lines.append(f"== {workload}: {len(p_runs)} parent runs, {len(c_runs)} change runs")
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            bad = sum(not r["correct"] for r in runs)
            lines.append(f"   {side}: {failed}/{attempted} operations failed, {bad} runs incorrect")
        for name, m in bounds.items():
            p = [r["metrics"][name]["value"] for r in p_runs if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in c_runs if name in r["metrics"]]
            if not p or not c:
                continue
            v = summary.verdict(p, c, m["better"], m["bound"])
            pq, cq = v["parent"], v["change"]
            lines.append(
                f"   {name} [{m['unit']}, {m['better']} is better, bound {m['bound']}]: "
                f"parent {pq['median']:.6g} ({pq['q1']:.6g}..{pq['q3']:.6g}), "
                f"change {cq['median']:.6g} ({cq['q1']:.6g}..{cq['q3']:.6g}), "
                f"won {v['share_won']:.0%} of {v['pairs']} pairs: {v['verdict']}"
            )
    for workload in sorted({w for w, t in parent if t == 1} & {w for w, t in change if t == 1}):
        p_layers = _layer_self_times(parent[(workload, 1)])
        c_layers = _layer_self_times(change[(workload, 1)])
        moved = []
        for layer in sorted(set(p_layers) | set(c_layers)):
            p = statistics.median(p_layers.get(layer, [0.0]))
            c = statistics.median(c_layers.get(layer, [0.0]))
            if abs(c - p) > LAYER_SHIFT * p and max(p, c) > 0:
                moved.append((layer, p, c))
        lines.append(f"== {workload}: layers whose self time moved by more than {LAYER_SHIFT:.0%}")
        for layer, p, c in moved:
            change_txt = f"{(c - p) / p:+.0%}" if p else "new"
            lines.append(f"   {layer}: {p:.4g} s -> {c:.4g} s ({change_txt})")
        if not moved:
            lines.append("   none")
    return lines


def _layer_self_times(runs: list) -> dict:
    out = defaultdict(list)
    for rec in runs:
        for layer, v in rec["detail"]["layers"].items():
            out[layer].append(v["self_s"])
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for line in compare(load(args[0]), load(args[1]), spec):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
