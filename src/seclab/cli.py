"""Command line front end: run a manifest, or generate a seeded corpus."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence

from .errors import InvariantViolation, ValidationError
from .manifest import generate_corpus, parse_manifest, run_program


def _render_value(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, (list, tuple)) or value is None:
        return json.dumps(value, separators=(",", ":"))
    return str(value)


def _render_text(results: List[Dict[str, object]]) -> str:
    blocks = []
    for res in results:
        head = res["job"]
        if "variant" in res:
            head = f"{head} {res['variant']}"
        lines = [f"== {head} {res['target']} (line {res['line']}) =="]
        for key, value in res.items():
            if key in ("job", "variant", "target", "line"):
                continue
            lines.append(f"{key}: {_render_value(value)}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _render_structured(results: List[Dict[str, object]]) -> str:
    return json.dumps({"jobs": results}, indent=2, sort_keys=True) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="seclab",
        description="run section-interpolation manifests over finite groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the jobs in a manifest file")
    run_p.add_argument("manifest", help="path to the manifest ('-' for stdin)")
    run_p.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="report style (default: text)",
    )
    run_p.add_argument(
        "--no-timing",
        action="store_true",
        help="omit elapsed times so reports are byte-reproducible",
    )

    gen_p = sub.add_parser("gen", help="print a deterministic seeded manifest")
    gen_p.add_argument("--max-order", type=int, default=12, metavar="N")
    gen_p.add_argument("--seed", type=int, default=0, metavar="N")

    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            out, exit_code = generate_corpus(args.max_order, args.seed), 0
        else:
            program = parse_manifest(_read(args.manifest))
            results, exit_code = run_program(program, timing=not args.no_timing)
            render = _render_structured if args.format == "structured" else _render_text
            out = render(results)
    except (OSError, ValidationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except InvariantViolation as err:
        print(f"error: internal invariant broken: {err}", file=sys.stderr)
        return 3
    sys.stdout.write(out)
    return exit_code


def _read(path: str) -> str:
    """The manifest text in ``path``, or on stdin for '-'."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as err:
        raise ValidationError(f"{path} is not UTF-8 text: {err}") from None


if __name__ == "__main__":
    sys.exit(main())
