"""The repository benchmark: caller-side serving workloads.

    python3 perfbench/run.py --workload param-batch64 --seed 1 \
        --seconds 10 --trace 0

boots the shipped servers through the public CLI (``python -m repro
serve`` / ``python -m repro fleet serve``), drives them from this
process over 2 connections, checks every answer bitwise against the
in-process estimator, prints every metric by name and unit, and ends
with one JSON result line.  ``--trace 1`` runs the traced variant that
splits the time across the repository's layers.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def build_parser() -> argparse.ArgumentParser:
    """The benchmark's command line; workloads come from BENCHMARK.json."""
    names = [w["name"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]]
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured seconds of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one segment (tests)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a full "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from benchlib.runner import run

    return run(args.workload, args.seed, args.seconds, bool(args.trace),
               args.smoke)


if __name__ == "__main__":
    sys.exit(main())
