"""Command-line front end: ``python -m repro.lint`` / ``repro lint``.

Exit codes: 0 = clean (no unsuppressed finding), 1 = findings,
2 = usage or configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import IO

from repro.lint import engine
from repro.lint.config import load_config
from repro.lint.registry import PARSE_ERROR_CODE, all_rule_classes, \
    get_rule_class
from repro.lint.reporters import Report, render

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the lint front end."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Static analysis enforcing the repro correctness, "
                    "determinism, layering, and concurrency contracts "
                    "(rules RPR1xx-4xx).",
    )
    parser.add_argument("paths", nargs="*", default=["src"], type=Path,
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=["text", "json", "sarif"],
                        default="text", dest="fmt",
                        help="report format (default: text)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--explain", metavar="CODE", default=None,
                        help="print one rule's description, rationale, "
                             "and a good/bad example, then exit")
    return parser


def _list_rules(stream: IO[str]) -> int:
    for cls in all_rule_classes():
        stream.write(f"{cls.code}  {cls.name}: {cls.summary}\n")
    return 0


def _indent(text: str, prefix: str = "    ") -> str:
    return "\n".join(prefix + line if line else line
                     for line in text.splitlines())


def _explain(code: str, stream: IO[str]) -> int:
    """Print one rule's registry metadata; exit 2 on unknown codes."""
    code = code.upper()
    if code == PARSE_ERROR_CODE:
        stream.write(
            f"{PARSE_ERROR_CODE}  parse-error\n"
            "  Engine-reserved code: the file failed to parse, so no\n"
            "  rule ran on it.  Fix the syntax error it reports.\n")
        return 0
    try:
        cls = get_rule_class(code)
    except KeyError:
        stream.write(f"error: unknown rule code {code!r} "
                     "(try --list-rules)\n")
        return 2
    stream.write(f"{cls.code}  {cls.name}\n")
    stream.write(f"  {cls.summary}\n\n")
    rationale = cls.rationale()
    if rationale:
        stream.write(_indent(rationale, "  ") + "\n\n")
    stream.write("  Bad:\n")
    stream.write(_indent(cls.example_bad) + "\n\n")
    stream.write("  Good:\n")
    stream.write(_indent(cls.example_good) + "\n\n")
    stream.write(f"  Docs: {cls.help_uri()}\n")
    return 0


def main(argv: list[str] | None = None,
         stream: IO[str] | None = None) -> int:
    """Run the linter; returns the process exit code."""
    out = stream if stream is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.list_rules:
        return _list_rules(out)
    if args.explain is not None:
        return _explain(args.explain, out)

    missing = [p for p in args.paths if not p.exists()]
    if missing:
        out.write(f"error: path does not exist: {missing[0]}\n")
        return 2
    result = engine.run(args.paths, load_config(args.paths[0]))
    report = Report(new=result.findings, suppressed=result.suppressed,
                    files_scanned=result.files_scanned)
    render(report, out, args.fmt)
    return report.exit_code
