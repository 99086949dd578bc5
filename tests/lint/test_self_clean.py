"""Tier-1 self-check: the shipped tree passes its own linter.

This is the gate the whole subsystem exists for — every contract in
``docs/lint_rules.md`` holds on ``src/``.  The tree is linted once per
module; every test below reads that one result.
"""

import ast
from pathlib import Path

import pytest

from repro.lint import lint_paths, load_config
from repro.lint.pragmas import ALL_CODES, parse_pragmas

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


@pytest.fixture(scope="module")
def result():
    return lint_paths([SRC], load_config(SRC))


def test_src_tree_is_lint_clean(result):
    rendered = "\n".join(f.render() for f in result.findings)
    assert not result.findings, f"src/ has lint findings:\n{rendered}"


def test_every_rule_actually_ran(result):
    """A rule silently dropping out of the run would make the self-check
    meaningless; pin the full catalogue."""
    assert set(result.rules_run) == {
        "RPR101", "RPR102", "RPR103", "RPR108", "RPR110",
        "RPR201", "RPR202",
        "RPR301", "RPR302", "RPR303",
        "RPR401", "RPR402", "RPR403",
    }
    assert result.files_scanned > 80


def _lines_covered(tree, line):
    """Lines a pragma on ``line`` suppresses: its own, plus the ``def``
    or ``class`` line when ``line`` belongs to a decorator."""
    covered = {line}
    for node in ast.walk(tree):
        for decorator in getattr(node, "decorator_list", ()):
            if decorator.lineno <= line <= decorator.end_lineno:
                covered.add(node.lineno)
    return covered


def test_every_pragma_suppresses_a_finding(result):
    """A ``# repro: ignore[...]`` comment that suppresses nothing — a
    retired code, or a finding fixed since — would hide the next real
    finding on its line."""
    used = {(Path(f.path).resolve(), f.line, f.code)
            for f in result.suppressed}
    stale = []
    for file in sorted(SRC.rglob("*.py")):
        source = file.read_text(encoding="utf-8")
        pragmas = parse_pragmas(source)
        if not pragmas:
            continue
        tree = ast.parse(source)
        path = file.resolve()
        for line, codes in sorted(pragmas.items()):
            covered = _lines_covered(tree, line)
            for code in sorted(codes):
                if not any(p == path and hit_line in covered
                           and (code == ALL_CODES or hit_code == code)
                           for p, hit_line, hit_code in used):
                    stale.append(f"{file.relative_to(REPO_ROOT)}:{line}: "
                                 f"ignore[{code}]")
    assert not stale, "pragmas that suppress nothing:\n" + "\n".join(stale)
