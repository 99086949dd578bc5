"""Tier-1 self-check: the shipped tree passes its own linter.

This is the gate the whole subsystem exists for — every featurization
and determinism contract in ``docs/lint_rules.md`` holds on ``src/``,
with no grandfathered findings hiding in the baseline.
"""

import json
from pathlib import Path

from repro.lint import lint_paths, load_config

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


def test_src_tree_is_lint_clean():
    config = load_config(SRC)
    result = lint_paths([SRC], config)
    rendered = "\n".join(f.render() for f in result.findings)
    assert not result.findings, (
        f"src/ has non-baselined lint findings:\n{rendered}"
    )


def test_shipped_baseline_is_empty():
    """No grandfathered findings: the initial sweep fixed everything."""
    baseline = json.loads(
        (REPO_ROOT / "lint-baseline.json").read_text(encoding="utf-8"))
    assert baseline["findings"] == []


def test_every_rule_actually_ran():
    """A rule silently dropping out of the run would make the self-check
    meaningless; pin the full catalogue."""
    config = load_config(SRC)
    result = lint_paths([SRC], config)
    assert set(result.rules_run) >= {
        "RPR101", "RPR102", "RPR103", "RPR104",
        "RPR106", "RPR107", "RPR108", "RPR110",
        "RPR201", "RPR202", "RPR203", "RPR204",
        "RPR301", "RPR302", "RPR303",
    }
    assert result.files_scanned > 80


def test_analysis_pragma_is_exercised():
    """The one legitimate vectorized float comparison is suppressed by
    pragma, not invisible to the linter."""
    config = load_config(SRC)
    result = lint_paths([SRC], config)
    suppressed = [f for f in result.suppressed if f.code == "RPR102"]
    assert any("featurize/analysis.py" in f.path for f in suppressed)
