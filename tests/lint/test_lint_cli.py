"""Tests for the lint command-line front end (``python -m repro.lint``)."""

import io
import json
import textwrap
from pathlib import Path

from repro.lint.cli import main

CLEAN = '__all__ = ["f"]\n\n\ndef f():\n    """Do nothing."""\n    return 1\n'
DIRTY = textwrap.dedent("""\
    import numpy as np

    __all__ = ["f"]


    def f(x=[]):
        \"\"\"Misbehave.\"\"\"
        np.random.seed(0)
        return x
    """)


def run_cli(args):
    stream = io.StringIO()
    code = main(args, stream=stream)
    return code, stream.getvalue()


def test_clean_file_exits_zero(tmp_path):
    target = tmp_path / "clean.py"
    target.write_text(CLEAN)
    code, out = run_cli([str(target)])
    assert code == 0
    assert "0 finding(s)" in out


def test_dirty_file_exits_one_with_text_report(tmp_path):
    target = tmp_path / "dirty.py"
    target.write_text(DIRTY)
    code, out = run_cli([str(target)])
    assert code == 1
    assert "RPR101" in out and "RPR201" in out


def test_json_format(tmp_path):
    target = tmp_path / "dirty.py"
    target.write_text(DIRTY)
    code, out = run_cli([str(target), "--format", "json"])
    assert code == 1
    payload = json.loads(out)
    codes = {f["code"] for f in payload["findings"]}
    assert {"RPR101", "RPR201"} <= codes
    assert payload["summary"]["exit_code"] == 1


def test_missing_path_is_a_usage_error(tmp_path):
    code, out = run_cli([str(tmp_path / "nope")])
    assert code == 2
    assert "does not exist" in out


def test_list_rules(tmp_path):
    code, out = run_cli(["--list-rules"])
    assert code == 0
    for expected in ("RPR101", "RPR202", "RPR303"):
        assert expected in out


def test_explain_prints_rationale_and_examples():
    code, out = run_cli(["--explain", "RPR401"])
    assert code == 0
    assert "RPR401" in out and "unguarded-shared-state" in out
    assert "Bad:" in out and "Good:" in out
    assert "docs/lint_rules.md#rpr401" in out


def test_explain_normalises_case():
    code, out = run_cli(["--explain", "rpr101"])
    assert code == 0
    assert "RPR101" in out


def test_explain_covers_every_registered_rule():
    from repro.lint.registry import all_rule_classes

    for cls in all_rule_classes():
        code, out = run_cli(["--explain", cls.code])
        assert code == 0, cls.code
        assert cls.code in out and "Bad:" in out, cls.code


def test_explain_parse_error_code_is_documented():
    code, out = run_cli(["--explain", "RPR001"])
    assert code == 0
    assert "parse" in out.lower()


def test_explain_unknown_code_is_a_usage_error():
    code, out = run_cli(["--explain", "RPR999"])
    assert code == 2
    assert "unknown rule code" in out


def test_repo_src_via_cli_is_clean():
    """End to end under the repo's own config: a clean module of the
    shipped ``src`` tree passes.  The whole tree is linted once, by
    ``test_self_clean.py``."""
    repo_root = Path(__file__).resolve().parents[2]
    code, out = run_cli([str(repo_root / "src" / "repro" / "__init__.py")])
    assert code == 0, out
    assert "0 finding(s) in 1 file(s)" in out


def test_sarif_format(tmp_path):
    target = tmp_path / "dirty.py"
    target.write_text(DIRTY)
    code, out = run_cli([str(target), "--format", "sarif"])
    assert code == 1
    payload = json.loads(out)
    assert payload["version"] == "2.1.0"
    codes = {r["ruleId"] for r in payload["runs"][0]["results"]}
    assert {"RPR101", "RPR201"} <= codes
