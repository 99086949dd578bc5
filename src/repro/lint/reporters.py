"""Finding reporters: text, JSON, and SARIF 2.1.0 output.

Reporters write to a caller-supplied stream; they never touch
``sys.stdout`` themselves, which keeps the library layer silent (the
same contract rule RPR302 enforces on the rest of the codebase).

The SARIF reporter emits the subset of `SARIF 2.1.0
<https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html>`_
that code-scanning UIs consume: one run with the full rule catalogue in
``tool.driver.rules`` and one ``result`` per new finding, carrying the
rule id/index, level, message, and physical location.
"""

from __future__ import annotations

import json
from typing import IO, Sequence

from repro.lint.findings import Finding

__all__ = ["Report", "render_text", "render_json", "render_sarif",
           "render", "SARIF_SCHEMA_URI", "SARIF_VERSION"]

SARIF_SCHEMA_URI = ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")
SARIF_VERSION = "2.1.0"


class Report:
    """Everything one lint run produced, ready for rendering."""

    def __init__(self, *, new: Sequence[Finding],
                 suppressed: Sequence[Finding] = (),
                 files_scanned: int = 0) -> None:
        self.new = list(new)
        self.suppressed = list(suppressed)
        self.files_scanned = files_scanned

    @property
    def exit_code(self) -> int:
        """0 when no unsuppressed finding remains, else 1."""
        return 1 if self.new else 0


def render_text(report: Report, stream: IO[str]) -> None:
    """One ``path:line:col: CODE message`` line per finding + summary."""
    for finding in report.new:
        stream.write(finding.render() + "\n")
    summary = (
        f"{len(report.new)} finding(s) in {report.files_scanned} file(s)")
    if report.suppressed:
        summary += f" ({len(report.suppressed)} pragma-suppressed)"
    stream.write(summary + "\n")


def render_json(report: Report, stream: IO[str]) -> None:
    """Single JSON object: findings plus run summary."""
    payload = {
        "version": 1,
        "findings": [f.to_dict() for f in report.new],
        "summary": {
            "files_scanned": report.files_scanned,
            "new": len(report.new),
            "suppressed": len(report.suppressed),
            "exit_code": report.exit_code,
        },
    }
    stream.write(json.dumps(payload, indent=2) + "\n")


def render_sarif(report: Report, stream: IO[str]) -> None:
    """SARIF 2.1.0 log with one result per new finding.

    Pragma-suppressed findings are omitted — SARIF consumers treat every
    ``result`` as actionable, matching the text reporter's notion of
    "new".  Rules are listed in code order so ``ruleIndex`` is
    deterministic.
    """
    from repro.lint.registry import all_rule_classes

    rule_classes = sorted(all_rule_classes(), key=lambda cls: cls.code)
    rule_index = {cls.code: i for i, cls in enumerate(rule_classes)}
    rules = []
    for cls in rule_classes:
        entry = {
            "id": cls.code,
            "name": cls.name,
            "shortDescription": {"text": cls.summary},
            "helpUri": cls.help_uri(),
        }
        rationale = cls.rationale()
        if rationale:
            entry["fullDescription"] = {"text": rationale}
        rules.append(entry)
    results = []
    for finding in report.new:
        result = {
            "ruleId": finding.code,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.col,
                    },
                },
            }],
        }
        if finding.code in rule_index:
            result["ruleIndex"] = rule_index[finding.code]
        results.append(result)
    payload = {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "rules": rules,
                },
            },
            "results": results,
        }],
    }
    stream.write(json.dumps(payload, indent=2) + "\n")


def render(report: Report, stream: IO[str], fmt: str = "text") -> None:
    """Dispatch to the named reporter (``text``, ``json``, ``sarif``)."""
    if fmt == "json":
        render_json(report, stream)
    elif fmt == "sarif":
        render_sarif(report, stream)
    elif fmt == "text":
        render_text(report, stream)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
