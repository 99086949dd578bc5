"""SARIF reporter tests: schema validity and text-reporter round-trip."""

import io
import json
import textwrap

import jsonschema
import pytest

from repro.lint import lint_text
from repro.lint.reporters import (
    Report,
    render_sarif,
    render_text,
    SARIF_SCHEMA_URI,
    SARIF_VERSION,
)

DIRTY = textwrap.dedent("""\
    import numpy as np

    __all__ = ["f"]


    def f(x=[]):
        \"\"\"Misbehave.\"\"\"
        np.random.seed(0)
        if x == 0.5:
            return None
        return x
    """)

#: The load-bearing subset of the SARIF 2.1.0 schema: everything the
#: reporter emits, with the structural constraints GitHub code scanning
#: actually enforces (required members, types, minimum array sizes).
SARIF_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "$schema": {"type": "string", "format": "uri"},
        "version": {"enum": ["2.1.0"]},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                            "properties": {
                                                "id": {"type": "string"},
                                                "name": {"type": "string"},
                                                "shortDescription": {
                                                    "type": "object",
                                                    "required": ["text"],
                                                },
                                                "fullDescription": {
                                                    "type": "object",
                                                    "required": ["text"],
                                                },
                                                "helpUri": {
                                                    "type": "string"},
                                            },
                                        },
                                    },
                                },
                            },
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["ruleId", "message", "locations"],
                            "properties": {
                                "ruleId": {"type": "string"},
                                "ruleIndex": {
                                    "type": "integer", "minimum": 0},
                                "level": {
                                    "enum": ["none", "note", "warning",
                                             "error"]},
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                    "properties": {
                                        "text": {"type": "string"}},
                                },
                                "locations": {
                                    "type": "array",
                                    "minItems": 1,
                                    "items": {
                                        "type": "object",
                                        "required": ["physicalLocation"],
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "required": [
                                                    "artifactLocation"],
                                                "properties": {
                                                    "artifactLocation": {
                                                        "type": "object",
                                                        "required": ["uri"],
                                                    },
                                                    "region": {
                                                        "type": "object",
                                                        "properties": {
                                                            "startLine": {
                                                                "type":
                                                                "integer",
                                                                "minimum": 1,
                                                            },
                                                            "startColumn": {
                                                                "type":
                                                                "integer",
                                                                "minimum": 1,
                                                            },
                                                        },
                                                    },
                                                },
                                            },
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


@pytest.fixture()
def report():
    result = lint_text(DIRTY, path="pkg/dirty.py")
    assert len(result.findings) >= 3
    return Report(new=list(result.findings),
                  files_scanned=1)


def render(report):
    stream = io.StringIO()
    render_sarif(report, stream)
    return json.loads(stream.getvalue())


def test_sarif_validates_against_schema(report):
    payload = render(report)
    jsonschema.validate(payload, SARIF_SCHEMA)
    assert payload["$schema"] == SARIF_SCHEMA_URI
    assert payload["version"] == SARIF_VERSION


def test_empty_report_still_validates():
    payload = render(Report(new=[]))
    jsonschema.validate(payload, SARIF_SCHEMA)
    assert payload["runs"][0]["results"] == []


def test_every_text_finding_round_trips(report):
    """Each text-reporter line maps onto exactly one SARIF result."""
    stream = io.StringIO()
    render_text(report, stream)
    text_lines = [line for line in stream.getvalue().splitlines()
                  if ": RPR" in line]
    results = render(report)["runs"][0]["results"]
    assert len(results) == len(text_lines) == len(report.new)
    for finding, result in zip(report.new, results):
        assert result["ruleId"] == finding.code
        assert result["message"]["text"] == finding.message
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == finding.path
        assert location["region"]["startLine"] == finding.line
        assert location["region"]["startColumn"] == finding.col
        rebuilt = (f"{location['artifactLocation']['uri']}:"
                   f"{location['region']['startLine']}:"
                   f"{location['region']['startColumn']}: "
                   f"{result['ruleId']} {result['message']['text']}")
        assert rebuilt in text_lines


def test_rule_index_points_into_catalogue(report):
    payload = render(report)
    rules = payload["runs"][0]["tool"]["driver"]["rules"]
    for result in payload["runs"][0]["results"]:
        index = result["ruleIndex"]
        assert rules[index]["id"] == result["ruleId"]


def test_rule_catalogue_carries_full_metadata():
    """Every rule entry has the help URI and a real fullDescription."""
    rules = render(Report(new=[]))["runs"][0]["tool"]["driver"]["rules"]
    assert len(rules) == 13
    for entry in rules:
        assert entry["helpUri"].startswith("docs/lint_rules.md#")
        assert entry["helpUri"].endswith(entry["id"].lower())
        assert entry["fullDescription"]["text"].strip()
        assert entry["fullDescription"]["text"] != \
            entry["shortDescription"]["text"]
