"""CLI round-trip: traced bench run -> `repro obs report` -> summary."""

import json

import pytest

from repro.cli import main
from repro.obs.export import read_spans_jsonl


@pytest.fixture(scope="module")
def traced_bench(tmp_path_factory):
    """One smoke-sized traced featurize bench shared by the module."""
    directory = tmp_path_factory.mktemp("obs-cli")
    trace = directory / "trace.jsonl"
    report = directory / "bench.json"
    code = main(["bench", "featurize", "--smoke",
                 "--trace", str(trace), "--output", str(report)])
    assert code == 0
    return trace


def test_bench_report_has_planned_legs(traced_bench):
    report = json.loads((traced_bench.parent / "bench.json").read_text(
        encoding="utf-8"))
    legs = {(leg["featurizer"], leg["workload"], leg["batch_size"]): leg
            for leg in report["planned"]}
    assert set(legs) == {(qft, workload, n)
                         for qft, workload in (("conjunctive", "conjunctive"),
                                               ("complex", "mixed"))
                         for n in (1, 16, 64)}
    assert all(leg["identical"] and leg["us_per_query"] > 0
               for leg in legs.values())
    assert report["all_identical"]


def test_bench_fails_on_a_planned_mismatch(tmp_path, monkeypatch, capsys):
    from repro.featurize.base import Featurizer

    original = Featurizer.encode_with_plans

    def skewed(self, plans, literal_rows):
        matrix = original(self, plans, literal_rows)
        if len(plans) == 16:
            matrix[-1, 0] += 1.0
        return matrix

    monkeypatch.setattr(Featurizer, "encode_with_plans", skewed)
    code = main(["bench", "featurize", "--smoke",
                 "--output", str(tmp_path / "bench.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert "planned n=16 " in out and "MISMATCH" in out
    report = json.loads((tmp_path / "bench.json").read_text(
        encoding="utf-8"))
    assert [leg["batch_size"] for leg in report["planned"]
            if not leg["identical"]] == [16, 16]


def test_bench_trace_contains_stage_spans(traced_bench):
    records = read_spans_jsonl(traced_bench)
    names = {r["name"] for r in records}
    assert {"bench.scalar_pass", "bench.batch_pass", "featurize.batch",
            "featurize.compile", "featurize.encode"} <= names
    # Stage spans sum to (nearly) their parent: the per-stage breakdown
    # accounts for the reported wall time.
    by_id = {r["span_id"]: r for r in records}
    batch_parent_names = set()
    for record in records:
        if record["name"] != "featurize.batch":
            continue
        children = sum(r["duration_ns"] for r in records
                       if r["parent_id"] == record["span_id"])
        assert children <= record["duration_ns"]
        assert children >= 0.8 * record["duration_ns"]
        if record["parent_id"] is not None:
            batch_parent_names.add(by_id[record["parent_id"]]["name"])
    # The timed passes (not just warm-ups) featurize under their span.
    assert "bench.batch_pass" in batch_parent_names


def test_report_text(traced_bench, capsys):
    assert main(["obs", "report", str(traced_bench)]) == 0
    out = capsys.readouterr().out
    assert "featurize.batch" in out
    assert "wall clock" in out


def test_report_json(traced_bench, capsys):
    assert main(["obs", "report", str(traced_bench),
                 "--format", "json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["spans"] == len(read_spans_jsonl(traced_bench))
    assert "featurize.encode" in summary["by_name"]


def test_report_chrome_export(traced_bench, tmp_path, capsys):
    chrome = tmp_path / "chrome.json"
    assert main(["obs", "report", str(traced_bench),
                 "--chrome", str(chrome)]) == 0
    payload = json.loads(chrome.read_text(encoding="utf-8"))
    assert payload["traceEvents"]
    assert all(e["ph"] == "X" for e in payload["traceEvents"])


def test_report_rejects_malformed_trace(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("definitely not json\n", encoding="utf-8")
    with pytest.raises(ValueError):
        main(["obs", "report", str(bad)])


def test_bench_obs_smoke_gate(tmp_path, capsys):
    report_path = tmp_path / "BENCH_obs.json"
    code = main(["bench", "obs", "--smoke", "--repeats", "3",
                 "--output", str(report_path),
                 "--max-overhead", "50.0"])
    out = capsys.readouterr().out
    assert code == 0, out
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["benchmark"] == "obs"
    # Every repro bench report is headed by what makes it comparable.
    assert set(report["header"]) == {"cpu_count", "python", "numpy",
                                     "git_sha", "smoke"}
    assert report["header"]["cpu_count"] >= 1
    assert report["header"]["smoke"] is True
    assert report["baseline_seconds"] > 0
    assert {"disabled_overhead_pct", "enabled_overhead_pct"} <= set(report)
    assert "tracing disabled" in out


def test_bench_obs_gate_failure(tmp_path, capsys):
    # An impossible bound must flip the exit code, proving the gate bites.
    code = main(["bench", "obs", "--smoke", "--repeats", "1",
                 "--output", str(tmp_path / "r.json"),
                 "--max-overhead", "-100.0"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out
