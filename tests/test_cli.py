"""Tests for the command-line interface."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.data.loaders import load_table_csv, save_table_csv
from repro.data.table import Table


@pytest.fixture(scope="module")
def csv_table(tmp_path_factory):
    """A small CSV table on disk."""
    rng = np.random.default_rng(1)
    table = Table("orders", {
        "price": rng.integers(0, 500, 2_000).astype(float),
        "year": rng.integers(1990, 2000, 2_000).astype(float),
        "status": rng.integers(0, 3, 2_000).astype(float),
    })
    path = tmp_path_factory.mktemp("cli") / "orders.csv"
    save_table_csv(table, path)
    return path


def test_generate_forest(tmp_path, capsys):
    out = tmp_path / "forest.csv"
    assert main(["generate-forest", str(out), "--rows", "300"]) == 0
    assert "300 rows" in capsys.readouterr().out
    table = load_table_csv(out)
    assert table.row_count == 300
    assert len(table.column_names) == 55


def test_train_then_estimate(tmp_path, csv_table, capsys):
    model_path = tmp_path / "model.npz"
    assert main([
        "train", str(csv_table), str(model_path),
        "--queries", "200", "--trees", "20", "--max-attributes", "2",
    ]) == 0
    assert model_path.exists()
    out = capsys.readouterr().out
    assert "saved estimator" in out

    assert main([
        "estimate", str(model_path),
        "SELECT count(*) FROM orders WHERE price < 250 AND year >= 1995",
        "--data", str(csv_table),
    ]) == 0
    out = capsys.readouterr().out
    assert "estimate:" in out
    assert "true:" in out
    assert "q-error:" in out


def test_train_mixed_workload_with_complex_qft(tmp_path, csv_table):
    model_path = tmp_path / "complex.npz"
    assert main([
        "train", str(csv_table), str(model_path),
        "--qft", "complex", "--workload", "mixed",
        "--queries", "150", "--trees", "15", "--max-attributes", "2",
    ]) == 0
    assert model_path.exists()


def test_estimate_without_data_prints_only_estimate(tmp_path, csv_table,
                                                    capsys):
    model_path = tmp_path / "model.npz"
    main(["train", str(csv_table), str(model_path),
          "--queries", "150", "--trees", "10", "--max-attributes", "2"])
    capsys.readouterr()
    assert main([
        "estimate", str(model_path),
        "SELECT count(*) FROM orders WHERE price < 100",
    ]) == 0
    out = capsys.readouterr().out
    assert "estimate:" in out
    assert "true:" not in out


def test_experiments_forwarding(capsys):
    assert main(["experiments", "--list"]) == 0
    assert "fig1" in capsys.readouterr().out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["bogus"])


@pytest.mark.parametrize("target", ["featurize", "obs", "predict"])
def test_smoke_bench_writes_no_default_report(target, tmp_path, monkeypatch,
                                              capsys):
    """A smoke run prints its report but never replaces the committed
    full-run ``BENCH_<target>.json``."""
    monkeypatch.chdir(tmp_path)
    main(["bench", target, "--smoke"])
    out = capsys.readouterr().out
    assert f"{target} bench" in out and "wrote" not in out
    assert list(tmp_path.glob("BENCH_*.json")) == []


#: One clean module of the shipped tree: these tests cover the CLI
#: plumbing; tests/lint/test_self_clean.py lints the whole tree once.
SHIPPED_MODULE = str(Path(__file__).resolve().parents[1]
                     / "src" / "repro" / "__init__.py")


def test_lint_subcommand_on_shipped_tree(capsys):
    assert main(["lint", SHIPPED_MODULE]) == 0
    assert "0 finding(s) in 1 file(s)" in capsys.readouterr().out


def test_lint_subcommand_json_format(capsys):
    assert main(["lint", SHIPPED_MODULE, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["exit_code"] == 0
    assert payload["findings"] == []


def test_lint_subcommand_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "RPR101" in out and "RPR303" in out


def test_lint_subcommand_flags_violations(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text('__all__ = []\n\n\ndef f(x=[]):\n    """Doc."""\n'
                   "    return x\n")
    assert main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "RPR101" in out and "RPR303" in out
