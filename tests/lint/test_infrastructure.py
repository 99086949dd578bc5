"""Tests for the engine plumbing: config, reporters, pragmas."""

import json
from pathlib import Path

import pytest

from repro.lint.config import (
    DEFAULT_LAYERING,
    DEFAULT_PRINT_ALLOWED,
    find_pyproject,
    load_config,
)
from repro.lint.engine import discover_files, module_name_for
from repro.lint.findings import Finding
from repro.lint.pragmas import decorator_pragmas, parse_pragmas
from repro.lint.registry import all_rule_classes
from repro.lint.reporters import Report, render

F1 = Finding(path="a.py", line=3, col=1, code="RPR101", message="m1")
F2 = Finding(path="b.py", line=9, col=5, code="RPR303", message="m2")


class TestConfig:
    def test_repo_pyproject_is_discovered(self):
        repo_root = Path(__file__).resolve().parents[2]
        config = load_config(repo_root / "src")
        assert "repro.fleet.worker" in config.print_allowed
        assert config.layering["repro.featurize"] == (
            "repro.models", "repro.estimators", "repro.experiments")

    def test_defaults_without_pyproject(self, tmp_path):
        config = load_config(tmp_path)
        assert dict(config.layering) == dict(DEFAULT_LAYERING)
        assert config.print_allowed == DEFAULT_PRINT_ALLOWED

    def test_section_overrides(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro.lint]\n'
            'print-allowed = ["x.y"]\n'
            '[tool.repro.lint.layering]\n'
            '"pkg.low" = ["pkg.high"]\n')
        config = load_config(tmp_path)
        assert config.print_allowed == ("x.y",)
        assert config.layering == {"pkg.low": ("pkg.high",)}

    def test_find_pyproject_walks_upward(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        nested = tmp_path / "a" / "b"
        nested.mkdir(parents=True)
        assert find_pyproject(nested) == tmp_path / "pyproject.toml"
        assert find_pyproject(Path("/")) in (None, Path("/pyproject.toml"))


class TestPragmas:
    def test_parse_single_and_multiple_codes(self):
        pragmas = parse_pragmas(
            "x = 1  # repro: ignore[RPR102]\n"
            "y = 2  # repro: ignore[RPR101, RPR303]\n")
        assert pragmas[1] == frozenset({"RPR102"})
        assert pragmas[2] == frozenset({"RPR101", "RPR303"})

    def test_pragma_inside_string_is_not_a_pragma(self):
        pragmas = parse_pragmas('x = "# repro: ignore[RPR101]"\n')
        assert pragmas == {}

    def test_blanket_form(self):
        assert parse_pragmas("x = 1  # repro: ignore\n")[1] == frozenset("*")

    def test_space_separated_codes(self):
        pragmas = parse_pragmas("x = 1  # repro: ignore[RPR102 RPR201]\n")
        assert pragmas[1] == frozenset({"RPR102", "RPR201"})

    def test_mixed_comma_and_space_separators(self):
        pragmas = parse_pragmas(
            "x = 1  # repro: ignore[RPR102, RPR201 RPR303]\n")
        assert pragmas[1] == frozenset({"RPR102", "RPR201", "RPR303"})

    def test_decorator_pragma_covers_the_def_line(self):
        import ast
        source = (
            "@property  # repro: ignore[RPR101]\n"
            "def f(x=[]):\n"
            "    return x\n")
        merged = decorator_pragmas(ast.parse(source),
                                   parse_pragmas(source))
        assert merged[1] == frozenset({"RPR101"})
        assert merged[2] == frozenset({"RPR101"})

    def test_decorator_pragma_suppresses_finding(self):
        from repro.lint import lint_text
        result = lint_text(
            "@staticmethod  # repro: ignore[RPR101]\n"
            "def f(x=[]):\n"
            '    """Doc."""\n'
            "    return x\n")
        assert not any(f.code == "RPR101" for f in result.findings)
        assert any(f.code == "RPR101" for f in result.suppressed)


class TestReporters:
    def _report(self):
        return Report(new=[F1], suppressed=[F2], files_scanned=4)

    def test_text_reporter(self, tmp_path):
        out = (tmp_path / "o.txt").open("w+")
        render(self._report(), out, "text")
        out.seek(0)
        text = out.read()
        assert "a.py:3:1: RPR101 m1" in text
        assert "1 finding(s) in 4 file(s) (1 pragma-suppressed)" in text

    def test_json_reporter(self, tmp_path):
        out = (tmp_path / "o.json").open("w+")
        render(self._report(), out, "json")
        out.seek(0)
        payload = json.loads(out.read())
        assert payload["findings"] == [F1.to_dict()]
        assert payload["summary"]["suppressed"] == 1
        assert payload["summary"]["exit_code"] == 1

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            render(self._report(), (tmp_path / "o").open("w"), "yaml")

    def test_exit_code_zero_when_clean(self):
        assert Report(new=[], suppressed=[F1], files_scanned=1).exit_code == 0


class TestRegistry:
    def test_catalogue_is_complete_and_banded(self):
        classes = all_rule_classes()
        codes = [cls.code for cls in classes]
        assert len(codes) == len(set(codes)) >= 9
        assert all(code.startswith("RPR") for code in codes)
        bands = {code[3] for code in codes}
        assert bands == {"1", "2", "3", "4"}
        for cls in classes:
            assert cls.name and cls.summary
            assert cls.example_bad and cls.example_good
            assert cls.rationale()
            assert cls.help_uri().endswith(cls.code.lower())


class TestDiscovery:
    def test_module_name_resolution(self):
        repo_src = Path(__file__).resolve().parents[2] / "src"
        assert module_name_for(
            repo_src / "repro" / "featurize" / "base.py"
        ) == "repro.featurize.base"
        assert module_name_for(
            repo_src / "repro" / "lint" / "__init__.py") == "repro.lint"

    def test_discover_skips_hidden_and_finds_nested(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "no.py").write_text("x = 1\n")
        found = discover_files([tmp_path])
        assert [p.name for p in found] == ["mod.py"]

    def test_discover_rejects_non_python_target(self, tmp_path):
        target = tmp_path / "data.csv"
        target.write_text("a,b\n")
        with pytest.raises(FileNotFoundError):
            discover_files([target])
