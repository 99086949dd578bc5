"""Tests for the project index: symbol, ancestry, and call resolution.

The fixture package exercises the three resolution features the
interprocedural rules lean on — a diamond import, a cross-file class
hierarchy, and a symbol re-exported through a package ``__init__``.
"""

import ast
import textwrap
from pathlib import Path

from repro.lint.engine import module_name_for
from repro.lint.semantic import ProjectIndex, extract_module_facts

#: Diamond: app -> (left, right) -> core, plus a package __init__
#: re-exporting core's helper and a cross-file Featurizer hierarchy.
FIXTURE = {
    "pkg/__init__.py": """\
        from pkg.core import helper
        """,
    "pkg/core.py": """\
        def helper(x):
            return x + 1

        class Featurizer:
            pass
        """,
    "pkg/left.py": """\
        from pkg.core import helper

        def via_left(x):
            return helper(x)
        """,
    "pkg/right.py": """\
        from pkg.core import Featurizer

        class Intermediate(Featurizer):
            pass
        """,
    "pkg/app.py": """\
        from pkg import helper
        from pkg.left import via_left
        from pkg.right import Intermediate

        class Leaf(Intermediate):
            pass

        def main(x):
            return helper(via_left(x))
        """,
    "pkg/loner.py": """\
        def unrelated():
            return 0
        """,
}


def write_tree(root: Path, files: dict) -> None:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")


def build_index(root: Path) -> ProjectIndex:
    facts = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        facts.append(extract_module_facts(
            tree, path=path.relative_to(root).as_posix(),
            module_name=module_name_for(path)))
    return ProjectIndex(facts)


class TestResolution:
    def test_direct_import_resolves(self, tmp_path):
        write_tree(tmp_path, FIXTURE)
        index = build_index(tmp_path)
        symbol = index.resolve_symbol("pkg.left", "helper")
        assert symbol.kind == "function"
        assert symbol.module.module_name == "pkg.core"
        assert symbol.function.name == "helper"

    def test_reexport_through_package_init(self, tmp_path):
        write_tree(tmp_path, FIXTURE)
        index = build_index(tmp_path)
        # app imports helper from the package, which re-exports core's.
        symbol = index.resolve_symbol("pkg.app", "helper")
        assert symbol.kind == "function"
        assert symbol.module.module_name == "pkg.core"

    def test_cross_file_ancestry(self, tmp_path):
        write_tree(tmp_path, FIXTURE)
        index = build_index(tmp_path)
        app = index.modules["pkg.app"]
        leaf = next(cls for cls in app.classes if cls.name == "Leaf")
        ancestry = [(mf.module_name, cls.name)
                    for mf, cls in index.iter_ancestry(app, leaf)]
        assert ancestry == [("pkg.app", "Leaf"),
                            ("pkg.right", "Intermediate"),
                            ("pkg.core", "Featurizer")]

    def test_call_resolution_through_reexport(self, tmp_path):
        write_tree(tmp_path, FIXTURE)
        index = build_index(tmp_path)
        resolved = index.resolve_call("pkg.app", "helper")
        assert resolved is not None
        assert resolved[0].module_name == "pkg.core"
