"""Pragma handling for project-stage (interprocedural) findings.

Project rules report through ``ProjectContext.report`` after every
module has been walked; the pragma table of the file a finding lands in
must still suppress it.
"""

import textwrap

from repro.lint import lint_text


class TestSemanticPragmas:
    def test_pragma_suppresses_semantic_finding(self):
        result = lint_text(textwrap.dedent("""\
            import threading


            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    with self._lock:
                        self._count += 1

                def reset(self):
                    self._count = 0  # repro: ignore[RPR401]
            """), module_name="repro.serve.mod")
        assert [f.code for f in result.findings] == []
        assert [f.code for f in result.suppressed] == ["RPR401"]
