"""Finding objects produced by lint rules.

A finding pins one rule violation to one source location.  Findings are
value objects: the engine sorts and serializes them without ever
consulting the rule that produced them.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Finding"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    #: Path of the offending file, relative to the scan root (posix form).
    path: str
    #: 1-based line of the offending node.
    line: int
    #: 1-based column of the offending node.
    col: int
    #: Stable rule code (``RPRnnn``).
    code: str
    #: Human-readable description of this specific violation.
    message: str

    def render(self) -> str:
        """``path:line:col: CODE message`` (the text-reporter line)."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> dict:
        """JSON-serializable representation (the JSON-reporter item)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }
