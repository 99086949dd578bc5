"""Lint configuration, read from ``[tool.repro.lint]`` in pyproject.toml.

Recognised keys::

    [tool.repro.lint]
    print-allowed = ["repro.cli"]   # modules where RPR302 does not apply

    [tool.repro.lint.layering]      # RPR301: layer -> forbidden imports
    "repro.featurize" = ["repro.models", ...]

Every key has a default grounded in this repository, so the linter also
works on a bare tree with no configuration at all.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

__all__ = ["LintConfig", "load_config", "find_pyproject",
           "DEFAULT_LAYERING", "DEFAULT_PRINT_ALLOWED"]

#: Strict layering: lower layers never import upward.  The featurization,
#: SQL, and data substrates must stay reusable without dragging in the
#: model / estimator / experiment stack (ROADMAP: independent scaling).
DEFAULT_LAYERING: Mapping[str, tuple[str, ...]] = {
    "repro.featurize": ("repro.models", "repro.estimators",
                        "repro.experiments"),
    "repro.sql": ("repro.models", "repro.estimators", "repro.experiments"),
    "repro.data": ("repro.models", "repro.estimators", "repro.experiments"),
}

#: Command-line entry points legitimately talk to stdout.
DEFAULT_PRINT_ALLOWED: tuple[str, ...] = (
    "repro.cli",
    "repro.experiments.runner",
)


@dataclass(frozen=True)
class LintConfig:
    """Resolved lint configuration."""

    #: Modules (or package prefixes) where ``print()`` is legitimate.
    print_allowed: tuple[str, ...] = DEFAULT_PRINT_ALLOWED
    #: RPR301 layer map: module prefix -> forbidden import prefixes.
    layering: Mapping[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_LAYERING))


def find_pyproject(start: Path) -> Path | None:
    """Nearest ``pyproject.toml`` at or above ``start``."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for directory in (current, *current.parents):
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            return candidate
    return None


def load_config(start: Path | None = None) -> LintConfig:
    """Load the configuration governing a scan rooted at ``start``."""
    pyproject = find_pyproject(start if start is not None else Path.cwd())
    if pyproject is None:
        return LintConfig()
    try:
        data = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    except (tomllib.TOMLDecodeError, OSError):
        return LintConfig()
    section = data.get("tool", {}).get("repro", {}).get("lint", {})
    if not isinstance(section, dict):
        section = {}
    layering_section = section.get("layering")
    if isinstance(layering_section, dict) and layering_section:
        layering = {str(layer): tuple(str(m) for m in forbidden)
                    for layer, forbidden in layering_section.items()}
    else:
        layering = dict(DEFAULT_LAYERING)
    return LintConfig(
        print_allowed=tuple(
            str(m) for m in section.get("print-allowed",
                                        DEFAULT_PRINT_ALLOWED)),
        layering=layering,
    )
