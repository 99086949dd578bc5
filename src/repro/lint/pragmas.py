"""Inline suppression pragmas.

A finding is suppressed by a comment on the same physical line::

    qualifying = np.nonzero(entries == 1.0)[0]  # repro: ignore[RPR102]

Several codes may be listed, separated by commas or whitespace
(``# repro: ignore[RPR102,RPR302]`` and ``# repro: ignore[RPR102
RPR302]`` are equivalent); the bare form ``# repro: ignore`` suppresses
every rule on that line.  The pragma must sit on the line the finding
is reported at (the node's ``lineno``), mirroring how ``# noqa``
behaves — with one ergonomic exception: a pragma on a decorator line
also covers the decorated ``def``/``class`` statement, because findings
for a decorated function anchor at the ``def`` line while the natural
place to write the comment is often the decorator above it
(:func:`decorator_pragmas`).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize

__all__ = ["ALL_CODES", "parse_pragmas", "decorator_pragmas",
           "is_suppressed"]

#: Sentinel entry meaning "every code" (the bare pragma, no code list).
ALL_CODES = "*"

_PRAGMA = re.compile(
    r"#\s*repro:\s*ignore"
    r"(?:\[(?P<codes>[A-Z0-9,\s]+)\])?")


def parse_pragmas(source: str) -> dict[int, frozenset[str]]:
    """Map line number -> suppressed codes for every pragma in ``source``.

    Comments are found with :mod:`tokenize` so pragmas inside string
    literals are not misread.  Unreadable sources yield no pragmas (the
    engine reports the parse failure separately).
    """
    pragmas: dict[int, frozenset[str]] = {}
    readline = io.StringIO(source).readline
    try:
        tokens = list(tokenize.generate_tokens(readline))
    except (tokenize.TokenError, SyntaxError, ValueError):
        return pragmas
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _PRAGMA.search(token.string)
        if match is None:
            continue
        raw = match.group("codes")
        if raw is None:
            codes = frozenset({ALL_CODES})
        else:
            codes = frozenset(
                part for part in re.split(r"[,\s]+", raw) if part)
            if not codes:
                codes = frozenset({ALL_CODES})
        line = token.start[0]
        pragmas[line] = pragmas.get(line, frozenset()) | codes
    return pragmas


def decorator_pragmas(tree: ast.AST,
                      pragmas: dict[int, frozenset[str]]
                      ) -> dict[int, frozenset[str]]:
    """Extend ``pragmas`` so decorator-line pragmas cover their target.

    Findings for a decorated function or class anchor at the ``def`` /
    ``class`` line (the node's ``lineno``), but a suppression comment is
    often most readable on the decorator above it.  For every decorated
    definition, codes from any of its decorator lines are merged into
    the definition line's entry.  The input mapping is not mutated.
    """
    merged = dict(pragmas)
    for node in ast.walk(tree):
        decorators = getattr(node, "decorator_list", None)
        if not decorators:
            continue
        target_line = node.lineno
        for decorator in decorators:
            for line in range(decorator.lineno,
                              (decorator.end_lineno or decorator.lineno)
                              + 1):
                codes = pragmas.get(line)
                if codes:
                    merged[target_line] = \
                        merged.get(target_line, frozenset()) | codes
    return merged


def is_suppressed(pragmas: dict[int, frozenset[str]],
                  line: int, code: str) -> bool:
    """True iff a pragma on ``line`` suppresses ``code``."""
    codes = pragmas.get(line)
    return codes is not None and (code in codes or ALL_CODES in codes)
