"""Shared comment/string-aware C++ lexer for the rjf_analyze passes.

Every pass in the suite sees source text through this module, so the
classes of false positives/negatives a per-pass regex would reintroduce
(rules firing inside comments or string literals, allow-tags read out of
code instead of comments) are fixed in exactly one place.

Two views of a file:

  * ``code_lines`` — the raw lines with comments and string/char literal
    *contents* blanked out (quote characters kept so "a string was here"
    stays visible to heuristics that care). Rule matchers run on these.
  * ``raw_lines``  — untouched text. Allow-tags are parsed from here,
    because they live in comments by design.

Allow-tag grammar (the escape hatch shared by every pass):

  // rjf-analyze: allow(<pass>.<rule>)   any pass/rule in the suite
  // rjf-analyze: allow(realtime.call)   audited call edge: the realtime
                                         pass will not traverse callees on
                                         this line

A tag must name the rule it suppresses; an allow for a different rule on
the same line does not match. Multiple tags per line are honoured.
"""

from __future__ import annotations

import pathlib
import re

# Pass-qualified rule ids (e.g. "layering.undeclared-edge").
ANALYZE_ALLOW_RE = re.compile(r"rjf-analyze:\s*allow\(([a-z0-9_.-]+)\)")


def strip_code(lines):
    """Return code lines: comments and string/char literals blanked, so
    rule regexes only see real code tokens. Tracks /* */ across lines."""
    out = []
    in_block = False
    for raw in lines:
        code = []
        i = 0
        n = len(raw)
        while i < n:
            if in_block:
                j = raw.find("*/", i)
                if j == -1:
                    i = n
                else:
                    in_block = False
                    i = j + 2
                continue
            c = raw[i]
            if c == "/" and i + 1 < n and raw[i + 1] == "/":
                break  # rest of line is a comment
            if c == "/" and i + 1 < n and raw[i + 1] == "*":
                in_block = True
                i += 2
                continue
            if c in "\"'":
                quote = c
                code.append(quote)
                i += 1
                while i < n:
                    if raw[i] == "\\":
                        i += 2
                        continue
                    if raw[i] == quote:
                        i += 1
                        break
                    i += 1
                code.append(quote)
                continue
            code.append(c)
            i += 1
        out.append("".join(code))
    return out


class SourceFile:
    """One lexed file: raw lines, code lines, and per-line allow-tags."""

    def __init__(self, path: pathlib.Path, root: pathlib.Path):
        self.path = path
        self.rel = str(path.relative_to(root))
        text = path.read_text(encoding="utf-8")
        self.raw_lines = text.splitlines()
        self.code_lines = strip_code(self.raw_lines)
        # line number (1-based) -> set of tag strings
        self._allows: dict[int, set[str]] = {}
        for lineno, raw in enumerate(self.raw_lines, start=1):
            tags = set(ANALYZE_ALLOW_RE.findall(raw))
            if tags:
                self._allows[lineno] = tags

    def allows(self, lineno: int) -> set:
        return self._allows.get(lineno, set())

    def allowed(self, lineno: int, pass_id: str, rule_id: str) -> bool:
        """True when a tag on `lineno` suppresses pass_id.rule_id."""
        return f"{pass_id}.{rule_id}" in self.allows(lineno)

    def lines(self):
        """Yield (lineno, code, raw) triples, lineno 1-based."""
        return zip(range(1, len(self.raw_lines) + 1),
                   self.code_lines, self.raw_lines)


class FileCache:
    """Lex each file once, however many passes look at it."""

    def __init__(self, root: pathlib.Path):
        self.root = root
        self._cache: dict[pathlib.Path, SourceFile] = {}

    def get(self, path: pathlib.Path) -> SourceFile:
        path = path.resolve()
        sf = self._cache.get(path)
        if sf is None:
            sf = SourceFile(path, self.root)
            self._cache[path] = sf
        return sf
