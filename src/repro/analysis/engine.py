"""The qblint engine: file walking, suppression handling, rule dispatch.

Suppressions are comments:

* ``# qblint: disable=rule-a,rule-b`` — silences those rules on that line
  (or, when the comment stands alone, on the next line);
* ``# qblint: disable-file=rule-a`` — silences a rule for the whole file.

Unknown rule names in a suppression are themselves reported, so stale
suppressions cannot linger silently.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.rules import ALL_RULES, Rule
from repro.errors import ValidationError

__all__ = ["Violation", "Suppressions", "lint_file", "lint_paths",
           "CONCURRENCY_CODES"]

#: diagnostic codes of the interprocedural concurrency pass
#: (:mod:`repro.analysis.concurrency`).  Defined here — not there — so the
#: suppression validator below can accept them without importing the
#: analyzer (which imports this module for Violation/Suppressions).
CONCURRENCY_CODES = frozenset(
    {"QB401", "QB411", "QB412", "QB413", "QB421", "QB422"}
)

_LINE_RE = re.compile(r"#\s*qblint:\s*disable=([\w,\s-]+)")
_FILE_RE = re.compile(r"#\s*qblint:\s*disable-file=([\w,\s-]+)")


@dataclass(frozen=True)
class Violation:
    """One rule violation at one source location."""

    path: str
    line: int
    rule: str
    message: str

    def format(self) -> str:
        """Render as ``path:line: [rule] message``."""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class Suppressions:
    """Parsed ``qblint: disable`` comments of one file."""

    def __init__(self, source: str):
        self.by_line: dict[int, set[str]] = {}
        self.whole_file: set[str] = set()
        self.mentioned: set[str] = set()
        # Real COMMENT tokens only — a doc example that merely *mentions*
        # a suppression inside a string must not activate one.
        for token in _comment_tokens(source):
            number = token.start[0]
            text = token.string
            match = _FILE_RE.search(text)
            if match:
                rules = _parse_rule_list(match.group(1))
                self.whole_file |= rules
                self.mentioned |= rules
                continue
            match = _LINE_RE.search(text)
            if match:
                rules = _parse_rule_list(match.group(1))
                self.mentioned |= rules
                self.by_line.setdefault(number, set()).update(rules)
                if token.start[1] == 0 or not token.line[: token.start[1]].strip():
                    # A standalone comment line guards the line below it.
                    self.by_line.setdefault(number + 1, set()).update(rules)

    def active(self, line: int, rule: str) -> bool:
        """Is ``rule`` suppressed on ``line``?"""
        if rule in self.whole_file:
            return True
        return rule in self.by_line.get(line, set())


def _parse_rule_list(text: str) -> set[str]:
    return {part.strip() for part in text.split(",") if part.strip()}


def _comment_tokens(source: str):
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                yield token
    except (tokenize.TokenError, IndentationError):
        return  # unparseable tail; the ast pass reports the syntax error


def lint_file(path: str | Path, rules: Sequence[Rule] = ALL_RULES) -> list[Violation]:
    """All violations in one Python source file."""
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    display = str(path)
    try:
        tree = ast.parse(source, filename=display)
    except SyntaxError as exc:
        return [
            Violation(
                display,
                exc.lineno or 1,
                "syntax-error",
                f"file does not parse: {exc.msg}",
            )
        ]
    suppressions = Suppressions(source)
    known = {rule.name for rule in rules} | CONCURRENCY_CODES
    violations = [
        Violation(display, 1, "unknown-suppression",
                  f"suppression names unknown rule {name!r}")
        for name in sorted(suppressions.mentioned - known)
    ]
    for rule in rules:
        for line, message in rule.check(tree, display):
            if not suppressions.active(line, rule.name):
                violations.append(Violation(display, line, rule.name, message))
    violations.sort(key=lambda v: (v.line, v.rule))
    return violations


def lint_paths(paths: Iterable[str | Path],
               rules: Sequence[Rule] = ALL_RULES) -> list[Violation]:
    """All violations under the given files/directories (recursing into dirs)."""
    files: list[Path] = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            files.extend(sorted(entry.rglob("*.py")))
        elif entry.is_file():
            files.append(entry)
        else:
            raise ValidationError(f"no such file or directory: {entry}")
    violations: list[Violation] = []
    for file in files:
        violations.extend(lint_file(file, rules))
    return violations
