"""The analysis driver: parse, run rules, apply suppressions, report.

The engine is deliberately runtime-free: it never imports the modules it
analyzes, so a file with a missing optional dependency (or an
intentionally broken fixture) lints fine.  Suppression is per-line via
``# rfdump: noqa`` (all rules) or ``# rfdump: noqa[RFD101]`` /
``# rfdump: noqa[RFD101,RFD201]`` (exactly those rules).  A suppression
covers the whole physical span of the simple statement it sits on, so a
call wrapped over several lines is covered by a directive on any of
them — a finding anchored to the first line of a multi-line call is
suppressed by the trailing comment on its closing line.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.astutil import build_imports
from repro.lint.findings import Finding, Severity
from repro.lint.registry import ModuleContext, active_rules

#: the pseudo-rule emitted when a file does not parse
SYNTAX_RULE = "RFD000"

_NOQA_RE = re.compile(
    r"#\s*rfdump:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?", re.IGNORECASE
)


def package_rel_path(path: str) -> str:
    """Normalize a file path to its package-rooted form.

    ``/ckpt/src/repro/phy/dsss.py`` and ``src/repro/phy/dsss.py`` both
    become ``repro/phy/dsss.py``, so rule scopes are checkout-independent.
    Paths outside the package keep their own (slash-normalized) shape.

    A ``repro`` component preceded by ``src`` wins (that is the package
    root, wherever the checkout lives); otherwise the *last* ``repro``
    component anchors the path, so a checkout directory itself named
    ``repro`` (``/home/x/repro/src/repro/...``) does not swallow the
    whole tree into the package namespace.
    """
    parts = os.path.normpath(path).replace(os.sep, "/").split("/")
    candidates = [i for i, part in enumerate(parts) if part == "repro"]
    for i in candidates:
        if i > 0 and parts[i - 1] == "src":
            return "/".join(parts[i:])
    if candidates:
        return "/".join(parts[candidates[-1]:])
    return "/".join(p for p in parts if p not in (".", ""))


#: simple (non-compound) statements whose physical span one noqa covers
_SIMPLE_STATEMENTS = (
    ast.Expr, ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Return,
    ast.Raise, ast.Assert, ast.Delete, ast.Import, ast.ImportFrom,
    ast.Global, ast.Nonlocal,
)


def statement_spans(tree: ast.AST) -> Dict[int, Tuple[int, int]]:
    """Line -> ``(first, last)`` physical span of its simple statement.

    Only simple statements get a span: a noqa on the closing paren of a
    wrapped call should cover the call, but a noqa on a ``with`` or
    ``def`` line must not silence the entire block beneath it.
    """
    spans: Dict[int, Tuple[int, int]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, _SIMPLE_STATEMENTS):
            continue
        first = getattr(node, "lineno", None)
        last = getattr(node, "end_lineno", None)
        if first is None or last is None or last <= first:
            continue
        for line in range(first, last + 1):
            # innermost (shortest) span wins if statements ever nest
            existing = spans.get(line)
            if existing is None or (last - first) < (existing[1] - existing[0]):
                spans[line] = (first, last)
    return spans


def noqa_directives(lines: List[str]) -> Dict[int, Optional[Set[str]]]:
    """Line number (1-based) -> suppressed rule ids (None = all rules)."""
    directives: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(lines, start=1):
        match = _NOQA_RE.search(line)
        if not match:
            continue
        rules = match.group("rules")
        if rules is None:
            directives[lineno] = None
        else:
            directives[lineno] = {
                r.strip().upper() for r in rules.split(",") if r.strip()
            }
    return directives


def lint_source(
    source: str,
    path: str = "<memory>",
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Analyze one module's source text; returns findings in source order."""
    rel = package_rel_path(path)
    lines = source.splitlines()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(
            rule=SYNTAX_RULE,
            severity=Severity.ERROR,
            path=path,
            rel=rel,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            message=f"file does not parse: {exc.msg}",
        )]
    ctx = ModuleContext(
        path=path,
        rel=rel,
        source=source,
        tree=tree,
        lines=lines,
        imports=build_imports(tree),
    )
    findings: List[Finding] = []
    for rule in active_rules(select, ignore):
        if rule.applies_to(ctx):
            findings.extend(rule.check(ctx))

    findings = filter_suppressed(findings, lines, tree)
    findings.sort(key=Finding.sort_key)
    return findings


def filter_suppressed(findings: List[Finding], lines: List[str],
                      tree: ast.AST) -> List[Finding]:
    """Drop findings silenced by a noqa anywhere on their statement's span."""
    directives = noqa_directives(lines)
    if not directives:
        return list(findings)
    spans = statement_spans(tree)
    kept = []
    for finding in findings:
        span = spans.get(finding.line, (finding.line, finding.line))
        silenced = False
        for line in range(span[0], span[1] + 1):
            if line not in directives:
                continue
            suppressed = directives[line]
            if suppressed is None or finding.rule in suppressed:
                silenced = True
                break
        if not silenced:
            kept.append(finding)
    return kept


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if not d.startswith(".") and d != "__pycache__"
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        out.append(os.path.join(root, name))
        elif path.endswith(".py"):
            out.append(path)
    return out


def lint_paths(
    paths: Iterable[str],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Analyze every ``.py`` file under the given paths."""
    findings: List[Finding] = []
    for filename in iter_python_files(paths):
        with open(filename, "r", encoding="utf-8") as fh:
            source = fh.read()
        findings.extend(lint_source(source, path=filename,
                                    select=select, ignore=ignore))
    findings.sort(key=Finding.sort_key)
    return findings
