"""Static analysis for the RFDump reproduction's own invariants.

The runtime never checks the contracts this codebase actually lives by:
bit-deterministic sample paths, ``complex64`` IQ buffers, share-nothing
executor tasks, frozen configs, stable metric names.  :mod:`repro.lint`
turns them into machine-checked rules over the AST — the software
analogue of GNU Radio validating ``io_signature``s before a graph runs.

Entry points
------------
* ``python -m repro.tools.rflint src/`` — the CLI (human or JSON output,
  non-zero exit on any active finding).
* :func:`lint_source` / :func:`lint_paths` — library API, used by the
  test suite to lint fixtures in memory.

Suppression is per-line: ``# rfdump: noqa[RFD101]`` silences exactly
that rule on that statement, next to the comment that says why.
"""

from repro.lint.engine import (
    SYNTAX_RULE,
    lint_paths,
    lint_source,
    package_rel_path,
    statement_spans,
)
from repro.lint.findings import Finding, Severity
from repro.lint.project import ProjectContext, build_project, lint_project
from repro.lint.registry import (
    PROJECT_RULES,
    RULES,
    ModuleContext,
    ProjectRule,
    Rule,
    active_project_rules,
    active_rules,
    register,
    register_project,
)

__all__ = [
    "Finding",
    "Severity",
    "Rule",
    "RULES",
    "ProjectRule",
    "PROJECT_RULES",
    "ModuleContext",
    "ProjectContext",
    "register",
    "register_project",
    "active_rules",
    "active_project_rules",
    "lint_source",
    "lint_paths",
    "lint_project",
    "build_project",
    "package_rel_path",
    "statement_spans",
    "SYNTAX_RULE",
]
