"""The rule registry: rules declare themselves, the engine discovers them."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Type

from repro.lint.findings import Finding, Severity


@dataclass
class ModuleContext:
    """Everything a rule may inspect about one module."""

    path: str                     # display path, as the caller named it
    rel: str                      # package-rooted path, e.g. "repro/phy/dsss.py"
    source: str
    tree: ast.AST
    lines: List[str] = field(default_factory=list)
    imports: Dict[str, str] = field(default_factory=dict)

    def in_modules(self, *rels: str) -> bool:
        """Is this module one of / under the given package-rooted paths?

        ``"repro/obs/"`` (trailing slash) matches the whole package;
        ``"repro/core/pipeline.py"`` matches exactly.
        """
        for rel in rels:
            if rel.endswith("/"):
                if self.rel.startswith(rel):
                    return True
            elif self.rel == rel:
                return True
        return False


class Rule:
    """Base class for all lint rules.

    Subclasses set ``id`` / ``severity`` / ``description``, optionally
    narrow :meth:`applies_to`, and implement :meth:`check` yielding
    findings.  Register with :func:`register`.
    """

    id: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""

    def applies_to(self, ctx: ModuleContext) -> bool:
        return True

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=ctx.path,
            rel=ctx.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


class ProjectRule:
    """Base class for whole-program rules (the RFD7xx family).

    Where :class:`Rule` sees one :class:`ModuleContext` at a time, a
    project rule's :meth:`check` receives a
    :class:`repro.lint.project.ProjectContext` holding every analyzed
    module, the import graph and the class index — so it can relate a
    lock acquired in one file to a call made from another.  Register
    with :func:`register_project`; run via ``rflint --project``.
    """

    id: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""

    def check(self, project) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleContext, node, message: str) -> Finding:
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=module.path,
            rel=module.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


#: rule id -> singleton rule instance
RULES: Dict[str, Rule] = {}

#: project-rule id -> singleton instance (disjoint id space from RULES)
PROJECT_RULES: Dict[str, ProjectRule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate the rule and add it to the registry."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if rule.id in RULES and type(RULES[rule.id]) is not cls:
        raise ValueError(f"duplicate rule id {rule.id}")
    RULES[rule.id] = rule
    return cls


def register_project(cls: Type[ProjectRule]) -> Type[ProjectRule]:
    """Class decorator: add a whole-program rule to the project registry."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"project rule {cls.__name__} has no id")
    if rule.id in RULES:
        raise ValueError(f"project rule id {rule.id} collides with a module rule")
    if rule.id in PROJECT_RULES and type(PROJECT_RULES[rule.id]) is not cls:
        raise ValueError(f"duplicate project rule id {rule.id}")
    PROJECT_RULES[rule.id] = rule
    return cls


def active_rules(select: Optional[Iterable[str]] = None,
                 ignore: Optional[Iterable[str]] = None) -> List[Rule]:
    """The registered rules, filtered by explicit select/ignore id lists."""
    # rule modules self-register on import
    import repro.lint.rules  # noqa: F401  (import is the side effect)

    selected = set(select) if select else None
    ignored = set(ignore) if ignore else set()
    out = []
    for rule_id in sorted(RULES):
        if selected is not None and rule_id not in selected:
            continue
        if rule_id in ignored:
            continue
        out.append(RULES[rule_id])
    return out


def active_project_rules(select: Optional[Iterable[str]] = None,
                         ignore: Optional[Iterable[str]] = None
                         ) -> List[ProjectRule]:
    """The registered whole-program rules, filtered like :func:`active_rules`."""
    import repro.lint.rules  # noqa: F401  (import is the side effect)

    selected = set(select) if select else None
    ignored = set(ignore) if ignore else set()
    out = []
    for rule_id in sorted(PROJECT_RULES):
        if selected is not None and rule_id not in selected:
            continue
        if rule_id in ignored:
            continue
        out.append(PROJECT_RULES[rule_id])
    return out
