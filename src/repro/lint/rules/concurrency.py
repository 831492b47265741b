"""Concurrency safety: work submitted to executors must not share state.

The pooled ``AnalysisStage`` owes its inline-equivalence guarantee to a
strict discipline: tasks are pure functions of their arguments, results
come back through futures, and nothing mutates captured outer-scope
state from inside a worker.  A lambda that closes over local variables
is the classic way that discipline erodes — the closure races with the
submitting thread (and silently pickles stale state on the process
backend).
"""

from __future__ import annotations

import ast
import builtins
from typing import Iterator, Set

from repro.lint.findings import Finding, Severity
from repro.lint.registry import ModuleContext, Rule, register

_BUILTINS = frozenset(dir(builtins))

#: methods that hand a callable to a worker pool
_SUBMIT_METHODS = ("submit", "map", "apply_async", "submit_task")


def _lambda_captures(node: ast.Lambda) -> Set[str]:
    """Names a lambda reads from enclosing scopes (its free variables)."""
    bound = {a.arg for a in (
        node.args.args + node.args.kwonlyargs + node.args.posonlyargs
    )}
    if node.args.vararg:
        bound.add(node.args.vararg.arg)
    if node.args.kwarg:
        bound.add(node.args.kwarg.arg)
    free: Set[str] = set()
    for sub in ast.walk(node.body):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            if sub.id not in bound and sub.id not in _BUILTINS:
                free.add(sub.id)
    return free


@register
class ExecutorClosureRule(Rule):
    id = "RFD301"
    severity = Severity.ERROR
    description = ("closures submitted to executors must not capture "
                   "outer-scope state; pass data as explicit arguments")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _SUBMIT_METHODS):
                continue
            for arg in node.args:
                if not isinstance(arg, ast.Lambda):
                    continue
                captured = sorted(_lambda_captures(arg))
                if captured:
                    names = ", ".join(captured)
                    yield self.finding(
                        ctx, arg,
                        f"lambda passed to .{node.func.attr}() captures "
                        f"outer-scope name(s) {names}; the closure races "
                        "with the submitting thread — pass the values as "
                        "explicit submit() arguments instead",
                    )
