"""Dtype discipline: IQ paths are ``complex64`` end-to-end.

The capture format is 8-bit I/Q upconverted to ``complex64``
(``dsp/samples.py``); a stray ``complex128`` array silently doubles
memory traffic and produces results that differ bit-for-bit from the
``complex64`` pipeline.  These rules police the ``phy/`` and ``dsp/``
packages, where sample buffers are produced and transformed.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.astutil import build_parents, dotted_name, walk_calls
from repro.lint.findings import Finding, Severity
from repro.lint.registry import ModuleContext, Rule, register

IQ_SCOPES = ("repro/phy/", "repro/dsp/")


def _is_complex128(node: ast.expr, imports) -> Optional[str]:
    """Human-readable spelling if ``node`` denotes the complex128 dtype."""
    dotted = dotted_name(node, imports)
    if dotted in ("numpy.complex128", "numpy.complex_"):
        return dotted.replace("numpy.", "np.")
    if isinstance(node, ast.Name) and node.id == "complex":
        return "complex"
    if isinstance(node, ast.Constant) and node.value in ("complex128", "complex_"):
        return repr(node.value)
    return None


class _IQRule(Rule):
    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_modules(*IQ_SCOPES)


@register
class Complex128Rule(_IQRule):
    id = "RFD201"
    severity = Severity.ERROR
    description = ("no complex128 array creation on IQ paths (phy/, dsp/); "
                   "the capture pipeline is complex64 end-to-end")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for call in walk_calls(ctx.tree):
            # x.astype(complex128-ish)
            if (isinstance(call.func, ast.Attribute)
                    and call.func.attr == "astype" and call.args):
                spelled = _is_complex128(call.args[0], ctx.imports)
                if spelled:
                    yield self.finding(
                        ctx, call,
                        f"astype({spelled}) widens an IQ array to "
                        "complex128; the pipeline dtype is np.complex64",
                    )
                continue
            # np.zeros(..., dtype=complex128-ish) and friends
            for kw in call.keywords:
                if kw.arg == "dtype":
                    spelled = _is_complex128(kw.value, ctx.imports)
                    if spelled:
                        yield self.finding(
                            ctx, call,
                            f"array created with dtype={spelled} on an IQ "
                            "path; use np.complex64",
                        )


@register
class DefaultComplexRule(_IQRule):
    id = "RFD202"
    severity = Severity.WARNING
    description = ("np.exp of a 1j expression defaults to complex128; "
                   "cast to np.complex64 at the point of creation")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        parents = build_parents(ctx.tree)
        for call in walk_calls(ctx.tree):
            if dotted_name(call.func, ctx.imports) != "numpy.exp":
                continue
            has_imaginary = any(
                isinstance(sub, ast.Constant) and isinstance(sub.value, complex)
                for arg in call.args for sub in ast.walk(arg)
            )
            if not has_imaginary:
                continue
            # np.exp(1j * x).astype(...) casts immediately: fine
            parent = parents.get(call)
            if (isinstance(parent, ast.Attribute) and parent.attr == "astype"):
                continue
            # -np.exp(...) wrapped in a cast one level up is still flagged
            # conservatively; suppress deliberate float64 math inline
            yield self.finding(
                ctx, call,
                "np.exp(1j * ...) creates a complex128 array; append "
                ".astype(np.complex64) or justify with a noqa[RFD202] comment",
            )
