"""Performance rules: the detection-stage hot path stays vectorized.

The vectorization PR replaced the detection stage's Python loops with
whole-array numpy kernels, and the ``rfbench`` regression gate holds the
resulting throughput.  This rule keeps the floor from silently eroding:
a ``for``/``while`` creeping back into a hot-path module is exactly the
kind of change that passes every correctness test while costing 2x at
benchmark time.  Deliberate loops (the retained ``impl="reference"``
kernels, bounded setup loops) carry ``# rfdump: noqa[RFD601]`` with the
justification next to them.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding, Severity
from repro.lint.registry import ModuleContext, Rule, register

#: the modules the rfbench microbenchmarks time — per-sample work in
#: these must be whole-array numpy, not Python iteration
HOT_PATH_MODULES = (
    "repro/core/peak_detector.py",
    "repro/dsp/energy.py",
    "repro/dsp/phase.py",
    "repro/dsp/fftutil.py",
    "repro/dsp/samples.py",
    # the Wi-Fi scan, its correlation kernel and its SFD search (rfbench
    # demod_wifi): loops run per tile, template, tap, alignment,
    # candidate or pattern hit, never per sample or per bit
    "repro/analysis/decoders.py",
    "repro/phy/wifi.py",
    "repro/phy/plcp.py",
    # the per-peak phase detectors (rfbench phase_detectors): loops run
    # once per peak with O(1) numpy calls inside, never per template,
    # alignment or sample
    "repro/core/detectors/phase_dbpsk.py",
    "repro/core/detectors/phase_gfsk.py",
)


@register
class HotPathLoopRule(Rule):
    id = "RFD601"
    severity = Severity.WARNING
    description = ("no for/while loops in detection-stage hot-path modules; "
                   "use whole-array numpy kernels (suppress deliberate loops "
                   "with # rfdump: noqa[RFD601] and a justification)")

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_modules(*HOT_PATH_MODULES)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield self.finding(
                    ctx, node,
                    "for-loop in a hot-path module; per-sample and per-peak "
                    "work belongs in whole-array numpy kernels "
                    "(np.add.reduceat, np.bincount, np.repeat)",
                )
            elif isinstance(node, ast.While):
                yield self.finding(
                    ctx, node,
                    "while-loop in a hot-path module; per-sample and "
                    "per-peak work belongs in whole-array numpy kernels",
                )
