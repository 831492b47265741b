"""Determinism rules: sample-path code must be a pure function of samples.

PR 2's headline guarantee — serial and parallel runs produce identical
metrics — only holds if nothing on the sample path reads ambient state.
Time must be derived from sample indices (``Timebase``), randomness must
arrive as an explicit ``np.random.Generator`` parameter (the convention
``emulator/channel.py`` established).
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.astutil import dotted_name, matches, walk_calls
from repro.lint.findings import Finding, Severity
from repro.lint.registry import ModuleContext, Rule, register

#: wall-clock reads that break bit-determinism everywhere
WALL_CLOCKS = (
    "time.time",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
)

#: monotonic clocks: fine for *accounting*, banned on the sample path
PERF_CLOCKS = (
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
)

#: the only modules allowed to read monotonic clocks (stage accounting,
#: deadline budgets and observability — they measure the pipeline, they
#: are not in it)
PERF_ALLOWED = (
    "repro/core/accounting.py",
    "repro/core/deadline.py",
    "repro/core/analysis_stage.py",
    "repro/core/pipeline.py",
    "repro/obs/",
)

#: np.random attributes that are *constructors* of explicit generators
#: (fine) rather than draws from the hidden global state (banned)
NUMPY_RNG_CONSTRUCTORS = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64", "RandomState",
})


@register
class WallClockRule(Rule):
    id = "RFD101"
    severity = Severity.ERROR
    description = ("no wall-clock reads (time.time, datetime.now) in "
                   "sample-path code; derive time from sample indices")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for call in walk_calls(ctx.tree):
            dotted = dotted_name(call.func, ctx.imports)
            hit = matches(dotted, WALL_CLOCKS)
            if hit:
                yield self.finding(
                    ctx, call,
                    f"wall-clock call {dotted}() breaks bit-determinism; "
                    "derive timestamps from sample indices via Timebase",
                )


@register
class AmbientRandomRule(Rule):
    id = "RFD102"
    severity = Severity.ERROR
    description = ("no ambient RNG (stdlib random, np.random.seed, legacy "
                   "np.random draws); take an explicit np.random.Generator "
                   "parameter instead")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for call in walk_calls(ctx.tree):
            dotted = dotted_name(call.func, ctx.imports)
            if not dotted:
                continue
            if dotted.startswith("random."):
                yield self.finding(
                    ctx, call,
                    f"stdlib global RNG call {dotted}() is hidden shared "
                    "state; pass an explicit np.random.Generator (see "
                    "emulator/channel.py)",
                )
            elif dotted.startswith("numpy.random."):
                leaf = dotted.rsplit(".", 1)[1]
                if leaf not in NUMPY_RNG_CONSTRUCTORS:
                    yield self.finding(
                        ctx, call,
                        f"{dotted}() draws from numpy's hidden global RNG; "
                        "construct a np.random.Generator and pass it in",
                    )


@register
class PerfCounterScopeRule(Rule):
    id = "RFD103"
    severity = Severity.WARNING
    description = ("monotonic clocks are reserved for the accounting and "
                   "observability modules; sample-path stages must stay "
                   "replayable")

    def applies_to(self, ctx: ModuleContext) -> bool:
        return not ctx.in_modules(*PERF_ALLOWED)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for call in walk_calls(ctx.tree):
            dotted = dotted_name(call.func, ctx.imports)
            hit = matches(dotted, PERF_CLOCKS)
            if hit:
                yield self.finding(
                    ctx, call,
                    f"{dotted}() outside the accounting/observability "
                    "modules (core/accounting.py, core/deadline.py, "
                    "core/analysis_stage.py, core/pipeline.py, obs/); "
                    "measured time does not belong on the sample path",
                )
