"""The benchmark registry: benches declare themselves, the runner discovers them.

A name-keyed registry filled at import: :mod:`repro.bench.suite`
self-registers the default benchmarks on import, and
:func:`all_benchmarks` triggers that import lazily so constructing the
registry costs nothing until a runner needs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence


@dataclass(frozen=True)
class BenchContext:
    """What a benchmark's setup callback may depend on.

    ``quick`` selects the PR-gate workload size (seconds of CI time);
    the full size is the nightly default.  ``impl`` picks the kernel
    implementation for benchmarks that support more than one (the
    peak-detection microbenchmark's ``reference`` baseline mode).
    """

    quick: bool = False
    impl: str = "vectorized"


@dataclass(frozen=True)
class Benchmark:
    """One registered microbenchmark.

    ``setup`` builds the workload (untimed), ``run`` executes one timed
    repetition and returns the number of IQ samples processed, and
    ``equivalence`` (optional) asserts cross-implementation agreement on
    the workload — the runner refuses to trust timings for a benchmark
    whose equivalence hook fails.  ``report`` (optional) runs after the
    timed repetitions and returns extra result metadata the workload
    accumulated (e.g. per-window latency quantiles); the runner merges
    it into the result's ``meta`` for gates like ``rfbench --max-p99``.
    """

    name: str
    description: str
    setup: Callable[[BenchContext], Any]
    run: Callable[[Any, BenchContext], int]
    equivalence: Optional[Callable[[Any, BenchContext], Dict[str, object]]] = None
    report: Optional[Callable[[Any, BenchContext], Dict[str, object]]] = None
    tags: Sequence[str] = field(default_factory=tuple)


_REGISTRY: Dict[str, Benchmark] = {}


def register_benchmark(bench: Benchmark) -> Benchmark:
    """Add a benchmark to the registry (idempotent per name+object)."""
    existing = _REGISTRY.get(bench.name)
    if existing is not None and existing is not bench:
        raise ValueError(f"duplicate benchmark name {bench.name!r}")
    _REGISTRY[bench.name] = bench
    return bench


def all_benchmarks() -> List[Benchmark]:
    """Every registered benchmark, name-sorted; imports the default suite."""
    import repro.bench.suite  # noqa: F401  (import is the side effect)

    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def get_benchmark(name: str) -> Benchmark:
    import repro.bench.suite  # noqa: F401

    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown benchmark {name!r}; known: {known}") from None
