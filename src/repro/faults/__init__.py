"""Deterministic fault injection for the monitoring pipeline.

The RFDump prototype ran continuously against live USRP capture, where
sample drops, NaN bursts and misbehaving per-protocol analyzers are
routine; this package makes those faults *reproducible* so the error
policy layer (:mod:`repro.core.errorpolicy`) can be tested like any
other component:

* :mod:`repro.faults.injectors` — seeded stream-level injectors (gaps,
  NaN/Inf bursts, truncated/empty windows) composable via
  :class:`FaultPlan`;
* :mod:`repro.faults.components` — crashing detector and analyzer
  wrappers;
* :mod:`repro.faults.harness` — glue running
  :mod:`repro.emulator.presets` scenarios through a streaming monitor
  under a fault plan, for byte-identical comparison against fault-free
  runs.
"""

from repro.faults.components import (
    CrashingDecoder,
    CrashingDetector,
    InjectedFault,
)
from repro.faults.harness import (
    FaultRun,
    preset_windows,
    run_faulted,
    split_windows,
)
from repro.faults.injectors import (
    FaultEvent,
    FaultPlan,
    NaNBurstInjector,
    StreamFaultInjector,
    StreamGapInjector,
    TruncateWindowInjector,
)

__all__ = [
    "CrashingDecoder",
    "CrashingDetector",
    "InjectedFault",
    "FaultRun",
    "preset_windows",
    "run_faulted",
    "split_windows",
    "FaultEvent",
    "FaultPlan",
    "NaNBurstInjector",
    "StreamFaultInjector",
    "StreamGapInjector",
    "TruncateWindowInjector",
]
