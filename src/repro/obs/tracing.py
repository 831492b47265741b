"""Execution tracing: nestable spans over the monitoring pipeline.

A :class:`Span` is one timed region — a pipeline stage, one detector's
pass, or a single dispatched range inside the analysis stage — carrying
the absolute sample indices it covered and the worker that ran it.
Spans nest (stage -> detector -> range) via a per-thread stack, so
instrumented code just wraps itself in ``with tracer.span(...)``.

Two export formats:

* :meth:`Tracer.to_jsonl` — one JSON object per span, grep-friendly;
* :meth:`Tracer.to_chrome` — a Chrome ``trace_event`` document that
  loads in ``chrome://tracing`` / Perfetto, one track per worker.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class Span:
    """One closed timed region of the pipeline."""

    id: int
    name: str
    category: str = "stage"
    #: seconds since the tracer's epoch
    t_start: float = 0.0
    t_end: float = 0.0
    parent: Optional[int] = None
    depth: int = 0
    worker: str = "main"
    start_sample: Optional[int] = None
    end_sample: Optional[int] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def to_dict(self) -> dict:
        out = {
            "id": self.id,
            "name": self.name,
            "category": self.category,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "parent": self.parent,
            "depth": self.depth,
            "worker": self.worker,
        }
        if self.start_sample is not None:
            out["start_sample"] = self.start_sample
        if self.end_sample is not None:
            out["end_sample"] = self.end_sample
        out.update(self.attrs)
        return out


class Tracer:
    """Collects spans for one monitoring run.

    ``clock`` is injectable (a zero-argument callable returning seconds)
    so tests can drive a deterministic timeline.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._epoch = clock()
        self.spans: List[Span] = []
        self._local = threading.local()
        # leaf domain: held only for the list append, never while
        # calling out of the tracer
        self._lock = threading.Lock()

    def _now(self) -> float:
        return self._clock() - self._epoch

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _append(self, span: Span) -> Span:
        with self._lock:
            span.id = len(self.spans)
            self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, category: str = "stage", *,
             worker: str = "main", start_sample: Optional[int] = None,
             end_sample: Optional[int] = None, **attrs):
        """Open a nested span around a code region; yields the Span."""
        stack = self._stack()
        span = self._append(Span(
            id=-1, name=name, category=category,
            t_start=self._now(), parent=stack[-1] if stack else None,
            depth=len(stack), worker=worker,
            start_sample=start_sample, end_sample=end_sample, attrs=attrs,
        ))
        stack.append(span.id)
        try:
            yield span
        finally:
            stack.pop()
            span.t_end = self._now()

    # -- export ---------------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per span, in recording order."""
        return "\n".join(
            json.dumps(span.to_dict(), sort_keys=True) for span in self.spans
        )

    def to_chrome(self) -> dict:
        """A Chrome ``trace_event`` document (complete "X" events).

        Workers map to thread tracks; a metadata event names each track
        so ``chrome://tracing`` shows which worker ran what.
        """
        workers: Dict[str, int] = {}
        events: List[dict] = []
        for span in self.spans:
            tid = workers.setdefault(span.worker, len(workers))
            args: Dict[str, object] = {"depth": span.depth}
            if span.start_sample is not None:
                args["start_sample"] = span.start_sample
            if span.end_sample is not None:
                args["end_sample"] = span.end_sample
            args.update(span.attrs)
            events.append({
                "name": span.name,
                "cat": span.category or "span",
                "ph": "X",
                "ts": round(span.t_start * 1e6, 3),
                "dur": round(max(span.duration, 0.0) * 1e6, 3),
                "pid": 0,
                "tid": tid,
                "args": args,
            })
        meta = [
            {
                "name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                "args": {"name": worker},
            }
            for worker, tid in workers.items()
        ]
        return {"traceEvents": meta + events, "displayTimeUnit": "ms"}

    def __len__(self) -> int:
        return len(self.spans)
