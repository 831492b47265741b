"""Tests for repro.obs.tracing — span nesting and export formats."""

import json

from repro.obs.tracing import Tracer


class FakeClock:
    """Deterministic clock: each call advances by `step` seconds."""

    def __init__(self, step=1.0):
        self.t = 0.0
        self.step = step

    def __call__(self):
        now = self.t
        self.t += self.step
        return now


def test_span_nesting_parent_and_depth():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("process") as outer:
        with tracer.span("peak_detection", category="stage") as mid:
            with tracer.span("range", category="range",
                             start_sample=10, end_sample=90) as inner:
                pass
    assert outer.parent is None and outer.depth == 0
    assert mid.parent == outer.id and mid.depth == 1
    assert inner.parent == mid.id and inner.depth == 2
    assert inner.start_sample == 10 and inner.end_sample == 90
    # all spans closed, durations non-negative
    assert all(s.t_end >= s.t_start for s in tracer.spans)


def test_siblings_share_parent():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("analysis") as top:
        with tracer.span("demod[wifi]"):
            pass
        with tracer.span("demod[bluetooth]"):
            pass
    kids = [s for s in tracer.spans if s.parent == top.id]
    assert [s.name for s in kids] == ["demod[wifi]", "demod[bluetooth]"]
    assert all(s.depth == 1 for s in kids)


def test_jsonl_roundtrip():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("a", kind="timing"):
        with tracer.span("b", start_sample=5):
            pass
    lines = tracer.to_jsonl().splitlines()
    objs = [json.loads(line) for line in lines]
    assert len(objs) == 2
    by_name = {o["name"]: o for o in objs}
    assert by_name["a"]["kind"] == "timing"
    assert by_name["b"]["parent"] == by_name["a"]["id"]
    assert by_name["b"]["start_sample"] == 5


def test_chrome_export_shape():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("stage"):
        with tracer.span("task", worker="worker-1"):
            pass
    doc = tracer.to_chrome()
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    spans = [e for e in events if e["ph"] == "X"]
    assert {e["args"]["name"] for e in meta} == {"main", "worker-1"}
    assert len(spans) == 2
    # one tid track per worker, shared pid
    tids = {e["tid"] for e in spans}
    assert len(tids) == 2
    assert all(e["pid"] == 0 for e in spans)
    assert all(e["dur"] >= 0 for e in spans)
    # the whole document must be JSON-serialisable (Chrome loads it)
    json.dumps(doc)


def test_thread_isolation_of_span_stack():
    import threading

    tracer = Tracer(clock=FakeClock())
    seen = {}

    def other_thread():
        with tracer.span("other", worker="t2") as s:
            seen["parent"] = s.parent

    with tracer.span("main_stage"):
        t = threading.Thread(target=other_thread)
        t.start()
        t.join()
    # the other thread's stack is independent: its span is a root
    assert seen["parent"] is None
