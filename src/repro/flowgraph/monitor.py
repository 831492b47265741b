"""The flowgraph assembly behind the uniform :class:`Monitor` contract.

``make_monitor("flowgraph", ...)`` schedules Figure 2 as an actual block
graph — :func:`~repro.flowgraph.rfdump_graph.build_rfdump_graph` per
window — over one :class:`~repro.core.pipeline.RFDumpMonitor` it holds
for its lifetime.  The blocks call that monitor's stage methods, so the
report (and the event stream) is the one ``make_monitor("rfdump", ...)``
produces; only the scheduler differs.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import MonitorConfig
from repro.core.monitor import Monitor
from repro.core.pipeline import MonitorReport, RFDumpMonitor
from repro.flowgraph.rfdump_graph import build_rfdump_graph


class FlowGraphMonitor(Monitor):
    """One-shot monitor that streams each window through the block DAG."""

    def __init__(self, config: Optional[MonitorConfig] = None):
        self.monitor = RFDumpMonitor(config=config or MonitorConfig())
        self.config = self.monitor.config
        self.obs = self.monitor.obs

    def process(self, buffer) -> MonitorReport:
        graph, reports = build_rfdump_graph(buffer, self.monitor)
        graph.run()
        if not reports.items:
            raise ValueError("empty buffer")  # as RFDumpMonitor.process does
        return reports.items[0]

    def close(self) -> None:
        """Release the underlying monitor's worker pool, if any."""
        self.monitor.close()
