"""``rfdump`` — monitor a recorded IQ trace and print what is in the ether.

Usage::

    python -m repro.tools.rfdump capture.iq
    python -m repro.tools.rfdump capture.iq --protocols wifi,bluetooth \
        --detectors timing,phase --window-ms 100 --summary
    python -m repro.tools.rfdump capture.iq \
        --metrics-out metrics.txt --trace-out trace.json
    python -m repro.tools.rfdump capture.iq --on-error degrade --summary
    python -m repro.tools.rfdump capture.iq --format jsonl

The trace must have been written by :mod:`repro.trace` (raw complex64 +
JSON sidecar).  The monitor streams the file in windows, so traces larger
than memory are fine.  ``--metrics-out`` writes a Prometheus-style text
page of the run's metrics; ``--trace-out`` writes an execution trace
(``.jsonl`` for JSON-lines, anything else a Chrome ``trace_event`` file
that loads in ``chrome://tracing``).  ``--on-error degrade`` keeps a
long-running monitor alive across stream gaps, NaN bursts and crashing
components, printing a degradation summary to stderr when anything was
absorbed.  ``--format jsonl`` emits one canonical
:class:`~repro.core.PacketEvent` JSON object per line — the exact
stream an ``rfdumpd`` subscriber receives for the same trace, so the
two can be diffed byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from repro.analysis import render_packet_log, render_summary
from repro.analysis.export import write_pcap, write_sigmf_meta
from repro.core.accounting import StageClock
from repro.core.config import MonitorConfig
from repro.core.monitor import make_monitor
from repro.core.streaming import StreamingMonitor
from repro.errors import RFDumpError, TraceFormatError
from repro.obs import Observability, write_metrics, write_trace
from repro.trace import TraceReader
from repro.trace.io import DEFAULT_WINDOW_MS, read_meta, window_samples


class OneLineErrorParser(argparse.ArgumentParser):
    """Reports a bad command line the way ``run`` reports a bad flag
    value: ``<prog>: <message>`` on stderr, exit 2, no usage dump."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = OneLineErrorParser(
        prog="rfdump",
        description="monitor the wireless ether from a recorded IQ trace",
    )
    parser.add_argument("trace", help="path to a .iq trace (with JSON sidecar)")
    parser.add_argument(
        "--protocols", default="wifi,bluetooth",
        help="comma-separated protocol families to monitor",
    )
    parser.add_argument(
        "--detectors", default="timing,phase",
        help="fast-detector kinds to run (timing,phase)",
    )
    parser.add_argument(
        "--no-demod", action="store_true",
        help="stop after the detection stage (classification only)",
    )
    parser.add_argument(
        "--window-ms", type=float, default=DEFAULT_WINDOW_MS,
        help="streaming window size in milliseconds",
    )
    parser.add_argument(
        "--monitor", choices=("rfdump", "naive", "energy"), default="rfdump",
        help="monitoring architecture (baselines for cost comparison)",
    )
    parser.add_argument(
        "--on-error", choices=("raise", "skip", "degrade"), default=None,
        help="fault policy: raise typed errors, skip faulting units, or "
             "degrade gracefully (resync gaps, sanitize NaN bursts, "
             "quarantine crashing detectors, skip a range a decoder "
             "crashed on); default keeps legacy "
             "per-component behavior",
    )
    parser.add_argument(
        "--summary", action="store_true",
        help="print per-protocol statistics instead of the packet log",
    )
    parser.add_argument(
        "--format", choices=("text", "jsonl"), default="text",
        help="output format: the human packet log, or one canonical "
             "PacketEvent JSON object per line — byte-identical to what "
             "an rfdumpd subscriber receives for the same trace",
    )
    parser.add_argument(
        "--pcap-out", metavar="PATH", default=None,
        help="also write the event stream as a pcap file "
             "(DLT_USER0, JSON event payloads)",
    )
    parser.add_argument(
        "--sigmf-out", metavar="PATH", default=None,
        help="also write a SigMF metadata sidecar annotating every "
             "decoded transmission",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write a Prometheus-style metrics page after the run",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write an execution trace (.jsonl = JSON-lines, "
             "otherwise Chrome trace_event JSON)",
    )
    return parser


def run(args) -> int:
    meta = read_meta(args.trace)
    protocols = tuple(p.strip() for p in args.protocols.split(",") if p.strip())
    kinds = tuple(k.strip() for k in args.detectors.split(",") if k.strip())

    obs = Observability() if (args.metrics_out or args.trace_out) else None
    kind = "streaming" if args.monitor == "rfdump" else args.monitor
    try:
        # every bad flag value surfaces here, before any window is read
        window = window_samples(args.window_ms, meta.sample_rate)
        monitor = make_monitor(kind, MonitorConfig(
            sample_rate=meta.sample_rate,
            center_freq=meta.center_freq,
            protocols=protocols,
            kinds=kinds,
            demodulate=not args.no_demod,
            on_error=args.on_error,
            obs=obs,
        ))
    except ValueError as exc:
        print(f"rfdump: {exc}", file=sys.stderr)
        return 2
    reader = TraceReader(args.trace, window_samples=window)

    jsonl = args.format == "jsonl"
    events = [] if (args.pcap_out or args.sigmf_out) else None
    packets = []
    counts = Counter()
    clock = StageClock()
    faults = []
    # every pass reaches this loop in a report: each window's, the close
    # pass a gap or a skipped window forced, and the flush's
    with monitor:
        for report, final in monitor.window_events(reader):
            faults.extend(e for r in report.passes() for e in r.errors)
            if events is not None:
                events.extend(final)
            if jsonl:
                # the same wire form as an rfdumpd subscriber:
                # equivalence is line equality
                for event in final:
                    print(event.to_json())
                continue
            for r in report.passes():
                packets.extend(r.packets)
                clock = clock.merged(r.clock)
                _tally(r, counts)

    if obs is not None:
        if args.metrics_out:
            write_metrics(obs.registry, args.metrics_out)
        if args.trace_out:
            write_trace(obs.tracer, args.trace_out)

    if args.summary and not jsonl:
        duration = meta.nsamples / meta.sample_rate
        rows = []
        for protocol in protocols:
            decoded = [p for p in packets if p.protocol == protocol]
            rows.append({
                "protocol": protocol,
                **{column: counts[column, protocol] for column in _TALLIED},
                "decoded packets": len(decoded),
                "decoded bytes": sum(p.payload_size for p in decoded),
            })
        print(render_summary(
            f"{args.trace}: {duration * 1e3:.1f} ms, {counts['peaks']} peaks, "
            f"{100.0 * counts['gated'] / max(counts['scanned'], 1):.1f}% of "
            f"samples gated, {100.0 * counts['exact'] / max(counts['scanned'], 1):.1f}"
            f"% decided sample by sample",
            rows,
            ["protocol", *_TALLIED, "decoded packets", "decoded bytes"],
        ))
        print(f"processing cost: {clock.cpu_over_realtime(duration):.2f}x real time")
    elif not jsonl:
        print(render_packet_log(packets, meta.sample_rate))
    _write_capture_sinks(args, events, meta)
    if isinstance(monitor, StreamingMonitor) and (
            faults or monitor.monitor.quarantined_detectors):
        print(f"degradation: {monitor.gaps} stream gap(s), "
              f"{monitor.lost_samples} samples lost, "
              f"{len(faults)} handled fault(s), "
              f"{len(monitor.monitor.quarantined_detectors)} "
              f"detector(s) quarantined", file=sys.stderr)
    return 0


#: the per-protocol summary columns :func:`_tally` counts
_TALLIED = ("classifications", "overruled", "ranges", "ranges decoded")


def _tally(report, counts: Counter) -> None:
    """Add one pass to ``counts``: its peaks and scanned / gated / exact
    samples, and per ``(column, protocol)`` its classifications, those
    dispatch overruled, its dispatched ranges and those a packet it
    decoded overlaps.

    A streamed pass reports only what became final in it, so each
    range, peak and classification is counted once.
    """
    counts.update(peaks=len(report.peaks or []), scanned=report.total_samples,
                  gated=report.gated_samples, exact=report.exact_samples)
    counts.update(("classifications", c.protocol)
                  for c in report.classifications)
    counts.update(("overruled", c.protocol) for c in report.overruled)
    for protocol, ranges in report.ranges.items():
        counts["ranges", protocol] += len(ranges)
        counts["ranges decoded", protocol] += report.ranges_decoded(protocol)


def _write_capture_sinks(args, events, meta) -> None:
    """Write the pcap / SigMF sinks an event stream feeds."""
    if events is None:
        return
    if args.pcap_out:
        write_pcap(events, args.pcap_out)
    if args.sigmf_out:
        write_sigmf_meta(
            events, meta.sample_rate, args.sigmf_out,
            center_freq=meta.center_freq,
            description=f"rfdump events from {args.trace}",
        )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except (FileNotFoundError, TraceFormatError) as exc:
        print(f"rfdump: {exc}", file=sys.stderr)
        return 2
    except RFDumpError as exc:
        # --on-error raise surfaced a stream/pipeline fault
        print(f"rfdump: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # output piped into e.g. `head`; not an error
        return 0


if __name__ == "__main__":
    sys.exit(main())
