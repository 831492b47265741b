"""The repo's benchmark: IQ in -> ``PacketEvent`` out of a subscriber socket.

Three ways to call it (see README.md next to this file):

``run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload in this process.  ``--trace 0`` measures the
    end-to-end metrics with tracing off; ``--trace 1`` installs the
    per-layer wrappers and reports the per-layer metrics.  Prints every
    metric by name with its unit and, as the last line, one JSON object
    ``{"correct", "attempted", "failed", "metrics"}``.  Output that
    differs from the in-process reference exits non-zero with no metrics.

``run.py [--seed N] [--workload W]... [--out DIR] [--smoke]``
    The whole set: every workload, three untraced runs and a traced one,
    each in a fresh child process, collected into ``DIR/result.json``.

``run.py --compare A.json B.json``
    Two result sets side by side against the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import time

# process start as near as a script can see it: everything below,
# imports included, counts as set-up
_T0 = time.perf_counter()

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from hostspeed import host_speed, probe

#: the host's speed as the set-up starts; see ``setup``
_PROBE0 = probe()

from repro.bench.machine import calibrate
from repro.bench.results import machine_fingerprint
from repro.obs import Observability

from layers import LayerTracer
from loadgen import (
    IncorrectOutput,
    PassResult,
    daemon_pass,
    inproc_pass,
    score_truth,
)
from workloads import REALTIME_MSPS, WORKLOADS, Inputs, build_inputs

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: set-ups per untraced run (this process plus ``--setup-only`` children);
#: the reported ``setup_s`` is their median
SETUPS_PER_RUN = 3

#: untraced runs per workload in a whole set; the set reports their median
SET_ROUNDS = 3

#: the paced sender may run this late (p95) before latency is called invalid
MAX_LATE_P95_MS = 5.0


# -- one run of one workload ---------------------------------------------------


def setup(workload_name: str, seed: int, smoke: bool):
    """Inputs and reference lines; returns them with the set-up time.

    Set-up is everything from process start to the daemon being offered
    its first byte: imports, trace render, window framing, and the
    in-process reference run (which is also the first use of every
    pipeline layer in this process, so lazily built tables show here).
    Restated at the reference host speed, from three probes on the way.
    """
    inputs = build_inputs(WORKLOADS[workload_name], seed, smoke)
    probes = [_PROBE0, probe()]
    reference, _ = inproc_pass(inputs)
    if not reference:
        raise IncorrectOutput(f"{workload_name}: the reference has no events")
    probes.append(probe())
    setup_s = time.perf_counter() - _T0
    return inputs, reference, setup_s * host_speed(statistics.mean(probes))


class Checker:
    """The byte-identity check: event lines against the reference, in order."""

    def __init__(self, reference: List[str]):
        self.reference = reference
        self.lines_checked = 0

    def __call__(self, lines: List[str], what: str = "the daemon") -> None:
        if lines != self.reference:
            raise IncorrectOutput(
                f"{what} delivered {len(lines)} event lines that differ "
                f"from the {len(self.reference)} reference lines")
        self.lines_checked += len(lines)

    def daemon_pass(self, inputs: Inputs, **kwargs) -> PassResult:
        """A pass through the daemon whose output has been checked."""
        result = daemon_pass(inputs, **kwargs)
        self(result.lines)
        return result


def repeat(body, seconds: float, minimum: int) -> int:
    """Call ``body`` until the next call would overrun ``seconds``.

    Always at least ``minimum`` calls, however long they take: single
    passes of the same code differ by 20% and more on a shared host, and
    only a median over enough of them means anything.  Returns the
    number of calls made.
    """
    begin = time.perf_counter()
    calls = 0
    cost = 0.0
    while calls < minimum or time.perf_counter() - begin + cost <= seconds:
        t0 = time.perf_counter()
        body()
        cost = time.perf_counter() - t0
        calls += 1
    return calls


def other_setups(workload_name: str, seed: int, count: int) -> List[float]:
    """``setup_s`` of ``count`` fresh ``--setup-only`` child processes."""
    out = []
    for _ in range(count):
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload_name,
             "--seed", str(seed), "--setup-only"],
            check=True, capture_output=True, text=True)
        out.append(float(child.stdout.strip().splitlines()[-1]))
    return out


def peak_rss_mb(reset: bool = False) -> float:
    """This process's peak resident set (``VmHWM``) in MiB.

    ``reset`` starts a new high-water mark from the current RSS (Linux:
    writing 5 to ``/proc/self/clear_refs``); ``ru_maxrss`` cannot be
    reset, and would report the benchmark's own trace render instead.
    """
    if reset:
        Path("/proc/self/clear_refs").write_text("5")
    status = Path("/proc/self/status").read_text()
    kib = next(line.split()[1] for line in status.splitlines()
               if line.startswith("VmHWM:"))
    return int(kib) / 1024.0


def timed_run(inputs: Inputs, check: Checker, seconds: float, smoke: bool):
    """End-to-end metrics, tracing off: ``(values, samples, extras)``.

    Every pass is bracketed by two host-speed probes, and its timings
    are restated at the reference host speed before the median over
    passes is taken (``hostspeed.py`` says why).  The raw medians are
    printed beside the metrics.
    """
    workload = inputs.workload
    paced = workload.paced_msps is not None
    passes: List[PassResult] = []
    t_begin = time.perf_counter()
    # The warm-up pass (a third of the windows is enough when paced) is
    # also the one whose memory is measured: the first daemon of a fresh
    # process peaks within 0.1% of the same figure every time, while
    # later passes sit on whatever the allocator kept of earlier daemons.
    warm = inputs.frames
    if paced:
        warm = warm[:max(len(warm) // 3, 1)]
    peak_rss_mb(reset=True)
    daemon_pass(inputs, frames=warm)
    first_pass_rss_mb = peak_rss_mb()
    repeat(lambda: passes.append(check.daemon_pass(inputs)),
           seconds - (time.perf_counter() - t_begin),
           1 if smoke else workload.min_reps)

    attempted, failed = score_truth(inputs, passes[-1].events)

    def per_pass(speeds: Sequence[float]) -> Dict[str, List[float]]:
        """Each pass's timings, its durations multiplied by its speed."""
        zipped = list(zip(passes, speeds))
        return {
            # a paced pass lasts as long as its schedule, whatever the host
            "throughput_msps": [
                inputs.nsamples / (p.wall_s * (1.0 if paced else k)) / 1e6
                for p, k in zipped],
            "cpu_per_ether_s": [p.cpu_s * k / inputs.ether_s
                                for p, k in zipped],
            "event_latency_p50_ms": [
                float(np.percentile(p.latencies_ms, 50)) * k for p, k in zipped],
            "event_latency_p95_ms": [
                float(np.percentile(p.latencies_ms, 95)) * k for p, k in zipped],
        }

    speeds = [host_speed(p.probe_s) for p in passes]
    samples = per_pass(speeds)
    raw = per_pass([1.0] * len(passes))
    # An event's latency scales with the wall time of the pass (closed
    # loop) or of the window (paced) it came in, so it is summarised
    # like throughput: the percentile per pass, restated, then the
    # median over passes.  Pooling the restated events of all passes
    # instead lets the passes whose probes straddled a flip of the
    # host's speed set the 95th percentile (spread 15% against 4%).
    values = {name: statistics.median(vals) for name, vals in samples.items()}
    values["ops_ok_share"] = 1.0 - failed / attempted
    values["peak_rss_mb"] = first_pass_rss_mb
    extras = {
        "reps": len(passes),
        "latency_samples": sum(len(p.latencies_ms) for p in passes),
        "ops_attempted": attempted,
        "ops_failed": failed,
        "realtime_fraction": values["throughput_msps"] / REALTIME_MSPS,
        "host_speed": statistics.median(speeds),
    }
    extras.update(
        {f"raw_{name}": statistics.median(vals) for name, vals in raw.items()})
    if paced:
        extras.update(paced_validity(inputs, passes))
    return values, samples, extras


def paced_validity(inputs: Inputs, passes: Sequence[PassResult]) -> Dict:
    """Whether the paced rate was sustained and the sender kept its schedule."""
    period_ms = (inputs.frames[0][0]["nsamples"]
                 / inputs.workload.paced_msps / 1e3)
    drain_lag_ms = statistics.median(p.drain_lag_ms for p in passes)
    late_p95_ms = float(np.percentile(
        [ms for p in passes for ms in p.late_ms], 95))
    return {
        "drain_lag_ms": drain_lag_ms,
        "late_p95_ms": late_p95_ms,
        "latency_valid": (drain_lag_ms < 2 * period_ms
                          and late_p95_ms < MAX_LATE_P95_MS),
    }


def traced_run(inputs: Inputs, check: Checker, seconds: float, smoke: bool,
               out: Optional[Path]):
    """Per-layer metrics: ``(values, samples, extras)``.

    Span metrics come from passes run the workload's own way (closed or
    paced) with the wrappers installed.  Each round adds one closed-loop
    traced pass — on a closed-loop workload that *is* the span pass —
    and a back-to-back pair of in-process runs, with ``Observability()``
    attached (what the daemon always does) and with ``obs=None``.
    """
    paced = inputs.workload.paced_msps is not None
    tracer = LayerTracer()
    originals = [vars(owner)[attr] for owner, attr, _, _ in tracer.targets()]
    # the daemon's overhead is read off closed-loop passes; on the paced
    # workload those get a tracer of their own, so that their spans do
    # not mix into the paced pass's
    closed_tracer = LayerTracer() if paced else tracer
    closed_passes: List[PassResult] = []
    obs_shares: List[float] = []
    t_begin = time.perf_counter()
    if paced:
        with tracer:
            span_passes = [check.daemon_pass(inputs)]
    else:
        span_passes = closed_passes

    def one_round() -> None:
        with closed_tracer:
            closed_passes.append(check.daemon_pass(inputs, paced=False))
        wall = {}
        pair = ("obs", "noobs") if len(closed_passes) % 2 else ("noobs", "obs")
        for name in pair:
            lines, wall[name] = inproc_pass(
                inputs, Observability() if name == "obs" else None)
            check(lines, f"the in-process {name} run")
        obs_shares.append((wall["obs"] - wall["noobs"]) / wall["obs"])

    rounds = repeat(one_round, seconds - (time.perf_counter() - t_begin),
                    1 if smoke else 2)
    restored = all(
        vars(owner)[attr] is original for (owner, attr, _, _), original
        in zip(tracer.targets(), originals))
    if not restored:
        raise IncorrectOutput("layer wrappers were left installed")

    ether_s = inputs.ether_s * len(span_passes)
    values = tracer.metrics(ether_s)
    values.update({
        "service.daemon.ingest_wait_s":
            sum(p.ingest_wait_s for p in span_passes) / ether_s,
        # the pump is the bottleneck of a closed-loop pass, so whatever
        # part of the wall it spends outside StreamingMonitor.process
        # is what the daemon adds to the in-process figure
        "service.daemon.overhead_share":
            1.0 - closed_tracer.busy_s() / sum(p.wall_s for p in closed_passes),
        "service.daemon.drain_lag_ms":
            statistics.median(p.drain_lag_ms for p in span_passes),
        # a pass with drops never gets here: daemon_pass raises on them
        "service.hub.dropped": 0,
        "obs.overhead_share": statistics.median(obs_shares),
        "bench.loadgen.late_p95_ms": float(np.percentile(
            [ms for p in span_passes for ms in p.late_ms] or [0.0], 95)),
    })
    # layer times at the reference host speed, like the end-to-end ones
    speed = statistics.median(host_speed(p.probe_s) for p in span_passes)
    for name in values:
        if PER_LAYER[name]["unit"] == "s/ether_s":
            values[name] *= speed
    extras = {
        "rounds": rounds,
        "host_speed": speed,
        "span_passes": len(span_passes),
        "spans": len(tracer.tracer),
        "wrappers_uninstalled": restored,
    }
    if out is not None:
        tracer.write(out, inputs.workload.name)
    return values, {"obs.overhead_share": obs_shares}, extras


def run_one(args) -> int:
    """One workload, one mode, in this process; the driver's entry point."""
    name = args.workload[0]
    try:
        inputs, reference, setup_s = setup(name, args.seed, args.smoke)
        if args.setup_only:
            print(repr(setup_s))
            return 0
        check = Checker(reference)
        if args.trace:
            spec = PER_LAYER
            values, samples, extras = traced_run(
                inputs, check, args.seconds, args.smoke, args.out)
        else:
            spec = END_TO_END
            values, samples, extras = timed_run(
                inputs, check, args.seconds, args.smoke)
            samples["setup_s"] = [setup_s] + other_setups(
                name, args.seed, 0 if args.smoke else SETUPS_PER_RUN - 1)
            values["setup_s"] = statistics.median(samples["setup_s"])
    except IncorrectOutput as exc:
        print(f"{name}: INCORRECT OUTPUT: {exc}", file=sys.stderr)
        return 1
    if set(values) != set(spec):
        raise SystemExit(
            f"metrics measured and metrics in BENCHMARK.json differ: "
            f"{sorted(set(values) ^ set(spec))}")
    metrics = {
        metric: {"value": values[metric], "unit": spec[metric]["unit"]}
        for metric in spec
    }
    for metric, entry in metrics.items():
        print(f"{name:<11}{metric:<42}{entry['value']:>14.6g} {entry['unit']}")
    for key, value in extras.items():
        print(f"{name:<11}# {key} = {value}")
    print(f"{name:<11}# byte-identity check ran: {check.lines_checked} "
          f"event lines equal to the in-process reference")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        detail = {"metrics": metrics, "samples": samples, "extras": extras}
        (args.out / f"{name}.trace{args.trace}.json").write_text(
            json.dumps(detail, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": True,
        "attempted": check.lines_checked,
        "failed": 0,
        "metrics": metrics,
    }))
    return 0


# -- the whole set -------------------------------------------------------------


def machine_meta() -> Dict:
    """What a result set must carry so two hosts are never compared blind."""
    meta = dict(machine_fingerprint(), commit="unknown", cpu_model="unknown",
                calibrate_samples_per_s=calibrate())
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if git.returncode == 0:
            meta["commit"] = git.stdout.strip()
    except OSError:  # no git on this host
        pass
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                meta["cpu_model"] = line.split(":", 1)[1].strip()
                break
    return meta


def run_set(args) -> int:
    """Every workload in fresh children: untraced x SET_ROUNDS, traced once.

    The untraced runs go round-robin over the workloads, so a slow spell
    of the host (they last a minute or two) hits one round of every
    workload rather than every run of one; a set's end-to-end value is
    the median over its rounds, and the rounds are its samples.
    """
    out = args.out if args.out is not None else HERE / "out"

    def child(name: str, trace: int) -> Dict:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace), "--out", str(out)]
        if args.smoke:
            command.append("--smoke")
        subprocess.run(command, check=True)
        return json.loads((out / f"{name}.trace{trace}.json").read_text())

    try:
        rounds = [{name: child(name, 0) for name in args.workload}
                  for _ in range(1 if args.smoke else SET_ROUNDS)]
        traced = {name: child(name, 1) for name in args.workload}
    except subprocess.CalledProcessError as exc:
        return exc.returncode
    workloads = {}
    for name in args.workload:
        runs = [one_round[name] for one_round in rounds]
        samples = {metric: [run["metrics"][metric]["value"] for run in runs]
                   for metric in END_TO_END}
        workloads[name] = {
            "end_to_end": {
                "metrics": {
                    metric: {"value": statistics.median(values),
                             "unit": END_TO_END[metric]["unit"]}
                    for metric, values in samples.items()},
                "samples": samples,
                "extras": [run["extras"] for run in runs],
            },
            "per_layer": traced[name],
        }
    result = {"meta": machine_meta(), "seed": args.seed,
              "seconds": args.seconds, "smoke": args.smoke,
              "workloads": workloads}
    (out / "result.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out / 'result.json'}")
    return 0


# -- comparing two sets --------------------------------------------------------


def _quartiles(values: Sequence[float]) -> str:
    if len(values) < 2:
        return "-"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4g}..{q3:.4g}"


def compare(path_a: Path, path_b: Path) -> int:
    """B against A, metric by metric; non-zero when a bound is exceeded."""
    a = json.loads(path_a.read_text())
    b = json.loads(path_b.read_text())
    for key in ("cpu_count", "cpu_model", "machine", "python", "numpy"):
        if a["meta"][key] != b["meta"][key]:
            print(f"WARNING: sets differ in {key}: {a['meta'][key]!r} vs "
                  f"{b['meta'][key]!r} - timings are not comparable")
    print(f"A: commit {a['meta']['commit'][:12]} seed {a['seed']}   "
          f"B: commit {b['meta']['commit'][:12]} seed {b['seed']}")
    print(f"{'workload':<11}{'metric':<22}{'A median':>10} {'A quartiles':<18}"
          f"{'B median':>10} {'B quartiles':<18}{'worse by':>9}{'bound':>7}")
    exceeded = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        run_a = a["workloads"][name]["end_to_end"]
        run_b = b["workloads"][name]["end_to_end"]
        for metric, spec in END_TO_END.items():
            va = run_a["metrics"][metric]["value"]
            vb = run_b["metrics"][metric]["value"]
            sign = 1.0 if spec["better"] == "lower" else -1.0
            worse = sign * (vb - va) / va
            flag = ""
            if worse > spec["bound"]:
                exceeded += 1
                flag = "  EXCEEDED"
            print(f"{name:<11}{metric:<22}{va:>10.4g} "
                  f"{_quartiles(run_a['samples'].get(metric, [])):<18}"
                  f"{vb:>10.4g} "
                  f"{_quartiles(run_b['samples'].get(metric, [])):<18}"
                  f"{worse:>+9.1%}{spec['bound']:>7.0%}{flag}")
        if any(e.get("latency_valid") is False for e in run_b["extras"]):
            print(f"{name:<11}B's latency is INVALID: the paced rate was not "
                  f"sustained or the sender ran late")
    print(f"{exceeded} bound(s) exceeded")
    return 1 if exceeded else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]),
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run one workload in this process, tracing "
                             "off (0) or on (1)")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for result JSON and trace files")
    parser.add_argument("--smoke", action="store_true",
                        help="0.1 s of ether and one pass per workload")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--compare", nargs=2, type=Path, metavar="SET",
                        help="compare two result.json files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.smoke:
        args.seconds = 0.0
    if args.trace is None and not args.setup_only:
        args.workload = args.workload or list(WORKLOADS)
        return run_set(args)
    if not args.workload or len(args.workload) != 1:
        parser.error("--trace takes exactly one --workload")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
