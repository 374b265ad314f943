"""Benchmark of the fuzzymetrics command line, run in-process.

    python3 perfbench/run.py --workload refutation --seed 1 --seconds 16 --trace 0

Run from anywhere inside a source checkout: the program is imported from the
checkout's ``src`` directory, through the public ``fuzzymetrics.cli.run``.
One process, one client, closed loop: the next report starts when the
previous one has ended and been checked.

``--trace 0`` prints the end-to-end metrics; their times are scaled by the
machine's speed, sampled inside the timed intervals themselves (see
``SpeedProbe``).  ``--trace 1`` spends the first half of the run untraced and
the second half with spans around the program's public functions (see
spans.py), and prints the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
README.md says why each workload exists and what each metric should move.
"""

import time

T_START = time.perf_counter()  # set-up time counts from the first statement

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_run")
# set-ups measured per end-to-end run: this process and two child processes
SETUPS = 3
CHILD_TIMEOUT_S = 60
# The speed probe times one chunk per this much wall time (about 1% of it).
PROBE_INTERVAL_S = 0.05
# Gated times are seconds of a machine on which one probe chunk takes this
# long: about a quiet stretch of a 2-vCPU x86-64 VM with Python 3.11.
PROBE_NOMINAL_S = 0.0004
# A chunk counts for at most this multiple of its interval's median chunk: the
# process was stalled for milliseconds inside a longer one.
PROBE_CAP = 3
# Reports are scaled in groups of consecutive reports holding at least this
# many chunks, so that a report shorter than PROBE_INTERVAL_S is still scaled.
GROUP_CHUNKS = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "report_s_norm": "s",
    "peak_rss_mb": "MB",
    "ops_ok_ratio": "ratio",
}
PER_LAYER_UNITS = {
    "metrics.convergence_scan_s": "s",
    "metrics.convergence_members": "count",
    "core.endpoint_calls": "count",
    "core.endpoint_levels": "count",
    "core.levels_per_endpoint_call": "levels/call",
    "core.endpoint_s": "s",
    "metrics.bnb_s": "s",
    "metrics.bnb_calls": "count",
    "metrics.bnb_nodes": "count",
    "metrics.bnb_s_per_node": "s/node",
    "metrics.bnb_tol_met_ratio": "ratio",
    "family.right_modulus_s": "s",
    "family.right_modulus_calls": "count",
    "family.left_modulus_s": "s",
    "family.left_modulus_calls": "count",
    "family.equi_report_s": "s",
    "family.compactness_self_s": "s",
    "serialize.decode_s": "s",
    "serialize.decode_objects": "count",
    "serialize.dumps_s": "s",
    "serialize.dumps_bytes": "B",
    "bodies.lp_solves": "count",
    "bodies.lp_s": "s",
    "counterexample.refutation_self_s": "s",
    "counterexample.oracle_s": "s",
    "counterexample.members_built": "count",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "machine.calib_s": "s",
    "process.cpu_s_p50": "s",
    "report_s_p50": "s",
    "report_s_tail": "s",
    "report_samples": "count",
    "ops_failed_ratio": "ratio",
    "reports_ok": "count",
}


def probe_chunk() -> float:
    """Wall seconds of a fixed chunk of interpreted integer and float
    arithmetic.  It allocates no object that the garbage collector tracks,
    so its time does not depend on the state of the program it interrupts."""
    t0 = time.perf_counter()
    x, y = 0, 0.0
    for i in range(3000):
        x += i * i
        y += math.sqrt(i)
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the machine's speed inside the intervals being timed.

    Once started, a SIGALRM handler times ``probe_chunk`` every
    PROBE_INTERVAL_S of wall time.  Other tenants of a shared host slowed
    whole stretches of a run by up to 2x and changed from one second to the
    next.  Probe chunks run inside the same seconds as the reports, so their
    time follows the same slowdown (per report, log-log slope 0.9-1.16 and
    correlation 0.83-0.94 on refutation and bnb-pair), where a chunk timed
    between reports followed it much less.  ``scaled`` turns an interval's
    wall time into seconds of the nominal machine.
    """

    def __init__(self):
        self.times: list[float] = []

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame):
        self.times.append(probe_chunk())

    def since(self, mark: int) -> list[float]:
        """Chunk times since ``mark``, a previous ``len(probe.times)``."""
        return self.times[mark:]


def slowdown(chunks: list[float]) -> float:
    """How much slower than nominal the machine ran over an interval.

    Each chunk is capped at PROBE_CAP times the interval's median chunk.  A
    stall of several milliseconds (the process was not running) that lands
    in a 0.4 ms chunk would otherwise count as if it lasted the whole 50 ms
    that the chunk stands for: in a set-up with a dozen chunks, one stall
    read as a 2x slower machine."""
    if not chunks:
        raise ValueError("no probe chunk ran inside the timed interval")
    cap = PROBE_CAP * statistics.median(chunks)
    return statistics.mean(min(c, cap) for c in chunks) / PROBE_NOMINAL_S


def scaled(wall_s: float, chunks: list[float]) -> float:
    """Wall seconds, less the probe's own time within them, in seconds of a
    machine on which one probe chunk takes PROBE_NOMINAL_S."""
    return (wall_s - sum(chunks)) / slowdown(chunks)


def scaled_report_s(reports: list["Report"]) -> float:
    """Median over groups of consecutive reports (at least GROUP_CHUNKS
    chunks each; a short remainder joins the last group) of the scaled time
    per report.  The median drops a group whose probe missed or over-counted
    a burst of contention."""
    groups, wall, chunks, n = [], 0.0, [], 0
    for r in reports:
        wall, chunks, n = wall + r.wall_s, chunks + r.probe, n + 1
        if len(chunks) >= GROUP_CHUNKS:
            groups.append((wall, chunks, n))
            wall, chunks, n = 0.0, [], 0
    if n:
        if groups:
            w, c, k = groups.pop()
            wall, chunks, n = wall + w, chunks + c, n + k
        groups.append((wall, chunks, n))
    return statistics.median(scaled(w, c) / k for w, c, k in groups)


@dataclass
class Report:
    wall_s: float
    cpu_s: float
    probe: list[float]  # probe chunk times inside the report
    failure: str | None


def parse_args(argv):
    p = argparse.ArgumentParser(description="fuzzymetrics CLI benchmark")
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a child process that only sets up and prints its set-up time
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_report(cli, wl: workloads.Workload, reference: bytes | None,
               probe: SpeedProbe) -> tuple[Report, bytes | None]:
    """One report through ``cli.run``; only the call itself is timed."""
    if os.path.exists(wl.out):
        os.remove(wl.out)
    mark = len(probe.times)
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        status = cli.run(wl.argv)
        crashed = False
    except Exception:  # a crash is a failed report; the run goes on
        traceback.print_exc()
        crashed = True
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    chunks = probe.since(mark)
    data = None
    if crashed:
        failure = "the report raised an exception"
    elif status != 0:
        failure = f"exit status {status}"
    else:
        with open(wl.out, "rb") as fh:
            data = fh.read()
        try:
            failure = wl.check(json.loads(data))
        except (ValueError, KeyError, TypeError) as exc:
            failure = f"malformed report: {exc!r}"
        if failure is None and reference is not None and data != reference:
            failure = "report bytes differ from the warm-up report"
    if failure is not None:
        print(f"report failed: {failure}", file=sys.stderr)
    return Report(wall, cpu, chunks, failure), data


def timed_loop(cli, wl, reference, seconds, probe, tracer=None):
    """Closed loop until ``seconds`` have passed, at least one report.

    With a tracer, also returns each report's per-layer metrics."""
    reports, layers = [], []
    deadline = time.perf_counter() + seconds
    while not reports or time.perf_counter() < deadline:
        first = tracer.mark() if tracer else 0
        report, _ = run_report(cli, wl, reference, probe)
        if tracer:
            layers.append(tracer.layer_metrics(first))
        reports.append(report)
    return reports, layers


def child_setup_s(args) -> float | None:
    """Scaled set-up time of a fresh process; None if it failed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("set-up child timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"set-up child failed:\n{proc.stderr}", file=sys.stderr)
        return None
    return float(proc.stdout.strip().splitlines()[-1].split()[0])


def tail(times: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples above it; with fewer
    than 20 samples no percentile above the median has, and the maximum is
    given instead."""
    n = len(times)
    if n < 20:
        return max(times), f"max of {n}"
    pct = int(100 * (n - 10) / n)
    return statistics.quantiles(times, n=100)[pct - 1], f"p{pct} of {n}"


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return "n/a"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{(q3 - q1) / statistics.median(values):.1%}"


def median_layers(layers: list[dict]) -> dict:
    """Median over reports; counts keep a whole sample (the lower middle)."""
    medians = {}
    for key, first in layers[0].items():
        values = [d[key] for d in layers]
        medians[key] = statistics.median_low(values) if isinstance(first, int) else statistics.median(values)
    return medians


def print_result(correct, attempted, failed, metrics, units):
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>14.6g} {units[name]}")
    payload = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": payload}))


def measure(args, cli, workdir, probe) -> int:
    wl = workloads.prepare(args.workload, args.seed, workdir)
    warm, reference = run_report(cli, wl, None, probe)
    setup_wall_s = time.perf_counter() - T_START
    setup_s = scaled(setup_wall_s, probe.since(0))
    if args.setup_only:
        print(repr(setup_s), repr(setup_wall_s))
        return 0 if warm.failure is None else 1
    correct = warm.failure is None
    traced_reports: list[Report] = []
    if args.trace:
        from spans import Tracer

        reports, _ = timed_loop(cli, wl, reference, args.seconds / 2, probe)
        tracer = Tracer()
        tracer.install()
        try:
            traced_reports, layers = timed_loop(cli, wl, reference, args.seconds / 2, probe, tracer)
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(WORK, f"spans-{args.workload}.npz"))
    else:
        setups = [setup_s] + [child_setup_s(args) for _ in range(SETUPS - 1)]
        reports, _ = timed_loop(cli, wl, reference, args.seconds, probe)

    everything = reports + traced_reports
    attempted = len(everything)
    failed = sum(r.failure is not None for r in everything)
    correct = correct and failed == 0
    walls = [r.wall_s for r in reports]
    chunks = [c for r in reports for c in r.probe]
    tail_s, tail_label = tail(walls)
    diagnostics = {
        "report_s_p50": statistics.median(walls),
        "report_s_tail": tail_s,
        "report_samples": len(walls),
        "process.cpu_s_p50": statistics.median(r.cpu_s for r in reports),
        "machine.calib_s": statistics.mean(chunks),
        "ops_failed_ratio": failed / attempted,
        "reports_ok": attempted - failed,
    }
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}: {attempted} reports, "
          f"{failed} failed; untraced report_s IQR/median {spread(walls)}, tail is the {tail_label}; "
          f"{len(chunks)} probe chunks")

    if args.trace:
        metrics = median_layers(layers)
        traced_p50 = statistics.median(r.wall_s for r in traced_reports)
        metrics["trace.overhead_ratio"] = traced_p50 / diagnostics["report_s_p50"]
        metrics.update(diagnostics)
        print_result(correct, attempted, failed, metrics, PER_LAYER_UNITS)
        return 0

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    correct = correct and None not in setups
    setups = [s for s in setups if s is not None]
    print(f"  set-up wall {setup_wall_s:.3f} s; scaled set-ups {', '.join(f'{s:.3f}' for s in setups)} s; "
          f"fastest report {min(walls):.3f} s, mean {statistics.mean(walls):.3f} s; "
          f"slowdown {slowdown(chunks):.3f}")
    for name, value in diagnostics.items():
        print(f"  {name:34s} {value:>14.6g} {PER_LAYER_UNITS[name]}")
    metrics = {
        "setup_s": statistics.median(setups),
        "report_s_norm": scaled_report_s(reports),
        "peak_rss_mb": peak_rss_mb,
        "ops_ok_ratio": (attempted - failed) / attempted,
    }
    print_result(correct, attempted, failed, metrics, END_TO_END_UNITS)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fuzzymetrics", "__init__.py")):
        print(f"error: no fuzzymetrics sources under {SRC}", file=sys.stderr)
        return 2
    probe = SpeedProbe()
    probe.start()
    workdir = os.path.join(WORK, f"work-{os.getpid()}")
    try:
        sys.path.insert(0, SRC)
        from fuzzymetrics import cli

        if not cli.__file__.startswith(SRC + os.sep):
            print(f"error: fuzzymetrics was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
            return 2
        os.makedirs(workdir, exist_ok=True)
        return measure(args, cli, workdir, probe)
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
