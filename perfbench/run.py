"""Benchmark jachalf on one workload and print one JSON result line.

    python3 perfbench/run.py --workload halve-small-fields --seed 1 --seconds 30 --trace 0

Run from anywhere; the checkout is the directory above this file, and its
own `src/` is imported (jachalf need not be installed).  One process, one
thread, one closed-loop caller: each operation starts when the previous one
has returned.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every round
twice, untraced and then traced, and reports per-layer metrics from the
traced copy plus the tracing overhead.  Per-run details, raw wall-clock
times included, go to perfbench/out/.  The exit code is 0 when every output
check passed.

Times are reported at reference speed (see `Reference`).
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

from ffcheck import Tower

SPAN_CAP = 20000  # spans kept for the trace file; totals count every span
REF_S = 0.003  # reported times are scaled to a machine where the kernel takes this long
WINDOW_S = 0.5  # least half-width of the kernel samples that price an interval
SAMPLE_EVERY_S = 0.2  # kernel samples taken during operations


class Reference:
    """A fixed computation of the benchmark's own, timed during the run.

    The speed of the machines this runs on drifts: a fixed Python loop ran
    anywhere from 2.9 to 8.4 million iterations per second within a few
    minutes, and by 2x within seconds.  This kernel is the same kind of work
    as jachalf's (small-int arithmetic on tuples through method calls), so
    its time tracks that drift.  It runs before every operation and, from a
    SIGALRM handler, every SAMPLE_EVERY_S during operations too.  A measured
    interval, less the kernel time inside it, is reported scaled by REF_S
    over the median kernel time sampled in and around it.
    """

    def __init__(self):
        self.tower = Tower(13, [1])
        self.times = []  # sample midpoints, ascending
        self.samples = []  # kernel seconds
        self.spent = 0.0  # kernel seconds so far, to subtract from intervals
        self.busy = False
        self.sample()  # warm-up, not kept
        self.times, self.samples = [], []

    def sample(self):
        if self.busy:  # the timer fired during an explicit sample
            return
        self.busy = True
        T = self.tower
        x = acc = ((3,), (5,))
        t0 = time.perf_counter()
        for _ in range(400):
            acc = T.qmul(acc, x)
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.samples.append(t1 - t0)
        self.spent += t1 - t0
        self.busy = False

    def start_timer(self):
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop_timer(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, t0, t1, paused):
        """Seconds in [t0, t1], less `paused` spent sampling, at reference speed.

        The kernel samples taken within max(t1 - t0, WINDOW_S) of the
        interval, and at least the nearest one on each side, give the speed.
        """
        pad = max(t1 - t0, WINDOW_S)
        lo = bisect.bisect_left(self.times, t0 - pad)
        hi = bisect.bisect_right(self.times, t1 + pad)
        lo = min(lo, max(bisect.bisect_left(self.times, t0) - 1, 0))
        hi = max(hi, bisect.bisect_right(self.times, t1) + 1)
        return (t1 - t0 - paused) * REF_S / statistics.median(self.samples[lo:hi])

    def run_factor(self, start):
        """REF_S over the median kernel time of the samples from `start` on."""
        return REF_S / statistics.median(self.samples[start:])


def _since_process_start():
    """Seconds since this process started, by the kernel's own clock."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def _import_jachalf(root):
    src = root / "src"
    if not (src / "jachalf" / "__init__.py").is_file():
        sys.exit(f"error: no jachalf sources under {src}")
    sys.path.insert(0, str(src))
    import jachalf
    import jachalf.cli

    if Path(jachalf.__file__).resolve().parent != (src / "jachalf").resolve():
        sys.exit(f"error: imported jachalf from {jachalf.__file__}, not {src}")
    return jachalf


class Run:
    """Counters and samples of one run."""

    def __init__(self, ref):
        self.ref = ref
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.intervals = []  # (start, end, kernel seconds inside) of each timed op
        self.items = 0

    def problem(self, text):
        self.problems.append(text)
        if len(self.problems) <= 20:
            print(f"check failed: {text}", file=sys.stderr)

    def ops(self, wl, ops, timed=None):
        """Run one round's ops in order; returns outputs (None where one failed)."""
        state = {}
        outs = []
        for op in ops:
            self.attempted += 1
            self.ref.sample()
            if timed is not None:
                timed(True)
            spent = self.ref.spent
            t0 = time.perf_counter()
            try:
                out = wl.run(op, state)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = None
                self.failed += 1
                self.problem(f"operation raised {type(exc).__name__}: {exc}")
            t1 = time.perf_counter()
            if timed is not None:
                timed(False)
            self.intervals.append((t0, t1, self.ref.spent - spent))
            self.items += wl.items(op)
            outs.append(out)
        self.ref.sample()
        return outs

    def check(self, wl, ops, side, outs):
        done = [(op, out) for op, out in zip(ops, outs) if out is not None]
        try:
            problems = wl.check([op for op, _ in done], side, [out for _, out in done])
        except Exception as exc:  # a check that cannot run is a failed check
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        for text in problems:
            self.problem(text)

    def seconds(self, start=0, stop=None):
        """Op times at reference speed, and as measured."""
        done = self.intervals[start:stop]
        return [self.ref.scaled(*i) for i in done], [t1 - t0 - p for t0, t1, p in done]


def _rounds(seconds, t_start):
    """Round numbers while another round of the mean length fits in `seconds`."""
    n = 0
    while True:
        yield n
        n += 1
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / n > seconds:
            return


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _latency_metrics(items, seconds):
    ms = [t * 1e3 for t in seconds]
    return {
        "items_per_s": items / sum(seconds),
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": statistics.quantiles(ms, n=10)[-1],
    }


def measure(wl, rng, seconds, ref, spans):
    """Untraced run: end-to-end metrics."""
    run = Run(ref)
    before = spans.snapshot()
    t_start = time.perf_counter()
    for _ in _rounds(seconds, t_start):
        ops = wl.make_round(rng)
        side = wl.side_calls(ops)
        run.check(wl, ops, side, run.ops(wl, ops))
    if not spans.same_snapshot(before, spans.snapshot()):
        run.problem("an attribute of jachalf changed during an untraced run")
    scaled, wall = run.seconds()
    latency = _latency_metrics(run.items, scaled)
    metrics = {
        "items_per_s": _metric(latency["items_per_s"], "1/s"),
        "op_ms_p50": _metric(latency["op_ms_p50"], "ms"),
        "op_ms_p90": _metric(latency["op_ms_p90"], "ms"),
        "peak_rss_mib": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    detail = {
        "op_ms": [t * 1e3 for t in scaled],
        "wall_clock": dict(_latency_metrics(run.items, wall), op_ms=[t * 1e3 for t in wall]),
    }
    return run, metrics, detail


def measure_traced(wl, rng, seconds, ref, spans):
    """Traced run: every round untraced, then again under the span recorder."""
    run = Run(ref)
    before = spans.snapshot()
    rec = spans.Recorder(SPAN_CAP)
    expected = {}
    traced = []  # (start, stop) of each round's traced ops in run.intervals
    first_ref = len(ref.samples)

    def timed(on):
        if on:
            rec.op_id += 1
        rec.active = on

    t_start = time.perf_counter()
    for _ in _rounds(seconds, t_start):
        ops = wl.make_round(rng)
        side = wl.side_calls(ops)
        outs = run.ops(wl, ops)
        rec.install()
        try:
            rec.active = True
            side_t = wl.side_calls(ops)
            rec.active = False
            mark = len(run.intervals)
            outs_t = run.ops(wl, ops, timed)
        finally:
            rec.active = False
            rec.uninstall()
        traced.append((mark, len(run.intervals)))
        run.check(wl, ops, side, outs)
        if side_t != side or [wl.fingerprint(o) for o in outs_t if o is not None] != [
            wl.fingerprint(o) for o in outs if o is not None
        ]:
            run.problem("traced outputs differ from untraced outputs")
        for name, count in wl.expected_counts(ops).items():
            expected[name] = expected.get(name, 0) + count
    if not spans.same_snapshot(before, spans.snapshot()):
        run.problem("wrappers were not fully removed after the traced run")
    for name, count in expected.items():
        if rec.stats[name][0] != count:
            run.problem(f"{name}: {rec.stats[name][0]} spans, expected {count}")
    n_ops = sum(stop - start for start, stop in traced)
    traced_s = sum(sum(run.seconds(start, stop)[0]) for start, stop in traced)
    untraced_s = sum(run.seconds()[0]) - traced_s
    factor = ref.run_factor(first_ref)  # span times are scaled per run, not per op
    per_op = {
        name: (calls, self_ms * factor, incl_ms * factor)
        for name, (calls, self_ms, incl_ms) in rec.per_op(n_ops).items()
    }
    metrics = {}
    for name, (calls, self_ms, _) in per_op.items():
        metrics[f"{name}.calls"] = _metric(calls, "count")
        metrics[f"{name}.self_ms"] = _metric(self_ms, "ms")
    metrics["trace.overhead_ms"] = _metric((traced_s - untraced_s) * 1e3 / n_ops, "ms")
    detail = {
        "ops": n_ops,
        "untraced_ms_per_op": untraced_s * 1e3 / n_ops,
        "traced_ms_per_op": traced_s * 1e3 / n_ops,
        "per_op": {k: {"calls": c, "self_ms": s, "incl_ms": i} for k, (c, s, i) in per_op.items()},
        "spans_total": rec.n_spans,
        "spans": rec.dump_spans(),
    }
    return run, metrics, detail


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    ref = Reference()
    ref.start_timer()
    tmp = None
    try:
        for _ in range(3):
            ref.sample()
        root = Path(__file__).resolve().parents[1]
        J = _import_jachalf(root)
        import spans
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            sys.exit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
        out_dir = root / "perfbench" / "out"
        tmp = out_dir / f"tmp-{os.getpid()}"
        tmp.mkdir(parents=True, exist_ok=True)
        rng = random.Random(f"{args.workload}/{args.seed}")
        wl = WORKLOADS[args.workload](J, rng, tmp)
        setup_wall = _since_process_start() - ref.spent
        for _ in range(3):
            ref.sample()
        ref_setup = statistics.median(ref.samples)
        if args.trace:
            run, metrics, detail = measure_traced(wl, rng, args.seconds, ref, spans)
        else:
            run, metrics, detail = measure(wl, rng, args.seconds, ref, spans)
            metrics["setup_s"] = _metric(setup_wall * REF_S / ref_setup, "s")
            detail["wall_clock"]["setup_s"] = setup_wall
    finally:
        ref.stop_timer()
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)

    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds)
    detail.update(python=sys.version.split()[0], problems=run.problems[:50], result=result)
    detail["reference_ms"] = [t * 1e3 for t in statistics.quantiles(ref.samples, n=4)]
    (out_dir / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
