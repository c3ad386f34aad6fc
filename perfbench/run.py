"""Closed-loop benchmark of quadlie's certified answers.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 50 --trace 0

Run from the repository root; quadlie is imported from ./src. One client on
one thread: each operation starts when the previous one has returned and
its answer has been checked. The checks run outside the timed intervals.
Every operation and set-up time is CPU time of the benchmark's one thread
(time.thread_time, user and system), scaled to a host of fixed speed by a
reference loop sampled during the run (clock.py): quadlie computes on one
thread without waiting, while the wall clock of a shared virtual machine
also counts the time the host gives to other guests, and the CPU time
follows the host's load. --seconds is wall time.

The inputs are made once, at set-up, and the work of a run is fixed by
--seconds alone: a run makes one pass over all inputs (the three census
cases, or the scrambled round-trip seeds) per pass length of --seconds (see
workloads.py), at least one, so that a run takes about --seconds on a
2-vCPU guest and its counts of operations and failures follow from the
seed. Timing over whole passes keeps the mix of operations fixed. No
best-of is taken: over six round-trip seeds on that guest, ops_per_s
spread 4 % (IQR/median) with every operation pooled and 18 % with each
input's fastest pass, because fast moments of a shared host come and go.

End-to-end metrics (--trace 0):
  ops_per_s    certified answers per nominal second of operation over every
               operation of the run (one answer per round trip, one per
               enumerated map on census); answers that fail their check
               do not count
  op_p50_ms    median latency of one operation (one round trip, or one
               skew_census call) over every operation of the run
  op_p90_ms    nearest-rank 90th percentile of the same
  setup_s      import, input generation and one warm-up operation; the
               median of SETUP_SAMPLES set-ups, this process's and those
               of fresh interpreters
  peak_rss_mb  peak resident memory of this process

With --trace 1 the run instead makes one traced pass over the inputs, then
one untraced pass, and reports per-layer figures and the difference in
operation time between the two passes. Span times are wall time (see
tracer.py), reference samples included (about 2 %).

The last line of stdout is the result object; the line before it names the
environment, gives the number of operations (the latency samples) and how
many lie beyond the 90th percentile, the host speed measured in each pass
(1.0 is nominal), the set-up samples, and every failure reason with its
count.
--workload all runs every workload in turn and prints both lines for each.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from clock import OWN_SAMPLES, Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("census", "roundtrip")
SETUP_SAMPLES = 5  # set-up runs per run: this process and four fresh interpreters
WALL_LIMIT = 150  # seconds; a run must end within 180

# (name, unit) in the order BENCHMARK.json lists them
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    ("exact_field.Field.of.calls", "count"),
    ("linalg.Matrix.__init__.calls", "count"),
    ("quadlie._fast.fp_rref.calls", "count"),
    ("quadlie._fast.fp_rref.self_s", "s"),
    ("quadlie._fast.fp_matmul.calls", "count"),
    ("quadlie._fast.fp_matmul.self_s", "s"),
    ("quadlie._fast.fp_matmul.mults", "count"),
    ("linalg.Matrix.__mul__.calls", "count"),
    ("linalg.Matrix.__mul__.self_s", "s"),
    ("linalg.Matrix.rref.calls", "count"),
    ("linalg.Matrix.rref.self_s", "s"),
    ("linalg.minimal_polynomial.calls", "count"),
    ("linalg.minimal_polynomial.incl_s", "s"),
    ("linalg.minimal_polynomial.distinct_ratio", "ratio"),
    ("linalg.poly_at_matrix.calls", "count"),
    ("linalg.poly_at_matrix.self_s", "s"),
    ("linalg.primary_component.calls", "count"),
    ("exact_field.factor_poly.calls", "count"),
    ("exact_field.factor_poly.self_s", "s"),
    ("skewcanon.canonical_pair.calls", "count"),
    ("skewcanon.canonical_pair.incl_s", "s"),
    ("skewcanon.primary_split.incl_s", "s"),
    ("skewcanon.canonical_pair_zero.incl_s", "s"),
    ("skewcanon.canonical_pair_nonzero.incl_s", "s"),
    ("skewcanon.spectral_form.calls", "count"),
    ("skewcanon.CanonicalPair.verify.calls", "count"),
    ("skewcanon.CanonicalPair.verify.incl_s", "s"),
    ("oscillator.skew_census.canonical_pair_per_map", "ratio"),
    ("liecore.LieAlgebra.bracket.calls", "count"),
    ("liecore.centre.incl_s", "s"),
    ("liecore.is_solvable.incl_s", "s"),
    ("liecore.bracket_span.incl_s", "s"),
    ("oscillator.recover_double_extension.incl_s", "s"),
    ("oscillator.build_double_extension.incl_s", "s"),
    ("oscillator.decide_isometric.incl_s", "s"),
    ("oscillator.verify_iso_witness.incl_s", "s"),
    ("quadspace.isotropy_report.calls", "count"),
    ("quadspace.isotropy_report.incl_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("sympy.diophantine.calls", "count"),
    ("sympy.diophantine.incl_s", "s"),
    ("trace.ops", "count"),
    ("trace.overhead_s", "s"),
)


class Tally:
    """Latencies and failures of one measured stretch."""

    def __init__(self):
        self.latencies = []
        self.attempted = 0
        self.answered = 0  # answers that checked out
        self.failures = Counter()
        self.unknown = 0

    def add(self, dt, answers, failure):
        self.attempted += 1
        self.latencies.append(dt)
        if failure is None:
            self.answered += answers
            return
        reason, known = failure
        self.failures[reason] += 1
        self.unknown += not known

    def merge(self, other):
        self.attempted += other.attempted
        self.failures.update(other.failures)
        self.unknown += other.unknown

    def busy(self):
        return sum(self.latencies)

    def rank(self, q):
        """Index of the nearest-rank quantile q in the sorted latencies."""
        return max(math.ceil(q * len(self.latencies)), 1) - 1

    def percentile(self, q):
        return sorted(self.latencies)[self.rank(q)]


def attempt(wl, item, now=time.thread_time):
    t0 = now()
    try:
        out, err = wl.op(item), None
    except Exception as e:  # a failing operation is counted, never fatal
        out, err = None, f"{type(e).__name__}: {e}"
    return now() - t0, out, err


def measure(wl, passes, tracer=None, tamper=None):
    """Run every input of wl, in order, `passes` times in a closed loop.

    Latencies are nominal seconds (see clock.py): an operation is scaled by
    the host speed of the reference samples taken during it, when there are
    OWN_SAMPLES of them (half a second), and by that of its whole pass
    otherwise.

    A later pass is skipped only if it would end after WALL_LIMIT seconds.
    tamper(out), for the self-test, corrupts an answer before it is
    checked. Returns the tally and the host speed of each pass."""
    tally = Tally()
    start = time.perf_counter()
    with Clock() as clock:
        for done in range(passes):
            if done and (time.perf_counter() - start) * (done + 1) / done > WALL_LIMIT:
                break
            timed = []
            for item in wl.items:
                if tracer is not None:
                    tracer.enabled = True
                first = len(clock.samples)
                dt, out, err = attempt(wl, item, clock.now)
                own = clock.samples[first:]
                if tracer is not None:
                    tracer.enabled = False
                if err is not None:
                    failure = (err, False)
                else:
                    if tamper is not None:
                        tamper(out)
                    try:
                        failure = wl.check(item, out)
                    except Exception as e:  # a malformed answer is a failure too
                        failure = (f"check raised {type(e).__name__}: {e}", False)
                timed.append((dt, own, wl.units(item), failure))
            speed = clock.factor()
            for dt, own, units, failure in timed:
                scale = clock.speed(own) if len(own) >= OWN_SAMPLES else speed
                tally.add(dt * scale, units, failure)
    return tally, clock.speeds


def setup(args):
    """Import quadlie, make the inputs and run one warm-up operation.

    Returns the workload and the nominal seconds this took."""
    with Clock() as clock:
        t0 = clock.now()
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import workloads

        wl = workloads.make(args.workload, args.seed, args.seconds, str(ROOT))
        attempt(wl, wl.warmup)
        cpu = clock.now() - t0
        return wl, cpu * clock.factor()


def setup_in_child(args):
    """Nominal seconds of setup() in a fresh interpreter, as the first run sees it."""
    code = (
        "import argparse, sys; sys.path.insert(0, sys.argv[1]); import run; "
        "wl, s = run.setup(argparse.Namespace(workload=sys.argv[2], seed=int(sys.argv[3]), "
        "seconds=float(sys.argv[4]))); wl.close(); print(repr(s))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(HERE), args.workload, str(args.seed), str(args.seconds)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def end_to_end(tally, setup_s):
    values = {
        "ops_per_s": tally.answered / tally.busy(),
        "op_p50_ms": 1e3 * tally.percentile(0.5),
        "op_p90_ms": 1e3 * tally.percentile(0.9),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(tracer, traced, plain):
    calls, counts = tracer.calls, tracer.counts
    values = {
        "trace.ops": traced.attempted,
        "trace.overhead_s": traced.busy() - plain.busy(),
        "oscillator.skew_census.canonical_pair_per_map": (
            counts["oscillator.skew_census.canonical_pair_calls"]
            / counts["oscillator.skew_census.maps"]
            if counts["oscillator.skew_census.maps"] else 0.0
        ),
    }
    for name, _ in PER_LAYER:
        if name in values:
            continue
        base, kind = name.rsplit(".", 1)
        if kind == "calls":
            values[name] = calls[base]
        elif kind == "self_s":
            values[name] = tracer.self_time[base]
        elif kind == "incl_s":
            values[name] = tracer.incl[base]
        elif kind == "distinct_ratio":
            values[name] = len(tracer.distinct[base]) / calls[base] if calls[base] else 0.0
        else:
            values[name] = counts[name]
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def environment(args, tally, speeds, setup_samples=None):
    from quadlie import _fast

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": _fast.BACKEND,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "operations": tally.attempted,
        "passes": len(speeds),
        "host_speed": speeds,
        "beyond_p90": len(tally.latencies) - 1 - tally.rank(0.9),
        "fail_share": tally.attempted and sum(tally.failures.values()) / tally.attempted,
        "failures": dict(tally.failures),
    }
    if setup_samples:
        env["setup_samples_s"] = setup_samples
    return env


def run(args, tamper=None):
    """One benchmark run; returns (environment, result)."""
    setup_samples = None
    if args.trace:
        import tracer as tracing

        # one pass over the inputs
        wl, _ = setup(argparse.Namespace(**{**vars(args), "seconds": 0}))
        try:
            tracer = tracing.Tracer()
            restore = tracing.install(tracer)
            try:
                traced, _ = measure(wl, 1, tracer=tracer, tamper=tamper)
            finally:
                restore()
            plain, speeds = measure(wl, 1, tamper=tamper)
        finally:
            wl.close()
        metrics = per_layer(tracer, traced, plain)
        tally = traced
        tally.merge(plain)
    else:
        wl, setup_s = setup(args)
        try:
            tally, speeds = measure(wl, wl.passes, tamper=tamper)
        finally:
            wl.close()
        setup_samples = [setup_s] + [setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
        metrics = end_to_end(tally, statistics.median(setup_samples))
    result = {
        # correct: every answer checked out, apart from failures of the
        # recorded known defect, which still count in failed
        "correct": tally.unknown == 0,
        "attempted": tally.attempted,
        "failed": sum(tally.failures.values()),
        "metrics": metrics,
    }
    return environment(args, tally, speeds, setup_samples), result


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main():
    args = parse_args()
    if not (SRC / "quadlie" / "__init__.py").is_file():
        print(f"quadlie sources not found under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        env, result = run(argparse.Namespace(**{**vars(args), "workload": name}))
        print(json.dumps({"environment": env}, sort_keys=True))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
