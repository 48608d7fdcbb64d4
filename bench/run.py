"""pweyl benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from a checkout: the package is imported from ``src/`` next to this
directory, never from an installed copy.  One process, one thread, a closed
loop: each pass runs the workload's reports one after another, and passes
repeat until ``--seconds`` have elapsed (the pass under way is finished).

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced passes alternate and the per-layer metrics are printed,
computed from spans kept in memory and written to ``bench/out/`` at the end.
Every report is checked; the last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is
0 only if every report was correct.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

from calibration import Calibration
from tracer import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("corpus", "exact-ladder", "truncated-n2")

# setup_s is the median over this many fresh processes.
SETUP_PROBES = 5

# Per-layer metrics: (span name, what) where what is "self_s", "calls" or a
# counter recorded by the tracer, reported as a mean per call.
_SPAN_METRICS = (
    ("cgb.syzygies", "self_s"),
    ("cgb.syzygies", "calls"),
    ("cgb.module_colon", "self_s"),
    ("center.z_module_presentation", "self_s"),
    ("center.z_module_presentation", "columns"),
    ("psupport.generic_rank", "self_s"),
    ("linalg.rank", "self_s"),
    ("linalg.rank", "calls"),
    ("wgb.left_nf", "self_s"),
    ("wgb.left_nf", "calls"),
    ("weyl.mul", "self_s"),
    ("weyl.mul", "calls"),
    ("wgb.left_groebner", "self_s"),
    ("wgb.left_groebner", "basis_size"),
    ("center.truncated_kernel", "self_s"),
    ("center.truncated_kernel", "calls"),
    ("center.truncated_kernel", "kernel_dim"),
    ("linalg.nullspace", "self_s"),
    ("linalg.nullspace", "calls"),
    ("cgb.buchberger", "self_s"),
    ("cgb.buchberger", "calls"),
    ("cgb.buchberger", "basis_size"),
    ("cgb.radical_member", "self_s"),
    ("cgb.radical_member", "calls"),
    ("cgb.radical_member", "true_ratio"),
    ("cgb.krull_dim", "self_s"),
    ("poisson.coisotropy_check", "self_s"),
    ("psupport.is_conical", "self_s"),
    ("parser.parse_weyl", "self_s"),
    ("psupport.specialize_mod_p", "self_s"),
)

_UNITS = {
    "self_s": "s/pass",
    "calls": "calls/pass",
    "columns": "count",
    "basis_size": "count",
    "kernel_dim": "count",
    "true_ratio": "ratio",
}

END_TO_END = (
    ("pass_s", "s"),
    ("report_ms_p50", "ms"),
    ("report_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    tuple((f"{span}.{what}", _UNITS[what]) for span, what in _SPAN_METRICS)
    + tuple((f"layer.{layer}.self_s", "s/pass") for layer in LAYERS)
    + (
        ("trace.pass_s", "s"),
        ("trace.untraced_pass_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "spans/pass"),
    )
)


def _die(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_pweyl():
    """Import pweyl from this checkout's src/; refuse any other copy."""
    package = os.path.join(SRC, "pweyl")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        _die(f"no pweyl sources at {package}; run from a full checkout")
    sys.path.insert(0, SRC)
    import pweyl

    if os.path.dirname(os.path.abspath(pweyl.__file__)) != package:
        _die(f"imported pweyl from {pweyl.__file__}, not from {package}")


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--setup-probe",
        action="store_true",
        help="set the workload up, print 'ready' and exit (used to time set-up)",
    )
    return ap.parse_args(argv)


def probe_setup(args, calibration):
    """Time SETUP_PROBES fresh processes from start to their workload being
    ready, each recorded as a calibration segment labelled ("setup", i)."""
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-probe",
    ]
    for i in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            _die(f"set-up probe failed (exit {code}, said {line!r})")
        calibration.record(("setup", i), elapsed)


def _quantile(values, q):
    """The q-quantile as the mean of the order statistics within one binomial
    standard deviation, sqrt(n q (1 - q)), of rank (n - 1) q.

    A single order statistic of the pooled latencies jumps between the
    repeats of whichever input sits at that rank; averaging the ranks that
    are equally likely to hold the true quantile steadies it from run to run.
    """
    xs = sorted(values)
    n = len(xs)
    pos = (n - 1) * q
    half = math.sqrt(n * q * (1 - q))
    lo = max(0, math.ceil(pos - half))
    hi = min(n - 1, math.floor(pos + half))
    return statistics.fmean(xs[lo : hi + 1])


def _tail_line(name, values, unit):
    """Median, plus the highest percentile that has at least ten samples beyond it."""
    n = len(values)
    line = f"{name:<14} {statistics.median(values):.6g} {unit} median of {n}"
    top = (n - 10) * 100 // n if n > 10 else 0
    if top > 50:
        line += f"; p{top} {_quantile(values, top / 100):.6g} {unit}"
    return line


class Tally:
    """Reports attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, result):
        self.attempted += len(result.latencies)
        self.failed += len(result.failures)
        self.messages.extend(result.failures[: max(0, 20 - len(self.messages))])


def run_untraced(workload, seconds, tally, calibration):
    """Passes until the time is up, each labelled ("pass", i); returns the count."""
    deadline = time.perf_counter() + seconds
    npass = 0
    while True:
        calibration.begin(("pass", npass))
        result = workload.run_pass(calibration.after_report)
        calibration.end()
        tally.add(result)
        npass += 1
        if time.perf_counter() >= deadline:
            return npass


def run_traced(workload, seconds, tally, tracer, calibration):
    """Alternate traced and untraced passes, one calibration segment each, so
    that the kernel never runs inside a span.  Returns the labels of the
    passes and, for each traced pass, the range of span indices it recorded."""
    labels, span_ranges = [], []
    deadline = time.perf_counter() + seconds
    tally.add(workload.run_pass())  # warm-up, not timed
    while True:
        for traced in (True, False):
            label = ("traced" if traced else "plain", len(labels) // 2)
            first = tracer.span_count()
            if traced:
                tracer.install()
            try:
                calibration.begin(label)
                result = workload.run_pass()
                calibration.end()
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                span_ranges.append((label, first, tracer.span_count()))
            labels.append(label)
            tally.add(result)
        if time.perf_counter() >= deadline:
            return labels, span_ranges


def per_layer_metrics(tracer, walls, labels, span_ranges):
    """Per-pass self times and counts from the spans, each span scaled by the
    calibration factor of its pass; tracing overhead from the pass times."""
    factors = [0.0] * tracer.span_count()
    for label, first, last in span_ranges:
        cal, raw = walls[label]
        factors[first:last] = [cal / raw] * (last - first)
    totals = tracer.totals(factors)
    npass = len(span_ranges)
    metrics = {}
    for span, what in _SPAN_METRICS:
        calls, _, self_s = totals.get(span, (0, 0.0, 0.0))
        if what == "self_s":
            value = self_s / npass
        elif what == "calls":
            value = calls / npass
        else:
            counter = "true" if what == "true_ratio" else what
            value = tracer.counters.get(f"{span}.{counter}", 0) / calls if calls else 0.0
        metrics[f"{span}.{what}"] = value
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = (
            sum(s for name, (_, _, s) in totals.items() if name.split(".")[0] == layer) / npass
        )
    traced = [walls[label][0] for label in labels if label[0] == "traced"]
    plain = [walls[label][0] for label in labels if label[0] == "plain"]
    metrics["trace.pass_s"] = statistics.median(traced)
    metrics["trace.untraced_pass_s"] = statistics.median(plain)
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - metrics["trace.untraced_pass_s"]
    metrics["trace.spans"] = tracer.span_count() / npass
    return metrics


def main(argv=None):
    args = _parse_args(argv)
    _import_pweyl()
    import workloads

    if args.setup_probe:
        workloads.build(args.workload, args.seed, OUT)
        print("ready", flush=True)
        return 0

    tally = Tally()
    calibration = Calibration()
    if args.trace == 0:
        probe_setup(args, calibration)
        workload = workloads.build(args.workload, args.seed, OUT)
        npass = run_untraced(workload, args.seconds, tally, calibration)
        walls, latencies = calibration.results()
        passes = [walls[("pass", i)][0] for i in range(npass)]
        setups = [walls[("setup", i)][0] for i in range(SETUP_PROBES)]
        lat_ms = [x * 1000.0 for x in latencies]
        metrics = {
            "pass_s": statistics.median(passes),
            "report_ms_p50": _quantile(lat_ms, 0.5),
            "report_ms_p90": _quantile(lat_ms, 0.9),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        raw_pass = statistics.median(walls[("pass", i)][1] for i in range(npass))
        raw_setup = statistics.median(walls[("setup", i)][1] for i in range(SETUP_PROBES))
        print(f"workload {args.workload}, seed {args.seed}: {npass} passes")
        print("calibrated to the reference speed:")
        print(_tail_line("pass_s", passes, "s"))
        print(_tail_line("report_ms", lat_ms, "ms"))
        print(f"raw wall: pass_s median {raw_pass:.6g} s, setup_s median {raw_setup:.6g} s")
    else:
        tracer = Tracer()
        workload = workloads.build(args.workload, args.seed, OUT)
        labels, span_ranges = run_traced(workload, args.seconds, tally, tracer, calibration)
        walls, _ = calibration.results()
        metrics = per_layer_metrics(tracer, walls, labels, span_ranges)
        units = dict(PER_LAYER)
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
        tracer.dump(spans_path)
        print(f"workload {args.workload}, seed {args.seed}: {len(span_ranges)} traced passes")
        print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
        by_layer = sorted(LAYERS, key=lambda l: -metrics[f"layer.{l}.self_s"])
        print("layers by self time: " + ", ".join(
            f"{l} {metrics[f'layer.{l}.self_s']:.4g}" for l in by_layer))

    for name, value in metrics.items():
        print(f"{name:<40} {value:.6g} {units[name]}")
    fail_ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{'fail_ratio':<40} {fail_ratio:.6g} ({tally.failed}/{tally.attempted} reports)")
    for message in tally.messages:
        print(f"FAILED {message}", file=sys.stderr)

    correct = tally.failed == 0 and tally.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
