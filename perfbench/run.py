"""Benchmark of the twoweight numerical laboratory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One process runs one workload with one item in flight,
``TWOWEIGHT_WORKERS=1`` and BLAS pinned to ``BLAS_THREADS`` threads.  The
workload's pass (see ``workloads.py``) is repeated until ``--seconds`` would
be exceeded, and at least once.  ``--workload all`` runs every workload in
turn, each in its own process, and prints each metric with its unit and
sample count.

``--trace 0`` reports the end-to-end metrics: set-up time (median of
``SETUP_PROBES`` fresh processes), the median pass wall time, the mean item
latency and the peak resident memory.  The mean, not the median, is the
latency metric: example_sweep runs its trials depth by depth, so its median
trial (a d=5 one) is timed only in one few-second window of each pass and
follows the shared machine's speed in that window; the mean weighs every
part of the run.  The median and, past 200 items, the 95th percentile go to
the record.  ``--trace 1`` alternates untraced and traced passes and reports
per-layer calls, self time and work counts from the spans of ``spans.py``,
plus the tracing overhead.  Both modes check every item:
it must not raise or record a sweep failure, repeated passes must agree
exactly, traced outputs must equal untraced ones, and the reference pass
must match ``reference.json`` to ``workloads.REF_RTOL``.

The last stdout line is the JSON result; the line before it holds the
environment record.  Both are also written, with the spans of a traced run,
under ``.perfbench_out/`` in the checkout.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BLAS_THREADS = 1
SETUP_PROBES = 5
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
NAMES = ("example_sweep", "deep_trials", "classify")

# BLAS reads its thread count when numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ["TWOWEIGHT_WORKERS"] = "1"


def _parse(argv):
    p = argparse.ArgumentParser(description="twoweight benchmark")
    p.add_argument("--workload", required=True, choices=NAMES + ("all",),
                   help="all: run every workload in turn and print a table")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", default="full", choices=("full", "tiny"),
                   help="tiny: a few items per workload, for the self-tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def _import_package():
    """Import twoweight from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "twoweight", "__init__.py")):
        sys.exit(f"perfbench: no package source at {SRC}/twoweight")
    sys.path.insert(0, SRC)
    import twoweight

    if os.path.dirname(os.path.dirname(os.path.abspath(twoweight.__file__))) != SRC:
        sys.exit(f"perfbench: twoweight imported from {twoweight.__file__}, not {SRC}")


def _setup_probe(args):
    import workloads

    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workloads.build(args.workload, args.seed, args.size, workdir)
        print(repr(time.monotonic()), flush=True)


def _setup_seconds(args):
    """Median over fresh processes of launch -> first item ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0",
           "--size", args.size, "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        launched = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError("set-up probe failed")
        samples.append(float(proc.stdout.split()[-1]) - launched)
    return statistics.median(samples)


def _git_head():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def _environment(args):
    import numpy
    from twoweight import _kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "have_numba": bool(_kernels.HAVE_NUMBA),
        "comparable": not _kernels.HAVE_NUMBA,  # numba runs other kernels
        "blas_threads": BLAS_THREADS,
        "twoweight_workers": os.environ["TWOWEIGHT_WORKERS"],
        "nproc": os.cpu_count(),
        "git_head": _git_head(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


class Checker:
    """Counts attempted and failed items and keeps the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.run_errors = []  # failures of the run as a whole

    def item(self, key, failure):
        self.attempted += 1
        if failure:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{key}: {failure}")

    def run_error(self, message):
        self.run_errors.append(message)

    @property
    def correct(self):
        return self.failed == 0 and not self.run_errors


def _check_passes(checker, passes, reference, first=None):
    """Check every item of ``passes``.

    An item fails if it raised or recorded a failure, if its output differs
    from the same item in ``first`` (default: the first of ``passes``), or if
    ``reference`` holds its key and the output misses it by more than
    ``REF_RTOL`` (items whose inputs do not depend on the seed).
    """
    import workloads

    base = {it.key: it.output for it in (first or passes[0]).items}
    for p in passes:
        for it in p.items:
            failure = it.failure
            if failure is None and not workloads.outputs_equal(it.output, base.get(it.key)):
                failure = "output differs between passes"
            if failure is None and it.key in reference and not workloads.outputs_equal(
                    it.output, reference[it.key], workloads.REF_RTOL):
                failure = f"differs from the reference: {it.output} != {reference[it.key]}"
            checker.item(it.key, failure)


def _load_reference(args):
    if args.size != "full":
        return {}
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)["workloads"][args.workload]


def _check_reference(checker, args, workdir, reference):
    """Run the reference-size pass at REF_SEED; every item must be recorded."""
    import workloads

    ref_dir = os.path.join(workdir, "reference")
    os.makedirs(ref_dir)
    result = workloads.build(args.workload, workloads.REF_SEED, "reference", ref_dir).run_pass()
    for it in result.items:
        if it.failure is None and it.key not in reference:
            it.failure = "no recorded reference output"
    _check_passes(checker, [result], reference)


def _measure(seconds, run_pass):
    """Repeat run_pass while the next one is expected to end within seconds."""
    results = []
    start = time.monotonic()
    while True:
        results.append(run_pass())
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(results) > seconds:
            return results


def _end_to_end(args, workload, checker, reference):
    setup_s = _setup_seconds(args)
    passes = _measure(args.seconds, workload.run_pass)
    _check_passes(checker, passes, reference)
    latencies = [it.seconds for p in passes for it in p.items if it.seconds is not None]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # kilobytes on Linux
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "item_mean_ms": (statistics.fmean(latencies) * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    notes = {"samples": {"setup_s": SETUP_PROBES, "wall_s": len(passes),
                         "item_mean_ms": len(latencies), "peak_rss_mb": 1},
             "pass_wall_s": [p.wall_s for p in passes],
             "item_p50_ms": statistics.median(latencies) * 1e3}
    if len(latencies) >= 200:  # at least 10 samples beyond the 95th percentile
        notes["item_p95_ms"] = statistics.quantiles(latencies, n=20)[-1] * 1e3
    return metrics, notes


def _per_layer(args, workload, checker, reference):
    import spans

    untraced, traced, tracers = [], [], []

    def pair():
        untraced.append(workload.run_pass())
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced.append(workload.run_pass(tracer))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        return traced[-1]

    _measure(args.seconds, pair)
    _check_passes(checker, untraced, reference)
    _check_passes(checker, traced, reference, first=untraced[0])

    summaries = [t.self_times() for t in tracers]
    counts = [dict(t.counts) for t in tracers]
    for s, c in zip(summaries[1:], counts[1:]):
        if {k: v[0] for k, v in s.items()} != {k: v[0] for k, v in summaries[0].items()} \
                or c != counts[0]:
            checker.run_error("span calls or counts differ between traced passes")
    for t, p in zip(tracers, traced):
        if t.top_level_seconds() > p.wall_s:
            checker.run_error("top-level spans exceed the traced wall time")

    metrics = {}
    for module, funcs in spans.LAYER_FUNCTIONS.items():
        for func in funcs:
            name = spans.span_name(module, func)
            metrics[f"{name}.calls"] = (summaries[0].get(name, (0, 0.0))[0], "count")
            self_ms = statistics.median(s.get(name, (0, 0.0))[1] for s in summaries) * 1e3
            metrics[f"{name}.self_ms"] = (self_ms, "ms")
    for name, counters in spans.COUNTERS.items():
        for count, _ in counters:
            metrics[f"{name}.{count}"] = (counts[0].get(f"{name}.{count}", 0), "count")
    for _, _, count in spans.CALL_COUNTERS:
        metrics[count] = (counts[0].get(count, 0), "count")
    overhead = (statistics.median(p.wall_s for p in traced)
                / statistics.median(p.wall_s for p in untraced) - 1.0)
    metrics["trace.overhead_frac"] = (overhead, "ratio")

    os.makedirs(OUT, exist_ok=True)
    tracers[0].write(os.path.join(OUT, f"{args.workload}-spans.jsonl"),
                     item_spans={workload.item_span})
    return metrics, {"pairs": len(traced), "missing_layer_functions": tracers[0].missing}


def _run_all(args):
    """Each workload in its own process; one table line per metric."""
    ok = True
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            print(f"{name}: run failed")
            ok = False
            continue
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        samples = record["notes"].get("samples", {})
        ok = ok and result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_frac={record['notes']['failed_frac']:.4g}")
        for metric, m in result["metrics"].items():
            n = samples.get(metric, record["notes"].get("pairs", 1))
            print(f"  {metric:48s} {m['value']:14.6g} {m['unit']:6s} n={n}")
    return 0 if ok else 1


def main(argv=None):
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    _import_package()
    sys.path.insert(0, HERE)
    os.makedirs(OUT, exist_ok=True)
    if args.setup_probe:
        _setup_probe(args)
        return 0

    import workloads

    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        checker = Checker()
        workload = workloads.build(args.workload, args.seed, args.size,
                                   os.path.join(workdir, "inputs"))
        reference = _load_reference(args)
        measure = _per_layer if args.trace else _end_to_end
        metrics, notes = measure(args, workload, checker, reference)
        if args.size == "full":
            _check_reference(checker, args, workdir, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = _environment(args)
    notes["failed_frac"] = checker.failed / max(checker.attempted, 1)
    record = {"env": env, "notes": notes, "failures": checker.reasons + checker.run_errors}
    result = {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, f"{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    for line in record["failures"]:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
