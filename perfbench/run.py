"""csakit benchmark: one seeded workload per run, answers checked.

    python3 perfbench/run.py --workload falsify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; csakit is imported from its ``src``.
The load is a closed loop with one caller: each query is one call into
csakit and the next starts when it returns.  A pass runs every query of
the workload once.  An untraced run (``--trace 0``) repeats whole passes
until ``--seconds`` of timed work and at least 100 queries are done (one
``falsify`` pass takes longer than that on its own) and prints the
end-to-end metrics.  A traced run (``--trace 1``) makes one untraced pass
and one traced pass, prints the per-layer metrics and the tracing
overhead, and requires both passes to give the same output digest.
Times are scaled to a reference machine speed measured by a probe that
runs all along (bench_speed.py).  The last line of standard output is
the JSON result.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

import bench_speed
import bench_trace
import bench_workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = 15
MIN_QUERIES = 100


class CsakitModules:
    """The csakit modules of one import, as attributes."""

    def __init__(self):
        for name in bench_trace.MODULES:
            setattr(self, name, importlib.import_module(f"csakit.{name}"))

    def as_dict(self):
        return {name: getattr(self, name) for name in bench_trace.MODULES}


def fresh_import():
    for name in [n for n in sys.modules
                 if n == "csakit" or n.startswith("csakit.")]:
        del sys.modules[name]
    return CsakitModules()


def time_setup(workload, data, speed):
    """Median over SETUP_REPEATS of importing csakit and building every
    presentation, spec and parsed source, in scaled seconds; keeps the
    last import.  One untimed round first fills the bytecode cache."""
    fresh_import()
    spans = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        speed.probe()
        start = perf_counter()
        m = fresh_import()
        queries = bench_workloads.build(workload, data, m)
        spans.append((start, perf_counter()))
    speed.probe()
    scaled = [(end - start) * speed.scale(start, end) for start, end in spans]
    return statistics.median(scaled), m, queries


def run_pass(queries, speed, tracer=None):
    """Time every query once; returns (measured seconds, scaled seconds,
    results, errors) per query."""
    times, spans, results, errors = [], [], [], []
    gc.collect()
    speed.probe()
    with speed:
        for i, q in enumerate(queries):
            if tracer is not None:
                tracer.query = i
            probing = speed.spent
            t0 = perf_counter()
            try:
                result = q.run(results)
                error = None
            except Exception:  # a failed query is counted, the run goes on
                result, error = None, traceback.format_exc()
            t1 = perf_counter()
            times.append(t1 - t0 - (speed.spent - probing))
            spans.append((t0, t1))
            results.append(result)
            errors.append(error)
    speed.probe()
    scaled = [t * speed.scale(*span) for t, span in zip(times, spans)]
    return times, scaled, results, errors


def check_pass(queries, results, errors):
    """Reference checks and digests of one pass, outside the timed region.
    Returns (failure messages, full digest, digest of seed-independent
    queries)."""
    failures = []
    full, fixed = hashlib.sha256(), hashlib.sha256()
    for i, (q, result, error) in enumerate(zip(queries, results, errors)):
        if error is not None:
            failures.append(f"query {i} {q.cls} raised:\n{error}")
            line = "error"
        else:
            try:
                message = q.check(result, results)
                line = q.summary(result)
            except Exception:
                message, line = traceback.format_exc(), "error"
            if message is not None:
                failures.append(f"query {i} {q.cls}: {message}")
        full.update(f"{i}:{line}\n".encode())
        if not q.seeded:
            fixed.update(f"{q.cls}:{line}\n".encode())
    return failures, full.hexdigest(), fixed.hexdigest()


def recorded_digest_problems(workload, seed, full, fixed):
    """Compare with the digests recorded in digests.json: the
    seed-independent digest always, the full one for recorded seeds."""
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        record = json.load(fh).get(workload, {})
    problems = []
    if "fixed" in record and record["fixed"] != fixed:
        problems.append(f"seed-independent digest {fixed} != recorded "
                        f"{record['fixed']}")
    want = record.get("seeds", {}).get(str(seed))
    if want is not None and want != full:
        problems.append(f"digest {full} != recorded {want} for seed {seed}")
    return problems, want is not None


def percentile(values, p):
    return statistics.quantiles(values, n=100)[p - 1]


def diag_rows(queries, times_by_query):
    """Median seconds per query class (not gated)."""
    by_class = {}
    for q, ts in zip(queries, times_by_query):
        by_class.setdefault(q.cls, []).extend(ts)
    return {cls: statistics.median(ts) for cls, ts in by_class.items()}


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def result_line(correct, attempted, failed, values, specs):
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
               for s in specs}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def report_failures(failures):
    for message in failures[:20]:
        print(f"FAILED {message}")
    if len(failures) > 20:
        print(f"FAILED ... and {len(failures) - 20} more")


def untraced_run(args, queries, setup_s, bench, speed):
    all_times = [[] for _ in queries]     # scaled seconds per query
    failures, digests = [], set()
    measured, timed, attempted, passes = 0.0, 0.0, 0, 0
    while measured < args.seconds or attempted < MIN_QUERIES:
        times, scaled, results, errors = run_pass(queries, speed)
        fails, full, fixed = check_pass(queries, results, errors)
        del results
        failures.extend(fails)
        digests.add((full, fixed))
        for slot, t in zip(all_times, scaled):
            slot.append(t)
        measured += sum(times)
        timed += sum(scaled)
        attempted += len(queries)
        passes += 1
    full, fixed = sorted(digests)[0]
    problems, recorded = recorded_digest_problems(args.workload, args.seed,
                                                  full, fixed)
    if len(digests) != 1:
        problems.append("passes gave different output digests")
    # a query's latency is its median over the passes, which keeps a
    # slow spell of the machine in one pass out of the percentiles
    latencies = [statistics.median(ts) for ts in all_times]
    failed = len(failures)
    values = {
        "queries_per_s": attempted / timed,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": percentile(latencies, 90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "setup_s": setup_s,
    }
    print(f"workload {args.workload} seed {args.seed}: {passes} pass(es), "
          f"{attempted} queries, {measured:.3f} s measured, {timed:.3f} s "
          f"scaled (median probe {statistics.median(speed.probes) * 1e3:.4f}"
          f" ms, reference {bench_speed.PROBE_REFERENCE_S * 1e3:g} ms)")
    for spec in bench["end_to_end"]:
        extra = f" (n={len(latencies)} queries, {passes} pass(es) each)" \
            if spec["name"].startswith("latency") else ""
        print(f"metric {spec['name']} = {values[spec['name']]:.6g} "
              f"{spec['unit']}{extra}")
    print(f"metric failed_ratio = {failed / attempted:.6g} 1 "
          f"(not gated: {failed} of {attempted})")
    diag = diag_rows(queries, all_times)
    for cls, median in diag.items():
        print(f"diag {cls} median_ms = {median * 1e3:.4g}")
    quads = [v for k, v in diag.items() if k.startswith("quadrant-r4:")]
    if quads:
        print(f"diag quadrant-r4 total_ms = {sum(quads) * 1e3:.6g}")
    print(f"digest {full} seed-independent {fixed} "
          f"({'recorded seed' if recorded else 'seed not recorded'})")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"times-{args.workload}-{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"classes": [q.cls for q in queries],
                   "scaled_seconds": all_times,
                   "probes": list(zip(speed.stamps, speed.probes))}, fh)
    report_failures(failures + problems)
    correct = not failures and not problems
    return result_line(correct, attempted, failed, values, bench["end_to_end"])


def traced_run(args, m, queries, bench, speed):
    _, scaled, results, errors = run_pass(queries, speed)
    wall_plain = sum(scaled)
    failures, full, fixed = check_pass(queries, results, errors)
    del results
    tracer = bench_trace.Tracer()
    tracer.install(m.as_dict())
    try:
        times, scaled, results, errors = run_pass(queries, speed, tracer)
        wall_traced = sum(scaled)
        tracer.enabled = False
        traced_failures, traced_full, _ = check_pass(queries, results, errors)
        del results
    finally:
        tracer.uninstall()
    failures.extend(traced_failures)
    problems, recorded = recorded_digest_problems(args.workload, args.seed,
                                                  full, fixed)
    if traced_full != full:
        problems.append(f"traced digest {traced_full} != untraced {full}")
    values = tracer.metrics()
    # self times are scaled as a whole, by the traced pass's own factor
    factor = wall_traced / sum(times)
    for name in bench_trace.SPAN_NAMES:
        values[f"{name}.self_s"] *= factor
    attempted = 2 * len(queries)
    print(f"workload {args.workload} seed {args.seed}: traced pass "
          f"{wall_traced:.3f} s, untraced pass {wall_plain:.3f} s (scaled), "
          f"tracing overhead {wall_traced / wall_plain:.3f}x")
    for spec in bench["per_layer"]:
        print(f"layer {spec['name']} = {values[spec['name']]:.6g} "
              f"{spec['unit']}")
    print(f"digest {full} traced {traced_full} "
          f"({'recorded seed' if recorded else 'seed not recorded'})")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json")
    tracer.write_spans(path)
    print(f"spans: {tracer.span_total} recorded, {len(tracer.spans)} "
          f"written to {os.path.relpath(path, ROOT)}")
    report_failures(failures + problems)
    correct = not failures and not problems
    return result_line(correct, attempted, len(failures), values,
                       bench["per_layer"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "csakit", "__init__.py")):
        print(f"error: no csakit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in bench_workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    with open(os.path.join(SRC, "csakit", "goldens.json"),
              encoding="utf-8") as fh:
        goldens = json.load(fh)
    data = bench_workloads.generate(args.workload, args.seed, goldens)
    speed = bench_speed.Speedometer()
    setup_s, m, queries = time_setup(args.workload, data, speed)
    if args.trace:
        line = traced_run(args, m, queries, bench, speed)
    else:
        line = untraced_run(args, queries, setup_s, bench, speed)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
