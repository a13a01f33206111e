"""Tests for the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import bench_speed  # noqa: E402
import bench_trace  # noqa: E402
import run  # noqa: E402
from bench_workloads import WORKLOADS, build, generate  # noqa: E402

# falsify queries that take seconds each; the rest of the workload runs
# in well under a second per pass
SLOW_FALSIFY = ("quadrant-r4:CASE1-SEPARATED",
                "quadrant-r4:CASE2-CENTRALIZER-EXT", "ex1-r3:falsify_ct",
                "amalgam-r3:falsify_ct", "fixture:example1-falsify-csa",
                "family-full:falsify_csa", "family-full:falsify_ct",
                "family-early:falsify_ct")


def _goldens():
    with open(os.path.join(ROOT, "src", "csakit", "goldens.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def _fast_falsify(m, seed=3):
    queries = build("falsify", generate("falsify", seed, _goldens()), m)
    return [q for q in queries if q.cls not in SLOW_FALSIFY]


def test_generator_is_deterministic_for_a_seed():
    goldens = _goldens()
    for workload in WORKLOADS:
        first = generate(workload, 7, goldens)
        assert first == generate(workload, 7, goldens)
        assert first != generate(workload, 8, goldens)


def test_every_golden_fixture_lies_in_exactly_one_workload():
    goldens = _goldens()
    replayed = sorted(fx["name"] for w in WORKLOADS
                      for fx in generate(w, 0, goldens)["fixtures"])
    assert replayed == sorted(fx["name"] for fx in goldens)
    assert len(replayed) == 29


def test_scale_uses_the_probes_around_an_interval():
    speed = bench_speed.Speedometer()
    speed.probes[:] = [0.002]
    speed.probe()
    speed.probes[1] = 0.004
    start, end = speed.stamps[0], speed.stamps[1]
    # the median of the bursts just before and just after
    assert speed.scale(start, end) == bench_speed.PROBE_REFERENCE_S / 0.003


def test_metric_names_match_benchmark_json():
    bench = run.load_benchmark()
    assert [s["name"] for s in bench["per_layer"]] == bench_trace.PER_LAYER
    names = {s["name"] for s in bench["end_to_end"]}
    assert names == {"queries_per_s", "latency_p50_ms", "latency_p90_ms",
                     "peak_rss_mb", "setup_s"}


def _traced_and_untraced_digests(m, queries):
    speed = bench_speed.Speedometer()
    _, _, results, errors = run.run_pass(queries, speed)
    failures, plain, _ = run.check_pass(queries, results, errors)
    tracer = bench_trace.Tracer()
    tracer.install(m.as_dict())
    try:
        _, _, results, errors = run.run_pass(queries, speed, tracer)
        tracer.enabled = False
        traced_failures, traced, _ = run.check_pass(queries, results, errors)
    finally:
        tracer.uninstall()
    return failures + traced_failures, plain, traced, tracer


def test_wrappers_leave_answers_unchanged():
    m = run.fresh_import()
    metrics = {}
    # subgroups queries read earlier results by position, so each
    # workload's queries run as a pass of their own
    for queries in (_fast_falsify(m), build(
            "subgroups", generate("subgroups", 3, _goldens()), m)):
        failures, plain, traced, tracer = _traced_and_untraced_digests(
            m, queries)
        assert failures == []
        assert plain == traced
        for name, value in tracer.metrics().items():
            metrics[name] = metrics.get(name, 0) + value
    for layer in ("words.concat", "stallings.fold", "hnn.britton_reduce",
                  "wpengine.canonical_key", "csa.falsify_csa",
                  "amalgam.gog_predicates", "cli.run",
                  "stallings.CoreGraph.member", "hnn.TWord.mul"):
        assert metrics[f"{layer}.calls"] > 0, layer
    assert metrics["stallings.product_pairs"] > 0
    assert metrics["stallings.malnormal_closure.joins"] > 0
    assert 0 < metrics["csa.ball.kept_ratio"] <= 1
    assert metrics["csa.britton_per_search"] > 0
    # uninstalling restores the originals everywhere
    assert m.csa.falsify_csa.__module__ == "csakit.csa"
    assert m.hnn.concat is m.words.concat


def test_wrong_answer_shows_in_failed_ratio(capsys):
    m = run.fresh_import()
    queries = _fast_falsify(m)
    bench = run.load_benchmark()
    args = argparse.Namespace(workload="falsify", seed=3, seconds=0)
    speed = bench_speed.Speedometer()
    honest = json.loads(run.untraced_run(args, queries, 0.1, bench, speed))
    assert honest["failed"] == 0
    assert "metric failed_ratio = 0 " in capsys.readouterr().out

    real = m.csa.falsify_csa
    m.csa.falsify_csa = lambda spec, radius=3: None
    try:
        wrong = json.loads(run.untraced_run(args, queries, 0.1, bench,
                                            speed))
    finally:
        m.csa.falsify_csa = real
    assert not wrong["correct"]
    assert wrong["failed"] > 0
    assert "metric failed_ratio = 0 " not in capsys.readouterr().out
