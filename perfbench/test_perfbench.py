"""Tests of the benchmark's own helpers.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import math
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ---------------------------------------------------------------------------
# self time under nested spans


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    rec = spans.Recorder(clock)

    def leaf():
        clock.now += 1.0

    def middle():
        clock.now += 2.0
        leaf_span()
        leaf_span()
        clock.now += 0.5

    def outer():
        clock.now += 3.0
        middle_span()

    leaf_span = rec.wrap("leaf", leaf)
    middle_span = rec.wrap("middle", middle)
    rec.wrap("outer", outer)()

    assert rec.stats["outer"].self_s == pytest.approx(3.0)
    assert rec.stats["middle"].self_s == pytest.approx(2.5)
    assert rec.stats["leaf"].calls == 2
    assert rec.stats["leaf"].self_s == pytest.approx(2.0)
    # self times partition the outermost span
    assert sum(s.self_s for s in rec.stats.values()) == pytest.approx(clock.now)


def test_recursive_span_counts_each_level_once():
    clock = FakeClock()
    rec = spans.Recorder(clock)

    def fact(n):
        clock.now += 1.0
        return 1 if n <= 1 else n * fact_span(n - 1)

    fact_span = rec.wrap("fact", fact)
    assert fact_span(4) == 24
    stat = rec.stats["fact"]
    assert stat.calls == 4
    assert stat.self_s == pytest.approx(4.0)


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    rec = spans.Recorder(clock)

    def boom():
        clock.now += 1.0
        raise ValueError("boom")

    def outer():
        clock.now += 1.0
        with pytest.raises(ValueError):
            boom_span()

    boom_span = rec.wrap("boom", boom)
    rec.wrap("outer", outer)()
    assert rec.stats["boom"].calls == 1
    assert rec.stats["outer"].self_s == pytest.approx(1.0)
    assert not rec._open


def test_case_spans_keep_each_duration_and_counters_add_up():
    clock = FakeClock()
    rec = spans.Recorder(clock)

    def case(name, dt):
        clock.now += dt
        return {"case": name, "ok": dt > 1}

    rec.cpu_clock = lambda: clock.now / 2
    span = rec.wrap(spans.CASE, case, count=lambda result: result["ok"])
    for name, dt in (("a", 0.5), ("b", 2.0), ("c", 1.5)):
        span(name, dt)
    assert rec.case_seconds == {"a": (0.5, 0.25), "b": (2.0, 1.0), "c": (1.5, 0.75)}
    assert rec.stats[spans.CASE].counted == 2


# ---------------------------------------------------------------------------
# patching every namespace, and restoring


def test_patches_reach_every_binding_and_restore():
    def helper():
        return "original"

    class Thing:
        def method(self):
            return "method"

    home = types.SimpleNamespace(helper=helper, Thing=Thing)
    importer = types.SimpleNamespace(helper=helper, alias=helper)
    rec = spans.Recorder()
    patches = spans.Patches([importer])
    patches.replace(home, "helper", lambda fn: rec.wrap("helper", fn))
    patches.replace(home, "Thing.method", lambda fn: rec.wrap("method", fn))
    assert home.helper() == importer.helper() == importer.alias() == "original"
    assert Thing().method() == "method"
    assert rec.stats["helper"].calls == 3
    assert rec.stats["method"].calls == 1
    patches.restore()
    assert home.helper is helper and importer.helper is helper and importer.alias is helper
    assert Thing.__dict__["method"].__name__ == "method"
    assert not hasattr(Thing.__dict__["method"], "__wrapped__")


def test_install_wraps_every_dynwg_binding():
    dw = run.load_dynwg(os.path.join(ROOT, "src"))
    originals = {name: dw["rep"].sl2_strings for name in ("rep", "dynweyl", "geomsatake")}
    rec = spans.Recorder()
    patches = spans.install(rec, dw, run.dynwg_namespaces(),
                            workloads.Workload().case_targets(dw), traced=True)
    try:
        for name in originals:
            assert dw[name].sl2_strings is not originals[name]
    finally:
        patches.restore()
    for name, fn in originals.items():
        assert dw[name].sl2_strings is fn


# ---------------------------------------------------------------------------
# seed-to-case selection


def test_orbit_key_pairs_dual_weights_only_in_type_a():
    assert workloads.orbit_key("A", (2, 0, 1)) == workloads.orbit_key("A", (1, 0, 2))
    assert workloads.orbit_key("B", (2, 1)) != workloads.orbit_key("B", (1, 2))


def test_pick_per_orbit_is_deterministic_and_keeps_one_per_orbit():
    pool = [("A2", (1, 0)), ("A2", (0, 1)), ("A2", (1, 1)), ("B2", (1, 0)), ("B2", (0, 1)),
            ("A3", (1, 0, 2)), ("A3", (2, 0, 1))]
    first = workloads.pick_per_orbit(7, "w", pool)
    assert first == workloads.pick_per_orbit(7, "w", pool)
    assert len(first) == 5
    assert {("A2", (1, 1)), ("B2", (1, 0)), ("B2", (0, 1))} <= set(first)
    assert first == [item for item in pool if item in first]
    picks = {tuple(workloads.pick_per_orbit(seed, "w", pool)) for seed in range(20)}
    assert len(picks) > 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_select_is_deterministic(name):
    dw = run.load_dynwg(os.path.join(ROOT, "src"))
    workload = workloads.WORKLOADS[name]
    assert workload.select(3, dw) == workload.select(3, dw)


def test_cocycle_always_holds_the_reference_rows():
    dw = run.load_dynwg(os.path.join(ROOT, "src"))
    for seed in range(5):
        irreps = workloads.WORKLOADS["cocycle"].select(seed, dw)["irreps"]
        assert irreps[:2] == [("G2", (1, 1)), ("B2", (2, 2))]


def test_rep_integrity_runs_the_whole_pool_in_a_seeded_order():
    dw = run.load_dynwg(os.path.join(ROOT, "src"))
    rep = workloads.WORKLOADS["rep-integrity"]
    orders = [rep.select(seed, dw)["irreps"] for seed in (1, 2)]
    assert orders[0] != orders[1]
    assert sorted(orders[0]) == sorted(orders[1])
    assert len(orders[0]) == len(set(orders[0])) >= run.min_samples(run.CASE_PERCENTILE)


def test_kernel_specs_follow_the_seed():
    kernel = workloads.WORKLOADS["ratfun-kernel"]
    assert kernel.select(1, None) == kernel.select(1, None)
    assert kernel.select(1, None) != kernel.select(2, None)

    def shapes(seed):
        return [(len(num), len(den)) for _, num, den in kernel.select(seed, None)["specs"]]

    # the numbers of forms, which set the cost, are the same for every seed
    assert shapes(1) == shapes(2)
    assert len(set(shapes(1))) == 9
    for (p, q), num, den in kernel.select(1, None)["specs"]:
        assert 1 <= abs(p) <= 9 and 1 <= q <= 4
        assert len(num) <= 2 and len(den) <= 2
        for coeffs, h in num + den:
            assert all(-3 <= c <= 3 for c in coeffs + (h,)) and (any(coeffs) or h)


# ---------------------------------------------------------------------------
# percentiles and the sample-count rule


def test_percentile_interpolates_between_ranks():
    xs = list(range(1, 101))
    assert run.percentile(xs, 50) == pytest.approx(50.5)
    assert run.percentile(xs, 90) == pytest.approx(90.1)
    assert run.percentile([3.0], 90) == 3.0
    assert run.percentile([4, 1, 3, 2], 0) == 1
    assert run.percentile([4, 1, 3, 2], 100) == 4
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_min_samples_leaves_ten_beyond_the_percentile():
    assert run.min_samples(90) == 100
    assert run.min_samples(50) == 20
    assert run.min_samples(99) == 1000
    for pct in (50, 90, 95):
        n = run.min_samples(pct)
        xs = list(range(n))
        cut = run.percentile(xs, pct)
        assert sum(x > cut for x in xs) >= run.SAMPLES_BEYOND
        # The rule is tight for the nearest-rank percentile, the most
        # conservative common definition: one sample fewer leaves too few.
        fewer = xs[:-1]
        nearest_rank = fewer[math.ceil(len(fewer) * pct / 100) - 1]
        assert sum(x > nearest_rank for x in fewer) < run.SAMPLES_BEYOND


# ---------------------------------------------------------------------------
# scoring and the metric list


def _pass(results=None, traced=False, cpu_s=1.0):
    return run.Pass(traced, cpu_s, cpu_s, results or {}, spans.Recorder(), {}, {})


def _timed_pass(unit_s, case_s, setup_s=()):
    """A pass from unit and case times, given as wall seconds (CPU time the
    same) or as (wall, cpu) pairs."""
    def pair(t):
        return t if isinstance(t, tuple) else (t, t)

    p = _pass()
    p.unit_s = {label: pair(t) for label, t in unit_s.items()}
    p.unit_case_s = {label: {key: pair(t) for key, t in cases.items()}
                     for label, cases in case_s.items()}
    p.setup_s = list(setup_s)
    return p


def test_score_counts_failures_and_digest_mismatches():
    first = _pass({"a": (True, "x"), "b": (True, "y")})
    same = _pass({"a": (True, "x"), "b": (True, "y")})
    changed = _pass({"a": (True, "x"), "b": (True, "z")})
    missing = _pass({"a": (True, "x"), "error:b": (False, "exception")})
    assert run.score([first, same]) == (4, 0)
    assert run.score([first, changed]) == (4, 1)
    assert run.score([first, missing]) == (5, 2)


def test_case_digest_ignores_key_order():
    assert run.case_digest({"a": 1, "b": [1, 2]}) == run.case_digest({"b": [1, 2], "a": 1})
    assert run.case_digest({"a": 1}) != run.case_digest({"a": 2})


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    values = run.layer_values(spans.Recorder(), spans.Recorder())
    assert set(values) | {"trace.overhead_frac"} == {name for name, _ in run.PER_LAYER}


def test_active_boundaries_are_known():
    known = {name for name, *_ in spans.BOUNDARIES} | {spans.CASE}
    for workload in workloads.WORKLOADS.values():
        assert set(workload.active) | set(workload.setup_active) <= known


def test_coverage_checks_the_pass_and_its_set_up():
    levi = workloads.WORKLOADS["levi-warm"]
    traced = _pass(traced=True)
    traced.setup_recorder = spans.Recorder()
    for name in levi.active:
        traced.recorder.stats[name] = spans.Stat(calls=1)
    assert run.coverage_problems(levi, [_pass(), traced]) == [
        f"boundary {name} recorded no calls" for name in sorted(levi.setup_active)]
    for name in levi.setup_active:
        traced.setup_recorder.stats[name] = spans.Stat(calls=1)
    assert run.coverage_problems(levi, [_pass(), traced]) == []


# ---------------------------------------------------------------------------
# pass count and the estimators


def test_pass_count_depends_on_seconds_and_workload_only():
    kernel = workloads.WORKLOADS["ratfun-kernel"]
    assert run.pass_count(kernel, 1, trace=False) == run.MIN_PASSES
    assert run.pass_count(kernel, 10 * kernel.PASS_S, trace=False) == 10
    for seconds in (1, 24, 10 * kernel.PASS_S):
        assert run.pass_count(kernel, seconds, trace=True) % 2 == 1
        assert run.pass_count(kernel, seconds, trace=True) >= run.MIN_PASSES


def test_suite_time_sums_the_slowest_time_of_each_piece():
    passes = [
        _timed_pass({"a": 3.0, "b": 1.0}, {"a": {"a1": 1.0, "a2": 1.5}, "b": {"b1": 0.5}}, (0.3, 0.1)),
        _timed_pass({"a": 2.5, "b": 2.0}, {"a": {"a1": 2.0, "a2": 0.4}, "b": {"b1": 1.0}}, (0.2,)),
        _timed_pass({"a": 2.0, "b": 1.0}, {"a": {"a1": 0.5, "a2": 0.5}, "b": {"b1": 0.9}}, (0.1, 0.9)),
    ]
    # outside its cases, "a" took 0.5, 0.1 and 1.0 and "b" 0.5, 1.0 and 0.1
    slowest = {("a", None): 1.0, ("a", "a1"): 2.0, ("a", "a2"): 1.5, ("b", None): 1.0, ("b", "b1"): 1.0}
    assert run.piece_estimates(passes) == pytest.approx({k: (t, t) for k, t in slowest.items()})
    assert run.unit_estimates(passes) == pytest.approx({"a": 4.5, "b": 2.0})
    metrics = run.end_to_end(passes)
    assert metrics["suite_s"] == pytest.approx(6.5)
    assert metrics["cpu_s"] == pytest.approx(6.5)
    # the slowest set-ups before the passes are 0.3, 0.2 and 0.9
    assert metrics["setup_s"] == pytest.approx(0.3)
    assert sorted(run.case_samples_ms(passes)) == pytest.approx([1000.0, 1500.0, 2000.0])
    assert metrics["case_p50_ms"] == pytest.approx(1500.0)
    assert metrics["case_p90_ms"] == pytest.approx(1900.0)


def test_wall_time_adds_the_median_off_cpu_time_to_the_slowest_cpu_time():
    walls_cpus = ((1.0, 1.0), (1.5, 1.2), (3.0, 1.1))
    passes = [_timed_pass({"a": t}, {"a": {"a1": t}}, (0.1,)) for t in walls_cpus]
    # CPU: slowest 1.2; off CPU: 0, 0.3 and 1.9, median 0.3
    assert run.piece_estimates(passes)[("a", "a1")] == pytest.approx((1.5, 1.2))
    assert run.piece_estimates(passes)[("a", None)] == pytest.approx((0.0, 0.0))
    assert run.end_to_end(passes)["suite_s"] == pytest.approx(1.5)


def test_a_case_missing_from_a_pass_keeps_its_other_times():
    passes = [_timed_pass({"a": 1.0}, {"a": {"a1": 0.5}}),
              _timed_pass({"a": 2.0}, {"a": {}})]
    assert run.piece_estimates(passes) == pytest.approx(
        {("a", None): (2.0, 2.0), ("a", "a1"): (0.5, 0.5)})


def test_overhead_compares_each_traced_pass_with_its_neighbours():
    cpu = (1.0, 1.3, 1.2, 1.2, 0.9)
    passes = [_pass(traced=i % 2 == 1, cpu_s=t) for i, t in enumerate(cpu)]
    # 1.3 / mean(1.0, 1.2) - 1 = 0.1818..., 1.2 / mean(1.2, 0.9) - 1 = 0.1428...
    assert run.overhead_frac(passes) == pytest.approx((1.3 / 1.1 + 1.2 / 1.05) / 2 - 1)


def test_missing_sources_exit_nonzero_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "cocycle", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
