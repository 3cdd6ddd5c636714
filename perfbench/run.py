"""dynwg benchmark: one workload, one process, one closed-loop client.

Run from the root of a dynwg checkout:

    python3 perfbench/run.py --workload cocycle --seed 1 --seconds 20 --trace 0

The package is imported from ./src.  Each pass sets the workload up and then
re-imports the package, so every pass starts from the state a fresh
`dynwg verify ...` process has (empty in-process caches), and runs all of the
workload's cases once.  The number of passes follows from --seconds and the
workload alone, never from the speed of the run, so every commit is measured
over the same passes.  Every case's result is checked, and its digest must be
the same in every pass.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced passes
with passes that record a span at every layer boundary, in set-up and in the
pass, prints the per-layer metrics, and fails if a boundary the workload must
exercise recorded no call.
The last line of output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import spans
from workloads import WORKLOADS, unit_label

LAYERS = ("ratfun", "linalg", "rep", "rootdata", "dynweyl", "geomsatake", "cli")
# Before each untraced pass, set-up is repeated at least this often and until
# it has taken this long.
SETUP_MIN_REPEATS = 2
SETUP_MIN_S = 0.3
MIN_PASSES = 3
CASE_PERCENTILE = 90
SAMPLES_BEYOND = 10
HARD_STOP_S = 120.0  # no pass starts later than this, so a run ends within 180 s
WORKDIR = ".perfbench-work"

END_TO_END = (
    ("suite_s", "s"),
    ("cpu_s", "s"),
    ("case_p50_ms", "ms"),
    ("case_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

_TIMED = (
    "ratfun.add", "ratfun.mul", "ratfun.div", "ratfun.substitute", "ratfun.divide_by_form",
    "linalg.invert", "linalg.nullspace",
    "rep.build_irrep", "rep.load_cached_irrep", "rep.freudenthal_multiplicity",
    "rep.check_chevalley_serre", "rep.sl2_strings",
    "rootdata.all_reduced_words",
    "dynweyl.simple_reflection_block", "dynweyl.word_operator_block",
    "geomsatake.verify_main_theorem_rank1", "geomsatake.levi_restriction_check",
    spans.CASE,
)
PER_LAYER = tuple(
    [(f"{n}.calls", "count") for n in _TIMED] + [(f"{n}.self_s", "s") for n in _TIMED] + [
        ("ratfun.eq.calls", "count"),
        ("ratfun.divide_by_form.hit_ratio", "ratio"),
        ("rep.build_irrep.builds", "count"),
        ("rep.cache.hit_ratio", "ratio"),
        ("rep.save_irrep.self_s", "s"),
        ("rootdata.all_reduced_words.words", "count"),
        ("dynweyl.classical_limit.self_s", "s"),
        ("dynweyl.denominators_are_local.self_s", "s"),
        ("trace.overhead_frac", "ratio"),
    ]
)


# ---------------------------------------------------------------------------
# statistics


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    if not values:
        raise ValueError("no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def min_samples(pct: int, beyond: int = SAMPLES_BEYOND) -> int:
    """Fewest samples that leave `beyond` of them above the pct-th percentile."""
    return math.ceil(beyond * 100 / (100 - pct))


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ---------------------------------------------------------------------------
# environment


def load_dynwg(src: str) -> dict:
    """Imports a fresh copy of every dynwg module from src."""
    for name in [n for n in sys.modules if n == "dynwg" or n.startswith("dynwg.")]:
        del sys.modules[name]
    modules = {layer: importlib.import_module(f"dynwg.{layer}") for layer in LAYERS}
    origin = os.path.dirname(os.path.realpath(modules["cli"].__file__))
    if origin != os.path.realpath(os.path.join(src, "dynwg")):
        raise RuntimeError(f"dynwg was imported from {origin}, not from {src}")
    return modules


def dynwg_namespaces() -> list:
    return [m for n, m in sys.modules.items() if n == "dynwg" or n.startswith("dynwg.")]


def loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unknown"


def git_sha(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# passes


@dataclass
class Pass:
    traced: bool
    wall_s: float
    cpu_s: float
    results: dict  # case key -> (ok, digest of the case in canonical JSON)
    recorder: spans.Recorder
    unit_s: dict  # unit label -> (wall, cpu) seconds
    unit_case_s: dict  # unit label -> {case key: (wall, cpu) seconds of its case span}
    setup_s: list = field(default_factory=list)  # the untraced set-ups before the pass
    setup_recorder: spans.Recorder | None = None  # the traced set-up before a traced pass


def case_digest(case: dict) -> str:
    text = json.dumps(case, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def pass_count(workload, seconds: float, trace: bool) -> int:
    """Passes in a run: as many typical passes as fit in `seconds`, and at
    least MIN_PASSES, which time enough cases for the percentiles.  Traced
    runs make an odd number, so that an untraced pass lies on either side
    of every traced one."""
    n = max(MIN_PASSES, round(seconds / workload.PASS_S))
    return 2 * (n // 2) + 1 if trace else n


def set_up(workload, seed: int, src: str, workdir: str, recorder=None):
    """One set-up from a fresh import: (plan, ctx, seconds).  With a
    recorder, every boundary called during set-up is recorded."""
    start = time.perf_counter()
    dw = load_dynwg(src)
    patches = None
    if recorder is not None:
        patches = spans.install(recorder, dw, dynwg_namespaces(), [], traced=True)
    try:
        plan = workload.select(seed, dw)
        ctx = workload.setup(plan, dw, workdir)
    finally:
        if patches:
            patches.restore()
    return plan, ctx, time.perf_counter() - start


def run_pass(workload, plan, ctx, src: str, traced: bool) -> Pass:
    dw = load_dynwg(src)
    units = workload.units(plan, dw, ctx)
    recorder = spans.Recorder()
    patches = spans.install(recorder, dw, dynwg_namespaces(), workload.case_targets(dw), traced)
    cases, errors, unit_s, unit_keys = [], [], {}, {}
    gc.collect()
    try:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for label, unit in units:
            start, start_cpu = time.perf_counter(), time.process_time()
            got = []
            try:
                got = unit()
            except Exception:
                errors.append(label)
                traceback.print_exc(file=sys.stderr)
            unit_s[label] = (time.perf_counter() - start, time.process_time() - start_cpu)
            unit_keys[label] = [case["case"] for case in got]
            cases.extend(got)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    finally:
        patches.restore()
    results = {}
    for case in cases:
        key = case["case"]
        results[key] = (False, "duplicate") if key in results else (bool(case["ok"]), case_digest(case))
    for label in errors:
        results[f"error:{label}"] = (False, "exception")
    unit_case_s = {label: {key: recorder.case_seconds[key] for key in keys if key in recorder.case_seconds}
                   for label, keys in unit_keys.items()}
    return Pass(traced, wall, cpu, results, recorder, unit_s, unit_case_s)


def measure(workload, seed: int, src: str, workdir: str, seconds: float, trace: bool):
    """(passes, problems).  Each pass has its own set-up, so set-up is timed
    at the same moments of the run as the passes are.  An untraced pass's
    set-up is repeated as SETUP_MIN_REPEATS and SETUP_MIN_S ask, and only the
    last one's products are used; a traced pass's set-up is made once, with
    every boundary recorded."""
    passes, problems = [], []
    start = time.perf_counter()
    for i in range(pass_count(workload, seconds, trace)):
        if time.perf_counter() - start > HARD_STOP_S:
            break
        traced = trace and i % 2 == 1
        setup_recorder = spans.Recorder() if traced else None
        ctx, setup_s = None, []
        try:
            setup_start = time.perf_counter()
            while True:
                plan, ctx, took = set_up(workload, seed, src, workdir, setup_recorder)
                if traced:
                    break
                setup_s.append(took)
                spent = time.perf_counter() - setup_start
                if len(setup_s) >= SETUP_MIN_REPEATS and spent >= SETUP_MIN_S:
                    break
                problems += workload.teardown(ctx)
                ctx = None
            passes.append(run_pass(workload, plan, ctx, src, traced))
            passes[-1].setup_s, passes[-1].setup_recorder = setup_s, setup_recorder
        finally:
            if ctx is not None:
                problems += workload.teardown(ctx)
    return passes, problems


def score(passes: list[Pass]) -> tuple[int, int]:
    """(attempted, failed): a case fails when it is not ok, raised, or its
    result differs from the first pass's."""
    reference = passes[0].results
    attempted = failed = 0
    for p in passes:
        for key in reference.keys() | p.results.keys():
            attempted += 1
            got, want = p.results.get(key), reference.get(key)
            if got is None or want is None or not got[0] or got[1] != want[1]:
                failed += 1
    return attempted, failed


def run_digest(p: Pass) -> str:
    return case_digest(sorted((k, v[1]) for k, v in p.results.items()))


# ---------------------------------------------------------------------------
# metrics


def piece_times(p: Pass) -> dict:
    """The (wall, cpu) seconds of each piece of a pass.  A piece is one case,
    keyed (unit label, case key), or the time a unit spends outside its
    cases, keyed (unit label, None)."""
    pieces = {}
    for label, (wall, cpu) in p.unit_s.items():
        cases = p.unit_case_s.get(label, {})
        pieces[(label, None)] = (wall - sum(t[0] for t in cases.values()),
                                 cpu - sum(t[1] for t in cases.values()))
        pieces.update(((label, key), t) for key, t in cases.items())
    return pieces


def piece_estimates(passes: list[Pass]) -> dict:
    """Each piece's (wall, cpu) estimate over the passes: its slowest CPU
    time, and as wall time that plus the median of its off-CPU time."""
    seen: dict = {}
    for p in passes:
        for piece, t in piece_times(p).items():
            seen.setdefault(piece, []).append(t)
    estimates = {}
    for piece, times in seen.items():
        cpu = max(t[1] for t in times)
        estimates[piece] = (cpu + statistics.median(t[0] - t[1] for t in times), cpu)
    return estimates


def case_samples_ms(passes: list[Pass]) -> list[float]:
    """One sample per case: its estimated wall time, in ms."""
    return [1000 * t[0] for (_, key), t in piece_estimates(passes).items() if key is not None]


def unit_estimates(passes: list[Pass]) -> dict:
    """Each unit's estimated wall time: the sum over its pieces."""
    units: dict = {}
    for (label, _), t in piece_estimates(passes).items():
        units[label] = units.get(label, 0.0) + t[0]
    return units


def end_to_end(passes: list[Pass]) -> dict:
    # On the shared machine the benchmark was built on, the CPU alternates
    # within milliseconds between a fast speed and one about 1.8 times
    # slower, its usual, contended state.  The mix of the two over a run
    # swings by tens of percent between runs, and the mean, median and
    # minimum of pass times swing with it; the slow speed is steady, and a
    # piece that takes milliseconds runs entirely in it in most passes.  The
    # host also takes the CPU away now and then, for up to tens of
    # milliseconds, which adds wall time but not CPU time.  So each piece
    # (README: "End-to-end metrics") counts its slowest CPU time over the
    # passes plus the median of its off-CPU time, and set-up takes the
    # median over the passes of the slowest set-up before each.  The number
    # of passes does not depend on speed, so every commit gets the same
    # number of tries.
    estimates = piece_estimates(passes).values()
    case_ms = case_samples_ms(passes)
    return {
        "suite_s": sum(t[0] for t in estimates),
        "cpu_s": sum(t[1] for t in estimates),
        "case_p50_ms": percentile(case_ms, 50),
        "case_p90_ms": percentile(case_ms, CASE_PERCENTILE),
        "setup_s": statistics.median(max(p.setup_s) for p in passes if p.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_values(recorder: spans.Recorder, setup: spans.Recorder) -> dict:
    """The per-layer metrics of one traced pass.  Cache writes happen only in
    set-up, so rep.save_irrep comes from the pass's traced set-up."""

    def stat(name, rec=recorder):
        return rec.stats.get(name, spans.Stat())

    values = {}
    for name in _TIMED:
        values[f"{name}.calls"] = stat(name).calls
        values[f"{name}.self_s"] = stat(name).self_s
    div, load = stat("ratfun.divide_by_form"), stat("rep.load_cached_irrep")
    values.update({
        "ratfun.eq.calls": stat("ratfun.eq").calls,
        "ratfun.divide_by_form.hit_ratio": ratio(div.counted, div.calls),
        "rep.build_irrep.builds": stat("rep.build_irrep").counted - load.counted,
        "rep.cache.hit_ratio": ratio(load.counted, load.calls),
        "rep.save_irrep.self_s": stat("rep.save_irrep", setup).self_s,
        "rootdata.all_reduced_words.words": stat("rootdata.all_reduced_words").counted,
        "dynweyl.classical_limit.self_s": stat("dynweyl.classical_limit").self_s,
        "dynweyl.denominators_are_local.self_s": stat("dynweyl.denominators_are_local").self_s,
    })
    return values


def overhead_frac(passes: list[Pass]) -> float:
    """Tracing overhead: each traced pass's CPU time over the mean of the
    untraced passes on either side of it, minus one; the median over the
    traced passes.  Neighbouring passes share most of the machine's drift."""
    gaps = []
    for i, p in enumerate(passes):
        if p.traced:
            around = [q.cpu_s for q in passes[max(i - 1, 0):i + 2] if not q.traced]
            gaps.append(p.cpu_s / statistics.mean(around) - 1)
    return statistics.median(gaps)


def per_layer(passes: list[Pass]) -> dict:
    per_pass = [layer_values(p.recorder, p.setup_recorder) for p in passes if p.traced]
    metrics = {key: statistics.median(v[key] for v in per_pass) for key in per_pass[0]}
    metrics["trace.overhead_frac"] = overhead_frac(passes)
    return metrics


def coverage_problems(workload, passes: list[Pass]) -> list[str]:
    problems = []
    for p in passes:
        if p.traced:
            for recorder, names in ((p.recorder, workload.active),
                                    (p.setup_recorder, workload.setup_active)):
                for name in names:
                    if not recorder.stats.get(name, spans.Stat()).calls:
                        problems.append(f"boundary {name} recorded no calls")
    return sorted(set(problems))


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description="dynwg end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "dynwg", "__init__.py")):
        print(f"perfbench: no dynwg package under {src}; run from the root of a dynwg checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # The benchmark passes its cache directories explicitly and never uses
    # the user's cache, whatever the environment names.
    os.environ.pop("DYNWG_CACHE", None)
    workload = WORKLOADS[args.workload]
    env = {"git": git_sha(root), "python": sys.version.split()[0], "nproc": os.cpu_count(),
           "loadavg_before": loadavg()}

    workdir = os.path.join(root, WORKDIR)
    os.makedirs(workdir, exist_ok=True)
    try:
        passes, problems = measure(workload, args.seed, src, workdir, args.seconds,
                                   bool(args.trace))
    finally:
        try:
            os.rmdir(workdir)
        except OSError:
            pass
    env["loadavg_after"] = loadavg()

    attempted, failed = score(passes)
    untraced = [p for p in passes if not p.traced]
    samples = len(case_samples_ms(untraced))
    if not args.trace and samples < min_samples(CASE_PERCENTILE):
        problems.append(f"{samples} cases timed; the percentiles need {min_samples(CASE_PERCENTILE)}")
    if args.trace:
        problems += coverage_problems(workload, passes)
        metrics, units = per_layer(passes), dict(PER_LAYER)
    else:
        metrics, units = end_to_end(passes), dict(END_TO_END)
    correct = failed == 0 and not problems

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"passes {sum(not p.traced for p in passes)} untraced, {sum(p.traced for p in passes)} traced; "
          f"{samples} untraced case samples; failed {failed} of {attempted} cases "
          f"(fail_frac {ratio(failed, attempted):.6f})")
    print(f"digest {run_digest(passes[0])}")
    for name, value in metrics.items():
        print(f"  {name:<46} {value:>14.6f} {units[name]}")
    for problem in problems:
        print(f"problem: {problem}")
    labels = [unit_label(*irrep) for irrep in getattr(workload, "REFERENCE", [])]
    detail = {
        "env": env,
        "pass_wall_s": {kind: [p.wall_s for p in passes if p.traced == traced]
                        for kind, traced in (("untraced", False), ("traced", True))},
        "setup_s": [p.setup_s for p in untraced],
        "case_samples": samples,
        "reference_unit_s": {label: t for label, t in unit_estimates(untraced).items()
                             if label in labels},
        "digest": run_digest(passes[0]),
    }
    print("perfbench-detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
