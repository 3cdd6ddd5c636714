"""Spans at the layer boundaries of dynwg, recorded from outside the package.

A boundary is a public function or method of one dynwg module.  The recorder
wraps it, and every call becomes a span.  Spans are aggregated in memory per
boundary name (calls, self time, and a result counter), because a
single pass makes hundreds of thousands of RatFun calls and keeping each span
would cost more memory than the program under test.

Self time of a span is its duration minus the durations of the spans opened
directly inside it, so the self times of all boundaries add up to the time
spent under the outermost spans.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

CASE = "cli.case"


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    counted: int = 0  # what the boundary's result counter adds up (hits, words, builds)


class Recorder:
    """Aggregates the spans of one pass.  The wall and CPU durations of CASE
    spans are also kept per case, keyed by the "case" field of the result,
    because the end-to-end metrics are built from them."""

    def __init__(self, clock=time.perf_counter, cpu_clock=time.process_time):
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.stats: dict[str, Stat] = {}
        self.case_seconds: dict[str, tuple[float, float]] = {}  # case -> (wall, cpu)
        self._open: list[float] = []  # child time accumulated by each open span

    def wrap(self, name: str, fn, count=None):
        stat = self.stats.setdefault(name, Stat())
        open_spans = self._open
        clock = self.clock
        cases = self.case_seconds if name == CASE else None
        cpu_clock = self.cpu_clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            start_cpu = cpu_clock() if cases is not None else 0.0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration
                stat.calls += 1
                stat.self_s += duration - child
            if cases is not None:
                cases[result["case"]] = (duration, cpu_clock() - start_cpu)
            if count is not None:
                stat.counted += count(result)
            return result

        return span


# ---------------------------------------------------------------------------
# result counters


def _is_hit(result) -> int:
    return result is not None


def _length(result) -> int:
    return len(result)


class _Distinct:
    """Counts distinct objects returned.  It holds a reference to each, so an
    id cannot be reused within the pass."""

    def __init__(self):
        self.seen: dict[int, object] = {}

    def __call__(self, result) -> int:
        if id(result) in self.seen:
            return 0
        self.seen[id(result)] = result
        return 1


# (span name, module, attribute path, result counter).  A counter is a
# zero-argument factory, so each pass starts from fresh counter state.
BOUNDARIES = [
    ("ratfun.add", "ratfun", "RatFun.__add__", None),
    ("ratfun.mul", "ratfun", "RatFun.__mul__", None),
    ("ratfun.div", "ratfun", "RatFun.__truediv__", None),
    ("ratfun.substitute", "ratfun", "RatFun.substitute", None),
    ("ratfun.eq", "ratfun", "RatFun.__eq__", None),
    ("ratfun.divide_by_form", "ratfun", "Polynomial.divide_by_form", lambda: _is_hit),
    ("linalg.invert", "linalg", "invert", None),
    ("linalg.nullspace", "linalg", "nullspace", None),
    # build_irrep counts distinct irreps returned; cache hits are subtracted
    # later, which leaves the irreps actually constructed.
    ("rep.build_irrep", "rep", "build_irrep", _Distinct),
    ("rep.load_cached_irrep", "rep", "load_cached_irrep", lambda: _is_hit),
    ("rep.save_irrep", "rep", "save_irrep", None),
    ("rep.freudenthal_multiplicity", "rep", "freudenthal_multiplicity", None),
    ("rep.check_chevalley_serre", "rep", "check_chevalley_serre", None),
    ("rep.sl2_strings", "rep", "sl2_strings", None),
    ("rootdata.all_reduced_words", "rootdata", "all_reduced_words", lambda: _length),
    ("dynweyl.simple_reflection_block", "dynweyl", "simple_reflection_block", None),
    ("dynweyl.word_operator_block", "dynweyl", "word_operator_block", None),
    ("dynweyl.classical_limit", "dynweyl", "classical_limit", None),
    ("dynweyl.denominators_are_local", "dynweyl", "denominators_are_local", None),
    ("geomsatake.verify_main_theorem_rank1", "geomsatake", "verify_main_theorem_rank1", None),
    ("geomsatake.levi_restriction_check", "geomsatake", "levi_restriction_check", None),
]

# The per-case entry points of the cli suites, all recorded as CASE.
CLI_CASE_WORKERS = ("_cocycle_case", "_levi_case", "_rep_case", "_rank1_case")


class Patches:
    """Replaces functions by spans and puts the originals back.

    A function is replaced in every namespace that binds it, not only in its
    defining module: dynweyl, for example, imports sl2_strings by name, and
    patching rep.sl2_strings alone would miss those calls.  Methods are
    replaced on their class, where every instance looks them up.
    """

    def __init__(self, namespaces):
        self.namespaces = list(namespaces)
        self.undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value):
        self.undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace(self, owner, path: str, make_span):
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        span = make_span(original)
        if outer:
            self._set(owner, attr, span)
            return
        for ns in [owner] + [ns for ns in self.namespaces if ns is not owner]:
            for name, value in list(vars(ns).items()):
                if value is original:
                    self._set(ns, name, span)

    def restore(self):
        while self.undo:
            owner, attr, original = self.undo.pop()
            setattr(owner, attr, original)
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")


def install(recorder: Recorder, modules: dict, namespaces, case_targets, traced: bool) -> Patches:
    """Wraps the case entry points, and every boundary when traced.

    `modules` maps layer names to dynwg modules; `case_targets` lists
    (owner, attribute) pairs that are recorded as CASE spans.
    """
    patches = Patches(namespaces)
    try:
        for owner, attr in case_targets:
            patches.replace(owner, attr, lambda fn: recorder.wrap(CASE, fn))
        if traced:
            for name, module, path, counter in BOUNDARIES:
                count = counter() if counter else None
                patches.replace(modules[module], path,
                                lambda fn, name=name, count=count: recorder.wrap(name, fn, count))
    except BaseException:
        patches.restore()
        raise
    return patches
