"""The four workloads: their input pools, seed-to-case rules, set-up and passes.

Every workload is a closed loop with one client: the next case starts only
when the previous one has returned, and every suite runs with jobs=1.

The seed picks inputs, never their amount: in the cocycle and levi-warm
pools, highest weights that the diagram automorphism swaps (A_n: reverse the
coordinates) form one orbit, and the seed picks one weight per orbit.
Swapped weights give isomorphic suites, so every seed does the same work on
different inputs and the end-to-end figures stay comparable across seeds.
rep-integrity runs its whole pool in an order the seed shuffles, and the
kernel's inputs take their coefficients from the seed and their shapes from
one fixed stream.
"""

from __future__ import annotations

import os
import random
import shutil
import sys
import tempfile
from fractions import Fraction

from spans import CLI_CASE_WORKERS


def case_rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{seed}:{workload}")


def orbit_key(series: str, coords: tuple[int, ...]) -> tuple[int, ...]:
    """Representative of a highest weight's orbit under the diagram automorphism."""
    if series == "A":
        return min(coords, tuple(reversed(coords)))
    return coords


def pick_per_orbit(seed: int, workload: str, pool: list[tuple[str, tuple[int, ...]]]):
    """One highest weight per orbit of `pool` (pairs of Lie type and coords),
    chosen by the seed; the result keeps the pool's order."""
    orbits: dict[tuple, list[tuple[str, tuple[int, ...]]]] = {}
    for algebra, coords in pool:
        orbits.setdefault((algebra, orbit_key(algebra[0], coords)), []).append((algebra, coords))
    rng = case_rng(seed, workload)
    chosen = {rng.choice(sorted(members)) for _, members in sorted(orbits.items())}
    return [item for item in pool if item in chosen]


def unit_label(algebra: str, coords) -> str:
    return f"{algebra}:{','.join(map(str, coords))}"


def _config(dw, algebra=None, coords=None, **kwargs):
    cli, rootdata = dw["cli"], dw["rootdata"]
    t = rootdata.LieType.parse(algebra) if algebra else None
    hw = rootdata.Weight(tuple(coords)) if coords is not None else None
    return cli.RunConfig(algebra=t, hw=hw, jobs=1, **kwargs)


class Workload:
    """select() is the seed-to-case rule and returns plain data; setup() makes
    what the passes share; units() returns (label, callable) pairs for one
    pass, each callable returning a list of case dicts."""

    name = ""
    # Seconds of one untraced pass with its set-up, on the 2-core machine the
    # benchmark was built on.  It sets the number of passes a run makes.
    PASS_S = 1.0
    # Boundaries that must record calls on this workload in a traced pass,
    # and in the traced set-up before it.
    active: tuple[str, ...] = ()
    setup_active: tuple[str, ...] = ()

    def select(self, seed: int, dw) -> dict:
        raise NotImplementedError

    def setup(self, plan: dict, dw, workdir: str) -> dict:
        return {}

    def teardown(self, ctx: dict) -> list[str]:
        """Releases what setup() made; returns problems found on the way."""
        return []

    def units(self, plan: dict, dw, ctx: dict):
        raise NotImplementedError

    def case_targets(self, dw):
        return [(dw["cli"], attr) for attr in CLI_CASE_WORKERS]


class SuiteWorkload(Workload):
    """One call of a cli suite per highest weight: the REFERENCE weights, then
    one weight per orbit of the pool that DIM_CAPS bounds."""

    SUITE = ""
    REFERENCE: list[tuple[str, tuple[int, ...]]] = []
    DIM_CAPS: tuple[tuple[str, int], ...] = ()

    def pool(self, dw):
        """Every dominant highest weight that DIM_CAPS admits."""
        pool = []
        for algebra, cap in self.DIM_CAPS:
            t = dw["rootdata"].LieType.parse(algebra)
            pool += [(algebra, hw.coords) for hw in dw["rep"].dominant_weights_up_to_dim(t, cap)]
        return pool

    def select(self, seed, dw):
        return {"irreps": self.REFERENCE + pick_per_orbit(seed, self.name, self.pool(dw)),
                "seed": seed}

    def units(self, plan, dw, ctx):
        cli = dw["cli"]
        cache_dir = ctx.get("cache_dir")
        return [
            (unit_label(algebra, coords),
             lambda cfg=_config(dw, algebra, coords, cache_dir=cache_dir, seed=plan["seed"]):
                 getattr(cli, self.SUITE)(cfg))
            for algebra, coords in plan["irreps"]
        ]


class Cocycle(SuiteWorkload):
    """verify cocycle on w0, no cache: each case rebuilds its irrep."""

    name = "cocycle"
    SUITE = "verify_cocycle"
    # The reference rows of the ROADMAP, run on every seed.
    REFERENCE = [("G2", (1, 1)), ("B2", (2, 2))]
    DIM_CAPS = (("A2", 48), ("B2", 20), ("G2", 14), ("A3", 10))
    PASS_S = 14.0
    active = (
        "ratfun.add", "ratfun.mul", "ratfun.eq", "ratfun.divide_by_form",
        "linalg.invert", "linalg.nullspace", "rep.build_irrep", "rep.sl2_strings",
        "rootdata.all_reduced_words", "dynweyl.simple_reflection_block",
        "dynweyl.word_operator_block", "dynweyl.classical_limit",
        "dynweyl.denominators_are_local", "cli.case",
    )


class RepIntegrity(SuiteWorkload):
    """verify rep, cold: irrep build, Weyl dimension, Freudenthal and Serre.

    Each highest weight is one case, and the case percentiles need at least
    100 of them, more than one weight per orbit leaves; so every weight of
    the pool runs, in an order the seed shuffles."""

    name = "rep-integrity"
    SUITE = "verify_rep"
    DIM_CAPS = (("A2", 100), ("A3", 100), ("B2", 100), ("G2", 100))
    PASS_S = 8.5
    active = (
        "linalg.invert", "rep.build_irrep", "rep.freudenthal_multiplicity",
        "rep.check_chevalley_serre", "cli.case",
    )

    def select(self, seed, dw):
        irreps = self.pool(dw)
        case_rng(seed, self.name).shuffle(irreps)
        return {"irreps": irreps, "seed": seed}


class LeviWarm(SuiteWorkload):
    """verify levi over many irreps plus verify satake-rank1, reading irreps
    from a private on-disk cache that set-up warms."""

    name = "levi-warm"
    SUITE = "verify_levi"
    DIM_CAPS = (("A2", 48), ("A3", 48), ("B2", 48), ("G2", 48))
    LAMBDA_MAX = 8
    PASS_S = 4.0
    active = (
        "ratfun.eq", "ratfun.substitute", "linalg.invert", "linalg.nullspace",
        "rep.build_irrep", "rep.load_cached_irrep", "rep.sl2_strings",
        "dynweyl.simple_reflection_block", "dynweyl.word_operator_block",
        "geomsatake.verify_main_theorem_rank1", "geomsatake.levi_restriction_check",
        "cli.case",
    )
    setup_active = ("rep.build_irrep", "rep.save_irrep")

    def setup(self, plan, dw, workdir):
        rep, rootdata = dw["rep"], dw["rootdata"]
        cache_dir = tempfile.mkdtemp(prefix="levi-cache-", dir=workdir)
        for algebra, coords in plan["irreps"]:
            rep.build_irrep(rootdata.LieType.parse(algebra), rootdata.Weight(coords),
                            cache_dir=cache_dir)
        return {"cache_dir": cache_dir}

    def teardown(self, ctx):
        cache_dir = ctx["cache_dir"]
        leftovers = sorted(f for f in os.listdir(cache_dir) if not f.endswith(".json"))
        shutil.rmtree(cache_dir)
        return [f"cache left {name}" for name in leftovers]

    def units(self, plan, dw, ctx):
        cli = dw["cli"]
        satake = _config(dw, lambda_max=self.LAMBDA_MAX, seed=plan["seed"])
        return super().units(plan, dw, ctx) + [
            ("satake-rank1", lambda: cli.verify_satake_rank1(satake))]


def random_form_spec(rng: random.Random, nx: int):
    while True:
        coeffs = tuple(rng.randint(-3, 3) for _ in range(nx))
        h = rng.randint(-3, 3)
        if any(coeffs) or h:
            return coeffs, h


def random_factored_spec(rng: random.Random, nx: int, shape_rng: random.Random | None = None):
    """A constant times <= 2 forms over <= 2 forms, coefficients in [-3, 3]:
    the input distribution of the repository's arithmetic-kernel gate.  The
    numbers of forms come from shape_rng when it is given, the rest from rng."""
    shape_rng = shape_rng or rng
    n_num, n_den = shape_rng.randint(0, 2), shape_rng.randint(0, 2)
    const = (rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 4))
    num = [random_form_spec(rng, nx) for _ in range(n_num)]
    den = [random_form_spec(rng, nx) for _ in range(n_den)]
    return const, num, den


def check_triple(ratfun, key: str, a, b, c, shift, eq_rng) -> dict:
    """The field and substitution identities on one triple of RatFuns."""
    zero = ratfun.RatFun.zero(a.nx)
    total = (a + b) + c
    ab = a * b
    checks = {
        "add_assoc": total == a + (b + c),
        "distrib": a * (b + c) == ab + a * c,
        "neg": a - a == zero,
        "div": b.is_zero() or (a / b) * b == a,
        "eval_self": ratfun.eq_by_evaluation(a, a + zero, eq_rng),
        "eval_agrees": (a == b) == ratfun.eq_by_evaluation(a, b, eq_rng),
        "subst_mul": ab.substitute(shift) == a.substitute(shift) * b.substitute(shift),
        "subst_add": (a + b).substitute(shift) == a.substitute(shift) + b.substitute(shift),
    }
    failed = sorted(k for k, ok in checks.items() if not ok)
    return {"case": key, "ok": not failed, "failed": failed,
            "sum": total.format(), "product": ab.format()}


class RatfunKernel(Workload):
    """Pure L1: the field identities on random factored RatFuns in 2 variables.

    The seed draws every constant and coefficient.  How many forms each input
    has, which sets most of its cost, comes from one stream that every seed
    shares, so that seeds differ in inputs but not in the amount of work."""

    name = "ratfun-kernel"
    NX = 2
    TRIPLES = 200
    PASS_S = 3.3
    active = (
        "ratfun.add", "ratfun.mul", "ratfun.div", "ratfun.substitute", "ratfun.eq",
        "ratfun.divide_by_form", "cli.case",
    )

    def select(self, seed, dw):
        rng, shape_rng = case_rng(seed, self.name), random.Random(f"shapes:{self.name}")
        return {"specs": [random_factored_spec(rng, self.NX, shape_rng)
                          for _ in range(3 * self.TRIPLES)],
                "seed": seed}

    def units(self, plan, dw, ctx):
        ratfun = dw["ratfun"]
        form = ratfun.DegreeOneForm.make

        def build(spec):
            (p, q), num, den = spec
            return ratfun.RatFun.from_factors(
                Fraction(p, q), [form(x, h) for x, h in num], [form(x, h) for x, h in den], self.NX)

        inputs = [build(spec) for spec in plan["specs"]]
        shift = [form([-1 if j == i else 0 for j in range(self.NX)], -1) for i in range(self.NX)]
        units = []
        for n in range(self.TRIPLES):
            key = f"triple:{n:04d}"
            a, b, c = inputs[3 * n:3 * n + 3]
            eq_rng = random.Random(f"{plan['seed']}:{key}")
            # check_triple is looked up at call time, so the case span wraps it
            units.append((key, lambda a=a, b=b, c=c, key=key, eq_rng=eq_rng:
                          [check_triple(ratfun, key, a, b, c, shift, eq_rng)]))
        return units

    def case_targets(self, dw):
        return [(sys.modules[__name__], "check_triple")]


WORKLOADS = {w.name: w for w in (Cocycle(), RepIntegrity(), RatfunKernel(), LeviWarm())}
