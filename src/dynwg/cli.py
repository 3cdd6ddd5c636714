"""Command-line surface: compute operator blocks, run verification suites,
print a representation's weights.  An irrep is read from and written to the
on-disk cache only under --cache-dir DIR; without it, every run builds.

Exit codes: 0 success, 1 verification failure, 2 usage error.
Every check is an exact identity and none draws random numbers; --seed is
accepted and echoed in reports only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass

from . import dynweyl, geomsatake, rep, rootdata
from .rootdata import LieType, RootDataError, Weight

USAGE_ERROR = 2
VERIFY_FAILURE = 1


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    algebra: LieType | None = None
    hw: Weight | None = None
    mu: Weight | None = None
    word: tuple[int, ...] = ()
    lambda_max: int = 8
    dim_cap: int = 500
    word_cap: int = 32
    fmt: str = "text"
    cache_dir: str | None = None
    seed: int = 0
    jobs: int = 1


def _structural_checks(block: dynweyl.OperatorBlock) -> list[str]:
    problems = []
    if not dynweyl.denominators_are_local(block):
        problems.append("denominator factor outside <x,coroot> - m*h")
    try:
        dynweyl.classical_limit(block)
    except dynweyl.DynWeylError as exc:
        problems.append(f"h=0 specialization: {exc}")
    return problems


# The irrep of the last cocycle or levi suite, keyed by the whole request
# (type, hw, cache_dir).  The suite fills it before its cases start, so its
# cases, and the pool workers forked after that, take V from here instead of
# building it or reading the cache once per case.
_irrep_memo: tuple[tuple, rep.Irrep] | None = None


def _suite_irrep(cfg: RunConfig) -> rep.Irrep:
    global _irrep_memo
    key = (cfg.algebra, cfg.hw, cfg.cache_dir)
    if _irrep_memo is not None and _irrep_memo[0] == key:
        rep.check_dim_cap(cfg.hw, _irrep_memo[1].dim, cfg.dim_cap)
    else:
        _irrep_memo = None  # let the old irrep go before the next one is built
        _irrep_memo = (key, rep.build_irrep(cfg.algebra, cfg.hw, dim_cap=cfg.dim_cap,
                                            cache_dir=cfg.cache_dir))
    return _irrep_memo[1]


# ---------------------------------------------------------------------------
# verification case workers (top-level for the process pool)


def _rank1_case(args) -> dict:
    lam, mu = args
    report = geomsatake.verify_main_theorem_rank1(lam, mu)
    return {
        "case": f"lambda={lam},mu={mu}",
        "ok": report.equal,
        "geometric": report.geometric.format(),
        "dynamical_shifted": report.dynamical_shifted.format(),
    }


def _cocycle_case(args) -> dict:
    cfg, mu, words = args
    V = _suite_irrep(cfg)
    key = f"cocycle:{cfg.algebra}:{list(cfg.hw.coords)}:{list(mu.coords)}"
    try:
        reference = dynweyl.word_operator_block(V, words[0], mu)
        problems = _structural_checks(reference)
        # in the order of their reversed letters, each word shares the longest
        # suffix, and so the most step products, with the word before it
        for word in sorted(words[1:], key=lambda w: w[::-1]):
            block = dynweyl.word_operator_block(V, word, mu)
            if block.equals(reference):
                continue  # same element and entries: the reference's problems
            problems.append(f"word {list(word)} disagrees with word {list(reference.word)}")
            problems.extend(_structural_checks(block))
    finally:
        V.word_steps.clear()  # the next case is at another mu and would drop them
    return {"case": key, "ok": not problems, "problems": sorted(set(problems)),
            "words_checked": len(words)}


def _levi_case(args) -> dict:
    cfg, i, mu = args
    V = _suite_irrep(cfg)
    cases = geomsatake.levi_restriction_check(V, i, mu)
    key = f"levi:{cfg.algebra}:{list(cfg.hw.coords)}:i={i}:{list(mu.coords)}"
    problems = [] if all(c.equal for c in cases) else ["stringwise geometric/dynamical mismatch"]
    problems.extend(_structural_checks(dynweyl.word_operator_block(V, (i,), mu)))
    return {"case": key, "ok": not problems, "problems": sorted(set(problems)),
            "strings": [[c.m, c.k] for c in cases]}


def _rep_case(args) -> dict:
    cfg, hw = args
    t = cfg.algebra
    predicted = rep.weyl_dimension(t, hw)
    rep.check_dim_cap(hw, predicted, cfg.dim_cap)
    # a stored entry is loaded and checked; a built irrep is stored only once it passes
    V = rep.load_cached_irrep(t, hw, cfg.cache_dir) if cfg.cache_dir is not None else None
    built = V is None
    if built:
        V = rep.build_irrep(t, hw, dim_cap=cfg.dim_cap)
    key = f"rep:{t}:{list(hw.coords)}"
    problems = []
    if V.dim != predicted:
        problems.append(f"dim {V.dim} != Weyl dimension {predicted}")
    for nu in V.weights():
        m = rep.freudenthal_multiplicity(t, hw, nu)
        if V.weight_dim(nu) != m:
            problems.append(f"multiplicity at {nu}: {V.weight_dim(nu)} != {m}")
    problems.extend(rep.check_chevalley_serre(V))
    if built and cfg.cache_dir is not None and not problems:
        rep.save_irrep(V, cfg.cache_dir)
    return {"case": key, "ok": not problems, "problems": problems, "dim": V.dim}


def _run_cases(worker, case_args, jobs: int) -> list[dict]:
    """Run worker on each case, in a pool of min(jobs, cases) processes if both exceed 1."""
    if jobs > 1 and len(case_args) > 1:
        # imported here, so that a process that starts no pool never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(case_args))) as pool:
            results = list(pool.map(worker, case_args))
    else:
        results = [worker(a) for a in case_args]
    return sorted(results, key=lambda r: r["case"])


# ---------------------------------------------------------------------------
# suites


def verify_satake_rank1(cfg: RunConfig) -> list[dict]:
    return _run_cases(_rank1_case, geomsatake.rank1_pairs(cfg.lambda_max), cfg.jobs)


def verify_cocycle(cfg: RunConfig) -> list[dict]:
    t, _ = _need_algebra_hw(cfg)
    w0 = rootdata.longest_element(t)
    words = tuple(rootdata.all_reduced_words(t, w0, cap=cfg.word_cap))
    V = _suite_irrep(cfg)
    case_args = [(cfg, nu, words) for nu in V.weights() if nu.is_dominant()]
    return _run_cases(_cocycle_case, case_args, cfg.jobs)


def verify_levi(cfg: RunConfig) -> list[dict]:
    t, _ = _need_algebra_hw(cfg)
    V = _suite_irrep(cfg)
    case_args = [(cfg, i, nu) for i in range(1, t.rank + 1) for nu in V.weights()
                 if nu.is_dominant()]
    return _run_cases(_levi_case, case_args, cfg.jobs)


def verify_rep(cfg: RunConfig) -> list[dict]:
    if cfg.algebra is None:
        raise UsageError("verify rep requires --algebra")
    t = cfg.algebra
    if cfg.hw is not None:
        hws = [cfg.hw]
    else:
        hws = rep.dominant_weights_up_to_dim(t, cfg.dim_cap)
    case_args = [(cfg, hw) for hw in hws]
    return _run_cases(_rep_case, case_args, cfg.jobs)


_SUITES = {
    "satake-rank1": verify_satake_rank1,
    "cocycle": verify_cocycle,
    "levi": verify_levi,
    "rep": verify_rep,
}


# ---------------------------------------------------------------------------
# commands


def _need_algebra_hw(cfg: RunConfig) -> tuple[LieType, Weight]:
    if cfg.algebra is None or cfg.hw is None:
        raise UsageError("this command requires --algebra and --hw")
    return cfg.algebra, cfg.hw


def cmd_op(cfg: RunConfig) -> int:
    t, hw = _need_algebra_hw(cfg)
    if cfg.mu is None:
        raise UsageError("op requires --mu")
    if not rootdata.is_reduced(t, cfg.word):
        raise UsageError(f"--word {list(cfg.word)} is not reduced")
    V = rep.build_irrep(t, hw, dim_cap=cfg.dim_cap, cache_dir=cfg.cache_dir)
    if cfg.mu not in V.basis:
        raise UsageError(f"--mu {cfg.mu} is not a weight of V({hw})")
    block = dynweyl.word_operator_block(V, cfg.word, cfg.mu)
    if cfg.fmt == "json":
        payload = block.to_json()
        payload["seed"] = cfg.seed
        print(json.dumps(payload, sort_keys=True))
    else:
        print(block.format())
    return 0


def cmd_verify(suite: str, cfg: RunConfig) -> int:
    cases = _SUITES[suite](cfg)
    ok = all(c["ok"] for c in cases)
    if cfg.fmt == "json":
        report = {
            "suite": suite,
            "seed": cfg.seed,
            "ok": ok,
            "cases": cases,
        }
        print(json.dumps(report, sort_keys=True))
    else:
        for c in cases:
            print(f"{'PASS' if c['ok'] else 'FAIL'}  {c['case']}")
            for p in c.get("problems", []):
                print(f"      {p}")
        print(f"{suite}: {sum(c['ok'] for c in cases)}/{len(cases)} cases pass")
    return 0 if ok else VERIFY_FAILURE


def cmd_rep_info(cfg: RunConfig) -> int:
    t, hw = _need_algebra_hw(cfg)
    V = rep.build_irrep(t, hw, dim_cap=cfg.dim_cap, cache_dir=cfg.cache_dir)
    if cfg.fmt == "json":
        info = {
            "algebra": str(t),
            "hw": list(hw.coords),
            "dim": V.dim,
            "weights": [
                {"coords": list(nu.coords), "multiplicity": V.weight_dim(nu)}
                for nu in V.weights()
            ],
            "seed": cfg.seed,
        }
        print(json.dumps(info, sort_keys=True))
    else:
        print(f"{t} V({hw}): dim {V.dim}")
        for nu in V.weights():
            print(f"  ({nu})  multiplicity {V.weight_dim(nu)}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def _parse_optional(self, arg_string):
        # a weight such as -1,-1 is a value, never an option
        if re.fullmatch(r"-\d+(,-?\d+)*", arg_string):
            return None
        return super()._parse_optional(arg_string)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dynwg",
        description="Exact dynamical Weyl group operators and their geometric verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--algebra", help="Lie type, e.g. A2, B2, G2")
        p.add_argument("--hw", help="highest weight, comma-separated, e.g. 1,1")
        p.add_argument("--mu", help="source weight, comma-separated")
        p.add_argument("--word", default="", help="Weyl word, comma-separated indices")
        p.add_argument("--lambda-max", type=int, default=8)
        p.add_argument("--dim-cap", type=int, default=500)
        p.add_argument("--word-cap", type=int, default=32)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--cache-dir", default=None)
        p.add_argument("--seed", type=int, default=0, help="echoed in reports; nothing is random")
        p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)

    common(sub.add_parser("op", help="compute one operator block"))
    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=sorted(_SUITES))
    common(pv)
    common(sub.add_parser("rep-info", help="print weights and multiplicities"))
    return parser


def _config_from_args(args) -> RunConfig:
    algebra = LieType.parse(args.algebra) if args.algebra else None
    hw = mu = None
    if args.hw is not None:
        if algebra is None:
            raise UsageError("--hw requires --algebra")
        hw = Weight.parse(args.hw, algebra.rank)
        if not hw.is_dominant():
            raise UsageError(f"--hw {hw} is not dominant")
    if args.mu is not None:
        if algebra is None:
            raise UsageError("--mu requires --algebra")
        mu = Weight.parse(args.mu, algebra.rank)
    if args.lambda_max < 0 or args.dim_cap < 1 or args.word_cap < 1 or args.jobs < 1:
        raise UsageError("caps and job counts must be positive")
    return RunConfig(
        algebra=algebra,
        hw=hw,
        mu=mu,
        word=rootdata.parse_word(args.word),
        lambda_max=args.lambda_max,
        dim_cap=args.dim_cap,
        word_cap=args.word_cap,
        fmt=args.format,
        cache_dir=args.cache_dir,
        seed=args.seed,
        jobs=args.jobs,
    )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "op":
            return cmd_op(cfg)
        if args.command == "verify":
            return cmd_verify(args.suite, cfg)
        return cmd_rep_info(cfg)
    except (UsageError, RootDataError, rep.RepError, dynweyl.DynWeylError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
