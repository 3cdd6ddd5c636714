"""Command-line surface: compute operator blocks, run verification suites,
manage the representation cache.

Exit codes: 0 success, 1 verification failure, 2 usage error.
Every check is an exact identity and none draws random numbers; --seed is
accepted and echoed in reports only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
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
    expected = rootdata.act(block.V.type, block.word, block.source)
    if block.target != expected:
        problems.append("block target differs from the word image of the source")
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


def _suite_irrep(t: LieType, hw: Weight, dim_cap: int, cache_dir: str | None) -> rep.Irrep:
    global _irrep_memo
    key = (t, hw, cache_dir)
    if _irrep_memo is not None and _irrep_memo[0] == key:
        rep.check_dim_cap(hw, _irrep_memo[1].dim, dim_cap)
    else:
        _irrep_memo = None  # let the old irrep go before the next one is built
        _irrep_memo = (key, rep.build_irrep(t, hw, dim_cap=dim_cap, cache_dir=cache_dir))
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
    algebra, hw_coords, mu_coords, words, dim_cap, cache_dir = args
    V = _suite_irrep(LieType.parse(algebra), Weight.make(hw_coords), dim_cap, cache_dir)
    mu = Weight.make(mu_coords)
    key = f"cocycle:{algebra}:{hw_coords}:{mu_coords}"
    try:
        reference = dynweyl.word_operator_block(V, tuple(words[0]), mu)
        problems = _structural_checks(reference)
        # in the order of their reversed letters, each word shares the longest
        # suffix, and so the most step products, with the word before it
        for word in sorted(words[1:], key=lambda w: w[::-1]):
            block = dynweyl.word_operator_block(V, tuple(word), mu)
            if block.equals(reference):
                continue  # same element and entries: the reference's problems
            problems.append(f"word {list(word)} disagrees with word {list(reference.word)}")
            problems.extend(_structural_checks(block))
    finally:
        V.word_steps.clear()  # the next case is at another mu and would drop them
    return {"case": key, "ok": not problems, "problems": sorted(set(problems)),
            "words_checked": len(words)}


def _levi_case(args) -> dict:
    algebra, hw_coords, i, mu_coords, dim_cap, cache_dir = args
    V = _suite_irrep(LieType.parse(algebra), Weight.make(hw_coords), dim_cap, cache_dir)
    mu = Weight.make(mu_coords)
    key = f"levi:{algebra}:{hw_coords}:i={i}:{mu_coords}"
    report = geomsatake.levi_restriction_check(V, i, mu)
    problems = [] if report.ok else ["stringwise geometric/dynamical mismatch"]
    problems.extend(_structural_checks(report.block))
    return {"case": key, "ok": not problems, "problems": sorted(set(problems)),
            "strings": [[c.m, c.k] for c in report.cases]}


def _rep_case(args) -> dict:
    algebra, hw_coords, dim_cap, cache_dir = args
    t = LieType.parse(algebra)
    hw = Weight.make(hw_coords)
    V = rep.build_irrep(t, hw, dim_cap=dim_cap, cache_dir=cache_dir)
    key = f"rep:{algebra}:{hw_coords}"
    problems = []
    predicted = rep.weyl_dimension(t, hw)
    if V.dim != predicted:
        problems.append(f"dim {V.dim} != Weyl dimension {predicted}")
    for nu in V.weights():
        m = rep.freudenthal_multiplicity(t, hw, nu)
        if V.weight_dim(nu) != m:
            problems.append(f"multiplicity at {nu}: {V.weight_dim(nu)} != {m}")
    problems.extend(rep.check_chevalley_serre(V))
    return {"case": key, "ok": not problems, "problems": problems, "dim": V.dim}


def _run_cases(worker, case_args, jobs: int) -> list[dict]:
    if jobs > 1 and len(case_args) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(worker, case_args))
    else:
        results = [worker(a) for a in case_args]
    return sorted(results, key=lambda r: r["case"])


# ---------------------------------------------------------------------------
# suites


def verify_satake_rank1(cfg: RunConfig) -> list[dict]:
    return _run_cases(_rank1_case, geomsatake.rank1_pairs(cfg.lambda_max), cfg.jobs)


def verify_cocycle(cfg: RunConfig) -> list[dict]:
    t, hw = _need_algebra_hw(cfg)
    w0 = rootdata.longest_element(t)
    words = [list(w) for w in rootdata.all_reduced_words(t, w0, cap=cfg.word_cap)]
    V = _suite_irrep(t, hw, cfg.dim_cap, cfg.cache_dir)
    case_args = [
        (str(t), list(hw.coords), list(nu.coords), words, cfg.dim_cap, cfg.cache_dir)
        for nu in V.weights()
        if nu.is_dominant()
    ]
    return _run_cases(_cocycle_case, case_args, cfg.jobs)


def verify_levi(cfg: RunConfig) -> list[dict]:
    t, hw = _need_algebra_hw(cfg)
    V = _suite_irrep(t, hw, cfg.dim_cap, cfg.cache_dir)
    case_args = [
        (str(t), list(hw.coords), i, list(nu.coords), cfg.dim_cap, cfg.cache_dir)
        for i in range(1, t.rank + 1)
        for nu in V.weights()
        if nu.is_dominant()
    ]
    return _run_cases(_levi_case, case_args, cfg.jobs)


def verify_rep(cfg: RunConfig) -> list[dict]:
    if cfg.algebra is None:
        raise UsageError("verify rep requires --algebra")
    t = cfg.algebra
    if cfg.hw is not None:
        hws = [cfg.hw]
    else:
        hws = rep.dominant_weights_up_to_dim(t, cfg.dim_cap)
    case_args = [(str(t), list(hw.coords), cfg.dim_cap, cfg.cache_dir) for hw in hws]
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
    if not cfg.mu.is_dominant():
        raise UsageError(f"--mu {cfg.mu} is not dominant")
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
    if suite not in _SUITES:
        raise UsageError(f"unknown suite {suite!r} (choose from {sorted(_SUITES)})")
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


def cmd_cache(action: str, cfg: RunConfig) -> int:
    cache_dir = cfg.cache_dir or rep.default_cache_dir()
    if action == "list":
        for name in rep.cache_files(cache_dir):
            if name.endswith(".json"):  # an entry
                print(name)
        return 0
    if action == "clear":
        for name in rep.cache_files(cache_dir):
            try:
                os.unlink(os.path.join(cache_dir, name))
            except OSError as exc:
                print(f"cannot remove {exc.filename}: {exc.strerror}", file=sys.stderr)
                return USAGE_ERROR
        return 0
    if action == "warm":
        if cfg.algebra is None:
            raise UsageError("cache warm requires --algebra")
        if cfg.hw is not None:
            hws = [cfg.hw]
        else:
            hws = rep.dominant_weights_up_to_dim(cfg.algebra, cfg.dim_cap)
        for hw in hws:
            rep.build_irrep(cfg.algebra, hw, dim_cap=cfg.dim_cap, cache_dir=cache_dir)
            print(f"warm {cfg.algebra} hw={hw}")
        return 0
    raise UsageError(f"unknown cache action {action!r}")


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        p.add_argument("--no-cache", action="store_true", help="disable the irrep cache")
        p.add_argument("--seed", type=int, default=0, help="echoed in reports; nothing is random")
        p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)

    common(sub.add_parser("op", help="compute one operator block"))
    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=sorted(_SUITES))
    common(pv)
    pc = sub.add_parser("cache", help="manage the irrep cache")
    pc.add_argument("action", choices=("list", "clear", "warm"))
    common(pc)
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
    if args.no_cache:
        cache_dir = None
    else:
        cache_dir = args.cache_dir or rep.default_cache_dir()
    return RunConfig(
        algebra=algebra,
        hw=hw,
        mu=mu,
        word=rootdata.parse_word(args.word),
        lambda_max=args.lambda_max,
        dim_cap=args.dim_cap,
        word_cap=args.word_cap,
        fmt=args.format,
        cache_dir=cache_dir,
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
        if args.command == "cache":
            return cmd_cache(args.action, cfg)
        if args.command == "rep-info":
            return cmd_rep_info(cfg)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, RootDataError, rep.RepError, dynweyl.DynWeylError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
