import concurrent.futures
import dataclasses
import hashlib
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from dynwg import cli, dynweyl, geomsatake, ratfun, rep, rootdata
from dynwg.ratfun import DegreeOneForm, RatFun
from ratfun_text import parse_ratfun

A3 = rootdata.LieType.parse("A3")


def run(capsys, *args):
    code = cli.main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture()
def cache_args(tmp_path):
    return ["--cache-dir", str(tmp_path), "--jobs", "1"]


def test_op_rank1(capsys, cache_args):
    code, out, _ = run(capsys, "op", "--algebra", "A1", "--hw", "2", "--mu", "0",
                       "--word", "1", *cache_args)
    assert code == 0
    # the printed matrix entry is the rank-1 scalar
    entry = out.strip().splitlines()[-1].strip().strip("[]")
    assert parse_ratfun(entry, 1) == parse_ratfun("-(x1+2*h)/x1", 1)


def test_op_json_and_identity(capsys, cache_args):
    code, out, _ = run(capsys, "op", "--algebra", "A2", "--hw", "1,1", "--mu", "0,0",
                       "--word", "1,2,1", "--format", "json", "--seed", "3", *cache_args)
    assert code == 0
    obj = json.loads(out)
    assert obj["seed"] == 3
    assert len(obj["matrix"]) == 2
    code, out, _ = run(capsys, "op", "--algebra", "A2", "--hw", "1,1", "--mu", "0,0",
                       "--word", "", *cache_args)
    assert code == 0
    # empty word: identity block on V_(0,0)
    assert "V_(0,0) -> V_(0,0)" in out
    rows = [line.strip() for line in out.strip().splitlines()[1:]]
    assert rows == ["[1,  0]", "[0,  1]"]


def test_op_usage_errors(capsys, cache_args):
    code, _, err = run(capsys, "op", "--algebra", "A2", "--hw", "1,1", "--mu", "0,-1",
                       "--word", "1", *cache_args)
    assert code == 2 and err == "error: --mu 0,-1 is not a weight of V(1,1)\n"
    code, _, err = run(capsys, "op", "--algebra", "A2", "--hw", "1,1", "--mu", "0,0",
                       "--word", "1,1", *cache_args)
    assert code == 2 and "reduced" in err
    code, _, err = run(capsys, "op", "--algebra", "A2", "--hw", "1,1", *cache_args)
    assert code == 2
    code, _, err = run(capsys, "op", "--algebra", "Q5", "--hw", "1", "--mu", "1",
                       "--word", "1", *cache_args)
    assert code == 2
    for hw, word, bad in (("1,1", "1,,2", "1,,2"), ("1,x", "1", "1,x"), ("1,1", "1,x", "1,x")):
        code, _, err = run(capsys, "op", "--algebra", "A2", "--hw", hw, "--mu", "0,0",
                           "--word", word, *cache_args)
        assert code == 2 and f"'{bad}' is not a comma-separated list of integers" in err
        assert "invalid literal" not in err


def test_op_at_a_negative_weight(capsys, cache_args):
    code, out, _ = run(capsys, "op", "--algebra", "A2", "--hw", "1,1", "--mu=-1,-1",
                       "--word", "1,2,1", *cache_args)
    V = rep.build_irrep(rootdata.LieType.parse("A2"), rootdata.Weight((1, 1)))
    block = dynweyl.word_operator_block(V, (1, 2, 1), rootdata.Weight((-1, -1)))
    assert code == 0 and out == block.format() + "\n"
    assert "V_(-1,-1) -> V_(1,1)" in out
    # the spaced form is read as the same value, not as an option
    assert run(capsys, "op", "--algebra", "A2", "--hw", "1,1", "--mu", "-1,-1",
               "--word", "1,2,1", *cache_args) == (0, out, "")


USAGE_ERRORS = {
    "verify rep": "verify rep requires --algebra",
    "rep-info --algebra A2": "this command requires --algebra and --hw",
    "rep-info --hw 1,1": "--hw requires --algebra",
    "rep-info --algebra A2 --hw 1,-1": "--hw 1,-1 is not dominant",
    "op --mu 0,0": "--mu requires --algebra",
}


@pytest.mark.parametrize("argv", list(USAGE_ERRORS))
def test_missing_or_non_dominant_arguments_are_usage_errors(capsys, argv):
    assert run(capsys, *argv.split()) == (2, "", f"error: {USAGE_ERRORS[argv]}\n")


def test_verify_satake_rank1(capsys, cache_args):
    code, out, _ = run(capsys, "verify", "satake-rank1", "--lambda-max", "6", *cache_args)
    assert code == 0
    assert "satake-rank1: 16/16 cases pass" in out


def test_verify_cocycle_and_levi(capsys, cache_args):
    code, out, _ = run(capsys, "verify", "cocycle", "--algebra", "A2", "--hw", "1,1",
                       *cache_args)
    assert code == 0 and "2/2 cases pass" in out
    code, out, _ = run(capsys, "verify", "levi", "--algebra", "A2", "--hw", "1,1",
                       *cache_args)
    assert code == 0 and "cases pass" in out


def test_verify_rep(capsys, cache_args):
    code, out, _ = run(capsys, "verify", "rep", "--algebra", "A2", "--dim-cap", "15",
                       *cache_args)
    assert code == 0
    assert all(line.startswith("PASS") for line in out.splitlines()[:-1])


def test_verify_rep_builds_over_the_default_cap_under_dim_cap(capsys, cache_args):
    # dim V(600) = 601 exceeds build_irrep's default cap of 500
    code, out, _ = run(capsys, "verify", "rep", "--algebra", "A1", "--hw", "600",
                       "--dim-cap", "601", *cache_args)
    assert code == 0 and out.splitlines() == ["PASS  rep:A1:[600]", "rep: 1/1 cases pass"]


def test_verify_rep_refuses_an_irrep_over_dim_cap(capsys, cache_args):
    code, out, err = run(capsys, "verify", "rep", "--algebra", "A1", "--hw", "30",
                         "--dim-cap", "5", *cache_args)
    assert code == 2 and out == "" and "dim V(30) = 31 exceeds the cap 5" in err


def test_verify_failure_exit_code(capsys, cache_args, monkeypatch):
    # force one failing case to exercise the exit-code contract
    original = geomsatake.verify_main_theorem_rank1

    def broken(lam, mu):
        return dataclasses.replace(original(lam, mu), equal=False)

    monkeypatch.setattr(geomsatake, "verify_main_theorem_rank1", broken)
    code, out, _ = run(capsys, "verify", "satake-rank1", "--lambda-max", "0", *cache_args)
    assert code == 1 and "FAIL" in out


def test_json_reports_deterministic(capsys, cache_args):
    args = ["verify", "cocycle", "--algebra", "A2", "--hw", "1,0",
            "--format", "json", "--seed", "11", *cache_args]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["seed"] == 11 and obj["suite"] == "cocycle" and obj["ok"] is True


def test_no_cache_unless_a_directory_is_named(capsys, tmp_path, monkeypatch):
    home, env = tmp_path / "home", tmp_path / "env"
    home.mkdir()
    env.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("DYNWG_CACHE", str(env))
    for command in (["op", "--algebra", "A2", "--hw", "1,0", "--mu", "1,0", "--word", "1"],
                    ["rep-info", "--algebra", "B2", "--hw", "0,1"],
                    ["verify", "levi", "--algebra", "A2", "--hw", "1,1"]):
        code, _, err = run(capsys, *command, "--jobs", "1")
        assert code == 0 and not err
    assert not list(home.rglob("*")) and not list(env.iterdir())
    with pytest.raises(SystemExit) as usage:
        cli.main(["cache", "list"])
    assert usage.value.code == 2


def test_rep_info(capsys, cache_args):
    code, out, _ = run(capsys, "rep-info", "--algebra", "A2", "--hw", "1,0",
                       "--format", "json", *cache_args)
    assert code == 0
    obj = json.loads(out)
    assert obj["dim"] == 3 and len(obj["weights"]) == 3


def test_bad_caps_rejected(capsys, cache_args):
    code, _, err = run(capsys, "verify", "satake-rank1", "--dim-cap", "0", *cache_args)
    assert code == 2


@pytest.fixture()
def builds(monkeypatch):
    """The (type, hw, cache_dir) of every rep.build_irrep call, with an empty
    suite irrep memo to start from."""
    monkeypatch.setattr(cli, "_irrep_memo", None)
    calls = []
    original = rep.build_irrep

    def counted(t, hw, dim_cap=500, cache_dir=None):
        calls.append((str(t), hw.coords, cache_dir))
        return original(t, hw, dim_cap=dim_cap, cache_dir=cache_dir)

    monkeypatch.setattr(rep, "build_irrep", counted)
    return calls


def test_suite_builds_its_irrep_once(capsys, tmp_path, builds):
    code, out, _ = run(capsys, "verify", "cocycle", "--algebra", "B2", "--hw", "1,1",
                       "--jobs", "1")
    assert code == 0 and "2/2 cases pass" in out
    assert builds == [("B2", (1, 1), None)]
    code, out, _ = run(capsys, "verify", "levi", "--algebra", "A2", "--hw", "2,1",
                       "--cache-dir", str(tmp_path), "--jobs", "1")
    assert code == 0 and "6/6 cases pass" in out
    assert builds[1:] == [("A2", (2, 1), str(tmp_path))]


def test_suites_share_an_irrep_only_for_the_same_request(capsys, tmp_path, builds):
    first, second = tmp_path / "first", tmp_path / "second"
    suite = ["verify", "levi", "--algebra", "A2", "--jobs", "1"]
    run(capsys, *suite, "--hw", "1,0", "--cache-dir", str(first))
    run(capsys, *suite, "--hw", "1,0", "--cache-dir", str(first))
    run(capsys, *suite, "--hw", "0,1", "--cache-dir", str(first))
    run(capsys, *suite, "--hw", "0,1", "--cache-dir", str(second))
    assert builds == [("A2", (1, 0), str(first)), ("A2", (0, 1), str(first)),
                      ("A2", (0, 1), str(second))]
    assert [p.name for p in second.iterdir()] == ["A2__0_1.v1.json"]
    # a held irrep still answers to the dimension cap
    code, _, err = run(capsys, *suite, "--hw", "0,1", "--cache-dir", str(second),
                       "--dim-cap", "2")
    assert code == 2 and "exceeds the cap 2" in err


@pytest.mark.parametrize("suite", ["cocycle", "levi"])
def test_pool_output_matches_serial(capsys, tmp_path, suite):
    args = ["verify", suite, "--algebra", "A2", "--hw", "1,1", "--format", "json",
            "--seed", "5", "--cache-dir", str(tmp_path)]
    code1, out1, _ = run(capsys, *args, "--jobs", "1")
    code2, out2, _ = run(capsys, *args, "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2 and json.loads(out1)["ok"] is True


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replaces ProcessPoolExecutor by a pool that maps in-process and starts
    no process; returns the list of the max_workers it was asked for."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes


def test_pool_is_sized_to_the_work(capsys, monkeypatch, pool_sizes):
    # the pool class is looked up only when a pool starts, so the fake is the one used
    assert not hasattr(cli, "ProcessPoolExecutor")
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    code, out, _ = run(capsys, "verify", "levi", "--algebra", "A2", "--hw", "1,1",
                       "--jobs", "64")
    assert code == 0 and out.splitlines()[-1] == "levi: 4/4 cases pass"
    assert pool_sizes == [4]


@pytest.mark.parametrize("cpus, sizes", [(2, [2]), (1, []), (None, [])])
def test_pool_starts_at_most_one_worker_per_cpu(capsys, monkeypatch, pool_sizes, cpus, sizes):
    # 10 cases and --jobs 64: one worker per CPU, and no pool on one CPU or
    # where the count is unknown
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    code, out, _ = run(capsys, "verify", "rep", "--algebra", "B2", "--dim-cap", "35",
                       "--jobs", "64")
    assert code == 0 and out.splitlines()[-1] == "rep: 10/10 cases pass"
    assert pool_sizes == sizes


_POOL_PROBE = """
import contextlib, io, json, sys
from dynwg import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
loaded = [m for m in ("concurrent.futures.process", "multiprocessing") if m in sys.modules]
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_one_shot_commands_never_load_the_pool():
    argvs = [
        ["op", "--algebra", "A2", "--hw", "1,1", "--mu", "0,0", "--word", "1,2,1"],
        ["rep-info", "--algebra", "B2", "--hw", "1,1"],
        ["verify", "rep", "--algebra", "A2", "--hw", "1,1", "--jobs", "1"],
        ["verify", "levi", "--algebra", "A1", "--hw", "1", "--jobs", "4"],  # one case
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH", "")]))
    probe = subprocess.run([sys.executable, "-c", _POOL_PROBE, json.dumps(argvs)],
                           capture_output=True, text=True, env=env, timeout=120)
    assert probe.returncode == 0, probe.stderr
    assert json.loads(probe.stdout) == {"codes": [0, 0, 0, 0], "loaded": []}


def test_verify_rep_stores_an_irrep_only_once_it_passes(capsys, tmp_path, monkeypatch):
    args = ["verify", "rep", "--algebra", "A2", "--hw", "1,1", "--cache-dir", str(tmp_path),
            "--jobs", "1"]
    entry = tmp_path / "A2__1_1.v1.json"
    monkeypatch.setattr(rep, "check_chevalley_serre", lambda V: ["injected Serre failure"])
    code, out, _ = run(capsys, *args)
    assert code == 1 and "injected Serre failure" in out
    assert not entry.exists()
    monkeypatch.undo()
    assert run(capsys, *args)[0] == 0 and entry.exists()
    # a stored entry is loaded, not rebuilt, and still checked
    monkeypatch.setattr(rep, "build_irrep", lambda *a, **k: pytest.fail("entry rebuilt"))
    monkeypatch.setattr(rep, "check_chevalley_serre", lambda V: ["injected Serre failure"])
    code, out, _ = run(capsys, *args)
    assert code == 1 and "injected Serre failure" in out


@pytest.mark.parametrize("oracle, wrong, problem", [
    ("weyl_dimension", lambda original, t, hw: original(t, hw) + 1, "dim 8 != Weyl dimension 9"),
    ("freudenthal_multiplicity",
     lambda original, t, hw, nu: original(t, hw, nu) + (nu == rootdata.Weight((0, 0))),
     "multiplicity at 0,0: 2 != 3"),
])
def test_verify_rep_reports_a_wrong_dimension_or_multiplicity(capsys, tmp_path, monkeypatch,
                                                              oracle, wrong, problem):
    original = getattr(rep, oracle)
    monkeypatch.setattr(rep, oracle, lambda *args: wrong(original, *args))
    code, out, _ = run(capsys, "verify", "rep", "--algebra", "A2", "--hw", "1,1",
                       "--cache-dir", str(tmp_path), "--jobs", "1")
    assert code == 1
    assert out.splitlines() == ["FAIL  rep:A2:[1, 1]", f"      {problem}", "rep: 0/1 cases pass"]
    assert list(tmp_path.iterdir()) == []


def test_case_without_held_irrep_builds_under_the_suite_cap(builds):
    # dim V(501) = 502 exceeds build_irrep's default cap of 500; a case that
    # finds no held irrep (a spawned pool worker) builds under the suite's cap
    hw = rootdata.Weight((501,))
    cfg = cli.RunConfig(algebra=rootdata.LieType.parse("A1"), hw=hw, dim_cap=502)
    case = cli._cocycle_case((cfg, hw, ((1,),)))
    assert case["ok"] and builds == [("A1", (501,), None)]


def test_levi_builds_one_block_per_case(capsys, monkeypatch):
    calls = {"simple_reflection_block": 0, "word_operator_block": 0}
    for name in calls:
        original = getattr(dynweyl, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in (cli, dynweyl, geomsatake):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    code, out, _ = run(capsys, "verify", "levi", "--algebra", "A2", "--hw", "2,1",
                       "--jobs", "1")
    assert code == 0 and "6/6 cases pass" in out
    assert calls == {"simple_reflection_block": 6, "word_operator_block": 6}


def test_levi_decomposes_each_weight_once(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_irrep_memo", None)  # no string data held from earlier runs
    original = rep.sl2_strings
    calls = []

    def counted(V, i, nu):
        if (i, nu) not in V.string_parts:  # a call that decomposes, not a memo hit
            calls.append((i, nu))
        return original(V, i, nu)

    for module in (cli, dynweyl, geomsatake, rep):
        if getattr(module, "sl2_strings", None) is original:
            monkeypatch.setattr(module, "sl2_strings", counted)
    code, out, _ = run(capsys, "verify", "levi", "--algebra", "A2", "--hw", "2,1",
                       "--jobs", "1")
    assert code == 0 and "6/6 cases pass" in out
    assert len(calls) == len(set(calls)) == 6  # one per (i, mu)


def test_cocycle_composes_each_shared_suffix_once(monkeypatch):
    # A3 (1,0,0) has one case, at its highest weight, with 16 words of 6
    # letters: 96 blocks one word at a time, 66 when each word reuses the
    # step products of its longest common suffix with the word before it
    monkeypatch.setattr(cli, "_irrep_memo", None)
    original = dynweyl.simple_reflection_block
    calls = []

    def counted(V, i, nu, xi):
        calls.append((i, nu, xi))
        return original(V, i, nu, xi)

    monkeypatch.setattr(dynweyl, "simple_reflection_block", counted)
    hw = rootdata.Weight((1, 0, 0))
    words = tuple(rootdata.all_reduced_words(A3, rootdata.longest_element(A3)))
    case = cli._cocycle_case((cli.RunConfig(algebra=A3, hw=hw), hw, words))
    assert case["ok"] and case["words_checked"] == 16
    assert len(calls) <= 66
    assert not cli._irrep_memo[1].word_steps  # released at the end of the case


def _count_calls(monkeypatch, owner, name):
    """Counts the calls of owner.name for the rest of the test."""
    original, calls = getattr(owner, name), []

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_cocycle_reduces_each_distinct_product_once(monkeypatch, fresh_rank1_memos):
    # the 16 words of w0 in A3 have one unreduced product on V(1,0,0) at its
    # highest weight, so the one entry is reduced, by one product, once
    monkeypatch.setattr(cli, "_irrep_memo", None)
    muls = _count_calls(monkeypatch, RatFun, "__mul__")
    hw = rootdata.Weight((1, 0, 0))
    words = tuple(rootdata.all_reduced_words(A3, rootdata.longest_element(A3)))
    case = cli._cocycle_case((cli.RunConfig(algebra=A3, hw=hw), hw, words))
    assert case["ok"] and case["words_checked"] == 16
    assert len(muls) == 1


def test_cocycle_trial_divisions_on_b2(capsys, monkeypatch, fresh_rank1_memos):
    # 2,068 before the rank-1 coefficients were built in lowest terms and
    # an equal product was reduced once, and 1,606 before products were
    # compared in lowest terms
    monkeypatch.setattr(cli, "_irrep_memo", None)
    divisions = _count_calls(monkeypatch, ratfun.Polynomial, "divide_by_form")
    code, out, _ = run(capsys, "verify", "cocycle", "--algebra", "B2", "--hw", "2,2",
                       "--jobs", "1")
    assert code == 0 and "cases pass" in out
    assert len(divisions) <= 1472


def test_blocks_of_two_words_share_entries_but_no_row_list():
    V = rep.build_irrep(A3, rootdata.Weight((1, 1, 0)))
    mu = rootdata.Weight((0, 0, 1))
    first, second = rootdata.all_reduced_words(A3, rootdata.longest_element(A3))[:2]
    a = dynweyl.word_operator_block(V, first, mu)
    b = dynweyl.word_operator_block(V, second, mu)
    assert a.equals(b) and len(a.matrix) > 1
    assert not {id(row) for row in a.matrix} & {id(row) for row in b.matrix}
    a.matrix[0][0] = RatFun.zero(3)  # the next word's block is not changed through a
    c = dynweyl.word_operator_block(V, first, mu)
    assert c.equals(b) and all(x is y for rc, rb in zip(c.matrix, b.matrix)
                               for x, y in zip(rc, rb))


def test_cocycle_suite_releases_its_step_products(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_irrep_memo", None)
    code, out, _ = run(capsys, "verify", "cocycle", "--algebra", "B2", "--hw", "2,2",
                       "--jobs", "1")
    assert code == 0 and "cases pass" in out
    assert cli._irrep_memo[1].word_steps == {}


def test_term_cap_stops_composition_with_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(dynweyl, "TERM_CAP", 10)
    code, out, err = run(capsys, "verify", "cocycle", "--algebra", "B2", "--hw", "2,2",
                         "--jobs", "1")
    assert code == 2 and not out
    found = re.fullmatch(r"error: A_w on V_\((\d+),(\d+)\): (\d+) numerator terms after step"
                         r" ([234]) of 4, over the cap of 10\n", err)
    assert found and int(found[3]) > 10, err
    assert cli._irrep_memo[1].word_steps == {}  # released by the case that stopped


def test_degree_cap_stops_composition_with_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(dynweyl, "MAX_DEGREE", 1)
    code, out, err = run(capsys, "op", "--algebra", "A2", "--hw", "1,1", "--mu=-1,-1",
                         "--word", "1,2,1")
    assert (code, out) == (2, "")
    assert err == "error: A_w on V_(-1,-1): numerator degree 2 after step 2 of 3, over 1\n"


def test_unwritable_cache_is_a_usage_error(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    cache_dir = blocker / "cache"  # under a regular file: no directory can be made
    code, out, err = run(capsys, "verify", "levi", "--algebra", "A2", "--hw", "1,0",
                         "--cache-dir", str(cache_dir), "--jobs", "1")
    assert code == 2 and not out
    assert err.startswith(f"error: cannot write the irrep cache entry {cache_dir}")
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.rglob("*")] == ["file"]


@pytest.mark.parametrize("command", [["rep-info"], ["verify", "rep"]])
def test_cache_entry_that_is_a_directory_is_a_usage_error(capsys, tmp_path, command):
    entry = tmp_path / rep.cache_filename(rootdata.LieType.parse("A2"), rootdata.Weight((1, 1)))
    entry.mkdir()
    assert rep.load_cached_irrep(rootdata.LieType.parse("A2"), rootdata.Weight((1, 1)),
                                 str(tmp_path)) is None
    code, out, err = run(capsys, *command, "--algebra", "A2", "--hw", "1,1",
                         "--cache-dir", str(tmp_path), "--jobs", "1")
    assert code == 2 and not out
    assert err == f"error: cannot write the irrep cache entry {entry}: Is a directory\n"
    assert [p.name for p in tmp_path.rglob("*")] == [entry.name]


def test_rank1_memos_are_bounded():
    for memo in (dynweyl.rank1_coefficient, geomsatake._string_comparison):
        assert memo.cache_info().maxsize == 4096


@pytest.fixture()
def fresh_rank1_memos():
    """Empty rank-1 memos before and after a test, so that no entry made
    under a mutation, or before it, is seen by another test."""
    memos = (dynweyl.rank1_coefficient, geomsatake._string_comparison)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


def _sign_flipped(original):
    # the closed form with (-1)^(k+1) in place of (-1)^k
    return lambda m, k, xi: original(m, k, xi).scale(-1)


def _chambers_swapped(original):
    # the s-to-e transition in place of the e-to-s one
    return lambda lam, mu, xi: RatFun.from_factors(
        1, geomsatake.costalk_weights(lam, mu, "e", xi),
        geomsatake.costalk_weights(lam, mu, "s", xi), xi.nx)


@pytest.mark.parametrize("name, mutate", [("rank1_coefficient", _sign_flipped),
                                          ("hyperbolic_transition", _chambers_swapped)])
def test_rank1_mutations_fail_levi_and_satake(capsys, cache_args, monkeypatch,
                                              fresh_rank1_memos, name, mutate):
    original = getattr(geomsatake, name)
    for module in (dynweyl, geomsatake):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, mutate(original))
    code, out, _ = run(capsys, "verify", "levi", "--algebra", "A2", "--hw", "1,1", *cache_args)
    assert code == 1 and "stringwise geometric/dynamical mismatch" in out
    code, out, _ = run(capsys, "verify", "satake-rank1", "--lambda-max", "2", *cache_args)
    assert code == 1 and "FAIL  lambda=2,mu=0" in out


def test_cocycle_checks_a_disagreeing_block(monkeypatch):
    original = dynweyl.word_operator_block
    bad = RatFun.from_factors(1, [], [DegreeOneForm.make([1, 0], 5)], 2)  # 1/(x1+5h)

    def corrupted(V, word, mu):
        block = original(V, word, mu)
        if word == (2, 1, 2):
            block.matrix[0][0] = block.matrix[0][0] + bad
        return block

    monkeypatch.setattr(dynweyl, "word_operator_block", corrupted)
    cfg = cli.RunConfig(algebra=rootdata.LieType.parse("A2"), hw=rootdata.Weight((1, 1)))
    case = cli._cocycle_case((cfg, rootdata.Weight((0, 0)), ((1, 2, 1), (2, 1, 2))))
    assert not case["ok"]
    assert "word [2, 1, 2] disagrees with word [1, 2, 1]" in case["problems"]
    assert "denominator factor outside <x,coroot> - m*h" in case["problems"]


def test_structural_checks_bind_locality_to_the_word():
    # x2 = <x, coroot_2> is a local denominator for a word that crosses
    # coroot_2, but the word (1,) crosses only coroot_1
    V = rep.build_irrep(rootdata.LieType.parse("A2"), rootdata.Weight((1, 1)))
    block = dynweyl.word_operator_block(V, (1,), rootdata.Weight((0, 0)))
    assert cli._structural_checks(block) == []
    block.matrix[0][0] = block.matrix[0][0] * parse_ratfun("(x2+h)/x2", 2)
    assert not block.matrix[0][0].is_zero()
    assert cli._structural_checks(block) == ["denominator factor outside <x,coroot> - m*h"]


def test_cocycle_checks_each_distinct_block_once(capsys, monkeypatch):
    calls = {"classical_limit": [], "denominators_are_local": []}
    for name, seen in calls.items():
        original = getattr(dynweyl, name)

        def counted(block, *args, _seen=seen, _original=original):
            _seen.append(block.source)
            return _original(block, *args)

        monkeypatch.setattr(dynweyl, name, counted)
    code, out, _ = run(capsys, "verify", "cocycle", "--algebra", "A2", "--hw", "1,1",
                       "--jobs", "1")
    assert code == 0 and "2/2 cases pass" in out
    # two cases, (1,1) and (0,0), with two agreeing words each
    for seen in calls.values():
        assert sorted(mu.coords for mu in seen) == [(0, 0), (1, 1)]


# sha256 over the text and JSON output of these commands, computed with the
# reduce-every-step composition (the oracle of tests/test_dynweyl.py) in
# src/, so that it pins the output of any composition to that one
GOLDEN_COMMANDS = [
    ["verify", "cocycle", "--algebra", "G2", "--hw", "1,1"],
    ["verify", "cocycle", "--algebra", "B2", "--hw", "2,2"],
    ["verify", "cocycle", "--algebra", "A3", "--hw", "1,0,1"],
    ["op", "--algebra", "B2", "--hw", "2,2", "--mu", "0,0", "--word", "1,2,1,2"],
    ["op", "--algebra", "G2", "--hw", "1,1", "--mu", "0,0", "--word", "1,2,1,2,1,2"],
    ["op", "--algebra", "A3", "--hw", "1,0,1", "--mu", "0,0,0", "--word", "1,2,1,3,2,1"],
    ["verify", "levi", "--algebra", "A2", "--hw", "2,1"],
]
GOLDEN_SHA256 = "42e5f29cfb51ac442ee038d927a725b9064683371f61acef14355a1efd18f705"


def test_golden_cli_output(capsys):
    digest = hashlib.sha256()
    for command in GOLDEN_COMMANDS:
        for fmt in ("text", "json"):
            code, out, err = run(capsys, *command, "--format", fmt, "--seed", "7",
                                 "--jobs", "1")
            assert code == 0 and not err
            digest.update(f"{command} {fmt}\n{out}".encode())
    assert digest.hexdigest() == GOLDEN_SHA256


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _readme_examples():
    """(argv, printed lines) for each `$ dynwg ...` line of the README's text
    blocks; the lines up to the next command are its printed output."""
    examples = []
    for block in re.findall(r"```text\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL):
        for line in block.splitlines():
            if line.startswith("$ dynwg "):
                examples.append((shlex.split(line)[2:], []))
            else:
                examples[-1][1].append(line)
    return examples


def test_readme_command_line_examples(capsys, tmp_path):
    examples = _readme_examples()
    assert len(examples) == 8
    for argv, printed in examples:
        argv = [str(tmp_path) if a == "~/dynwg-cache" else a for a in argv]
        code, out, err = run(capsys, *argv, "--jobs", "1")
        assert code == 0 and not err, argv
        if printed:
            assert out.splitlines() == printed, argv
    assert sum(bool(printed) for _, printed in examples) == 1  # the op example
