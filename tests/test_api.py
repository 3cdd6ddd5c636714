"""The public API is stated in one place: dynwg.__all__, which the README's
"Library API" section lists name by name.  The README's claims about the
package's source are checked on its syntax trees, and the functions that no
command reaches are listed here, each with its reason."""

import ast
import contextlib
import io
import pathlib
import re
import sys

import dynwg
from dynwg import cli, dynweyl, geomsatake, ratfun, rep, rootdata

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = pathlib.Path(dynwg.__file__).resolve().parent


def readme_section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_all_matches_readme_library_api():
    listed = re.findall(r"^- `(\w+)` —", readme_section("Library API"), re.MULTILINE)
    assert len(listed) == len(set(listed))
    assert sorted(dynwg.__all__) == sorted(listed)


def test_every_public_name_imports():
    namespace = {}
    exec("from dynwg import *", namespace)  # raises on a name that __all__ lists but lacks
    assert set(dynwg.__all__) <= set(namespace)


def test_readme_library_example_runs():
    example, = re.findall(r"```python\n(.*?)```", readme_section("Library example"), re.DOTALL)
    exec(compile(example, str(README), "exec"), {})


def test_no_floating_point_and_only_standard_library_imports():
    # "no floating point anywhere in the package, and no external dependencies
    # beyond the Python standard library"
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append(f"{where}: float literal {node.value!r}")
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "float":
                found.append(f"{where}: float(...) call")
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                modules = []
            found += [f"{where}: import of {m}" for m in modules
                      if m.split(".")[0] not in sys.stdlib_module_names]
    assert found == []


def test_no_assert_statements():
    # python -O strips assert statements, so every check of the package
    # raises its own error instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_unused_imports():
    # a module imports only what it uses, so no import is kept for a test's
    # sake; __init__ imports to re-export
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                found += [f"{path.name}:{node.lineno}: {bound}" for alias in node.names
                          if (bound := alias.asname or alias.name.split(".")[0]) not in used]
    assert found == []


# Functions of the package that no command of test_commands_reach_every_function
# enters, each with the reason it stays.  A function that leaves this list is
# either reached or deleted.
UNREACHED = {
    # error messages and debugging: reports go through RatFun.format
    "ratfun.DegreeOneForm.__str__": "names a form in a PoleCollapseError",
    "ratfun.Polynomial.__str__": "debugging",
    "ratfun.RatFun.__str__": "debugging",
    "ratfun.RatFun.__repr__": "debugging",
    "rootdata.CorootVector.__str__": "names a coroot in word_operator_block's step error",
    # the exponent-tuple view, with which the tests build and read polynomials
    "ratfun.Polynomial.__init__": "the tests' exponent-tuple constructor",
    "ratfun._pack": "packs the exponent tuples of Polynomial.__init__",
    "ratfun.Polynomial.terms": "the tests' exponent-tuple view",
    # the field extras (ROADMAP item 12(a)), which only the tests and
    # perfbench's ratfun-kernel identities reach
    "ratfun.Polynomial.__neg__": "negation, for RatFun.__neg__",
    "ratfun.RatFun.__neg__": "negation, for RatFun.__sub__",
    "ratfun.RatFun.__sub__": "ratfun-kernel's a - a == 0",
    "ratfun.RatFun.is_zero": "ratfun-kernel's division check",
    "ratfun.RatFun.__truediv__": "ratfun-kernel's (a / b) * b == a",
    "ratfun.RatFun.inv": "the reciprocal behind division",
    "ratfun.factor_into_forms": "the factoriser behind RatFun.inv",
    "ratfun._find_linear_factor": "the factoriser behind RatFun.inv",
    "ratfun._rational_roots": "the factoriser behind RatFun.inv",
    "ratfun._int_divisors": "the factoriser behind RatFun.inv",
    "ratfun.Polynomial.total_degree": "the factoriser behind RatFun.inv",
    "ratfun.eq_by_evaluation": "ratfun-kernel's randomized comparison",
    "ratfun.RatFun.evaluate": "the evaluation behind eq_by_evaluation",
    "ratfun.Polynomial._value": "the evaluation behind eq_by_evaluation",
}


def _package_functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> dotted name for each def of the package; the
    first line of a decorated def is its first decorator's, as in its code
    object's co_firstlineno."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[str(path), line] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef)
                      else prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), path, f"{path.stem}.")
    return found


def test_commands_reach_every_function(tmp_path, monkeypatch):
    b2 = ["--algebra", "B2", "--hw", "1,1"]
    commands = [["op", "--algebra", "A2", "--hw", "1,1", "--mu", "0,0", "--word", "1,2,1"],
                ["op", *b2, "--mu", "1,1", "--word", ""],
                ["rep-info", *b2],
                ["verify", "satake-rank1", "--lambda-max", "3"],
                ["verify", "cocycle", *b2],
                ["verify", "levi", *b2],
                ["verify", "rep", "--algebra", "A2", "--dim-cap", "8"]]
    for module in (dynweyl, geomsatake, ratfun, rep, rootdata):  # memo hits enter nothing
        for memo in vars(module).values():
            if hasattr(memo, "cache_clear"):
                memo.cache_clear()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for command in commands:
            for fmt in ("text", "json"):
                for cache in ([], ["--cache-dir", str(tmp_path)]):
                    monkeypatch.setattr(cli, "_irrep_memo", None)
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = cli.main([*command, "--format", fmt, *cache, "--jobs", "1"])
                    assert code == 0, command
    finally:
        sys.setprofile(previous)
    functions = _package_functions()
    assert {name for key, name in functions.items() if key not in entered} == set(UNREACHED)
