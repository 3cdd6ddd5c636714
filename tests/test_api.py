"""The public API is stated in one place: dynwg.__all__, which the README's
"Library API" section lists name by name.  The README's claims about the
package's source are checked on its syntax trees."""

import ast
import pathlib
import re
import sys

import dynwg

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
