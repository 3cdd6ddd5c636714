"""The public API is stated in one place: dynwg.__all__, which the README's
"Library API" section lists name by name."""

import pathlib
import re

import dynwg

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


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
