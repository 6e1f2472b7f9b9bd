"""Repository-wide checks on the library's source and test data, and every demo runs."""

import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "qdetect").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so a check written as one vanishes
    found = []
    for path in LIBRARY:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_every_top_level_definition_is_used_or_exported():
    # a function or class that nothing else in the library reads, and that
    # the package does not export, is dead code
    import qdetect

    definitions, readers = [], {}
    for path in LIBRARY:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for statement in tree.body:
            owner = (path.name, getattr(statement, "name", None))
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append(owner)
            for name in _names(statement):
                readers.setdefault(name, set()).add(owner)
    # a definition that reads only itself, such as a recursive function, is unused
    dead = [f"{module}:{name}" for module, name in definitions
            if name not in qdetect.__all__ and not readers.get(name, set()) - {(module, name)}]
    assert dead == []


def test_every_method_is_read_outside_its_own_body():
    # a method or property of a library class that only tests read is dead
    # code; dunder methods are called by the language, not by name
    reads, methods = Counter(), []
    for path in LIBRARY + DEMOS + sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        reads.update(_names(tree))
        if path not in LIBRARY:
            continue
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            methods += [(f"{path.name}:{cls.name}.{item.name}", item.name, Counter(_names(item)))
                        for item in cls.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("__")]
    # like the check above, this matches bare names across classes
    dead = [where for where, name, own in methods if reads[name] <= own[name]]
    assert dead == []


def _names(tree):
    """Every identifier a tree reads, as a name or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _run_python(args, cwd):
    """A fresh interpreter that imports the library from src/."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo, tmp_path):
    result = _run_python([str(demo)], tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_python_blocks_run(tmp_path):
    # the quick start stays runnable as the library changes
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        result = _run_python(["-c", block], tmp_path)
        assert result.returncode == 0, result.stderr


# every model file under tests/data: each JSON file but the evaluation reports
MODEL_FIXTURES = sorted(path for path in (ROOT / "tests" / "data").rglob("*.json")
                        if not path.name.endswith(".report.json"))


@pytest.mark.parametrize("path", MODEL_FIXTURES,
                         ids=lambda path: path.relative_to(ROOT / "tests" / "data").as_posix())
def test_every_model_fixture_loads(path):
    from qdetect.dataio import load_model

    load_model(path)


def test_model_fixtures_cover_every_format():
    from qdetect.dataio import FORMAT_VERSION

    versions = {json.loads(path.read_text(encoding="utf-8"))["format_version"]
                for path in MODEL_FIXTURES}
    assert versions == {FORMAT_VERSION}
