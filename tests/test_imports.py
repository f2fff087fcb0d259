"""Every name a library module imports is used in it, and every function,
class and method it defines is used somewhere in the program."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import ivfuse

SRC = Path(ivfuse.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ROOT = SRC.parents[1]
# the program: the library, the demos and the benchmark harness
PROGRAM = sorted([*SRC.glob("*.py"), *ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")])
# declare the provider interface that the fixtures implement
INTERFACE = {"Captioner", "TextEncoder", "Denoiser"}


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that nothing in it reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_found():
    assert unused_imports("import os\nfrom .x import a, b as c\nprint(a)\n") == [
        "line 1: os", "line 2: c"]


def _references(tree) -> Counter:
    """Each name read, attribute taken or string constant in ``tree``, counted:
    the benchmark's tracer names the functions it wraps as strings."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs[node.value] += 1
    return refs


def unreferenced_definitions(defining: dict[str, str], using: list[str]) -> list[str]:
    """``file: name`` for each function, class or method defined in a
    ``defining`` source (dunders excepted) that no source in ``using``
    references outside its own definition."""
    refs = sum((_references(ast.parse(source)) for source in using), Counter())
    found = []
    for label, source in defining.items():
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and refs[node.name] <= _references(node)[node.name]):
                found.append(f"{label}: {node.name}")
    return found


def test_every_definition_is_used():
    library = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    program = [p.read_text(encoding="utf-8") for p in PROGRAM]
    unused = [found for found in unreferenced_definitions(library, program)
              if found.split(": ")[1] not in INTERFACE]
    assert unused == []


def test_unreferenced_definition_found():
    source = ("class A:\n    def used(self): return self.used()\n    def __init__(self): pass\n"
              "def helper(): return helper()\n")
    assert unreferenced_definitions({"m.py": source}, [source, "A().used()\n"]) == [
        "m.py: helper"]
    assert sorted(unreferenced_definitions({"m.py": source}, [source])) == [
        "m.py: A", "m.py: helper", "m.py: used"]
