"""Every third-party module the package, its tests and its demos import is a
declared dependency."""

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
with open(ROOT / "pyproject.toml", "rb") as fh:
    PROJECT = tomllib.load(fh)["project"]


def imported_top_level_modules(package):
    names = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def declared(requirements):
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower()
            for dep in requirements}


def third_party(imported, local=()):
    return (imported - set(sys.stdlib_module_names) - {PROJECT["name"]}
            - set(local))


def test_third_party_imports_are_declared_dependencies():
    imported = third_party(
        imported_top_level_modules(ROOT / "src" / PROJECT["name"]))
    assert imported and imported <= declared(PROJECT["dependencies"]), \
        imported - declared(PROJECT["dependencies"])


def test_test_and_demo_imports_are_declared_dependencies():
    dirs = [ROOT / "tests", ROOT / "demos"]
    # their own modules, such as conftest, are importable from there
    local = {path.stem for d in dirs for path in d.glob("*.py")}
    imported = third_party(set().union(*map(imported_top_level_modules, dirs)),
                           local)
    allowed = declared(PROJECT["dependencies"]
                       + PROJECT["optional-dependencies"]["test"])
    assert imported and imported <= allowed, imported - allowed
