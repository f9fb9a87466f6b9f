"""Every third-party module the package imports is a declared dependency."""

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def imported_top_level_modules(package):
    names = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_declared_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower()
                for dep in project["dependencies"]}
    imported = imported_top_level_modules(ROOT / "src" / project["name"])
    third_party = imported - set(sys.stdlib_module_names) - {project["name"]}
    assert third_party and third_party <= declared, third_party - declared
