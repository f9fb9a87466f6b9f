"""Every public name of the package has a caller outside the tests.

A public module-level function or class of ``src/cdelab`` stays only if the
package, a demo or the benchmark reaches it, the benchmark's tracer names
it, or PAPER.md names what it computes.  A reference is an attribute access
``x.name``, a ``from ... import name``, or a load of the bare name inside
the module that defines it.
"""

import ast
from pathlib import Path

from test_benchmark_surface import load_tracer

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cdelab"

#: names kept for what PAPER.md describes, with the phrase it uses
PAPER_NAMED = {
    "dynamics.spinor_from_state": "complex spinor view",
    "dynamics.state_from_spinor": "complex spinor view",
    "geometry.ground_state_closed_form": "closed-form decaying pair",
    "spectral.cutoff_test_pair": "cutoff test pair",
    "spectral.bump": "bump-localized cutoff",
}


def public_names():
    """(module, name) of every public module-level def and class."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                out.add((path.stem, node.name))
    return out


def references():
    """Attribute and imported names anywhere outside the tests, and
    (module, name) of each bare name loaded inside a package module."""
    attrs, own = set(), set()
    files = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py")]
    for path in files:
        in_package = path.parent == PACKAGE
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                attrs.update(alias.name for alias in node.names)
            elif (in_package and isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)):
                own.add((path.stem, node.id))
    return attrs, own


def paper_text():
    """PAPER.md with each run of whitespace made one space."""
    return " ".join((ROOT / "PAPER.md").read_text(encoding="utf-8").split())


def test_every_public_name_has_a_caller(monkeypatch):
    named = set(load_tracer(monkeypatch).NAMED_FUNCTIONS)
    paper = paper_text()
    named.update(key for key, phrase in PAPER_NAMED.items() if phrase in paper)
    attrs, own = references()
    uncalled = sorted(
        f"{module}.{name}" for module, name in public_names()
        if name not in attrs and (module, name) not in own
        and f"{module}.{name}" not in named)
    assert uncalled == []


def test_paper_named_functions_are_defined():
    defined = {f"{module}.{name}" for module, name in public_names()}
    assert set(PAPER_NAMED) <= defined
