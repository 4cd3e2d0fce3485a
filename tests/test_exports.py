"""Every name the package exports has a caller outside the unit tests.

A use is a name, an attribute or an import alias in a package module
other than ``__init__``, in ``demos/``, in ``bench/`` or in the
acceptance tests. A name that only its own unit tests call is dead
public API and should be deleted together with those tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "affdim"


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def used_names(paths):
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def caller_files():
    package = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    scripts = [p for d in ("demos", "bench") for p in (ROOT / d).glob("*.py")]
    return package + scripts + [ROOT / "tests" / "test_acceptance.py"]


def test_every_export_has_a_caller():
    names = exported_names()
    assert {"affinity_dimension", "parse_config", "AffdimError"} <= names
    unused = names - used_names(caller_files())
    assert not unused, "exported but unused outside unit tests: %s" % sorted(unused)
