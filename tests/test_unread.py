"""Nothing is kept in src/ that no caller reads: every function, method
(properties included) and class that src/curveinv defines, dunders
excepted, is named somewhere in src/, perfbench/ or demos/ besides its own
definition.  The tests do not count as callers: what only they read
belongs in the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "curveinv").rglob("*.py"))
CALLERS = sorted(path for folder in ("src", "perfbench", "demos")
                 for path in (ROOT / folder).rglob("*.py"))

# the names that only the tests read, each with the reason it stays
ALLOWED = {
    "validate_catalog": "the catalog's self-check, which the tests run",
    "error": "_Parser's override of argparse.ArgumentParser.error, which argparse calls",
}


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def definitions(tree):
    """The names of the functions, methods and classes that tree defines."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def references(tree):
    """Every name that tree reads: a name, an attribute, an imported name,
    or a string that is an identifier (as getattr reads one)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value


def test_the_sources_are_found():
    assert {"geometry.py", "catalog.py"} <= {p.name for p in LIBRARY}
    assert {"run.py", "01_exact_invariants.py"} <= {p.name for p in CALLERS}


def test_every_definition_in_src_has_a_caller():
    named = {name for path in CALLERS for name in references(parse(path))}
    defined = {name for path in LIBRARY for name in definitions(parse(path))
               if not (name.startswith("__") and name.endswith("__"))}
    assert sorted(defined - named - set(ALLOWED)) == []


def test_every_allowed_name_is_defined_and_otherwise_unread():
    # an allowance outlives its reason once a caller names it or it is gone
    named = {name for path in CALLERS for name in references(parse(path))}
    defined = {name for path in LIBRARY for name in definitions(parse(path))}
    assert set(ALLOWED) <= defined - named
