"""Every module of the project parses as Python 3.10, the floor that
pyproject.toml declares, as far as ast.parse's feature_version checks it
(it rejects, e.g., except* and unpacking in a comprehension): a machine with
a newer interpreter alone would not see syntax that 3.10 rejects."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(path for folder in ("src", "tests", "perfbench", "demos")
                 for path in (ROOT / folder).rglob("*.py"))


def test_the_sources_are_found():
    assert {"geometry.py", "test_python_floor.py", "run.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
