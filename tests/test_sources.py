"""Every source file parses under the oldest Python the package declares."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
FLOOR = (3, 10)
SOURCES = sorted(path for top in ("src", "tests", "bench", "tools") for path in (ROOT / top).rglob("*.py"))


def test_floor_is_the_declared_one():
    assert f'requires-python = ">={FLOOR[0]}.{FLOOR[1]}"' in (ROOT / "pyproject.toml").read_text()


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_at_the_floor(path):
    # a newer interpreter parses newer syntax; feature_version refuses it
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)
