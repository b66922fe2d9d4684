"""tools/code_lines.py counts code lines: no blanks, comments or docstrings."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# 11 code lines: the import, def, the four lines of the expression, both
# lines of the plain string, return, class and its assignment
FIXTURE = '''"""A module docstring
over two lines."""

import os  # a trailing comment

# a comment line


def f(x):
    """A function docstring."""
    total = (
        x
        + 1
    )
    text = """not a docstring,
    so both lines count"""
    return total, text


class C:
    "A class docstring."

    y = 1
'''


def test_fixture_count():
    assert code_lines.code_lines(FIXTURE) == 11


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path / "pkg"), str(tmp_path / "b.py")]) == 0
    counts = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert counts == [
        ["11", str(tmp_path / "pkg" / "a.py")],
        ["1", str(tmp_path / "b.py")],
        ["12", "total"],
    ]


def test_no_path_is_a_usage_error(capsys):
    assert code_lines.main([]) == 64
    assert "PATH" in capsys.readouterr().err
