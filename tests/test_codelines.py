import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "codelines.py"
_SPEC = importlib.util.spec_from_file_location("codelines", _PATH)
codelines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(codelines)

SOURCE = '''"""A module docstring
over two lines."""

import os  # a comment on a code line


# a comment line
def f(x):
    """A function docstring."""
    text = """a string
    that is no docstring"""
    return (x +
            1)


class C:
    "A class docstring."
    y = 1
'''


def test_blank_comment_and_docstring_lines_are_not_code():
    # import, def, both lines of the plain string, both of the return, class, y
    assert codelines.code_lines(SOURCE) == 8


def test_the_table_has_a_line_per_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert codelines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    here = tmp_path.name
    assert [line.split() for line in lines] == [
        ["8", f"{here}/a.py"], ["1", f"{here}/b.py"], ["9", "total"],
    ]
