"""The code-line counter, `tools/code_lines.py`, on a fixed snippet."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring,
over two lines."""

import os  # a comment after code counts as code

# A comment line does not count.


class Box:
    """A class docstring."""

    size = 3


def area(side):
    """A function docstring,

    with a blank line inside.
    """
    text = """a string that is not a docstring
    counts on both of its lines"""
    return (side
            * side)
'''


def test_counts_only_code_lines():
    # import, class, size, def, the two lines of `text`, the two of `return`.
    assert code_lines.docstring_lines(SNIPPET) == {1, 2, 10, 16, 17, 18, 19}
    assert code_lines.code_lines(SNIPPET) == 8


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["8", "1", "9"]
    assert out[-1].split()[1] == "total"


def test_no_path_is_a_usage_error(capsys):
    assert code_lines.main([]) == 2
    assert capsys.readouterr() == ("", f"{code_lines.USAGE}\nerror: no PATH given\n")


def test_missing_path_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    missing = tmp_path / "missing.py"
    assert code_lines.main([str(tmp_path), str(missing)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"{code_lines.USAGE}\nerror: no such file or directory: {missing}\n")
