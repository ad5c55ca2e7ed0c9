"""An --output path that cannot be opened is a usage error (exit 2) for
every subcommand: one ``error:`` line on stderr, nothing on stdout."""

import pytest

from imptables.cli import main

SUBCOMMANDS = [
    ("series", "t", "--n", "5"),
    ("table", "--n", "3"),
    ("verify", "--n", "3"),
    ("monoid", "--order", "4"),
    ("colors", "--n", "3"),
]


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=[a[0] for a in SUBCOMMANDS])
def test_missing_directory(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "x"
    code = main([*argv, "--output", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"error: cannot open --output {target}: No such file or directory\n"
    )
    assert not target.parent.exists()


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=[a[0] for a in SUBCOMMANDS])
def test_directory_as_output(capsys, tmp_path, argv):
    code = main([*argv, "--output", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot open --output {tmp_path}: ")
    assert captured.err.count("\n") == 1
