"""Output that cannot be written is exit 2, never a traceback.

An --output path that cannot be opened is a usage error for every
subcommand: one ``error:`` line on stderr, nothing on stdout.  A write
that fails later (a closed pipe, a full disk) prints one ``error: cannot
write output:`` line, and interpreter exit adds nothing to stderr.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import imptables
from imptables.cli import main

SRC = str(Path(imptables.__file__).resolve().parent.parent)

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


def test_opened_before_the_work(capsys, tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("the series was computed before --output was opened")

    monkeypatch.setattr("imptables.commands.series.closed_form", refuse)
    target = tmp_path / "missing" / "x"
    code = main(["series", "t", "--n", "5", "--output", str(target)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        f"error: cannot open --output {target}: No such file or directory\n"
    )


def test_usage_error_after_the_open_leaves_the_file_empty(capsys, tmp_path):
    # As `imptables table --n 3 --index 9 > x` would.
    target = tmp_path / "x"
    code = main(["table", "--n", "3", "--index", "9", "--output", str(target)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: tree index 9 out of range")
    assert target.read_text() == ""


def imptables_process(*argv, stdout, buffered):
    """Start ``python -m imptables ARGV``.

    Buffered, as in a shell, stdout's last block is written only when it is
    flushed; unbuffered, every write reaches the descriptor at once.
    """
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "imptables", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=env,
    )


BUFFERING = pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
BROKEN_PIPE = b"error: cannot write output: Broken pipe\n"
NO_SPACE = b"error: cannot write output: No space left on device\n"


def leave_early(*argv, buffered):
    """Read the first line of ``imptables ARGV``, then close the pipe, as
    `| head -1` does; return the exit code, that line and stderr.

    Each output read here is far larger than a pipe buffer, so the writer
    is still writing when the reader goes away.
    """
    proc = imptables_process(*argv, stdout=subprocess.PIPE, buffered=buffered)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=60), first, err


@BUFFERING
def test_reader_leaves_early(buffered):
    code, first, err = leave_early("table", "--n", "10", buffered=buffered)
    assert (code, err) == (2, BROKEN_PIPE)
    assert first.startswith(b"(p1=>(p2=>")


@BUFFERING
def test_reader_leaves_a_streamed_report_early(buffered):
    # The report is written a line at a time, so the write that fails may
    # come between two lines.
    code, first, err = leave_early("verify", "--n", "300", "--budget", "0", buffered=buffered)
    assert (code, err) == (2, BROKEN_PIPE)
    assert first == b"kleene three-way agreement, n <= 300 (brute budget 0)\n"


@BUFFERING
def test_reader_gone_before_any_output(buffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = imptables_process("series", "t", "--n", "3", stdout=write_end, buffered=buffered)
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (2, BROKEN_PIPE)


needs_dev_full = pytest.mark.skipif(
    not os.path.exists("/dev/full"), reason="no /dev/full on this system"
)


@needs_dev_full
@BUFFERING
@pytest.mark.parametrize(
    "argv",
    [("series", "t", "--n", "3"), ("table", "--n", "9"), ("verify", "--n", "300", "--budget", "0")],
    ids=["series", "table", "verify"],
)
def test_full_device_as_stdout(argv, buffered):
    with open("/dev/full", "wb") as full:
        proc = imptables_process(*argv, stdout=full, buffered=buffered)
        _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (2, NO_SPACE)


@needs_dev_full
def test_full_device_as_output_file():
    proc = imptables_process(
        "series", "t", "--n", "3", "--output", "/dev/full",
        stdout=subprocess.PIPE, buffered=True,
    )
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out, err) == (2, b"", NO_SPACE)
