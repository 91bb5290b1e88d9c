"""The CLI's exit: `main` registers `gc.freeze` with atexit, so the
interpreter's collections at shutdown skip the heap that is still alive.
That must change nothing a command writes, and importing the library must
register nothing."""

import gc
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from zygmund.cli import main

ROOT = Path(__file__).resolve().parents[1]
GROWING = str(ROOT / "demos" / "configs" / "growing.cfg")
VNAD = str(ROOT / "demos" / "configs" / "vnad_table.cfg")


def run_child(code: str, *args: str) -> subprocess.CompletedProcess:
    """`python -c code args` in a fresh interpreter that imports this
    checkout's library."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, env=env, capture_output=True)


# Records every atexit registration from here on, in `registered`.
RECORD_REGISTRATIONS = (
    "import atexit\n"
    "registered = []\n"
    "register = atexit.register\n"
    "atexit.register = lambda func, *args, **kwargs: registered.append(func) or register(func, *args, **kwargs)\n"
)


def test_main_registers_gc_freeze_once_per_process():
    # A handler registered before main runs after main's (atexit runs them
    # last in, first out), so it sees the frozen heap.
    code = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('frozen at exit', gc.get_freeze_count() > 0))\n"
        "import zygmund.cli\n"
        + RECORD_REGISTRATIONS
        + "for _ in range(3):\n"
        "    assert zygmund.cli.main(['classify', '--config', sys.argv[1]]) == 0\n"
        "print('registered', registered == [gc.freeze])\n"
    )
    child = run_child(code, GROWING)
    assert child.returncode == 0, child.stderr
    assert child.stdout.decode().splitlines()[-2:] == ["registered True", "frozen at exit True"]


def test_imports_register_nothing():
    code = "import numpy\n" + RECORD_REGISTRATIONS + "import zygmund, zygmund.rates, zygmund.cli\nprint(registered)\n"
    child = run_child(code)
    assert child.returncode == 0, child.stderr
    assert child.stdout.decode() == "[]\n"


@pytest.mark.parametrize(
    "argv",
    [["rate-check", "--config", GROWING], ["witness", "--config", GROWING, "--n", "64"]],
    ids=["rate-check", "witness"],
)
def test_child_process_writes_what_an_in_process_run_writes(tmp_path, capsys, argv):
    code = "import sys, zygmund.cli\nsys.exit(zygmund.cli.main(sys.argv[1:]))\n"
    child = run_child(code, *argv, "--out", str(tmp_path / "child"))
    assert child.returncode == main([*argv, "--out", str(tmp_path / "here")]) == 0
    assert child.stdout.decode() == capsys.readouterr().out
    assert child.stderr == b""
    files = sorted(p.name for p in (tmp_path / "child").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "here").iterdir())
    assert files
    for name in files:
        assert (tmp_path / "child" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--config", GROWING],
        ["rate-check", "--config", GROWING],
        ["witness", "--config", GROWING, "--n", "64"],
        ["table-vnad", "--config", VNAD],
        ["best-approx", "--config", GROWING],
    ],
    ids=lambda argv: argv[0],
)
def test_commands_leave_no_resource_to_collect(tmp_path, capsys, argv):
    # Nothing a command opens may wait for a collection to be closed: at
    # exit, no collection runs over the frozen heap.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main([*argv, "--out", str(tmp_path)]) == 0
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
