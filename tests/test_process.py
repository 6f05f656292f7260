"""The package as a fresh interpreter sees it: what importing it loads, and
the exit codes of ``python -m krboot.cli``."""
from __future__ import annotations

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def python(*args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_import_loads_neither_dataclasses_nor_inspect():
    # the package uses neither, and together they slow every fresh process's
    # start; only a parallel sweep loads concurrent.futures (with logging and
    # traceback), so no other command pays for it
    code = (
        "import sys, krboot, krboot.fileio, krboot.cli; "
        "print(sorted({'dataclasses', 'inspect', 'concurrent.futures'} & set(sys.modules)))"
    )
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_module_exit_codes(tmp_path):
    ok = python("-m", "krboot.cli", "apset", "--source", "digits3", "--n", "100")
    assert (ok.returncode, ok.stdout) == (0, "n=100 size=16\n")
    usage = python("-m", "krboot.cli", "apset", "--source", "behrend", "--n", "100")
    assert usage.returncode == 2 and "invalid choice: 'behrend'" in usage.stderr
    bad_input = python("-m", "krboot.cli", "verify", "residue", "--n", "9")
    assert bad_input.returncode == 2 and bad_input.stderr.startswith("error: ")
    apset = tmp_path / "s.txt"
    apset.write_text("9 3\n1\n5\n9\n")  # 1, 5, 9 is a progression
    failed = python("-m", "krboot.cli", "verify", "apfree", "--apset", str(apset))
    assert failed.returncode == 1
    assert failed.stdout.splitlines()[-2:] == ["FAIL", "WITNESS ap-triple 1 5 9"]
