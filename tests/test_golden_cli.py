"""Replay recorded CLI invocations and require byte-identical results.

``golden/cli.json`` holds one record per line: an argv (each case in
plain, json and csv format), its exit code, and everything it wrote to
stdout and stderr.  The file was recorded once from the CLI and is never
regenerated to make a change pass: a diff here means user-visible output
changed.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from divsum.cli import run_command

ROOT = Path(__file__).resolve().parent.parent
RECORDS = json.loads((ROOT / "tests" / "golden" / "cli.json").read_text())


@pytest.mark.parametrize("record", RECORDS, ids=[" ".join(r["argv"]) for r in RECORDS])
def test_cli_output_is_unchanged(record):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(record["argv"])
    assert (code, out.getvalue(), err.getvalue()) == (
        record["exit"], record["stdout"], record["stderr"]
    )


@pytest.mark.parametrize("argv", [
    ["sum", "poly (2n+1)^2 ratio -1", "--format", "plain"],
    ["sigma", "3", "--numeric", "--format", "json"],
    ["sum", "poly 1 ratio 1", "--format", "plain"],
], ids=" ".join)
def test_module_entry_point(argv):
    # a fresh interpreter through __main__ and the sys.exit in main()
    (record,) = [r for r in RECORDS if r["argv"] == argv]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "divsum", *argv],
                          capture_output=True, text=True, env=env, cwd=ROOT)
    assert (done.returncode, done.stdout) == (record["exit"], record["stdout"])


@contextlib.contextmanager
def _int_str_digits(limit):
    # CPython's limit on int-to-str conversion (3.11, 3.10.7 and later)
    # set for the duration of the block; a no-op where there is none
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


POWER_SUM = ["sum", "poly 2^15000 ratio -1"]  # 2^15000 (1 - 1 + 1 - ...) = 2^14999


def test_main_prints_past_the_int_string_limit():
    # 2^14999 has 4516 digits, past the default limit of 4300; main() lifts
    # the limit for its own process
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "divsum", *POWER_SUM],
                          capture_output=True, text=True, env=env, cwd=ROOT)
    with _int_str_digits(0):
        expected = str(2 ** 14999)
    assert len(expected) == 4516
    assert (done.returncode, done.stdout, done.stderr) == (0, expected + "\n", "")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no limit on int-to-str conversion")
def test_run_command_leaves_the_int_string_limit_alone():
    out, err = io.StringIO(), io.StringIO()
    with _int_str_digits(4300):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(POWER_SUM)
        assert sys.get_int_max_str_digits() == 4300
    assert (code, out.getvalue()) == (2, "")
    assert "Exceeds the limit (4300 digits)" in err.getvalue()
