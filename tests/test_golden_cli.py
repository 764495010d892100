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
