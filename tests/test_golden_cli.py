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
from pathlib import Path

import pytest

from divsum.cli import run_command

RECORDS = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())


@pytest.mark.parametrize("record", RECORDS, ids=[" ".join(r["argv"]) for r in RECORDS])
def test_cli_output_is_unchanged(record):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(record["argv"])
    assert (code, out.getvalue(), err.getvalue()) == (
        record["exit"], record["stdout"], record["stderr"]
    )
