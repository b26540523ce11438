"""The README's documented API runs as written."""

import contextlib
import hashlib
import io
import pathlib
import re
import runpy
import shlex
import sys

import pytest

from risknav import cli
from risknav.sim import CSV_HEADER

ROOT = pathlib.Path(__file__).parent.parent
README = ROOT / "README.md"


def python_api_block():
    section = README.read_text().split("## Python API", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def cli_transcripts():
    """(command, output lines) for each `$ risknav` line in a README code
    block; a command's output runs to the next `$` line or the fence."""
    found, fenced, current = [], False, None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            fenced, current = not fenced, None
        elif fenced and line.startswith("$ "):
            current = (line[2:], []) if line.startswith("$ risknav ") \
                else None
            if current is not None:
                found.append(current)
        elif current is not None:
            current[1].append(line)
    return found


TRANSCRIPTS = cli_transcripts()


def test_every_subcommand_has_a_transcript():
    commands = {shlex.split(cmd)[1] for cmd, _ in TRANSCRIPTS}
    assert commands == {"plan", "validate", "export-prism", "simulate",
                        "sweep"}


@pytest.mark.parametrize("command, expected", TRANSCRIPTS,
                         ids=[cmd for cmd, _ in TRANSCRIPTS])
def test_cli_transcript_is_reproduced(command, expected, tmp_path,
                                      monkeypatch):
    # stdout and stderr share one buffer, interleaved as in a terminal;
    # export-prism writes its files in a scratch directory
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(shlex.split(command)[1:])
    assert code == 0
    assert out.getvalue().splitlines() == expected


def test_python_api_example_runs():
    ns = {}
    exec(compile(python_api_block(), "README.md", "exec"), ns)
    # the comments promise the heat collapses the cold path and the
    # replan detours around it
    assert ns["path"].nodes == (25, 10, 11, 14, 17)
    assert ns["r_now"] < 0.5 < ns["r"]
    assert ns["detour"].nodes != ns["path"].nodes
    assert ns["r_detour"] > 0.9


def test_demos_run(capsys, monkeypatch):
    section = README.read_text().split("## Demos", 1)[1]
    demos = re.findall(r"^python3 (demos/\S+\.py)", section, re.MULTILINE)
    # the sweep demo takes its documented episodes-per-level argument and
    # prints the CSV first (its banner goes to stderr); the SHA-256 pins
    # each demo's whole stdout
    expected = {
        "demos/map_tour.py": (
            [], "bundled map: 30 nodes, 42 edges",
            "b40d1745710df09b12749c0e591836c8"
            "7957fb225e8b4dfd6b492355e6990d3b"),
        "demos/replan_walkthrough.py": (
            [], "human at 15 heading to 6, predicted walk: "
                "15 -> 11 -> 8 -> 4 -> 6",
            "294ef0776510193589de3363a079853a"
            "00dca562ec270ce269d2a0071f4b83fb"),
        "demos/uncertainty_report.py": (
            ["20"], CSV_HEADER,
            "92327b2a26afee8576b7b48f0ccf023e"
            "34c6574fe380079bf3f670909bc226ac"),
    }
    assert sorted(demos) == sorted(expected)
    for demo in demos:
        args, first, digest = expected[demo]
        monkeypatch.setattr(sys, "argv", [demo] + args)
        runpy.run_path(str(ROOT / demo), run_name="__main__")
        out = capsys.readouterr().out
        assert out.splitlines()[0] == first
        assert hashlib.sha256(out.encode()).hexdigest() == digest, demo
