"""The README's documented API runs as written."""

import contextlib
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
    # prints the CSV first (its banner goes to stderr)
    first_lines = {
        "demos/map_tour.py": ([], "bundled map: 30 nodes, 42 edges"),
        "demos/replan_walkthrough.py": (
            [], "human at 15 heading to 6, predicted walk: "
                "15 -> 11 -> 8 -> 4 -> 6"),
        "demos/uncertainty_report.py": (["20"], CSV_HEADER),
    }
    assert sorted(demos) == sorted(first_lines)
    for demo in demos:
        args, first = first_lines[demo]
        monkeypatch.setattr(sys, "argv", [demo] + args)
        runpy.run_path(str(ROOT / demo), run_name="__main__")
        assert capsys.readouterr().out.splitlines()[0] == first
