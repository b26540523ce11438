"""The README's documented API runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).parent.parent / "README.md"


def python_api_block():
    section = README.read_text().split("## Python API", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_python_api_example_runs():
    ns = {}
    exec(compile(python_api_block(), "README.md", "exec"), ns)
    # the comments promise the heat collapses the cold path and the
    # replan detours around it
    assert ns["path"].nodes == (25, 10, 11, 14, 17)
    assert ns["r_now"] < 0.5 < ns["r"]
    assert ns["detour"].nodes != ns["path"].nodes
    assert ns["r_detour"] > 0.9
