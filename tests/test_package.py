"""The package surface: its exports and the README's library example."""

import inspect
import re
from pathlib import Path

import ltsim
from ltsim import TraceNode

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_lists_each_public_name_once():
    names = ltsim.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(ltsim, name) for name in names)
    public = {
        name
        for name, value in vars(ltsim).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(names) == public


def test_the_readme_library_example_runs(capsys):
    """The python block under "## Library", so a name the docs use must exist."""
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}:Library", "exec"), {})
    assert capsys.readouterr().out == "no\nyes\n"


def test_the_readme_names_exactly_the_trace_node_slots():
    text = " ".join(README.read_text().split())
    listed = re.search(r"A `TraceNode` is a plain class with `__slots__` \((.*?)\)", text).group(1)
    assert tuple(re.findall(r"`(\w+)`", listed)) == TraceNode.__slots__
