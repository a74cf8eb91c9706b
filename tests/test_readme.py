"""The README's examples run as written: the Python quick tour, and every
``flatgp`` line of its CLI block on a small dataset."""

import os
import re
import shlex

import numpy as np

from flatgp import cli

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def _blocks(lang):
    """The README's ``lang`` code blocks, each padded with the newlines before
    it, so that a traceback names the README's own line numbers."""
    with open(README) as fh:
        text = fh.read()
    return [
        "\n" * text.count("\n", 0, match.start(1)) + match.group(1)
        for match in re.finditer(rf"^```{lang}\n(.*?)^```", text, flags=re.S | re.M)
    ]


def test_quick_tour_runs():
    (tour,) = _blocks("python")
    exec(compile(tour, "README.md", "exec"), {})


def test_cli_lines_exit_0(tmp_path, monkeypatch):
    lines = [
        line for block in _blocks("sh") for line in block.splitlines() if line.startswith("flatgp ")
    ]
    assert len(lines) == 10
    rng = np.random.default_rng(0)
    x = np.sort(rng.uniform(0, 1, 40))
    y = np.sin(6 * x) + 0.1 * rng.normal(size=40)
    np.savetxt(tmp_path / "data.csv", np.column_stack([x, y]), delimiter=",",
               header="x,y", comments="", fmt="%.17g")
    monkeypatch.chdir(tmp_path)
    codes = {line: cli.main(shlex.split(line)[1:]) for line in lines}
    assert codes == dict.fromkeys(lines, 0)
