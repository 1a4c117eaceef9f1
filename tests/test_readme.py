"""The README's examples run and print what their text says."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from dpnl.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    p, low, estimate, up = map(float, out.getvalue().split())
    assert abs(p - 0.0064) <= 1e-12
    assert low <= estimate <= up


def test_readme_command_lines(tmp_path, monkeypatch, capsys):
    text = README.read_text()
    (tmp_path / "prog.pl").write_text(re.search(r"```prolog\n(.*?)```", text, re.S).group(1))
    (tmp_path / "rows.json").write_text(json.dumps([[0.1] * 10] * 4))
    (tmp_path / "formula.cnf").write_text("p cnf 3 2\n1 -2 0\n2 3 0\nw 1 0.3\n")
    commands = [
        line.split("#")[0]
        for block in re.findall(r"```sh\n(.*?)```", text, re.S)
        for line in block.splitlines()
        if line.startswith("dpnl ")
    ]
    assert len(commands) == 11
    monkeypatch.chdir(tmp_path)
    for line in commands:
        assert main(shlex.split(line)[1:]) == 0, line
    capsys.readouterr()
    # the prose after the block
    counts = re.search(
        r"`dpnl logic --count-provenance --nodes 6` prints the proof count (\d+) and the\s+"
        r"exact query's ([\d,]+) branch nodes",
        text,
    )
    assert main(["logic", "--count-provenance", "--nodes", "6"]) == 0
    out = capsys.readouterr().out
    assert counts.groups() == ("65", "769")
    assert "provenance_clauses = 65\n" in out
    assert "branch_nodes = 769\n" in out
