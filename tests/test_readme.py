"""README examples, run as written: each shown output must match byte for byte."""

import re
import shlex
from pathlib import Path

import pytest

from chipoly.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:] if end < 0 else README[start:end]


def _blocks(section: str, lang: str = "") -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```$", section, re.S | re.M)


def _cli_examples() -> list:
    """(argv, shown stdout) for each "$ chipoly ..." example; bench timings vary."""
    examples = []
    for block in _blocks(_section("Command line")):
        for chunk in block.split("$ chipoly ")[1:]:
            command, _, shown = chunk.partition("\n")
            argv = shlex.split(command)
            if argv[0] != "bench":
                examples.append(pytest.param(argv, shown.rstrip("\n") + "\n", id=command))
    return examples


@pytest.mark.parametrize("argv, shown", _cli_examples())
def test_readme_command_line_examples(capsys, argv, shown):
    assert main(argv) == 0
    assert capsys.readouterr().out == shown


def test_readme_lists_every_command_but_bench():
    assert sorted(p.values[0][0] for p in _cli_examples()) == sorted(
        ["stirling", "powersum", "emit-chi", "emit-chi-twist", "eval", "verify"])


def test_readme_library_snippet_prints_what_it_says(capsys):
    """Each print in the snippet shows its output in a comment: on the next
    line, or after "#" on the same line up to the first comma."""
    (snippet,) = _blocks(_section("Library"), "python")
    lines = snippet.splitlines()
    shown = []
    for i, line in enumerate(lines):
        if line.startswith("print("):
            _, _, note = line.partition("#")
            shown.append(note.split(",")[0].strip() if note else lines[i + 1].removeprefix("# "))
    exec(compile(snippet, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == shown
    assert shown == ["1/6*C1^3 + C1^2 - 1/2*C1*C2 + 11/6*C1 - 2*C2 + 1/2*C3 + n", "55"]
