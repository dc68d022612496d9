from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import pytest

from horopack import cli

README = Path(__file__).resolve().parent.parent / "README.md"
# a console block: "$ horopack ARGS", then the output up to the closing fence
COMMAND_BLOCK = re.compile(r"^```\n\$ horopack (.*?)\n(.*?)^```", re.M | re.S)
COMMANDS = COMMAND_BLOCK.findall(README.read_text())


def test_readme_quick_start_runs():
    text = README.read_text()
    section = text[text.index("## Quick start (library)"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(block, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    # the last print is commented with the value it shows
    assert lines[-1] == block.rstrip().splitlines()[-1].split("# ")[-1]


def test_readme_shows_every_console_block():
    assert [args.split()[0] for args, _ in COMMANDS] == ["table2", "sweep", "volumes", "bf"]


@pytest.mark.parametrize("args, shown", COMMANDS, ids=[args for args, _ in COMMANDS])
def test_readme_console_blocks_match_the_cli(args, shown):
    expected = shown.splitlines()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(args.split()) == 0
    lines = out.getvalue().splitlines()
    # a block cut short with "..." shows only its first lines
    if expected[-1].strip() == "...":
        expected = expected[:-1]
        lines = lines[: len(expected)]
    assert lines == expected
