"""The README's examples run as documented: every ``eulerexact`` command in
its shell blocks exits 0 through ``cli.main``, and its Python block executes.
Its configuration-key table names every key of the config schema."""

import re
import shlex
from pathlib import Path

import pytest

from eulerexact.cli import MODES, main
from eulerexact.config import _SCHEMA

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.S | re.M)


# shell lines joined across backslash continuations, without the program name
COMMANDS = [shlex.split(line)[1:]
            for line in "\n".join(_blocks("sh")).replace("\\\n", " ").splitlines()
            if line.startswith("eulerexact ")]


def test_every_mode_has_an_example():
    assert {argv[0] for argv in COMMANDS} == set(MODES)


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_shell_example_exits_0(tmp_path, argv):
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0


def test_library_example_runs():
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})


def test_config_key_table_names_every_schema_key():
    section = README.split("### Config file format", 1)[1].split("\n### ", 1)[0]
    first_cells = [row.split("|")[1] for row in section.splitlines() if row.startswith("| `")]
    documented = {key for cell in first_cells for key in re.findall(r"`([^`]+)`", cell)}
    missing = set(_SCHEMA) - {"mode"} - documented
    assert not missing
