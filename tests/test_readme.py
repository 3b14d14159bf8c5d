"""The README stays runnable: every ``gatedfusion`` command in its bash
blocks exits 0, its library example runs, and its one stated result holds."""

import json
import re
import shlex
from pathlib import Path

from gatedfusion.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang: str, text: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.M | re.S)


def readme_commands() -> list[list[str]]:
    """The argv of each ``gatedfusion`` command in the README's bash blocks,
    with ``\\`` continuations joined and ``#`` comments dropped."""
    commands = []
    for block in _blocks("bash", README.read_text(encoding="utf-8")):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["gatedfusion"]:
                commands.append(argv[1:])
    return commands


def test_every_command_exits_zero_and_reweighting_lifts_action_top1(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"synth", "stats", "train", "eval", "actions",
                                              "gradcheck"}
    for argv in commands:
        assert main(argv) == 0, argv
    # the README's stated result of its walkthrough
    action = json.loads(Path("actions/action_report.json").read_text())["action"]
    assert action["reweighted"]["top1"] > action["plain"]["top1"]


def test_library_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = _blocks("python", section)[0]
    exec(compile(block, f"{README.name} (Library use)", "exec"), {})
