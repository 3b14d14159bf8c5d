"""The README stays runnable: every ``gatedfusion`` command in its bash
blocks exits 0, its library example runs, and its one stated result holds."""

import json
import re
import shlex
import textwrap
from pathlib import Path

import numpy as np

from gatedfusion.bank import Detection, FeatureBank, SegmentRecord, load_feature_bank
from gatedfusion.cli import main

from conftest import OLD_JSON_LINES_BANK, banks_equal

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang: str, text: str, indent: str = "") -> list[str]:
    """The ``lang`` fenced blocks of ``text`` whose fences start with ``indent``, dedented."""
    return [textwrap.dedent(block) for block in re.findall(
        rf"^{indent}```{lang}\n(.*?)^{indent}```", text, re.M | re.S)]


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


def library_example() -> tuple[str, str]:
    """The README's ``Library use`` block, and the bank file it saves."""
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = _blocks("python", section)[0]
    return block, re.search(r'save_feature_bank\(.*?"([^"]+)"\)', block, re.S).group(1)


def test_every_command_exits_zero_and_reweighting_lifts_action_top1(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"synth", "stats", "train", "eval", "actions",
                                              "gradcheck"}
    for argv in commands:
        assert main(argv) == 0, argv
    report = json.loads(Path("actions/action_report.json").read_text())
    assert list(report) == ["action", "verb", "noun"]
    # the README's stated result of its walkthrough
    action = report["action"]
    assert action["reweighted"]["top1"] > action["plain"]["top1"]
    # np.load opens the action table; each row's kept pairs ascend, and its
    # ids block is the val bank's, so its rows are that bank's records
    with np.load("actions/action_scores.npz", allow_pickle=False) as npz:
        assert npz.files == ["header", "scores", "actions", "ids"]
        header, scores, actions, ids = (npz[key] for key in npz.files)
    assert (np.diff(actions, axis=1) > 0).all()
    with np.load("data/val.bank", allow_pickle=False) as npz:
        assert np.array_equal(ids, npz["ids"])
        labels = npz["labels"]
    # The re-weighted accuracy is the one read off the saved table, each row
    # ordered by (-score, action index) as label_ranks ranks.  All 5 x 12 =
    # 60 pairs are kept, so every row holds its true pair and both are exact.
    assert actions.shape == (len(labels), 60)
    ranked = np.take_along_axis(actions, np.lexsort((actions, -scores)), axis=1)
    ranks = np.argmax(ranked == (labels[:, 0] * header[1] + labels[:, 1])[:, None], axis=1)
    assert action["reweighted"] == {f"top{k}": np.count_nonzero(ranks < k) / len(ranks)
                                    for k in (1, 5)}
    # the prior actions counted is a zip np.load opens, of relative frequencies
    with np.load("actions/prior.npz", allow_pickle=False) as npz:
        assert npz.files == ["header", "mu", "ids"]
        assert abs(npz["mu"].sum() - 1.0) <= 1e-12


def test_library_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    block, bank = library_example()
    exec(compile(block, f"{README.name} (Library use)", "exec"), {})
    assert main(["stats", "--bank", bank, "--out-dir", "stats"]) == 0


def test_upgrade_example_packs_the_bank_the_json_lines_reader_did(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    section = README.read_text(encoding="utf-8").split("## File formats", 1)[1]
    block = _blocks("python", section, indent="  ")[0]
    Path("old.jsonl").write_bytes(OLD_JSON_LINES_BANK)
    exec(compile(block, f"{README.name} (File formats)", "exec"), {})
    # The records of OLD_JSON_LINES_BANK, as the JSON-lines reader packed them.
    want = FeatureBank.from_records([
        SegmentRecord("s0", np.array([1.0, 2.0]), 10, [Detection(10, 0.5, np.array([0.1, 0.2]))],
                      0, 1),
        SegmentRecord("s1", np.array([0.5, -1.0]), 20, [], None, 2),
    ], dim_v=2, dim_o=2, verb_vocab_size=2, noun_vocab_size=3)
    assert banks_equal(load_feature_bank("new.bank"), want)
