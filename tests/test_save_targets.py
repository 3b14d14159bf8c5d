"""Every save, a bank, score table or prior through ``replacing`` or a JSON
document through ``write_json``, goes to a regular file.  ``replacing``
delivers the whole file or leaves the old one at any name the directory
holds, or through a symlink, and makes the target's missing directories.
A target that exists and is not a regular file (a FIFO, a directory, a
device), or that is this process's stdout or stderr wherever they are
redirected, is refused before any byte is written."""

import itertools
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from gatedfusion.bank import SynthSpec, save_feature_bank, synth_generate
from gatedfusion.errors import ValidationError, write_json
from gatedfusion.scoring import ActionPrior, ScoreTable, save_prior, save_score_table

_needs_fifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")

_VERBS, _NOUNS = 4, 6
# The members each kind of zip holds; a planted fault fails its last one.
_MEMBERS = {"bank": 9, "noun table": 3, "action table": 4}


def _save(kind):
    """A function that saves a fixed ``kind`` of file to a path: a zip of
    ``_MEMBERS``, a prior or a JSON document."""
    if kind == "bank":
        bank = synth_generate(SynthSpec(n_segments=20), 3)
        return lambda path: save_feature_bank(bank, path)
    if kind == "prior":
        prior = ActionPrior(mu=np.full((_VERBS, _NOUNS), 1.0 / (_VERBS * _NOUNS)))
        return lambda path: save_prior(prior, path)
    if kind == "json":
        return lambda path: write_json({"format": "test", "x": [1.5, 2]}, path)
    rng = np.random.default_rng(5)
    ids = [f"train-{i:05d}" for i in range(100)]
    if kind == "noun table":
        table = ScoreTable(ids, rng.dirichlet(np.ones(_NOUNS), size=100), "noun")
    else:
        table = ScoreTable(ids, rng.dirichlet(np.ones(_VERBS * _NOUNS), size=100), "action",
                           verb_classes=_VERBS, noun_classes=_NOUNS,
                           actions=np.tile(np.arange(_VERBS * _NOUNS), (100, 1)))
    return lambda path: save_score_table(table, path)


def _fail_last_member(monkeypatch, kind):
    """Make a save of ``kind`` raise "planted fault" as it writes its last
    member, once the others are written."""
    real, calls = np.lib.format.write_array_header_1_0, itertools.count(1)

    def write_header(*args, **kwargs):
        if next(calls) == _MEMBERS[kind]:
            raise RuntimeError("planted fault")
        real(*args, **kwargs)

    monkeypatch.setattr(np.lib.format, "write_array_header_1_0", write_header)


class TestSaveTargets:
    @pytest.mark.parametrize("name", ["n" * 255, "€" * 84],
                             ids=["255 ASCII bytes", "84 three-byte characters"])
    @pytest.mark.parametrize("kind", ["noun table", "bank"])
    def test_a_name_the_directory_holds_saves(self, kind, name, monkeypatch, tmp_path):
        assert len(name.encode("utf-8")) in (252, 255)
        save = _save(kind)
        (tmp_path / "short").mkdir()
        (tmp_path / "long").mkdir()
        save(tmp_path / "short" / "s")
        want = (tmp_path / "short" / "s").read_bytes()
        path = tmp_path / "long" / name
        save(path)
        assert path.read_bytes() == want and os.listdir(tmp_path / "long") == [name]
        _fail_last_member(monkeypatch, kind)
        with pytest.raises(RuntimeError, match="planted fault"):
            save(path)
        assert path.read_bytes() == want and os.listdir(tmp_path / "long") == [name]

    @pytest.mark.parametrize("kind", ["bank", "json"])
    def test_a_save_makes_its_missing_directories(self, kind, tmp_path):
        path = tmp_path / "a" / "b" / "saved"
        _save(kind)(path)
        assert os.listdir(tmp_path) == ["a"] and os.listdir(tmp_path / "a") == ["b"]
        assert os.listdir(tmp_path / "a" / "b") == ["saved"]  # no .*.tmp

    def test_a_symlink_keeps_naming_the_saved_file(self, tmp_path):
        save = _save("noun table")
        save(tmp_path / "want")
        (tmp_path / "real.txt").write_text("old\n")
        (tmp_path / "link.txt").symlink_to(tmp_path / "real.txt")
        save(tmp_path / "link.txt")
        assert (tmp_path / "link.txt").is_symlink()
        assert (tmp_path / "real.txt").read_bytes() == (tmp_path / "want").read_bytes()
        assert sorted(path.name for path in tmp_path.iterdir()) == ["link.txt", "real.txt",
                                                                    "want"]

    @_needs_fifo
    @pytest.mark.parametrize("target", ["FIFO", "symlink to a FIFO", "directory", "/dev/null"])
    @pytest.mark.parametrize("kind", [*_MEMBERS, "prior", "json"])
    def test_a_target_that_is_not_a_regular_file_is_refused(self, kind, target, tmp_path):
        # Opened, a FIFO with no reader would hold the save for good.
        fifo, link, directory = tmp_path / "save.fifo", tmp_path / "link", tmp_path / "dir"
        os.mkfifo(fifo)
        link.symlink_to(fifo)
        directory.mkdir()
        path = {"FIFO": fifo, "symlink to a FIFO": link, "directory": directory,
                "/dev/null": os.devnull}[target]
        save = _save(kind)
        with pytest.raises(ValidationError) as exc:
            save(path)
        assert str(exc.value) == f"{path}: not a regular file"
        assert sorted(os.listdir(tmp_path)) == ["dir", "link", "save.fifo"]  # no .*.tmp
        assert stat.S_ISFIFO(os.stat(fifo).st_mode) and os.listdir(directory) == []
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    @pytest.mark.parametrize("stream", ["stdout", "stderr"])
    @pytest.mark.parametrize("mode", ["a", "w"], ids=[">>", ">"])
    def test_a_save_to_a_redirected_stream_is_refused(self, mode, stream, tmp_path):
        # /dev/stdout and /dev/stderr name the log a stream is redirected
        # to, a regular file: a save there would rename a zip over the log.
        log = tmp_path / "log.txt"
        log.write_bytes(b"earlier\n")
        other = {"stdout": "stderr", "stderr": "stdout"}[stream]
        with open(log, mode + "b") as fh:
            child = subprocess.run([sys.executable, "-c", """if True:
                import sys
                import numpy as np
                from gatedfusion.errors import ValidationError
                from gatedfusion.scoring import ScoreTable, save_score_table
                stream = getattr(sys, sys.argv[1])
                table = ScoreTable(["s0"], np.ones((1, 1)), "noun")
                print("before", file=stream)
                for path in sys.argv[2:]:
                    try:
                        save_score_table(table, path)
                    except ValidationError as exc:
                        print(exc, file=stream)
                print("after", file=stream)
                """, stream, f"/dev/{stream}", str(log)],
                **{stream: fh, other: subprocess.PIPE},
                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}, timeout=60)
        assert child.returncode == 0
        assert getattr(child, other) == b""
        earlier = b"earlier\n" if mode == "a" else b""
        refused = f"/dev/{stream}: is this process's {stream}\n{log}: is this process's {stream}\n"
        assert log.read_bytes() == earlier + b"before\n" + refused.encode() + b"after\n"
        assert os.listdir(tmp_path) == ["log.txt"]
