"""``replacing``, which banks, score tables and priors are saved through,
delivers the whole file or no bytes to every target: a regular file of any
name the directory holds, a symlink, a pipe or this process's stdout,
wherever it is redirected."""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

from gatedfusion.bank import SynthSpec, save_feature_bank, synth_generate
from gatedfusion.scoring import ScoreTable, load_score_table, save_score_table

_needs_fifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")

_VERBS, _NOUNS = 4, 6
# The members each kind of zip holds; a planted fault fails its last one.
_MEMBERS = {"bank": 9, "noun table": 3, "action table": 4}


def _save(kind):
    """A function that saves a fixed ``kind`` of zip to a path."""
    if kind == "bank":
        bank = synth_generate(SynthSpec(n_segments=20), 3)
        return lambda path: save_feature_bank(bank, path)
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


def _pipe_save(tmp_path, save):
    """Run ``save(fifo)`` on a new FIFO that a reader process copies to a
    file; return the exception the save raised, or None, and the bytes the
    reader got."""
    fifo, out = tmp_path / "save.fifo", tmp_path / "out"
    os.mkfifo(fifo)
    reader = subprocess.Popen([sys.executable, "-c",
                               "import sys; open(sys.argv[2], 'wb').write("
                               "open(sys.argv[1], 'rb').read())", str(fifo), str(out)])
    raised = None
    try:
        try:
            save(fifo)
        except Exception as exc:
            raised = exc
        assert reader.wait(timeout=60) == 0
    finally:  # a reader left blocked on the pipe ends with the test
        reader.kill()
        reader.wait()
    return raised, out.read_bytes()


class TestSaveTargets:
    @_needs_fifo
    @pytest.mark.parametrize("kind", list(_MEMBERS))
    def test_a_zip_saved_to_a_pipe_has_the_file_s_bytes(self, kind, tmp_path):
        # zipfile adds data descriptors on a handle that cannot seek: the
        # zip is built in memory first, so the pipe gets the file's bytes.
        save = _save(kind)
        save(tmp_path / "saved")
        raised, got = _pipe_save(tmp_path, save)
        assert raised is None and got == (tmp_path / "saved").read_bytes()
        assert sorted(path.name for path in tmp_path.iterdir()) == ["out", "save.fifo", "saved"]

    @_needs_fifo
    @pytest.mark.parametrize("kind", list(_MEMBERS))
    def test_a_failed_save_sends_no_byte_down_a_pipe(self, kind, monkeypatch, tmp_path):
        # Written in place, the pipe got every member before the last.
        save = _save(kind)
        _fail_last_member(monkeypatch, kind)
        raised, got = _pipe_save(tmp_path, save)
        assert str(raised) == "planted fault" and got == b""

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

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("flush", [True, False], ids=["flushed", "buffered"])
    @pytest.mark.parametrize("mode", ["a", "w"], ids=[">>", ">"])
    def test_a_save_to_dev_stdout_writes_at_the_descriptor(self, mode, flush, tmp_path):
        # Followed to the file stdout is redirected to, the save renamed a new
        # file over it: the log then held the table alone.
        table = tmp_path / "t.npz"
        _save("noun table")(table)
        log = tmp_path / "log.txt"
        log.write_bytes(b"earlier\n")
        with open(log, mode + "b") as stdout:
            child = subprocess.run([sys.executable, "-c", f"""if True:
                import sys
                from gatedfusion.scoring import load_score_table, save_score_table
                print("before", flush={flush})
                save_score_table(load_score_table(sys.argv[1]), "/dev/stdout")
                print("after")
                """, str(table)], stdout=stdout,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}, timeout=60)
        assert child.returncode == 0
        earlier = b"earlier\n" if mode == "a" else b""
        assert log.read_bytes() == earlier + b"before\n" + table.read_bytes() + b"after\n"
