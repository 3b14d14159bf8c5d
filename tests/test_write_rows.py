"""``errors.write_rows``, the writer of score-table rows: its bytes must not
depend on the number of usable CPUs, and no child process may outlive a
save, on success or on failure.  ``replacing``, which banks, score tables
and priors are saved through, delivers the whole file or no bytes to every
target: a regular file of any name the directory holds, a symlink, a pipe
or this process's stdout, wherever it is redirected."""

import dataclasses
import itertools
import math
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import reference_save_score_table

from gatedfusion import errors, scoring as scoring_module
from gatedfusion.bank import SynthSpec, save_feature_bank, synth_generate
from gatedfusion.scoring import ScoreTable, load_score_table, save_score_table

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the second CPU needs os.fork")

# Benchmark-shaped: the dense noun table of perfbench's score workload, and
# a noun table as wide as its action table, +0.0 in every row outside a
# prior over 5 of 40 nouns per verb.
_ROWS, _VERBS, _NOUNS, _LIVE_NOUNS = 2000, 20, 40, 5


@pytest.fixture(autouse=True)
def _same_affinity_after():
    """The writer pins itself to the CPUs the patched ``_usable_cpus`` names
    around each fork; give this process back the CPUs it had."""
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    yield
    if affinity is not None:
        os.sched_setaffinity(0, affinity)


@pytest.fixture(scope="module")
def full_tables():
    rng = np.random.default_rng(5)
    ids = [f"train-{i:05d}" for i in range(_ROWS)]
    dense = ScoreTable(ids, rng.dirichlet(np.ones(_NOUNS), size=_ROWS), "noun")
    support = np.zeros((_VERBS, _NOUNS), dtype=bool)
    for verb in range(_VERBS):
        support[verb, rng.choice(_NOUNS, size=_LIVE_NOUNS, replace=False)] = True
    action = rng.random((_ROWS, _VERBS * _NOUNS)) * support.ravel()
    sparse = ScoreTable(ids, action / action.sum(axis=1, keepdims=True), "noun")
    return {"dense": dense, "sparse": sparse}


def _table_head(table, n):
    return dataclasses.replace(table, segment_ids=table.segment_ids[:n], scores=table.scores[:n])


def _reference_text(table, tmp_path):
    path = tmp_path / "reference.txt"
    reference_save_score_table(table, path)
    return path.read_bytes()


def _fork_threshold(full, tmp_path):
    """The fewest rows that fork: more rows than the 64-row probe, whose
    bytes predict at least ``FORK_BYTES`` in all."""
    probe = _reference_text(_table_head(full, 64), tmp_path).split(b"\n", 1)[1]
    return max(65, math.ceil(errors.FORK_BYTES * 64 / len(probe)))


@pytest.fixture
def forks(monkeypatch):
    """Patch the usable CPUs with ``forks.cpus(k)``; ``forks.calls`` counts
    the ``os.fork`` calls since."""
    real_fork = os.fork

    class Forks:
        calls = 0

        def cpus(self, k):
            monkeypatch.setattr(errors, "_usable_cpus", lambda: set(range(k)))
            self.calls = 0

    spy = Forks()

    def counting_fork():
        spy.calls += 1
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return spy


def _open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


def _fail_fifth_member(monkeypatch):
    """Make a bank save raise "planted fault" as it writes its fifth member."""
    real, calls = np.lib.format.write_array_header_1_0, itertools.count(1)

    def write_header(*args, **kwargs):
        if next(calls) == 5:
            raise RuntimeError("planted fault")
        real(*args, **kwargs)

    monkeypatch.setattr(np.lib.format, "write_array_header_1_0", write_header)


class TestBytesDoNotDependOnTheCpuCount:
    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_one_and_two_cpus_write_the_reference_bytes(self, kind, full_tables, forks,
                                                        tmp_path):
        full = full_tables[kind]
        at = _fork_threshold(full, tmp_path)
        above = _ROWS if kind == "dense" else 400
        assert at < above
        fds = _open_fds()
        for n in (0, 1, at - 1, at, above):
            data = _table_head(full, n)
            reference = _reference_text(data, tmp_path)
            for cpus in (1, 2):
                forks.cpus(cpus)
                path = tmp_path / f"{n}-{cpus}.out"
                save_score_table(data, path)
                assert forks.calls == (cpus == 2 and n >= at), (n, cpus)
                assert path.read_bytes() == reference, (n, cpus)
        _assert_no_child()
        assert _open_fds() == fds

    def test_a_failed_fork_formats_every_row_here(self, full_tables, monkeypatch, tmp_path):
        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(errors, "_usable_cpus", lambda: {0, 1})
        monkeypatch.setattr(os, "fork", no_fork)
        table = full_tables["sparse"]
        fds = _open_fds()
        save_score_table(table, tmp_path / "t.txt")
        assert (tmp_path / "t.txt").read_bytes() == _reference_text(table, tmp_path)
        assert _open_fds() == fds


class TestNoProcessOutlivesASave:
    """A failed save raises, leaves no child, no leaked descriptor and no
    temporary file, and leaves the old file: a table saved earlier still
    loads to its old scores, and where there was none, there is none."""

    @pytest.fixture
    def table(self, full_tables, monkeypatch):
        monkeypatch.setattr(errors, "_usable_cpus", lambda: {0, 1})
        return full_tables["dense"]  # 2000 rows: the child formats rows 1000 to 1999

    @staticmethod
    def _plant(monkeypatch, fault):
        """Run ``fault(lo)`` before ``save_score_table`` formats rows from ``lo``."""
        real = scoring_module.write_rows

        def planted(fh, format_rows, n):
            def faulty(lo, hi):
                fault(lo)
                return format_rows(lo, hi)

            real(fh, faulty, n)

        monkeypatch.setattr(scoring_module, "write_rows", planted)

    @staticmethod
    def _save_old(old, tmp_path):
        """Save ``old`` at ``old/t.txt`` under ``tmp_path``, next to an empty
        ``none`` directory, before any fault is planted; returns that path."""
        (tmp_path / "none").mkdir()
        (tmp_path / "old").mkdir()
        save_score_table(old, tmp_path / "old" / "t.txt")
        return tmp_path / "old" / "t.txt"

    @staticmethod
    def _fail_over_old_and_none(save, raises, tmp_path):
        """Run ``save(path)`` under ``raises`` at ``t.txt`` in the directory
        holding the old file and in the empty one: each failure leaves every
        file as it was, and no other."""
        files = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
        for where in ("old", "none"):
            fds = _open_fds()
            with raises():
                save(tmp_path / where / "t.txt")
            _assert_no_child()
            assert _open_fds() == fds
        assert {path: path.read_bytes() for path in tmp_path.rglob("*")
                if path.is_file()} == files  # no temporary file is left either

    def test_a_fault_in_a_score_table_row_leaves_the_old_table(self, table, monkeypatch,
                                                               tmp_path):
        def fault(lo):
            if lo >= _ROWS // 2:
                raise RuntimeError("planted fault")

        old = _table_head(table, 100)
        kept = self._save_old(old, tmp_path)
        self._plant(monkeypatch, fault)
        self._fail_over_old_and_none(
            lambda path: save_score_table(table, path),
            lambda: pytest.raises(OSError, match=f"rows {_ROWS // 2} to {_ROWS} failed"),
            tmp_path)
        assert load_score_table(kept).scores.tobytes() == old.scores.tobytes()

    def test_a_fault_here_kills_and_reaps_the_child(self, table, monkeypatch, tmp_path):
        def fault(lo):
            if lo >= _ROWS // 2:
                time.sleep(60)  # a child left running would hold the save this long
            elif lo >= 64:  # the first chunk after the fork
                raise RuntimeError("planted fault")

        old = _table_head(table, 100)
        kept = self._save_old(old, tmp_path)
        self._plant(monkeypatch, fault)
        real_kill, kills = os.kill, []

        def spy_kill(pid, sig):
            kills.append(sig)
            real_kill(pid, sig)

        def save(path):
            start = time.monotonic()
            save_score_table(table, path)
            assert time.monotonic() - start < 30

        monkeypatch.setattr(os, "kill", spy_kill)
        self._fail_over_old_and_none(
            save, lambda: pytest.raises(RuntimeError, match="planted fault"), tmp_path)
        assert kills == [signal.SIGKILL] * 2
        assert load_score_table(kept).scores.tobytes() == old.scores.tobytes()


    def test_a_fault_in_a_row_sends_no_byte_down_a_pipe(self, table, monkeypatch, tmp_path):
        # Written in place, the pipe got the first 1000 rows: a table that loads.
        def fault(lo):
            if lo >= _ROWS // 2:
                raise RuntimeError("planted fault")

        self._plant(monkeypatch, fault)
        raised, got = _pipe_save(tmp_path, lambda fifo: save_score_table(table, fifo))
        assert isinstance(raised, OSError)
        assert f"rows {_ROWS // 2} to {_ROWS} failed" in str(raised)
        assert got == b""
        _assert_no_child()


class TestSaveTargets:
    def test_a_pipe_is_written_in_place(self, full_tables, tmp_path):
        table = _table_head(full_tables["dense"], 100)
        save_score_table(table, tmp_path / "t.txt")
        fifo, out = tmp_path / "t.fifo", tmp_path / "out.txt"
        os.mkfifo(fifo)
        reader = subprocess.Popen([sys.executable, "-c",
                                   "import sys; open(sys.argv[2], 'wb').write("
                                   "open(sys.argv[1], 'rb').read())", str(fifo), str(out)])
        try:
            save_score_table(table, fifo)
            assert reader.wait(timeout=60) == 0
        finally:  # a reader left blocked on the pipe ends with the test
            reader.kill()
            reader.wait()
        assert out.read_bytes() == (tmp_path / "t.txt").read_bytes()
        assert sorted(path.name for path in tmp_path.iterdir()) == ["out.txt", "t.fifo", "t.txt"]

    @pytest.mark.parametrize("kind", ["bank", "action table"])
    def test_a_zip_saved_to_a_pipe_has_the_file_s_bytes(self, kind, full_tables, tmp_path):
        # zipfile adds data descriptors on a handle that cannot seek: the
        # zip is built in memory first, so the pipe gets the file's bytes.
        if kind == "bank":
            bank = synth_generate(SynthSpec(n_segments=20), 3)

            def save(path):
                save_feature_bank(bank, path)
        else:
            head = _table_head(full_tables["sparse"], 100)
            table = ScoreTable(head.segment_ids, head.scores, "action", verb_classes=_VERBS,
                               noun_classes=_NOUNS)

            def save(path):
                save_score_table(table, path)
        save(tmp_path / "saved")
        raised, got = _pipe_save(tmp_path, save)
        assert raised is None and got == (tmp_path / "saved").read_bytes()
        assert sorted(path.name for path in tmp_path.iterdir()) == ["out", "save.fifo", "saved"]

    def test_a_failed_bank_save_sends_no_byte_down_a_pipe(self, monkeypatch, tmp_path):
        bank = synth_generate(SynthSpec(n_segments=20), 3)
        _fail_fifth_member(monkeypatch)
        raised, got = _pipe_save(tmp_path, lambda fifo: save_feature_bank(bank, fifo))
        assert str(raised) == "planted fault" and got == b""

    @pytest.mark.parametrize("name", ["n" * 255, "\u20ac" * 84],
                             ids=["255 ASCII bytes", "84 three-byte characters"])
    @pytest.mark.parametrize("kind", ["score table", "bank"])
    def test_a_name_the_directory_holds_saves(self, kind, name, full_tables, monkeypatch,
                                              tmp_path):
        assert len(name.encode("utf-8")) in (252, 255)
        if kind == "bank":
            bank = synth_generate(SynthSpec(n_segments=20), 3)

            def save(path):
                save_feature_bank(bank, path)

            def plant():
                _fail_fifth_member(monkeypatch)
        else:
            table = _table_head(full_tables["dense"], 100)

            def save(path):
                save_score_table(table, path)

            def failing_rows(fh, format_rows, n):
                fh.write(format_rows(0, 1))
                raise RuntimeError("planted fault")

            def plant():
                monkeypatch.setattr(scoring_module, "write_rows", failing_rows)
        (tmp_path / "short").mkdir()
        (tmp_path / "long").mkdir()
        save(tmp_path / "short" / "s")
        want = (tmp_path / "short" / "s").read_bytes()
        path = tmp_path / "long" / name
        save(path)
        assert path.read_bytes() == want and os.listdir(tmp_path / "long") == [name]
        plant()
        with pytest.raises(RuntimeError, match="planted fault"):
            save(path)
        assert path.read_bytes() == want and os.listdir(tmp_path / "long") == [name]

    def test_a_symlink_keeps_naming_the_saved_file(self, full_tables, tmp_path):
        table = _table_head(full_tables["dense"], 10)
        (tmp_path / "real.txt").write_text("old\n")
        (tmp_path / "link.txt").symlink_to(tmp_path / "real.txt")
        save_score_table(table, tmp_path / "link.txt")
        assert (tmp_path / "link.txt").is_symlink()
        assert load_score_table(tmp_path / "real.txt").scores.tobytes() == table.scores.tobytes()
        assert sorted(path.name for path in tmp_path.iterdir()) == ["link.txt", "real.txt"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("flush", [True, False], ids=["flushed", "buffered"])
    @pytest.mark.parametrize("mode", ["a", "w"], ids=[">>", ">"])
    def test_a_save_to_dev_stdout_writes_at_the_descriptor(self, mode, flush, full_tables,
                                                          tmp_path):
        # Followed to the file stdout is redirected to, the save renamed a new
        # file over it: the log then held the table alone.
        table = tmp_path / "t.txt"
        save_score_table(_table_head(full_tables["dense"], 10), table)
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
