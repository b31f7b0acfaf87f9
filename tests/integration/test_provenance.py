"""A benchmark report names the revision it was measured at: the
commit, marked ``-dirty`` when tracked files differ from it."""

import subprocess

import pytest

from benchmarks import _provenance


def _fake_git(monkeypatch, rev="3963ebe", status="", fails=()):
    """``subprocess.run`` answering ``git rev-parse`` with ``rev`` and
    ``git status`` with ``status``; a subcommand in ``fails`` exits 128."""
    calls = []

    def run(argv, **kwargs):
        calls.append(argv)
        assert argv[0] == "git"
        out = {"rev-parse": rev, "status": status}[argv[1]]
        code = 128 if argv[1] in fails else 0
        return subprocess.CompletedProcess(argv, code, out + "\n", "")

    monkeypatch.setattr(_provenance.subprocess, "run", run)
    return calls


def test_a_clean_tree_is_its_commit(monkeypatch):
    calls = _fake_git(monkeypatch)
    assert _provenance._git_rev() == "3963ebe"
    assert calls[1][1:] == ["status", "--porcelain", "--untracked-files=no"]


def test_a_modified_tracked_file_is_dirty(monkeypatch):
    _fake_git(monkeypatch, status=" M BENCH_instances.json")
    assert _provenance._git_rev() == "3963ebe-dirty"
    assert _provenance.provenance_header("bench_instances.py")[
        "git_rev"] == "3963ebe-dirty"


def test_a_status_that_fails_is_not_dirty(monkeypatch):
    _fake_git(monkeypatch, status=" M x", fails=("status",))
    assert _provenance._git_rev() == "3963ebe"


@pytest.mark.parametrize("broken", ["no-git", "not-a-checkout"])
def test_outside_a_checkout_is_unknown(monkeypatch, broken):
    if broken == "no-git":
        def run(argv, **kwargs):
            raise FileNotFoundError("git")

        monkeypatch.setattr(_provenance.subprocess, "run", run)
    else:
        _fake_git(monkeypatch, rev="", fails=("rev-parse",))
    assert _provenance._git_rev() == "unknown"
