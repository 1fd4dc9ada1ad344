"""Unit tests of ``tools/ab.py``, the paired A/B benchmark runner.

The tool is a script, not a package, so it is imported by path.  No test
spawns a benchmark: verdicts and the per-order split run on synthetic
``bench/run.py`` results, and the working-tree export runs against a
throwaway git repository.
"""

import importlib.util
import os
import subprocess
import sys

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "..", "tools", "ab.py")
_SPEC = importlib.util.spec_from_file_location("ab_tool", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def _runs(values, name="m"):
    """Minimal ``bench/run.py`` results carrying one metric."""
    return [{"metrics": {name: {"value": v}}} for v in values]


class TestCompare:
    @pytest.mark.parametrize("better, change, verdict, wins", [
        ("higher", [8.0, 8.0], "ok", "0/2"),        # 0.80: inside 0.25
        ("higher", [7.0, 7.0], "WORSE", "0/2"),     # 0.70: below 0.75
        ("higher", [13.0, 9.0], "ok", "1/2"),       # 1.10: better
        ("lower", [12.0, 12.0], "ok", "0/2"),       # 1.20: inside 0.25
        ("lower", [13.0, 13.0], "WORSE", "0/2"),    # 1.30: above 1.25
        ("lower", [5.0, 11.0], "ok", "1/2"),        # 0.80: better
    ])
    def test_verdict_against_bound(self, better, change, verdict, wins):
        metric = {"name": "m", "better": better, "bound": 0.25}
        rows, ok = ab.compare([metric], _runs([10.0, 10.0]), _runs(change))
        name, bound, pm, cm, ratio, won, iqr, got = rows[0]
        assert (got, won) == (verdict, wins)
        assert ok == (verdict == "ok")
        assert ratio == pytest.approx(cm / pm)

    def test_one_metric_out_of_bound_fails_the_workload(self):
        metrics = [{"name": "a", "better": "higher", "bound": 0.25},
                   {"name": "b", "better": "lower", "bound": 0.1}]
        parent = [{"metrics": {"a": {"value": 1.0}, "b": {"value": 1.0}}}]
        change = [{"metrics": {"a": {"value": 2.0}, "b": {"value": 1.2}}}]
        rows, ok = ab.compare(metrics, parent, change)
        assert [r[-1] for r in rows] == ["ok", "WORSE"] and not ok


class TestPairs:
    @pytest.mark.parametrize("pairs", ["3", "1", "0"])
    def test_odd_or_empty_pairs_refused_before_any_work(
            self, pairs, monkeypatch, capsys):
        def forbidden(*args, **kwargs):
            raise AssertionError("ran before refusing --pairs")

        monkeypatch.setattr(ab, "git", forbidden)
        monkeypatch.setattr(ab, "export", forbidden)
        monkeypatch.setattr(sys, "argv", ["ab.py", "HEAD", "--pairs", pairs])
        with pytest.raises(SystemExit) as exc:
            ab.main()
        assert exc.value.code == 2
        assert "--pairs must be even" in capsys.readouterr().err

    def test_order_split(self):
        # pairs 0 and 2 ran the parent first, pairs 1 and 3 the change
        parent = _runs([10.0, 10.0, 10.0, 10.0], "ops_per_s")
        change = _runs([12.0, 9.0, 14.0, 9.0], "ops_per_s")
        first_parent, first_change = ab.order_ratios(parent, change)
        assert first_parent == pytest.approx(1.3)
        assert first_change == pytest.approx(0.9)


class TestExportChange:
    def test_untracked_files_exported_ignored_ones_not(
            self, tmp_path, monkeypatch):
        for var in ("GIT_AUTHOR", "GIT_COMMITTER"):
            monkeypatch.setenv(f"{var}_NAME", "ab test")
            monkeypatch.setenv(f"{var}_EMAIL", "ab@example.invalid")
        repo = tmp_path / "repo"
        repo.mkdir()

        def git(*args):
            subprocess.run(["git", *args], cwd=repo, check=True,
                           stdout=subprocess.DEVNULL)

        git("init", "-q")
        (repo / "tracked.txt").write_text("committed\n")
        (repo / ".gitignore").write_text("*.log\n")
        git("add", "-A")
        git("commit", "-q", "-m", "seed")
        (repo / "tracked.txt").write_text("edited\n")
        (repo / "pkg").mkdir()
        (repo / "pkg" / "new_module.py").write_text("X = 1\n")
        (repo / "run.log").write_text("build output\n")
        dst = tmp_path / "change"
        dst.mkdir()

        untracked = ab.export_change(str(dst), root=str(repo))

        assert untracked == ["pkg/new_module.py"]
        assert (dst / "tracked.txt").read_text() == "edited\n"
        assert (dst / "pkg" / "new_module.py").read_text() == "X = 1\n"
        assert not (dst / "run.log").exists()
        # the repository itself is left as it was: no stash, no new ref
        assert subprocess.run(["git", "stash", "list"], cwd=repo, check=True,
                              stdout=subprocess.PIPE).stdout == b""
