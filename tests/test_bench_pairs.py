"""tools/bench_pairs.py: pairs over several workloads with `_run` stubbed out, and the
export of the working tree that the change side runs in."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture()
def bench_pairs(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_pairs", module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


BETTER = {"wall_s": "lower", "lr_val_accuracy": "higher"}
BOUNDS = {"wall_s": 0.25, "lr_val_accuracy": 0.1}
TREES = {"parent": Path("parent-tree"), "change": Path("change-tree")}


def test_every_seed_pairs_every_workload(bench_pairs, monkeypatch, capsys):
    calls = []

    def fake_run(tree, workload, seed, seconds, metric):
        side = "parent" if tree == TREES["parent"] else "change"
        calls.append((seed, workload, side))
        if (workload, seed, side) == ("train_hscorer", 2, "change"):
            raise bench_pairs.RunFailed("no wall_s (stub)")
        wall = {"parent": 2.0, "change": 1.8}[side] + seed * 0.001
        return {"wall_s": wall, "lr_val_accuracy": 0.84}

    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    tallies = bench_pairs.measure(["live_audit", "train_hscorer"], [1, 2, 3], TREES, 36.0,
                                  "wall_s", lower_is_better=True)

    # Each seed runs both workloads; the side that runs first alternates by seed.
    assert calls == [
        (1, "live_audit", "parent"), (1, "live_audit", "change"),
        (1, "train_hscorer", "parent"), (1, "train_hscorer", "change"),
        (2, "live_audit", "change"), (2, "live_audit", "parent"),
        (2, "train_hscorer", "change"), (2, "train_hscorer", "parent"),
        (3, "live_audit", "parent"), (3, "live_audit", "change"),
        (3, "train_hscorer", "parent"), (3, "train_hscorer", "change"),
    ]
    live, train = tallies["live_audit"], tallies["train_hscorer"]
    assert (live.wins, live.failed) == (3, {"parent": 0, "change": 0})
    assert (train.wins, train.failed) == (2, {"parent": 0, "change": 1})
    assert len(train.runs["parent"]) == len(train.runs["change"]) == 2
    pairs_out = capsys.readouterr().out
    assert "train_hscorer seed    2  change run failed: no wall_s (stub)" in pairs_out
    assert "train_hscorer seed    2  pair left out" in pairs_out

    assert bench_pairs.verdict("live_audit", live, 3, "wall_s", BETTER, BOUNDS)
    live_block = capsys.readouterr().out
    assert live_block.startswith("== live_audit wall_s (lower is better)\n")
    assert "wins 3/3; median gain 0.2000; gain holds: True" in live_block
    assert "wall_s            parent 2.0020  change 1.8020  -10.0%  within bound 25%" in live_block
    assert "lr_val_accuracy   parent 0.8400  change 0.8400  +0.0%  within bound 10%" in live_block

    # A failed run of the change counts as a lost pair and keeps the gain from holding.
    assert not bench_pairs.verdict("train_hscorer", train, 3, "wall_s", BETTER, BOUNDS)
    train_block = capsys.readouterr().out
    assert "failed runs: parent 0, change 1" in train_block
    assert "wins 2/3;" in train_block and "gain holds: False" in train_block


def test_no_complete_pair(bench_pairs, capsys):
    tally = bench_pairs.Tally()
    tally.failed["change"] = 1
    assert not bench_pairs.verdict("offline_audit", tally, 1, "wall_s", BETTER, BOUNDS)
    assert "no complete pair; gain holds: False" in capsys.readouterr().out


def _tally(bench_pairs, parent_walls, change_walls):
    tally = bench_pairs.Tally()
    for side, walls in (("parent", parent_walls), ("change", change_walls)):
        tally.runs[side] = [{"wall_s": w, "lr_val_accuracy": 0.84} for w in walls]
    return tally


def test_parent_spread_beyond_the_bound_is_unresolved(bench_pairs, capsys):
    # Parent quartiles 1.125 and 2.875 around a median of 2.0: a spread of 87.5%.
    tally = _tally(bench_pairs, [1.0, 1.5, 2.5, 3.0], [0.9, 1.6, 2.4, 3.1])
    bench_pairs.verdict("offline_audit", tally, 4, "wall_s", BETTER, BOUNDS)
    block = capsys.readouterr().out
    assert ("wall_s            parent 2.0000  change 2.0000  +0.0%  unresolved bound 25%  "
            "parent spread 87.5%") in block
    assert ("lr_val_accuracy   parent 0.8400  change 0.8400  +0.0%  within bound 10%  "
            "parent spread 0.0%") in block


def test_wide_spread_is_resolved_when_every_change_run_beats_every_parent_run(
        bench_pairs, capsys):
    tally = _tally(bench_pairs, [2.0, 3.0, 5.0, 6.0], [1.0, 1.2, 1.4, 1.9])
    bench_pairs.verdict("offline_audit", tally, 4, "wall_s", BETTER, BOUNDS)
    assert "-67.5%  within bound 25%  parent spread " in capsys.readouterr().out
    # A change that is also slower on one run stays unresolved.
    tally = _tally(bench_pairs, [2.0, 3.0, 5.0, 6.0], [1.0, 1.2, 1.4, 2.1])
    bench_pairs.verdict("offline_audit", tally, 4, "wall_s", BETTER, BOUNDS)
    assert "-67.5%  unresolved bound 25%" in capsys.readouterr().out


def test_export_worktree_takes_untracked_files_and_no_bytecode(bench_pairs, tmp_path):
    root = tmp_path / "checkout"
    for rel, text in {".gitignore": "*.log\n", "tracked.py": "x = 1\n", "gone.py": "y = 2\n",
                      "pkg/new.py": "z = 3\n", "run.log": "noise\n",
                      "pkg/__pycache__/new.cpython-311.pyc": "bytecode"}.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text, encoding="utf-8")
    subprocess.run(["git", "init", "-q"], cwd=root, check=True)
    subprocess.run(["git", "add", ".gitignore", "tracked.py", "gone.py"], cwd=root, check=True)
    (root / "gone.py").unlink()  # tracked, but deleted from the working tree

    bench_pairs.export_worktree(root, tmp_path / "export")
    exported = sorted(p.relative_to(tmp_path / "export").as_posix()
                      for p in (tmp_path / "export").rglob("*") if p.is_file())
    assert exported == [".gitignore", "pkg/new.py", "tracked.py"]
    assert (tmp_path / "export/pkg/new.py").read_text(encoding="utf-8") == "z = 3\n"
