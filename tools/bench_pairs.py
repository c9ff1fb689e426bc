#!/usr/bin/env python3
"""Compare one benchmark metric between a parent commit and this checkout, in pairs.

The parent commit is exported with `git archive` into a temporary
directory, and this checkout's working tree is exported next to it: the
files git tracks or would track, ignored files and bytecode caches left
out. Neither side thus starts with bytecode that an earlier run compiled.
`perfbench/run.py` runs in both exported trees for each seed, on
each workload in the comma-separated `--workload` list. The tree that runs
first alternates from seed to seed, so drift in the machine's speed falls
on both sides. Each pair's values are printed as they come. Then, for each
workload, one verdict block gives each side's median and quartiles for
`--metric`, the parent's interquartile range and how many pairs the
checkout wins (ties count for neither), and for every end-to-end metric in
`BENCHMARK.json` each side's median and the change's relative difference,
positive when worse, against that metric's bound. A metric whose parent
spread (interquartile range over median) exceeds its bound reads
"unresolved" unless every change run beats every parent run. A run that
fails the benchmark's checks is printed with its workload, side, seed and
the tail of its stderr, and its pair is left out of the wins and the
medians; the other pairs still run.

    python3 tools/bench_pairs.py --parent HEAD~1 --workload live_audit,train_hscorer \\
        --metric wall_s --seeds 21-30

A gain holds on a workload when the checkout wins at least nine pairs in
ten there (a pair left out counts as lost), its median is better than the
parent's by more than the parent's interquartile range, and it has no more
failed runs than the parent. Uses the standard library only; it changes
nothing under `perfbench/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _seeds(spec: str) -> list[int]:
    """'21-30' or '3,7,11' -> a list of seeds."""
    seeds = []
    for part in spec.split(","):
        low, dash, high = part.partition("-")
        seeds.extend(range(int(low), int(high) + 1) if dash else [int(low)])
    if not seeds:
        raise argparse.ArgumentTypeError("no seeds given")
    return seeds


class RunFailed(RuntimeError):
    """A benchmark run that reported no usable result."""


def export_worktree(root: Path, dest: Path) -> None:
    """Copy the working tree of git checkout `root` into `dest`: tracked and
    untracked files that git does not ignore, without `__pycache__`."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root, capture_output=True, check=True).stdout
    for rel in filter(None, os.fsdecode(listed).split("\0")):
        source = root / rel
        if "__pycache__" in Path(rel).parts or not source.is_file():
            continue  # bytecode, or a tracked file deleted from the working tree
        (dest / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(source, dest / rel)


def _run(tree: Path, workload: str, seed: int, seconds: float, metric: str) -> dict[str, float]:
    """One `perfbench/run.py` invocation in `tree`; every metric's value by name.

    Raises RunFailed when the run reports no `metric` or fails its checks."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        if not result["correct"]:
            raise ValueError("outputs failed the benchmark's checks")
        values = {name: float(m["value"]) for name, m in result["metrics"].items()}
        if metric not in values:
            raise KeyError(metric)
        return values
    except (IndexError, KeyError, TypeError, ValueError) as err:
        raise RunFailed(f"no {metric} ({err}); stderr:\n{proc.stderr[-2000:]}") from err


@dataclass
class Tally:
    """The complete pairs, failed runs and wins of one workload."""

    runs: dict[str, list[dict[str, float]]] = field(
        default_factory=lambda: {side: [] for side in SIDES})
    failed: dict[str, int] = field(default_factory=lambda: dict.fromkeys(SIDES, 0))
    wins: int = 0


def measure(workloads: list[str], seeds: list[int], trees: dict[str, Path], seconds: float,
            metric: str, lower_is_better: bool) -> dict[str, Tally]:
    """Run every seed's parent/change pair on every workload, printing each pair."""
    tallies = {workload: Tally() for workload in workloads}
    for i, seed in enumerate(seeds):
        order = SIDES[::-1] if i % 2 else SIDES
        for workload in workloads:
            tally = tallies[workload]
            pair = {}
            for side in order:
                try:
                    pair[side] = _run(trees[side], workload, seed, seconds, metric)
                except RunFailed as err:
                    tally.failed[side] += 1
                    print(f"{workload} seed {seed:>4}  {side} run failed: {err}", flush=True)
            if len(pair) < 2:
                print(f"{workload} seed {seed:>4}  pair left out", flush=True)
                continue
            for side, result in pair.items():
                tally.runs[side].append(result)
            parent, change = (pair[side][metric] for side in SIDES)
            won = change < parent if lower_is_better else change > parent
            tally.wins += won
            print(f"{workload} seed {seed:>4}  first {order[0]:<6}  parent {parent:.4f}  "
                  f"change {change:.4f}  {'win' if won else '-'}", flush=True)
    return tallies


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(workload: str, tally: Tally, pairs: int, metric: str, better: dict[str, str],
            bounds: dict[str, float]) -> bool:
    """Print one workload's verdict block; whether the gain on `metric` holds."""
    print(f"== {workload} {metric} ({better[metric]} is better)")
    print(f"failed runs: parent {tally.failed['parent']}, change {tally.failed['change']}")
    if not tally.runs["parent"]:
        print("no complete pair; gain holds: False")
        return False
    sign = 1.0 if better[metric] == "lower" else -1.0
    p_q1, p_med, p_q3 = _quartiles([r[metric] for r in tally.runs["parent"]])
    c_q1, c_med, c_q3 = _quartiles([r[metric] for r in tally.runs["change"]])
    gain = sign * (p_med - c_med)
    print(f"parent median {p_med:.4f} (quartiles {p_q1:.4f}, {p_q3:.4f}; IQR {p_q3 - p_q1:.4f})")
    print(f"change median {c_med:.4f} (quartiles {c_q1:.4f}, {c_q3:.4f})")
    holds = (tally.wins >= 0.9 * pairs and gain > p_q3 - p_q1
             and tally.failed["change"] <= tally.failed["parent"])
    print(f"wins {tally.wins}/{pairs}; median gain {gain:.4f}; gain holds: {holds}")
    print("every end-to-end metric, median per side; change relative to the parent, "
          "positive is worse:")
    for name, direction in better.items():
        parent = [r[name] for r in tally.runs["parent"]]
        change = [r[name] for r in tally.runs["change"]]
        q1, before, q3 = _quartiles(parent)
        after = statistics.median(change)
        worse = after - before if direction == "lower" else before - after  # never -0.0
        spread = q3 - q1
        if before:
            worse /= abs(before)
            spread /= abs(before)
        # A spread wider than the bound cannot tell a regression from noise,
        # unless every run of the change beats every run of the parent.
        beats_all = (max(change) < min(parent) if direction == "lower"
                     else min(change) > max(parent))
        status = ("unresolved" if spread > bounds[name] and not beats_all
                  else "beyond" if worse > bounds[name] else "within")
        print(f"  {name:<17} parent {before:.4f}  change {after:.4f}  {worse:+.1%}  "
              f"{status} bound {bounds[name]:.0%}  parent spread {spread:.1%}")
    return holds


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    known = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--workload", required=True,
                        help=f"one or more of {', '.join(known)}, comma-separated")
    parser.add_argument("--metric", default="wall_s", choices=sorted(better))
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 21-30 or 3,7")
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    args = parser.parse_args()
    workloads = list(dict.fromkeys(args.workload.split(",")))
    unknown = [w for w in workloads if w not in known]
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; choose from {', '.join(known)}")

    commit = subprocess.run(["git", "rev-parse", "--verify", args.parent + "^{commit}"],
                            cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    trees = {side: scratch / side for side in SIDES}
    try:
        trees["parent"].mkdir()
        archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True,
                                 check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(trees["parent"])], input=archive, check=True)
        export_worktree(ROOT, trees["change"])
        print(f"{', '.join(workloads)} {args.metric}: parent {commit[:12]} vs {ROOT}")
        tallies = measure(workloads, args.seeds, trees, args.seconds, args.metric,
                          better[args.metric] == "lower")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    complete = True
    for workload, tally in tallies.items():
        verdict(workload, tally, len(args.seeds), args.metric, better, bounds)
        complete = complete and bool(tally.runs["parent"])
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
