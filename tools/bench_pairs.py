#!/usr/bin/env python3
"""Compare one benchmark metric between a parent commit and this checkout, in pairs.

The parent commit is checked out into a temporary `git worktree`, and
`perfbench/run.py` runs in both trees for each seed. The tree that runs
first alternates from pair to pair, so drift in the machine's speed
falls on both sides. The script prints each pair's values, each side's
median and quartiles, the parent's interquartile range and how many pairs
the checkout wins (ties count for neither), then removes the worktree.

    python3 tools/bench_pairs.py --parent HEAD~1 --workload train_hscorer \\
        --metric wall_s --seeds 21-30

A gain holds when the checkout wins at least nine pairs in ten and its
median is better than the parent's by more than the parent's
interquartile range. Uses the standard library only; it changes nothing
under `perfbench/`.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(spec: str) -> list[int]:
    """'21-30' or '3,7,11' -> a list of seeds."""
    seeds = []
    for part in spec.split(","):
        low, dash, high = part.partition("-")
        seeds.extend(range(int(low), int(high) + 1) if dash else [int(low)])
    if not seeds:
        raise argparse.ArgumentTypeError("no seeds given")
    return seeds


def _run(tree: Path, workload: str, seed: int, seconds: float, metric: str) -> float:
    """One `perfbench/run.py` invocation in `tree`; the metric's value."""
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
        return float(result["metrics"][metric]["value"])
    except (IndexError, KeyError, ValueError) as err:
        raise RuntimeError(
            f"{tree}: seed {seed}: no {metric} ({err}); stderr:\n{proc.stderr[-2000:]}"
        ) from err


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--metric", default="wall_s", choices=sorted(better))
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 21-30 or 3,7")
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    args = parser.parse_args()

    commit = subprocess.run(["git", "rev-parse", "--verify", args.parent + "^{commit}"],
                            cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    parent_tree = scratch / "parent"
    sign = 1.0 if better[args.metric] == "lower" else -1.0
    parent_values, change_values, wins = [], [], 0
    try:
        subprocess.run(["git", "worktree", "add", "--detach", str(parent_tree), commit],
                       cwd=ROOT, capture_output=True, text=True, check=True)
        print(f"{args.workload} {args.metric} ({better[args.metric]} is better): "
              f"parent {commit[:12]} vs {ROOT}")
        for i, seed in enumerate(args.seeds):
            sides = [("parent", parent_tree), ("change", ROOT)]
            if i % 2:
                sides.reverse()
            values = {name: _run(tree, args.workload, seed, args.seconds, args.metric)
                      for name, tree in sides}
            parent_values.append(values["parent"])
            change_values.append(values["change"])
            won = sign * (values["parent"] - values["change"]) > 0
            wins += won
            print(f"seed {seed:>4}  first {sides[0][0]:<6}  parent {values['parent']:.4f}  "
                  f"change {values['change']:.4f}  {'win' if won else '-'}", flush=True)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(parent_tree)],
                       cwd=ROOT, capture_output=True, text=True)
        shutil.rmtree(scratch, ignore_errors=True)

    p_q1, p_med, p_q3 = _quartiles(parent_values)
    c_q1, c_med, c_q3 = _quartiles(change_values)
    gain = sign * (p_med - c_med)
    pairs = len(args.seeds)
    print(f"parent median {p_med:.4f} (quartiles {p_q1:.4f}, {p_q3:.4f}; IQR {p_q3 - p_q1:.4f})")
    print(f"change median {c_med:.4f} (quartiles {c_q1:.4f}, {c_q3:.4f})")
    print(f"wins {wins}/{pairs}; median gain {gain:.4f}; "
          f"gain holds: {wins >= 0.9 * pairs and gain > p_q3 - p_q1}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
