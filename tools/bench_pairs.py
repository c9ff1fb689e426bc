#!/usr/bin/env python3
"""Compare one benchmark metric between a parent commit and this checkout, in pairs.

The parent commit is exported with `git archive` into a temporary
directory, and `perfbench/run.py` runs in both trees for each seed. The
tree that runs first alternates from pair to pair, so drift in the
machine's speed falls on both sides. For `--metric` the script prints
each pair's values, each side's median and quartiles, the parent's
interquartile range and how many pairs the checkout wins (ties count for
neither). A run that fails the benchmark's checks is printed with its side,
seed and the tail of its stderr, and its pair is left out of the wins and
the medians; the other seeds still run. For every end-to-end metric in `BENCHMARK.json` it then prints
each side's median and the change's relative difference, positive when
worse, against that metric's bound.

    python3 tools/bench_pairs.py --parent HEAD~1 --workload train_hscorer \\
        --metric wall_s --seeds 21-30

A gain holds when the checkout wins at least nine pairs in ten (a pair
left out counts as lost), its median is better than the parent's by more
than the parent's interquartile range, and it has no more failed runs than
the parent. Uses the standard library only; it changes nothing
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


class RunFailed(RuntimeError):
    """A benchmark run that reported no usable result."""


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


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
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
    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    failed = {"parent": 0, "change": 0}
    wins = 0
    try:
        parent_tree.mkdir()
        archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True,
                                 check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_tree)], input=archive, check=True)
        print(f"{args.workload} {args.metric} ({better[args.metric]} is better): "
              f"parent {commit[:12]} vs {ROOT}")
        for i, seed in enumerate(args.seeds):
            sides = [("parent", parent_tree), ("change", ROOT)]
            if i % 2:
                sides.reverse()
            pair = {}
            for name, tree in sides:
                try:
                    pair[name] = _run(tree, args.workload, seed, args.seconds, args.metric)
                except RunFailed as err:
                    failed[name] += 1
                    print(f"seed {seed:>4}  {name} run failed: {err}", flush=True)
            if len(pair) < 2:
                print(f"seed {seed:>4}  pair left out", flush=True)
                continue
            for name, result in pair.items():
                runs[name].append(result)
            parent, change = (pair[name][args.metric] for name in ("parent", "change"))
            won = sign * (parent - change) > 0
            wins += won
            print(f"seed {seed:>4}  first {sides[0][0]:<6}  parent {parent:.4f}  "
                  f"change {change:.4f}  {'win' if won else '-'}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"failed runs: parent {failed['parent']}, change {failed['change']}")
    if not runs["parent"]:
        print("no complete pair; gain holds: False")
        return 1
    p_q1, p_med, p_q3 = _quartiles([r[args.metric] for r in runs["parent"]])
    c_q1, c_med, c_q3 = _quartiles([r[args.metric] for r in runs["change"]])
    gain = sign * (p_med - c_med)
    pairs = len(args.seeds)
    print(f"parent median {p_med:.4f} (quartiles {p_q1:.4f}, {p_q3:.4f}; IQR {p_q3 - p_q1:.4f})")
    print(f"change median {c_med:.4f} (quartiles {c_q1:.4f}, {c_q3:.4f})")
    holds = wins >= 0.9 * pairs and gain > p_q3 - p_q1 and failed["change"] <= failed["parent"]
    print(f"wins {wins}/{pairs}; median gain {gain:.4f}; gain holds: {holds}")
    print("every end-to-end metric, median per side; change relative to the parent, "
          "positive is worse:")
    for name, direction in better.items():
        before = statistics.median(r[name] for r in runs["parent"])
        after = statistics.median(r[name] for r in runs["change"])
        worse = (after - before) * (1.0 if direction == "lower" else -1.0)
        if before:
            worse /= abs(before)
        print(f"  {name:<17} parent {before:.4f}  change {after:.4f}  {worse:+.1%}  "
              f"{'beyond' if worse > bounds[name] else 'within'} bound {bounds[name]:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
