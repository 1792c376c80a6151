"""A/B the repository benchmark: a git ref against the working tree.

Checks ``REF`` out into a temporary ``git worktree`` and copies the
working tree (``src/``, ``perfbench/``, ``BENCHMARK.json``) beside it,
then runs each side's own ``perfbench/run.py`` for ``--pairs`` pairs
per workload and seed.  The side that goes first alternates from pair
to pair, because the host's speed drifts in phases (see
``perfbench/NOTES.md``, "Run-to-run spread").  Every run happens in
the temporary copies, so nothing under ``perfbench/`` is written.

For each workload and seed it prints, per end-to-end metric declared
in ``BENCHMARK.json``: each side's median and quartiles, the ratio of
the medians (working tree over ``REF``), how many pairs the working
tree won (ties count for neither side) and a verdict; then every
pair's ``wall_s``.  The verdicts:

- ``better``: it won at least 9 pairs in 10 and the medians differ by
  more than ``REF``'s interquartile range;
- ``WORSE``: its median is worse than ``REF``'s by more than the
  metric's bound in ``BENCHMARK.json``;
- ``equal``: every run of both sides read the same value;
- ``within``: anything else.

It exits 1 if the two sides disagree on ``sim.events`` or the outcome
digest (the simulations differ), or if any run fails its own checks.

Usage::

    python tools/perfbench_ab.py --ref HEAD~1 [--pairs 10] [--seeds 1 61]
        [--workloads sessions-mixed] [--seconds 40]

or ``make perfbench-ab REF=<git ref>``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: what a checkout needs to run the benchmark
TREE = ("src", "perfbench", "BENCHMARK.json")


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> Dict:
    """One ``perfbench/run.py`` run in ``tree``: its result line, plus
    the ``sim.events`` line that carries the outcome digest."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    events = [line for line in lines if line.startswith("sim.events ")]
    if not lines or not events:
        raise RuntimeError(f"{tree}: {workload} seed {seed} gave no result:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["stream"] = events[0]
    result["exit"] = proc.returncode
    return result


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(workload: str, seed: int, pairs: List[Tuple[Dict, Dict]],
            declared: List[Dict]) -> bool:
    """Print one workload's table; True when both sides simulate alike."""
    streams = {run["stream"] for pair in pairs for run in pair}
    same = len(streams) == 1
    correct = all(run["correct"] and run["exit"] == 0 for pair in pairs for run in pair)
    print(f"\n== {workload}  seed {seed}  ({len(pairs)} pairs)")
    print(f"   {'same' if same else 'DIFFERENT'} simulation: " + " | ".join(sorted(streams)))
    if not correct:
        print("   a run failed its own checks")
    print(f"   {'metric':<17} {'base median [q1, q3]':>32} {'new median [q1, q3]':>32}"
          f" {'new/base':>8} {'wins':>6}  verdict")
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        new = [n["metrics"][name]["value"] for _, n in pairs]
        bq, nq = quartiles(base), quartiles(new)
        wins = sum((n < b) if lower else (n > b) for b, n in zip(base, new))
        ratio = nq[1] / bq[1] if bq[1] else float("nan")
        print(f"   {name:<17} {bq[1]:>11.6g} [{bq[0]:.6g}, {bq[2]:.6g}]"
              f" {nq[1]:>11.6g} [{nq[0]:.6g}, {nq[2]:.6g}]"
              f" {ratio:>8.4f} {wins:>3}/{len(pairs)}  "
              f"{verdict(base, new, bq, nq, wins, lower, metric['bound'])}")
    print("   wall_s by pair (base/new): " + "  ".join(
        f"{b['metrics']['wall_s']['value']:.3f}/{n['metrics']['wall_s']['value']:.3f}"
        for b, n in pairs))
    return same and correct


def verdict(base, new, bq, nq, wins, lower, bound) -> str:
    """The claim rule and the regression bound, applied to one metric."""
    if len(set(base) | set(new)) == 1:
        return "equal"
    worse_by = (nq[1] - bq[1]) if lower else (bq[1] - nq[1])
    if bq[1] and worse_by / abs(bq[1]) > bound:
        return "WORSE"
    if 10 * wins >= 9 * len(base) and abs(nq[1] - bq[1]) > bq[2] - bq[0]:
        return "better"
    return "within"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", required=True, help="git ref to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--workloads", nargs="+", default=None,
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]

    # A terminated run still removes its worktree (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    tmp = Path(tempfile.mkdtemp(prefix="perfbench-ab-"))
    base, new = tmp / "base", tmp / "new"
    subprocess.run(["git", "worktree", "add", "--detach", str(base), args.ref],
                   cwd=ROOT, check=True, capture_output=True)
    ok = True
    try:
        new.mkdir()
        for name in TREE:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, new / name, ignore=shutil.ignore_patterns(
                    "out", "__pycache__", "*.pyc"))
            else:
                shutil.copy2(src, new / name)
        for workload in workloads:
            for seed in args.seeds:
                pairs = []
                for k in range(args.pairs):
                    order = (base, new) if k % 2 == 0 else (new, base)
                    runs = {tree: run_bench(tree, workload, seed, seconds) for tree in order}
                    pairs.append((runs[base], runs[new]))
                ok &= compare(workload, seed, pairs, bench["end_to_end"])
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(base)],
                       cwd=ROOT, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
