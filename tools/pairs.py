"""Alternating pairs of one benchmark workload: a git revision against the working tree.

    python tools/pairs.py REV WORKLOAD N [FIRST_SEED]

REV's committed files are unpacked from ``git archive REV`` into a temporary
directory.  ``perfbench/run.py --workload WORKLOAD --seed S --seconds 25 --trace 0``
then runs N times in that copy ("parent") and N times in the working tree
("change"), in pairs: pair i runs both sides at seed FIRST_SEED + i - 1 (FIRST_SEED
is 101 unless given), the parent first in odd pairs and the change first in even
ones, so drift over the session falls on both sides alike.  Each run's result line
goes to stderr as it ends.  Once all have ended, stdout gets one JSON object in the
layout of the ``BENCH_*.json`` records: per end-to-end metric of ``BENCHMARK.json``,
the pairs, the pairs the change wins and each side's quartiles, then every run.  The
temporary directory is removed on exit, also when a run fails.
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

ROOT = Path(__file__).resolve().parents[1]
SECONDS = 25
SIDES = ("parent", "change")


def run_order(pair: int) -> tuple[str, str]:
    """The sides of pair ``pair`` (from 1) in the order they run: the parent first in odd pairs."""
    return SIDES if pair % 2 else SIDES[::-1]


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric of ``better`` (name to "lower" or "higher"): the pairs whose two runs
    both report it, the pairs in which the change is strictly better, and the
    quartiles of each side over those pairs (``statistics.quantiles``, 4 decimals)."""
    values: dict[int, dict[str, dict]] = {}
    for run in runs:
        values.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"]
    out = {}
    for name, direction in better.items():
        pairs = [
            (sides["parent"][name]["value"], sides["change"][name]["value"])
            for _, sides in sorted(values.items())
            if all(name in sides.get(side, {}) for side in SIDES)
        ]
        if len(pairs) < 2:
            continue
        parent, change = zip(*pairs)
        wins = sum((c < p) if direction == "lower" else (c > p) for p, c in pairs)
        out[name] = {
            "pairs": len(pairs),
            "change_wins": wins,
            "parent": _quartiles(list(parent)),
            "change": _quartiles(list(change)),
        }
    return out


def _bench(tree: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """One perfbench run in ``tree``: its result line and its detail line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    *_, detail, result = proc.stdout.splitlines()
    return json.loads(result), json.loads(detail)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev")
    parser.add_argument("workload")
    parser.add_argument("pairs", type=int)
    parser.add_argument("first_seed", type=int, nargs="?", default=101)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("need at least 2 pairs for quartiles")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{args.rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()

    scratch = Path(tempfile.mkdtemp(prefix="pairs-"))
    try:
        parent_tree = scratch / "tree"
        parent_tree.mkdir()
        archive = subprocess.run(
            ["git", "archive", commit], cwd=ROOT, capture_output=True, check=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_tree)], input=archive, check=True)
        trees = {"parent": parent_tree, "change": ROOT}
        runs, hardware = [], None
        for pair in range(1, args.pairs + 1):
            seed = args.first_seed + pair - 1
            for side in run_order(pair):
                result, detail = _bench(trees[side], args.workload, seed)
                hardware = hardware or {
                    k: v for k, v in detail["environment"].items() if k != "git_commit"
                }
                runs.append({"pair": pair, "seed": seed, "side": side, "result": result})
                print(json.dumps(runs[-1]), file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    seeds = f"{args.first_seed}-{args.first_seed + args.pairs - 1}"
    print(json.dumps({
        "workload": args.workload,
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed SEED "
                   f"--seconds {SECONDS} --trace 0",
        "parent_commit": commit,
        "hardware": hardware,
        "repeat_count": f"{args.pairs} parent/change pairs at seeds {seeds}; the side that "
                        "runs first alternates by pair, parent first in pair 1",
        "summary": summarize(runs, better),
        "runs": runs,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
