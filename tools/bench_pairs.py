"""Run the benchmark in two checkouts, pair by pair, and say whether a
gain may be claimed.

    python tools/bench_pairs.py PARENT CHANGE --workload saturate --pairs 10 --seed 701

Pair k runs ``perfbench/run.py --workload W --seed S+k --trace 0`` in
each checkout, on that checkout's own ``perfbench`` and ``src``: the
parent first in even pairs, the change first in odd ones, so the drift
of a shared machine falls on both sides alike.  A run's result is the
JSON object on the last line of its stdout.

For each end-to-end metric that ``BENCHMARK.json`` of this checkout
lists, the summary gives each side's median and quartiles, the
parent's interquartile range (IQR), the pairs the change won (a tie
counts for neither) and whether a gain may be claimed: the change won
at least nine tenths of the pairs and its median is better than the
parent's by more than the parent's IQR.  A second block gives, per
metric, the no-regression verdict against the metric's ``bound`` (a
fraction of the parent's median): "worse than its bound" when the
change's median is worse than the parent's by more than the bound,
"unresolved" when the parent's IQR over its median exceeds the bound
and not every change run beats every parent run, and "within its
bound" otherwise.  Exits 1, with no summary, when a run exits nonzero,
a request fails or the last line is no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(checkout: Path, workload: str, seed: int) -> str:
    """The stdout of one benchmark run in checkout; raises ValueError
    when it exits nonzero."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise ValueError(f"{checkout} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def result(stdout: str, names: list[str]) -> dict[str, float]:
    """The values of the named metrics on the last line of a run's
    stdout; raises ValueError when that line is no result, lacks one of
    them, or a request failed."""
    lines = stdout.splitlines()
    try:
        data = json.loads(lines[-1])
        failed, attempted = data["failed"], data["attempted"]
        values = {name: float(data["metrics"][name]["value"]) for name in names}
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed result line: {type(exc).__name__}: {exc}") from None
    if failed or not data.get("correct"):
        raise ValueError(f"{failed} of {attempted} requests failed")
    return values


def summary(metrics: list[dict], parent: list[dict[str, float]], change: list[dict[str, float]]) -> list[str]:
    """One line per metric of ``BENCHMARK.json``'s ``end_to_end`` list,
    over the pairs' results, parent and change in pair order."""
    pairs = len(parent)
    lines = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        a, b = [r[name] for r in parent], [r[name] for r in change]
        (a1, a2, a3), (b1, b2, b3) = (statistics.quantiles(side, n=4, method="inclusive") for side in (a, b))
        wins = sum(y < x if lower else y > x for x, y in zip(a, b))
        gain = a2 - b2 if lower else b2 - a2
        claim = wins * 10 >= pairs * 9 and gain > a3 - a1
        lines.append(
            f"{name} ({metric['unit']}, {metric['better']} is better): "
            f"parent {a2:.6g} [{a1:.6g}, {a3:.6g}], change {b2:.6g} [{b1:.6g}, {b3:.6g}], "
            f"parent IQR {a3 - a1:.6g}, change better in {wins} of {pairs}, "
            f"gain claimable: {'yes' if claim else 'no'}"
        )
    return lines


def verdicts(metrics: list[dict], parent: list[dict[str, float]], change: list[dict[str, float]]) -> list[str]:
    """One no-regression verdict per metric of ``BENCHMARK.json``'s
    ``end_to_end`` list, against its ``bound``, over the pairs' results."""
    lines = []
    for metric in metrics:
        name, lower, bound = metric["name"], metric["better"] == "lower", metric["bound"]
        a, b = [r[name] for r in parent], [r[name] for r in change]
        a1, a2, a3 = statistics.quantiles(a, n=4, method="inclusive")
        worse = (statistics.median(b) - a2) / a2 * (1 if lower else -1)
        spread = (a3 - a1) / a2
        beats = max(b) < min(a) if lower else min(b) > max(a)
        if worse > bound:
            verdict = "worse than its bound"
        elif spread > bound and not beats:
            verdict = "unresolved"
        else:
            verdict = "within its bound"
        lines.append(
            f"{name}: change median worse by {worse:.1%}, parent IQR {spread:.1%} of its median, "
            f"bound {bound:.0%}: {verdict}"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair; pair k runs seed + k")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, to give quartiles")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    checkouts = (args.parent, args.change)
    results: tuple[list[dict[str, float]], ...] = ([], [])
    try:
        for k in range(args.pairs):
            seed = args.seed + k
            for side in (0, 1) if k % 2 == 0 else (1, 0):
                stdout = run(checkouts[side], args.workload, seed)
                results[side].append(result(stdout, [metric["name"] for metric in metrics]))
            print(f"pair {k + 1} of {args.pairs} (seed {seed}) done", file=sys.stderr, flush=True)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, {args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1}; "
          "median [quartiles]")  # fmt: skip
    print("\n".join(summary(metrics, *results)))
    print("no regression, against each metric's bound in BENCHMARK.json")
    print("\n".join(verdicts(metrics, *results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
