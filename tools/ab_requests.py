"""Compare two source trees of qstrat request by request, in one process.

Loads ``qstrat`` from ``A/src`` and from ``B/src`` under two module
names, builds one perfbench workload's requests through
``perfbench/workloads.py`` of this checkout, and runs each request on A
and on B back to back, alternating which goes first, ``--repeat`` times.
A request's time on each side is its fastest run.  Where a request
writes a file that a later one reads, A's output is written.  Prints
whether every exit code and stdout agreed, the sum, p50 and p90 of the
per-request minima of each side with the collector passes of each
generation that its timed calls started (deltas of ``gc.get_stats()``,
so a change that removes collection work shows apart from one that only
moves it), on how many requests B was faster,
and the sum and p50 of each request kind (``saturate n=6``, ``intervals
n=64``) with on how many of that kind's requests B was faster, so a
change shows where its gain lands and which kinds did not move, and a
kind's B/A that one outlier request moves shows apart from a kind that
B wins throughout::

    python tools/ab_requests.py PARENT_CHECKOUT . --workload close --cycles 5 --repeat 6

The speed of a shared machine drifts over seconds, which moves whole
benchmark runs; two versions timed back to back on the same request
drift together, so the per-request comparison shows a change of a few
percent that run-level medians cannot.  Exits 1 when the outputs differ.

Keeping each request's fastest run hides a one-time cost of a process,
such as building the argparse parser or filling a cache on first use:
the first run pays it, and a later run that does not is the one kept.
perfbench pays such a cost inside the first request of every run, so
``tools/bench_pairs.py``, which compares whole perfbench runs, is the
check for it.

Both sides share one collector, and a pass is counted on the side whose
call started it.  A few passes driven by growth common to both, such as
this tool's own records, land on either side by position: one source
tree against itself on two cycles of saturate, six runs each, read 1
and 5.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import math
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_cli(src: Path, name: str):
    """``qstrat.cli`` of the package under src, imported as ``name.cli``."""
    package = src / "qstrat"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    if spec is None or spec.loader is None:
        raise SystemExit(f"error: no qstrat package under {src}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def load_workloads():
    """perfbench's workloads module, imported without writing bytecode
    beside it."""
    sys.path.insert(0, str(PERFBENCH))
    before, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = before
    return workloads


def collector_passes() -> list[int]:
    """The collector passes of each generation so far in this process."""
    return [generation["collections"] for generation in gc.get_stats()]


def call(cli, argv: list[str]) -> tuple[float, int | None, str, list[int]]:
    """The seconds, exit code and stdout of one request, and the collector
    passes of each generation that started during it."""
    out = io.StringIO()
    before = collector_passes()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a failed request is an output too
        code, out = None, io.StringIO(f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), [b - a for a, b in zip(before, collector_passes())]


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def compare(clis, requests, repeat: int, flip: bool, passes) -> tuple[list[float], list[float], int]:
    """Per-request minima of A and B over repeat back-to-back runs each,
    and the number of requests whose outputs differ.  Each side's
    collector passes per generation over all its runs are added to
    passes[side].  flip makes B go first on the first run."""
    best: tuple[list[float], list[float]] = ([], [])
    differ = 0
    for request in requests:
        times, outputs = [math.inf, math.inf], [None, None]
        for k in range(repeat):
            order = (1, 0) if (k % 2 == 0) == flip else (0, 1)
            for side in order:
                seconds, code, out, started = call(clis[side], request.argv)
                times[side] = min(times[side], seconds)
                outputs[side] = (code, out)
                passes[side] = [x + y for x, y in zip(passes[side], started)]
        differ += outputs[0] != outputs[1]
        if request.produces is not None:
            request.produces.write_text(outputs[0][1], encoding="utf-8")
        for side in (0, 1):
            best[side].append(times[side])
    return best[0], best[1], differ


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="checkout holding src/qstrat, the baseline")
    parser.add_argument("b", type=Path, help="checkout holding src/qstrat, the change")
    parser.add_argument("--workload", default="close")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cycles", type=int, default=5)
    parser.add_argument("--repeat", type=int, default=6)
    args = parser.parse_args(argv)
    if args.cycles < 1 or args.repeat < 1:
        parser.error("--cycles and --repeat must be at least 1")
    workloads = load_workloads()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    tag = f"ab{time.monotonic_ns()}"
    clis = (load_cli(args.a / "src", f"{tag}a"), load_cli(args.b / "src", f"{tag}b"))
    workload, rng = workloads.WORKLOADS[args.workload](), random.Random(args.seed)
    a, b, kinds, differ = [], [], [], 0
    passes = [[0, 0, 0], [0, 0, 0]]
    with tempfile.TemporaryDirectory() as workdir:
        for cycle in range(args.cycles):
            requests = workload.cycle(rng, Path(workdir), f"{tag}{cycle}", tag)
            best_a, best_b, wrong = compare(clis, requests, args.repeat, cycle % 2 == 1, passes)
            a, b, differ = a + best_a, b + best_b, differ + wrong
            kinds += [request.kind for request in requests]
    print(f"workload {args.workload}, seed {args.seed}: {len(a)} requests, "
          f"{args.repeat} runs per side each, fastest kept")  # fmt: skip
    print(f"outputs identical: {'yes' if not differ else f'no, {differ} requests differ'}")
    for name, times, started in (("A", a, passes[0]), ("B", b, passes[1])):
        ranked = sorted(times)
        generations = ", ".join(f"gen{g} {count}" for g, count in enumerate(started))
        print(f"{name}: sum {sum(ranked) * 1e3:.1f} ms, p50 {statistics.median(ranked) * 1e3:.3f} ms, "
              f"p90 {nearest_rank(ranked, 90) * 1e3:.3f} ms; collector passes {generations}")  # fmt: skip
    faster = sum(y < x for x, y in zip(a, b))
    print(f"B faster on {faster} of {len(a)} requests")
    print_by_kind(kinds, a, b)
    return 1 if differ else 0


def print_by_kind(kinds: list[str], a: list[float], b: list[float]) -> None:
    """One line per request kind, in name order: the sum and p50 of each
    side's per-request minima, B's share of A's sum, and on how many of
    the kind's requests B was faster."""
    for kind in sorted(set(kinds)):
        times = [(x, y) for k, x, y in zip(kinds, a, b) if k == kind]
        ta, tb = [x for x, _ in times], [y for _, y in times]
        print(f"  {kind}: {len(times)} requests, A sum {sum(ta) * 1e3:.2f} ms p50 {statistics.median(ta) * 1e3:.3f} ms, "
              f"B sum {sum(tb) * 1e3:.2f} ms p50 {statistics.median(tb) * 1e3:.3f} ms, "
              f"B/A {sum(tb) / sum(ta):.3f}, B faster on {sum(y < x for x, y in times)} of {len(times)}")  # fmt: skip


if __name__ == "__main__":
    sys.exit(main())
