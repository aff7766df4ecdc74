#!/usr/bin/env python3
"""Benchmark for qstrat: closed-loop workloads over the CLI, in process.

    python3 perfbench/run.py --workload close --seed 1 --seconds 30 --trace 0

One client calls ``qstrat.cli.main(argv)`` in this process, sending the
next request when the previous one returns.  Requests come in cycles;
every cycle of a workload has the same mix of sizes and kinds, and the
seed picks the contents (see ``workloads.py``).  Inputs of a cycle are
generated and written before it starts and outputs are checked after the
run, so neither counts as request time.

A run makes a fixed number of cycles.  With ``--trace 0`` it makes as
many as take about ``--seconds`` of request time at this commit
(``CYCLE_SECONDS``) and reports the end-to-end metrics.  Fixed work
means two versions of the library answer exactly the same requests for
a seed, and the memory the library's caches hold does not depend on how
fast it runs.  With ``--trace 1`` it runs ``TRACE_CYCLES`` cycles, each
untraced and then again on the same inputs with every traced function
wrapped (``spans.py``), and reports the per-layer metrics and the
tracing overhead; the counts repeat exactly for a given seed.

Times are scaled to a reference machine speed.  On a shared machine the
speed of interpreted code drifts by up to 2x over tens of seconds, more
than any run length averages out.  Between requests the benchmark times
a fixed computation of its own (``spin_seconds``); a request's time is
multiplied by ``SPIN_REFERENCE`` over the median spin time around it.
The unscaled values are printed as a JSON line ``{"raw": {...}}``
above the metric listing, and a ``--trace 1`` run reports the unscaled
untraced throughput as ``raw.throughput_rps``.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The library is imported from
``src/`` next to this directory; without it the script exits 1 and
prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gen
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Request time of one cycle at this commit; a --trace 0 run makes
# round(--seconds / CYCLE_SECONDS) cycles, at least one.
CYCLE_SECONDS = {"close": 6.0, "saturate": 4.0, "gen-orders": 8.5}
# Cycles per pass of a --trace 1 run.
TRACE_CYCLES = {"close": 2, "saturate": 4, "gen-orders": 2}
# latency_tail_ms: the highest multiple of ten with at least ten
# samples above it in a run of this commit, on every workload.
TAIL_PERCENTILE = 90
SETUP_REPEATS = 9
# spin_seconds() at the reference speed, and the number of spin samples
# on each side of a request whose median gives the speed it ran at.
SPIN_REFERENCE = 0.6e-3
SPIN_WINDOW = 5


def import_cli():
    """``qstrat.cli`` from this checkout's ``src/``, never an installed copy."""
    if not (SRC / "qstrat" / "__init__.py").is_file():
        sys.exit(f"error: no qstrat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qstrat.cli

    if Path(qstrat.cli.__file__).resolve().parent != (SRC / "qstrat").resolve():
        sys.exit(f"error: imported qstrat from {qstrat.cli.__file__}, not {SRC}")
    return qstrat.cli


def _spin_input() -> tuple[list[int], list[int]]:
    rng = random.Random(20240718)
    prec, weak = gen.embed(gen.decode(gen.random_tree(rng, 20), 20))
    return gen.random_subset(rng, prec, 0.5), gen.random_subset(rng, weak, 0.5)


_SPIN_INPUT = _spin_input()


def spin_seconds() -> float:
    """Fastest of three runs of a fixed computation in the benchmark's own
    code: an acyclicity decision (bit operations, like the library's
    probes) and building and sorting a dict of small tuples (allocation,
    like its enumeration).  How fast code like the library's runs now."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        gen.is_acyclic(*_SPIN_INPUT)
        sorted({(i * 7919 % 1009, i): [i] * 3 for i in range(500)}.items())
        best = min(best, time.perf_counter() - start)
    return best


@dataclass
class Outcome:
    request: workloads.Request
    seconds: float
    code: int | None
    stdout: str
    error: str | None
    spin: float = SPIN_REFERENCE

    @property
    def scaled(self) -> float:
        return self.seconds * SPIN_REFERENCE / self.spin


def call(cli, request: workloads.Request) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(request.argv)
    except (Exception, SystemExit) as exc:  # a failed request, not a failed run
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return Outcome(request, seconds, code, out.getvalue(), error)


def run_pass(cli, workload, rng, workdir: Path, pass_tag: str, cycles: int, tracer=None):
    """Run ``cycles`` cycles of the workload; return the outcomes."""
    outcomes: list[Outcome] = []
    spins: list[float] = []  # before each cycle and after each request
    at: list[int] = []  # per request, the spin sample just before it
    for cycle in range(cycles):
        requests = workload.cycle(rng, workdir, f"{pass_tag}{cycle}", pass_tag)
        spins.append(spin_seconds())
        for request in requests:
            if tracer is not None:
                tracer.current_request += 1
            at.append(len(spins) - 1)
            outcome = call(cli, request)
            spins.append(spin_seconds())
            if request.produces is not None:
                request.produces.write_text(outcome.stdout, encoding="utf-8")
            outcomes.append(outcome)
    for outcome, k in zip(outcomes, at):
        outcome.spin = statistics.median(spins[max(0, k - SPIN_WINDOW) : k + SPIN_WINDOW + 2])
    return outcomes


def failures(outcomes: list[Outcome]) -> list[str]:
    out = []
    for k, o in enumerate(outcomes):
        reason = o.error
        if reason is None:
            try:
                reason = o.request.check(o.code, o.stdout)
            except Exception as exc:  # malformed output fails its check
                reason = f"unreadable output ({type(exc).__name__}: {exc})"
        if reason is not None:
            out.append(f"request {k} ({o.request.kind}): {reason}")
    return out


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def throughput(outcomes: list[Outcome]) -> float:
    return len(outcomes) / sum(o.scaled for o in outcomes)


def measure_setup(args) -> list[tuple[float, float]]:
    """(raw, scaled) times from spawning a fresh interpreter until its
    first request is ready: start-up, ``import qstrat``, and generating
    and writing the first cycle's inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = spin_seconds()
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )  # fmt: skip
        raw = float(proc.stdout.split()[-1]) - start
        times.append((raw, raw * SPIN_REFERENCE * 2 / (before + spin_seconds())))
    return times


def end_to_end(args, cli, workdir: Path) -> tuple[dict, int, int]:
    setups = measure_setup(args)
    cycles = max(1, round(args.seconds / CYCLE_SECONDS[args.workload]))
    workload = workloads.WORKLOADS[args.workload]()
    outcomes = run_pass(cli, workload, random.Random(args.seed), workdir, "m", cycles)
    failed = failures(outcomes)
    scaled = sorted(o.scaled for o in outcomes)
    raw = sorted(o.seconds for o in outcomes)
    tail = nearest_rank(scaled, TAIL_PERCENTILE)
    above = sum(1 for x in scaled if x > tail)
    metrics = {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "throughput_rps": (throughput(outcomes), "1/s"),
        "latency_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"workload {args.workload}: closed loop, 1 client, {cycles} cycles, "
          f"{len(outcomes)} requests, {sum(raw):.2f} s of request time, seed {args.seed}")  # fmt: skip
    print(f"  latency_tail_ms is p{TAIL_PERCENTILE} of {len(scaled)} samples, {above} above it")
    if above < 10:
        print(f"  warning: fewer than ten samples above p{TAIL_PERCENTILE}")
    print(f"  error_ratio {len(failed) / len(outcomes):.4f} ({len(failed)} of {len(outcomes)})")
    for line in failed[:20]:
        print(f"  FAILED {line}")
    # The same metrics unscaled, on one JSON line of their own: a slowdown
    # of the whole process also slows the spin and is partly cancelled in
    # the scaled values.
    print(json.dumps({"raw": {
        "setup_s": statistics.median(r for r, _ in setups),
        "throughput_rps": len(raw) / sum(raw),
        "latency_p50_ms": statistics.median(raw) * 1e3,
        "latency_tail_ms": nearest_rank(raw, TAIL_PERCENTILE) * 1e3,
    }}))  # fmt: skip
    return metrics, len(outcomes), len(failed)


def per_layer(args, cli, workdir: Path) -> tuple[dict, int, int]:
    cycles = TRACE_CYCLES[args.workload]
    workload = workloads.WORKLOADS[args.workload]()
    # Untraced and traced cycles alternate on the same inputs, so that
    # machine drift falls on both sides of the overhead comparison.
    plain_rng, traced_rng = random.Random(args.seed), random.Random(args.seed)
    tracer = spans.Tracer()
    plain: list[Outcome] = []
    traced: list[Outcome] = []
    for _ in range(cycles):
        plain += run_pass(cli, workload, plain_rng, workdir, "u", 1)
        tracer.install()
        try:
            traced += run_pass(cli, workload, traced_rng, workdir, "t", 1, tracer)
        finally:
            tracer.uninstall()
    outcomes = plain + traced
    failed = failures(outcomes)
    metrics = spans.layer_metrics(tracer)
    plain_rps, traced_rps = throughput(plain), throughput(traced)
    metrics["trace.overhead_pct"] = ((plain_rps / traced_rps - 1) * 100, "%")
    # unscaled, so that a slowdown the spin shares still shows somewhere
    metrics["raw.throughput_rps"] = (len(plain) / sum(o.seconds for o in plain), "1/s")
    print(f"workload {args.workload}: {cycles} cycle(s) untraced, each followed by the same inputs traced; "
          f"{len(traced)} requests each, seed {args.seed}, {len(tracer.fn)} spans")  # fmt: skip
    print(f"  throughput_rps untraced {plain_rps:.4f}, traced {traced_rps:.4f}")
    print(f"  error_ratio {len(failed) / len(outcomes):.4f} ({len(failed)} of {len(outcomes)})")
    for line in failed[:20]:
        print(f"  FAILED {line}")
    return metrics, len(outcomes), len(failed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not __debug__:
        sys.exit("error: run without -O; the library's assertions are part of the timed path")

    cli = import_cli()
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        if args.setup_only:
            workload = workloads.WORKLOADS[args.workload]()
            workload.cycle(random.Random(args.seed), workdir, "m0", "m")
            print(f"ready {time.monotonic()!r}", flush=True)
            return 0
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed = measure(args, cli, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))  # fmt: skip
    return 0


if __name__ == "__main__":
    sys.exit(main())
