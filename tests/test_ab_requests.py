"""``tools/ab_requests.py``, the request-by-request comparison of two
source trees: the checkout against itself must give identical outputs."""

import gc
import importlib.util
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent


def test_ab_requests_finds_the_checkout_identical_to_itself():
    argv = [sys.executable, str(ROOT / "tools" / "ab_requests.py"), str(ROOT), str(ROOT)]
    proc = subprocess.run(
        argv + ["--workload", "close", "--cycles", "1", "--repeat", "1"],
        capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("workload close, seed 1: 26 requests")
    assert lines[1] == "outputs identical: yes"
    assert lines[2].startswith("A: sum ") and lines[3].startswith("B: sum ")
    # each side's collector passes per generation over its timed calls
    for line in lines[2:4]:
        assert re.fullmatch(r"[AB]: sum .*; collector passes gen0 \d+, gen1 \d+, gen2 \d+", line), line
    assert lines[4].startswith("B faster on ") and lines[4].endswith(" of 26 requests")
    # one line per kind, in name order: a close and a check per size
    kinds = [line.split(":")[0].strip() for line in lines[5:]]
    sizes = sorted(f"n={n}" for n in (12, 16, 20, 24, 28, 32))
    assert kinds == [f"check qsc {n}" for n in sizes] + [f"close {n}" for n in sizes]
    counts = [int(line.split(": ")[1].split()[0]) for line in lines[5:]]
    assert sum(counts) == 26
    assert all(" A sum " in line and " B sum " in line and " B/A " in line for line in lines[5:])
    # and on how many of the kind's requests B was faster
    for line, count in zip(lines[5:], counts):
        wins = re.search(r", B faster on (\d+) of (\d+)$", line)
        assert wins and int(wins[1]) <= count == int(wins[2]), line


def _ab_requests():
    spec = importlib.util.spec_from_file_location("ab_requests", ROOT / "tools" / "ab_requests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_call_counts_the_collector_passes_that_start_in_it():
    # a request that leaves 5,000 lists alive starts youngest-generation
    # passes; one that frees what it made as it goes starts none
    ab_requests = _ab_requests()
    kept: list = []
    hoarder = SimpleNamespace(main=lambda argv: kept.extend([] for _ in range(5_000)) or 0)
    churner = SimpleNamespace(main=lambda argv: sum(len([]) for _ in range(5_000)))
    was = gc.isenabled()
    gc.enable()
    try:
        gc.collect()
        _, code, out, passes = ab_requests.call(hoarder, [])
        gc.collect()
        _, _, _, none = ab_requests.call(churner, [])
    finally:
        (gc.enable if was else gc.disable)()
    assert (code, out, len(passes)) == (0, "", 3)
    assert passes[0] >= 5_000 // gc.get_threshold()[0] - 1
    assert none == [0, 0, 0]


def test_each_kind_counts_the_requests_b_wins_apart_from_its_sum(capsys):
    # one outlier request sets a kind's B/A, which the count of wins shows
    _ab_requests().print_by_kind(["x", "y", "x", "x"], [1.0, 2.0, 1.0, 1.0], [0.9, 2.0, 0.9, 2.0])
    assert capsys.readouterr().out.splitlines() == [
        "  x: 3 requests, A sum 3000.00 ms p50 1000.000 ms, B sum 3800.00 ms p50 900.000 ms, "
        "B/A 1.267, B faster on 2 of 3",
        "  y: 1 requests, A sum 2000.00 ms p50 2000.000 ms, B sum 2000.00 ms p50 2000.000 ms, "
        "B/A 1.000, B faster on 0 of 1",
    ]
