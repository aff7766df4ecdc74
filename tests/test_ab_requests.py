"""``tools/ab_requests.py``, the request-by-request comparison of two
source trees: the checkout against itself must give identical outputs."""

import subprocess
import sys
from pathlib import Path

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
    assert lines[4].startswith("B faster on ") and lines[4].endswith(" of 26 requests")
    # one line per kind, in name order: a close and a check per size
    kinds = [line.split(":")[0].strip() for line in lines[5:]]
    sizes = sorted(f"n={n}" for n in (12, 16, 20, 24, 28, 32))
    assert kinds == [f"check qsc {n}" for n in sizes] + [f"close {n}" for n in sizes]
    counts = [int(line.split(": ")[1].split()[0]) for line in lines[5:]]
    assert sum(counts) == 26
    assert all(" A sum " in line and " B sum " in line and " B/A " in line for line in lines[5:])
