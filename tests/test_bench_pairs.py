"""``tools/bench_pairs.py``, the paired benchmark comparison of two
checkouts, on canned result lines: no benchmark run is started."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
NAMES = [metric["name"] for metric in METRICS]


def canned(p50, rps, failed=0):
    """A run's stdout: a listing line, then the result line, with every
    end-to-end metric."""
    values = {
        "setup_s": 0.13, "latency_tail_ms": 0.7, "peak_rss_mb": 19.5, "latency_p50_ms": p50, "throughput_rps": rps,
    }  # fmt: skip
    metrics = {name: {"value": value, "unit": "-"} for name, value in values.items()}
    line = json.dumps({"correct": failed == 0, "attempted": 112, "failed": failed, "metrics": metrics})
    return f"  latency_p50_ms {p50}\n{line}\n"


def parsed(p50, rps):
    return bench_pairs.result(canned(p50, rps), NAMES)


def test_result_reads_the_named_metrics_on_the_last_line():
    assert parsed(0.5, 1800.0) == {
        "setup_s": 0.13, "throughput_rps": 1800.0, "latency_p50_ms": 0.5, "latency_tail_ms": 0.7, "peak_rss_mb": 19.5,
    }  # fmt: skip


@pytest.mark.parametrize(
    "stdout, message",
    [
        ("", "malformed result line"),
        ("ready\n", "malformed result line"),
        ('{"correct": true, "attempted": 1}\n', "malformed result line"),
        ('{"correct": true, "attempted": 1, "failed": 0, "metrics": {"setup_s": {}}}\n', "malformed result line"),
        ('{"correct": true, "attempted": 1, "failed": 0, "metrics": {}}\n', "malformed result line"),
        (canned(0.5, 1800.0) + "trailing\n", "malformed result line"),
        (canned(0.5, 1800.0, failed=2), "2 of 112 requests failed"),
    ],
)
def test_result_refuses_a_malformed_or_failed_run(stdout, message):
    with pytest.raises(ValueError, match=message):
        bench_pairs.result(stdout, NAMES)


def test_summary_claims_a_gain_only_by_the_pair_rule():
    parent = [parsed(0.58 + 0.002 * k, 1600.0 + k) for k in range(10)]
    # p50: better in every pair, by more than the parent's IQR;
    # throughput: better in 8 of 10 pairs, and tied in the others
    change = [parsed(0.52 + 0.002 * k, 1600.0 + k + (k < 8)) for k in range(10)]
    _, rps, p50, _, _ = bench_pairs.summary(METRICS, parent, change)
    assert p50 == (
        "latency_p50_ms (ms, lower is better): parent 0.589 [0.5845, 0.5935], "
        "change 0.529 [0.5245, 0.5335], parent IQR 0.009, change better in 10 of 10, gain claimable: yes"
    )
    assert rps.endswith("change better in 8 of 10, gain claimable: no")
    # winning every pair is not enough when the medians lie within the
    # parent's IQR
    close = [parsed(0.58 + 0.002 * k - 0.001, 1600.0 + k) for k in range(10)]
    _, _, p50, _, _ = bench_pairs.summary(METRICS, parent, close)
    assert p50.endswith("change better in 10 of 10, gain claimable: no")


def test_verdicts_say_within_worse_or_unresolved_against_each_bound():
    parent = [parsed(0.50 + 0.002 * k, 1600.0 + k) for k in range(10)]
    # p50 2.0% worse, inside its 25% bound; throughput 29.9% worse
    change = [parsed(0.51 + 0.002 * k, 1120.0 + k) for k in range(10)]
    setup, rps, p50, _, _ = bench_pairs.verdicts(METRICS, parent, change)
    assert setup == "setup_s: change median worse by 0.0%, parent IQR 0.0% of its median, bound 25%: within its bound"
    assert p50.endswith("worse by 2.0%, parent IQR 1.8% of its median, bound 25%: within its bound")
    assert rps.endswith("worse by 29.9%, parent IQR 0.3% of its median, bound 25%: worse than its bound")
    # a parent whose IQR is 36% of its median resolves no 25% bound ...
    wide = [parsed(0.40 + 0.05 * k, 1600.0) for k in range(10)]
    _, _, p50, _, _ = bench_pairs.verdicts(METRICS, wide, wide)
    assert p50.endswith("worse by 0.0%, parent IQR 36.0% of its median, bound 25%: unresolved")
    # ... unless every change run beats every parent run
    _, _, p50, _, _ = bench_pairs.verdicts(METRICS, wide, [parsed(0.39, 1600.0)] * 10)
    assert p50.endswith("parent IQR 36.0% of its median, bound 25%: within its bound")
    # a median worse by more than the bound is worse, however wide the spread
    _, _, p50, _, _ = bench_pairs.verdicts(METRICS, wide, [parsed(0.80, 1600.0)] * 10)
    assert p50.endswith("worse by 28.0%, parent IQR 36.0% of its median, bound 25%: worse than its bound")


def test_a_failed_run_exits_1_without_a_summary(monkeypatch, capsys):
    outputs = iter([canned(0.5, 1800.0), canned(0.5, 1800.0, failed=1)])
    monkeypatch.setattr(bench_pairs, "run", lambda checkout, workload, seed: next(outputs))
    assert bench_pairs.main(["a", "b", "--workload", "saturate", "--seed", "1", "--pairs", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.strip().endswith("error: 1 of 112 requests failed")


def test_pairs_alternate_which_side_runs_first(monkeypatch, capsys):
    runs = []

    def fake(checkout, workload, seed):
        runs.append((str(checkout), seed))
        return canned(0.5, 1800.0)

    monkeypatch.setattr(bench_pairs, "run", fake)
    assert bench_pairs.main(["p", "c", "--workload", "saturate", "--seed", "7", "--pairs", "3"]) == 0
    assert runs == [("p", 7), ("c", 7), ("c", 8), ("p", 8), ("p", 9), ("c", 9)]
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "workload saturate, 3 pairs, seeds 7-9; median [quartiles]"
    # one line per end-to-end metric; equal runs tie
    summary, verdicts = out[1 : 1 + len(NAMES)], out[2 + len(NAMES) :]
    assert [line.split(" ")[0] for line in summary] == NAMES
    assert all(line.endswith("change better in 0 of 3, gain claimable: no") for line in summary)
    # then the verdict block, one line per metric
    assert out[1 + len(NAMES)] == "no regression, against each metric's bound in BENCHMARK.json"
    assert [line.split(":")[0] for line in verdicts] == NAMES
    assert all(line.endswith("within its bound") for line in verdicts)
