"""The benchmark's own test: every workload at a tiny size, and proof that
the output checks can fail.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

TINY = {
    "close": lambda: workloads.Close(specs=((5, 0.3), (7, 0.1), (8, 1.0))),
    "saturate": lambda: workloads.Saturate(specs=((3, 0.3), (4, 0.2), (4, 0.5)), shared_n=4),
    "gen-orders": lambda: workloads.GenOrders(gens=((6, 0.35),), orders=(5, 9), dense=(0.0, 1.0), rescan=(0.0, 9.0)),
}
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    for name, factory in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, factory)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def _result(capsys, *argv: str) -> tuple[dict, str]:
    assert run.main(list(argv)) == 0
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1]), out


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_workload_passes_and_reports_every_metric(tiny, capsys, workload):
    result, out = _result(capsys, "--workload", workload, "--seed", "3", "--seconds", "1")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert "error_ratio 0.0000" in out


def _fresh_library() -> None:
    """Forget the imported library, so the next run starts with empty
    module caches, as a new process does."""
    for name in [m for m in sys.modules if m == "qstrat" or m.startswith("qstrat.")]:
        del sys.modules[name]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_counts_repeat_exactly(tiny, capsys, workload):
    argv = ("--workload", workload, "--seed", "5", "--trace", "1")
    _fresh_library()
    first, _ = _result(capsys, *argv)
    _fresh_library()
    second, _ = _result(capsys, *argv)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    if workload == "close":
        # every close makes at least one closure step and one qsc check,
        # in every traced cycle
        assert first["metrics"]["closure.sweeps"]["value"] >= 2
    for name, metric in first["metrics"].items():
        if metric["unit"] in ("count", "ratio", "sweeps/close"):
            assert metric["value"] == second["metrics"][name]["value"], name


def test_tracer_restores_every_binding():
    run.import_cli()
    import qstrat.closure
    import qstrat.qsa

    before = (qstrat.qsa.qsa_witness, qstrat.closure.qsa_witness, qstrat.cli._ORDER_CLASSES["io"])
    tracer = spans.Tracer()
    tracer.install()
    assert qstrat.closure.qsa_witness is not before[1]
    assert qstrat.cli._ORDER_CLASSES["io"][1] is not before[2][1]
    tracer.uninstall()
    assert (qstrat.qsa.qsa_witness, qstrat.closure.qsa_witness, qstrat.cli._ORDER_CLASSES["io"]) == before


def test_tampered_close_output_counts_as_error(tiny, capsys, monkeypatch):
    cli = run.import_cli()
    real = cli.structure_json_text

    def drop_one_pair(s):
        doc = json.loads(real(s))
        key = "prec" if doc["prec"] else "weak"
        doc[key] = doc[key][1:]
        return json.dumps(doc)

    monkeypatch.setattr(cli, "structure_json_text", drop_one_pair)
    result, out = _result(capsys, "--workload", "close", "--seed", "3", "--seconds", "1")
    assert not result["correct"]
    # the spec kept whole (share 1.0) is already closed, so dropping a
    # pair always loses one of its input pairs
    assert result["failed"] >= 1
    assert "error_ratio 0.0000" not in out and "FAILED" in out
