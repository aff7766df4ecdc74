import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qstrat.closure
import qstrat.orders
import qstrat.qsa
from qstrat import BinRel, InternalError, new_structure
from qstrat.cli import main, read_input, structure_json_text

FIXTURES = Path(__file__).parent / "fixtures"
# stdout and exit code per command line, the file named by its fixture name
VERDICTS = json.loads((Path(__file__).parent / "cli_verdicts.json").read_text(encoding="utf-8"))


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_read_write_round_trip(tmp_path, transactions):
    path = tmp_path / "s.json"
    path.write_text(structure_json_text(transactions))
    assert read_input(path).structure() == transactions


@st.composite
def _structure_files(draw):
    labels = draw(st.lists(st.text(min_size=1), min_size=1, max_size=6, unique=True))
    pairs = st.lists(st.tuples(st.sampled_from(labels), st.sampled_from(labels)), max_size=12)
    return {
        "domain": labels,
        "prec": [list(p) for p in draw(pairs)],
        "weak": [list(p) for p in draw(pairs)],
    }


@settings(max_examples=60, deadline=None)
@given(_structure_files())
def test_read_write_round_trip_arbitrary_labels(doc):
    with tempfile.TemporaryDirectory() as tmp:
        first = Path(tmp) / "first.json"
        first.write_text(json.dumps(doc), encoding="utf-8")
        s = read_input(first).structure()
        second = Path(tmp) / "second.json"
        second.write_text(structure_json_text(s), encoding="utf-8")
        again = read_input(second).structure()
    assert again == s
    assert again.domain.labels == s.domain.labels


def test_read_rejects_unknown_keys(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"domain": ["a"], "prec": [], "extra": 1}))
    with pytest.raises(Exception, match="unknown keys"):
        read_input(path)


def test_read_rejects_bad_pairs(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"domain": ["a"], "prec": [["a"]]}))
    with pytest.raises(Exception, match="two-element"):
        read_input(path)


def test_check_qsa_transactions(capsys):
    code, out, _ = run(capsys, "check", "--class", "qsa", fixture("transactions.json"))
    assert code == 0
    assert out.startswith("PASS")


def test_check_qsc_transactions_reports_missing_prec(capsys):
    code, out, _ = run(capsys, "check", "--class", "qsc", fixture("transactions.json"))
    assert code == 1
    assert "FAIL" in out
    assert "d prec a" in out or "a" in out
    assert "adding d weak a breaks acyclicity, so a prec d is required but missing" in out


def test_check_qso_witness_quadruple(capsys):
    code, out, _ = run(capsys, "check", "--class", "qso", fixture("interval_only_order.json"))
    assert code == 1
    assert "(a, c, b, d)" in out


def test_check_qso_nested_order(capsys):
    code, out, _ = run(capsys, "check", "--class", "qso", fixture("nested_order.json"))
    assert code == 0


def test_check_order_classes(capsys):
    for cls, expected in [("po", 0), ("to", 1), ("so", 1), ("io", 0)]:
        code, out, _ = run(capsys, "check", "--class", cls, fixture("interval_only_order.json"))
        assert code == expected, (cls, out)


def test_check_qsm(capsys):
    code, _, _ = run(capsys, "check", "--class", "qsm", fixture("maximal.json"))
    assert code == 0
    code, _, _ = run(capsys, "check", "--class", "qsm", fixture("transactions.json"))
    assert code == 1


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "--class", "qsa", "no-such-file.json")
    assert code == 2
    assert "error" in err


def test_close_transactions_matches_fixture_bytes(capsys):
    code, out, err = run(capsys, "close", fixture("transactions.json"))
    assert code == 0
    assert out == (FIXTURES / "transactions_closure.json").read_text()
    assert "added prec: a->d" in err
    assert "iterations: 2" in err


def test_close_qsm_already_closed(capsys):
    code, out, err = run(capsys, "close", fixture("maximal.json"))
    assert code == 0
    assert out == (FIXTURES / "maximal.json").read_text()
    assert "already closed, 0 additions" in err


def test_close_forbidden_cycle_fails_with_witness(capsys):
    code, out, _ = run(capsys, "close", fixture("forbidden_cycle.json"))
    assert code == 1
    assert "FAIL" in out
    assert "{1, 2, 3, 4}" in out


def test_saturate_transactions(capsys):
    code, out, _ = run(capsys, "saturate", fixture("transactions.json"))
    assert code == 0
    assert out.startswith("8 saturation(s)")
    assert out.count("-- saturation") == 8
    assert "(b | a c) ; d" in out
    assert "intervals:" in out


def test_saturate_qsm_single(capsys):
    code, out, _ = run(capsys, "saturate", fixture("maximal.json"))
    assert code == 0
    assert out.startswith("1 saturation(s)")


def test_saturate_limit(capsys):
    code, out, _ = run(capsys, "saturate", "--limit", "2", fixture("transactions.json"))
    assert code == 0
    assert out.startswith("2 saturation(s) (truncated)")


def test_saturate_negative_limit_is_input_error(capsys):
    code, out, err = run(capsys, "saturate", "--limit", "-1", fixture("transactions.json"))
    assert code == 2
    assert out == ""
    assert "limit must be non-negative" in err


def test_saturate_negative_limit_is_input_error_before_the_verdict(capsys):
    code, out, err = run(capsys, "saturate", "--limit", "-1", fixture("forbidden_cycle.json"))
    assert code == 2
    assert out == ""
    assert err.strip() == "error: limit must be non-negative, got -1"


def test_saturate_two_element_empty(capsys, tmp_path):
    path = tmp_path / "two.json"
    path.write_text(structure_json_text(new_structure(["a", "b"])))
    code, out, _ = run(capsys, "saturate", str(path))
    assert code == 0
    assert out.startswith("3 saturation(s)")


def test_decompose_nested_order(capsys):
    code, out, _ = run(capsys, "decompose", fixture("nested_order.json"))
    assert code == 0
    assert out.strip() == "(b | a c) ; d"


def test_decompose_non_qs(capsys):
    code, out, _ = run(capsys, "decompose", fixture("interval_only_order.json"))
    assert code == 1
    assert "witness" in out


def test_intervals_nested_order(capsys):
    code, out, _ = run(capsys, "intervals", fixture("nested_order.json"))
    assert code == 0
    assert out.splitlines() == [
        "a: [0, 0]",
        "b: [0, 1]",
        "c: [1, 1]",
        "d: [2, 2]",
    ]


def test_intervals_non_interval(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(
        json.dumps({"domain": ["1", "2", "3", "4"], "prec": [["1", "3"], ["2", "4"]]})
    )
    code, out, _ = run(capsys, "intervals", str(path))
    assert code == 1
    assert "not an interval order" in out


def test_render_json_round_trip(capsys):
    code, out, _ = run(capsys, "render", fixture("transactions.json"))
    assert code == 0
    assert out == (FIXTURES / "transactions.json").read_text()


def test_render_dot(capsys):
    code, out, _ = run(capsys, "render", "--format", "dot", fixture("transactions.json"))
    assert code == 0
    assert out.startswith("digraph")
    assert '"a" -> "c";' in out
    assert '"a" -> "b" [style=dashed];' in out


def test_render_dot_escapes_quotes_and_backslashes(capsys, tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"domain": ['a"x', "a\\b"], "prec": [['a"x', "a\\b"]], "weak": []}))
    code, out, _ = run(capsys, "render", "--format", "dot", str(path))
    assert code == 0
    assert '  "a\\"x";' in out
    assert '  "a\\\\b";' in out
    assert '  "a\\"x" -> "a\\\\b";' in out


def test_render_tree(capsys):
    code, out, _ = run(capsys, "render", "--format", "tree", fixture("nested_order.json"))
    assert code == 0
    assert out.strip() == "(b | a c) ; d"


def test_gen_deterministic(capsys):
    code, first, _ = run(capsys, "gen", "--n", "4", "--seed", "7", "--density", "0.3")
    assert code == 0
    code, second, _ = run(capsys, "gen", "--n", "4", "--seed", "7", "--density", "0.3")
    assert code == 0
    assert first == second
    doc = json.loads(first)
    assert doc["domain"] == ["a", "b", "c", "d"]


def test_gen_output_is_acyclic(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "--n", "5", "--seed", "3", "--density", "0.6")
    assert code == 0
    path = tmp_path / "gen.json"
    path.write_text(out)
    code, out, _ = run(capsys, "check", "--class", "qsa", str(path))
    assert code == 0


def test_gen_bad_density(capsys):
    code, _, err = run(capsys, "gen", "--n", "3", "--density", "1.5")
    assert code == 2
    assert "density" in err


def test_selftest_small(capsys):
    code, out, _ = run(capsys, "selftest", "--max-n", "2")
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 4
    assert all(line.endswith("PASS") for line in lines)


def test_unknown_class_flag_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--class", "bogus", fixture("transactions.json")])
    assert exc.value.code == 2


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken(s):
        raise InternalError("closure fixpoint is not closed")

    monkeypatch.setattr(qstrat.closure, "close", broken)
    code, out, err = run(capsys, "close", fixture("transactions.json"))
    assert code == 3
    assert out == ""
    assert err.strip() == "internal error: closure fixpoint is not closed"


@pytest.mark.parametrize(
    "argv", [("intervals", "nested_order.json"), ("saturate", "transactions.json")]
)
def test_missing_interval_realization_exits_3(capsys, monkeypatch, argv):
    # both commands only ask for realizations of interval orders
    monkeypatch.setattr(qstrat.orders, "interval_realization", lambda p: None)
    code, _, err = run(capsys, argv[0], fixture(argv[1]))
    assert code == 3
    assert err.startswith("internal error: ") and "interval realization" in err


def test_deeply_nested_json_is_input_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run(capsys, "check", "--class", "qsa", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "nests too deeply" in err


def test_non_utf8_file_is_input_error(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"domain": ["é"], "prec": []}'.encode("latin-1"))
    code, out, err = run(capsys, "check", "--class", "qsa", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read")


def test_saturate_beyond_enumeration_bound_is_input_error(capsys, tmp_path):
    path = tmp_path / "seven.json"
    path.write_text(structure_json_text(new_structure("abcdefg")))
    code, out, err = run(capsys, "saturate", "--limit", "1", str(path))
    assert code == 2
    assert out == ""
    assert err.strip() == "error: domain size 7 exceeds enumeration bound 6"


def test_selftest_beyond_subset_scan_bound_is_input_error(capsys):
    code, out, err = run(capsys, "selftest", "--max-n", "13")
    assert code == 2
    assert out == ""
    assert err.strip() == "error: domain size 13 exceeds subset-scan bound 12"


@pytest.mark.parametrize("exc_type", [ValueError, TypeError])
def test_unexpected_library_exception_exits_3(capsys, monkeypatch, exc_type):
    def broken(s):
        raise exc_type("closure went wrong")

    monkeypatch.setattr(qstrat.closure, "close", broken)
    code, out, err = run(capsys, "close", fixture("transactions.json"))
    assert code == 3
    assert out == ""
    first, *trace = err.splitlines()
    assert first == f"internal error: {exc_type.__name__}: closure went wrong"
    assert trace[0] == "Traceback (most recent call last):"


def test_gen_beyond_generation_bound_is_input_error(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("gen must refuse before generating")

    monkeypatch.setattr(qstrat.qsa, "random_qsa_structure", unreachable)
    bound = qstrat.qsa.GENERATION_BOUND
    code, out, err = run(capsys, "gen", "--n", str(bound + 1), "--seed", "1")
    assert code == 2
    assert out == ""
    assert err.strip() == f"error: domain size {bound + 1} exceeds generation bound {bound}"


def test_verdict_table_covers_every_fixture():
    assert {row["argv"][1] for row in VERDICTS} == {p.name for p in FIXTURES.glob("*.json")}


@pytest.mark.parametrize("row", VERDICTS, ids=lambda row: " ".join(row["argv"]))
def test_cli_stdout_and_exit_code_are_pinned(capsys, row):
    command, name, *options = row["argv"]
    code, out, _ = run(capsys, command, fixture(name), *options)
    assert (code, out) == (row["code"], row["stdout"])


DECODING_COMMANDS = [("check", "--class", cls) for cls in ("po", "to", "so", "io", "qso")]
DECODING_COMMANDS += [("check", "--class", cls) for cls in ("relational", "qsa", "qsm", "qsc")]
DECODING_COMMANDS += [
    ("close",),
    ("saturate", "--limit", "3"),
    ("decompose",),
    ("intervals",),
    ("render", "--format", "tree"),
]


@pytest.mark.parametrize("name, relations", [("transactions.json", 2), ("nested_order.json", 1)])
@pytest.mark.parametrize("command", DECODING_COMMANDS, ids=" ".join)
def test_each_relation_of_the_file_is_decoded_once(capsys, monkeypatch, command, name, relations):
    real = BinRel.from_pairs.__func__
    calls = []

    def counting(cls, domain, pairs):
        calls.append(domain)
        return real(cls, domain, pairs)

    monkeypatch.setattr(BinRel, "from_pairs", classmethod(counting))
    run(capsys, command[0], fixture(name), *command[1:])
    assert len(calls) <= relations
