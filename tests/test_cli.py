import argparse
import contextlib
import functools
import gc
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from collections import Counter
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qstrat.cli
import qstrat.closure
import qstrat.oracles
import qstrat.orders
import qstrat.qsa
import qstrat.qso
import qstrat.qsseq
import qstrat.saturate
from qstrat import (
    BinRel,
    Domain,
    InternalError,
    Poset,
    QsOrder,
    QssStratum,
    Structure,
    format_seq,
    is_qsa,
    new_poset,
    new_structure,
    order_to_seq,
    random_qs_seq,
    random_qsa_structure,
    seq_to_order,
)
from qstrat.cli import main, read_input, structure_json_text
from qstrat.qsseq import tree_order
from qstrat.relcore import show_label

from conftest import deep_chain_text, deep_chain_trees, dense_structure, spy

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


# one file per InputError that read_input raises, in the order it checks
_READ_FAULTS = [
    (None, "cannot read"),
    (b'{"domain": ["\xff"]}', "cannot read"),
    ("[" * 100_000, "nests too deeply"),
    ("not json", "is not valid JSON"),
    ("[]", "input must be a JSON object"),
    ('{"domain": ["a"], "prec": [], "weak": [], "domain": ["a", "b"]}', "duplicate key: 'domain'"),
    ('{"domain": [], "prec": [], "extra": 1}', "unknown keys"),
    ('{"domain": []}', "needs"),
    ('{"domain": [1], "prec": []}', "must be a list of strings"),
    ('{"domain": ["a", "a"], "prec": []}', "duplicate label"),
    ('{"domain": ["\\ud800"], "prec": []}', "not encodable"),
    ('{"domain": ["a"], "prec": {}}', "must be a list of pairs"),
    ('{"domain": ["a"], "prec": [["a"]]}', "two-element"),
    ('{"domain": ["a"], "prec": [["a", "z"]]}', "unknown label"),
    # line ends that text mode translates, a byte-order mark and a bad
    # byte past the first line: read once as bytes, each is reported at
    # the line and column that a text-mode read gave
    (b'{"domain": [],\r\n"prec": [}\r\n', "is not valid JSON"),
    (b'{"domain": [],\r"prec": [}\r', "is not valid JSON"),
    (b'\xef\xbb\xbf{"domain": [], "prec": []}', "is not valid JSON"),
    (b'{"domain": [],\n"prec": [["\xff"]]}', "cannot read"),
]


def _fault_file(tmp_path, k, content) -> Path:
    path = tmp_path / f"fault{k}.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content, encoding="utf-8")
    return path


def _text_mode_read_fault(path) -> str:
    """The message of read_input's read-and-parse stage when it read the
    file in text mode through pathlib, the reference for the binary read."""
    try:
        json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        return f"cannot read {path}: {exc}"
    except ValueError as exc:
        return f"{path} is not valid JSON: {exc}"
    raise AssertionError(f"{path} reads and parses")


def test_read_input_reads_and_reports_as_a_text_mode_read_did(tmp_path):
    paths: list = [
        _fault_file(tmp_path, k, content)
        for k, (content, message) in enumerate(_READ_FAULTS)
        if message in ("cannot read", "is not valid JSON")
    ]
    # names that pathlib shortens before it opens them, and a directory
    paths = [*paths[:1], *map(str, paths[1:]), str(tmp_path)]
    paths += ["", f"{paths[0]}/", f"{tmp_path}/./x//", f"/{tmp_path}/x"]
    for path in paths:
        with pytest.raises(qstrat.cli.InputError) as caught:
            read_input(path)
        assert str(caught.value) == _text_mode_read_fault(path), path
    good = tmp_path / "good.json"
    good.write_text('{"domain": ["a", "b"], "prec": [["a", "b"]]}', encoding="utf-8")
    assert read_input(f"{good}/").prec == read_input(f"{tmp_path}//./good.json").prec == read_input(good).prec


@pytest.mark.parametrize("enabled", [True, False], ids=["collector on", "collector off"])
def test_read_input_leaves_the_collector_as_it_found_it(tmp_path, enabled):
    # the parse runs with the cyclic collector paused; a caller's setting
    # survives both a good file and every fault
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        good = tmp_path / "good.json"
        good.write_text('{"domain": ["a", "b"], "prec": [["a", "b"]]}', encoding="utf-8")
        assert list(read_input(good).prec.pairs()) == [("a", "b")]
        assert gc.isenabled() is enabled
        for k, (content, message) in enumerate(_READ_FAULTS):
            path = _fault_file(tmp_path, k, content)
            with pytest.raises(qstrat.cli.InputError, match=message):
                read_input(path)
            assert gc.isenabled() is enabled, message
    finally:
        (gc.enable if was else gc.disable)()


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
    assert err == "added prec: a->d\nadded weak: a->c, a->d, b->d\n"


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


def test_saturate_limit_beyond_any_index_is_no_limit(capsys):
    transactions = fixture("transactions.json")
    code, out, err = run(capsys, "saturate", "--limit", "99999999999999999999999", transactions)
    assert (code, err) == (0, "")
    assert out == run(capsys, "saturate", transactions)[1]
    assert out.startswith("8 saturation(s)\n")


@pytest.mark.parametrize(
    "command",
    [
        ("decompose",),
        ("render", "--format", "dot"),
        ("saturate", "--limit", "2"),
        ("close",),
        ("check", "--class", "qsa"),
    ],
    ids=" ".join,
)
def test_a_label_that_is_not_utf8_is_an_input_error(capsys, tmp_path, command):
    # a lone surrogate decodes from JSON but encodes to no output stream
    path = tmp_path / "surrogate.json"
    path.write_text('{"domain": ["\\ud800", "b"], "prec": [["\\ud800", "b"]]}')
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert (code, out) == (2, "")
    assert err == "error: label '\\ud800' is not encodable as UTF-8\n"


def _run_quietly(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(
    labels=st.lists(
        st.text(st.characters(blacklist_categories=()), min_size=1),
        min_size=1,
        max_size=8,
        unique=True,
    ),
    seed=st.integers(0, 2**30),
    density=st.floats(0.0, 0.6),
)
def test_close_and_check_qsc_write_utf8_for_every_label(labels, seed, density):
    # surrogates, quotes, separators and control characters included; a
    # label that no output stream can encode is an input error
    s = random_qsa_structure(labels, seed=seed, density=density)
    doc = {
        "domain": labels,
        "prec": [list(p) for p in s.prec.pairs()],
        "weak": [list(p) for p in s.weak.pairs()],
    }
    encodable = all(not any("\ud800" <= c <= "\udfff" for c in label) for label in labels)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = _run_quietly("close", str(path))
        assert code == (0 if encodable else 2)
        out.encode("utf-8"), err.encode("utf-8")
        if code == 0:
            assert json.loads(out)["domain"] == labels
            closed = Path(tmp) / "closed.json"
            closed.write_text(out, encoding="utf-8")
            assert _run_quietly("check", "--class", "qsc", str(closed))[0] == 0
        code, out, err = _run_quietly("check", "--class", "qsc", str(path))
        assert code in ((0, 1) if encodable else (2,))
        out.encode("utf-8"), err.encode("utf-8")


# the words of the text outputs' own templates, which are not labels
_TEMPLATE_WORDS = frozenset(
    """PASS FAIL not is a an structure precedence relation partial total
    stratified interval order quasi-stratified acyclic relational maximal
    closed fails on witness relates to itself strongly connected over the
    combined no pre-dominant adding weak prec breaks acyclicity so required
    but missing saturation s truncated -- tree intervals none empty po to so
    io qso qsa qsm qsc""".split()
)
_SEPARATORS = frozenset(" \n,;|()[]{}:")


def _text_tokens(text):
    """The tokens of a text output, each as (text, quoted): a JSON string
    decoded, or a bare run between separators (``, ; | ( ) [ ] { } :``,
    ``->`` and whitespace), the forms ``show_label`` prints a label in."""
    decode = json.JSONDecoder().raw_decode
    tokens, k = [], 0
    while k < len(text):
        if text[k] == '"':
            token, k = decode(text, k)
            tokens.append((token, True))
        elif text[k] in _SEPARATORS or text.startswith("->", k):
            k += 2 if text.startswith("->", k) else 1
        else:
            end = k
            while end < len(text) and text[end] not in _SEPARATORS and text[end] != '"':
                if text.startswith("->", end):
                    break
                end += 1
            tokens.append((text[k:end], False))
            k = end
    return tokens


def _foreign_tokens(text, labels):
    """The tokens of a text output that are neither a domain label nor a
    word or number of the templates; a quoted token is always a label."""
    domain = set(labels)
    foreign = []
    for token, quoted in _text_tokens(text):
        if quoted:
            if token not in domain:
                foreign.append(token)
            continue
        if token not in domain and token not in _TEMPLATE_WORDS and not token.lstrip("-").isdigit():
            foreign.append(token)
    return foreign


def _dot_labels(text):
    """The labels of a DOT rendering: its quoted ids, unescaped."""
    ids = re.findall(r'"((?:[^"\\]|\\.)*)"', text, flags=re.DOTALL)
    return {re.sub(r"\\(.)", r"\1", name, flags=re.DOTALL) for name in ids}


@settings(max_examples=40, deadline=None)
@given(
    labels=st.lists(
        st.text(st.characters(blacklist_categories=()), min_size=1),
        min_size=1,
        max_size=8,
        unique=True,
    ),
    seed=st.integers(0, 2**30),
    density=st.floats(0.0, 0.6),
)
def test_every_other_command_writes_utf8_and_only_domain_labels(labels, seed, density):
    # the property of close and check --class qsc above, for the other
    # commands that read a file: on a random acyclic structure and on a
    # quasi-stratified order, each exits 0, 1 or 2, writes UTF-8, and
    # prints no label token that is not a domain label
    s = random_qsa_structure(labels, seed=seed, density=density)
    order = seq_to_order(random_qs_seq(labels, seed=seed))
    docs = {
        "structure": {
            "domain": labels,
            "prec": [list(p) for p in s.prec.pairs()],
            "weak": [list(p) for p in s.weak.pairs()],
        },
        "order": {"domain": labels, "prec": [list(p) for p in order.prec.pairs()]},
    }
    encodable = all(not any("\ud800" <= c <= "\udfff" for c in label) for label in labels)
    classes = ["po", "to", "so", "io", "qso", "relational", "qsa", "qsm"]
    commands = [["saturate", "--limit", "3"], ["decompose"], ["intervals"], ["render", "--format", "tree"]]
    commands += [["check", "--class", cls] for cls in classes]
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in docs.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            for command in commands:
                code, out, err = _run_quietly(command[0], str(path), *command[1:])
                assert code in ((0, 1, 2) if encodable else (2,)), (command, err)
                out.encode("utf-8"), err.encode("utf-8")
                assert _foreign_tokens(out, labels) == [], command
            for form in ("json", "dot"):
                code, out, err = _run_quietly("render", str(path), "--format", form)
                assert code == (0 if encodable else 2), (form, err)
                out.encode("utf-8"), err.encode("utf-8")
                if code:
                    assert out == ""
                elif form == "json":
                    rendered = json.loads(out)
                    assert rendered["domain"] == labels
                    assert {x for pair in rendered["prec"] + rendered["weak"] for x in pair} <= set(labels)
                else:
                    assert _dot_labels(out) <= set(labels)


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


def test_selftest_default_runs_the_random_acyclicity_cases_at_four_events(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 4
    assert all(line.endswith("PASS") for line in lines)
    # every structure on 1, 2 and 3 events, then 300 random ones on 4
    assert lines[0].split()[-5:-3] == [str(1 + 4**2 + 64**2 + 300), "cases"]


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


def test_missing_interval_realization_exits_3(capsys, monkeypatch):
    # intervals only asks for realizations of interval orders
    monkeypatch.setattr(qstrat.orders, "interval_realization", lambda rel: None)
    code, _, err = run(capsys, "intervals", fixture("nested_order.json"))
    assert code == 3
    assert err.startswith("internal error: ") and "interval realization" in err


def test_order_trees_failing_on_a_qs_order_is_internal(capsys, monkeypatch):
    # the construction and the axiom scan disagree: a library fault
    def broken(rel):
        raise ValueError("not a quasi-stratified order")

    monkeypatch.setattr(qstrat.qsseq, "order_trees", broken)
    for argv in (("check", "--class", "qso"), ("decompose",)):
        code, out, err = run(capsys, *argv, fixture("nested_order.json"))
        assert (code, out) == (3, "")
        assert err.startswith("internal error: ")


def test_missing_realization_of_an_interval_order_is_internal(capsys, monkeypatch):
    # the check decides with the rows' realization, as intervals' does
    # through interval_realization
    monkeypatch.setattr(qstrat.orders, "_realization", lambda rows: None)
    code, out, err = run(capsys, "check", "--class", "io", fixture("nested_order.json"))
    assert (code, out) == (3, "")
    assert err.startswith("internal error: ")


def test_self_loop_beside_an_unrelated_event_is_no_interval_order(capsys, tmp_path):
    # a prec a beside b passes the realization's row check as a: [1, 0]
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"domain": ["a", "b"], "prec": [["a", "a"]]}))
    assert run(capsys, "intervals", str(path)) == (1, "FAIL: not an interval order\n", "")
    assert run(capsys, "check", "--class", "io", str(path)) == (
        1,
        "FAIL: not an interval order; io:1 fails on (a)\n",
        "",
    )


def _write_order(path: Path, labels, rows) -> str:
    n = len(rows)
    pairs = [[labels[i], labels[j]] for i, row in enumerate(rows) for j in range(n) if row >> j & 1]
    path.write_text(json.dumps({"domain": list(labels), "prec": pairs}))
    return str(path)


def test_passing_order_checks_scan_no_pair_and_decompose_encodes_once(
    capsys, monkeypatch, tmp_path
):
    scans = spy(monkeypatch, "_rows_leaving", qstrat.qso, qstrat.orders)
    encodings = spy(monkeypatch, "order_trees", qstrat.qsseq)
    labels = [f"e{i}" for i in range(64)]
    rows = seq_to_order(random_qs_seq(labels, seed=64)).prec.rows
    large = _write_order(tmp_path / "large.json", labels, rows)
    qso_passes = [fixture("maximal.json"), fixture("nested_order.json"), large]
    io_passes = qso_passes + [fixture("interval_only_order.json"), fixture("transactions_closure.json")]
    for path in qso_passes:
        assert run(capsys, "check", "--class", "qso", path)[0] == 0
        encodings.clear()
        assert run(capsys, "decompose", path)[0] == 0
        assert len(encodings) == 1
    for path in io_passes:
        assert run(capsys, "check", "--class", "io", path)[0] == 0
        assert run(capsys, "intervals", path)[0] == 0
    assert scans == []
    # a failure still names its witness by the scan
    assert run(capsys, "check", "--class", "qso", fixture("transactions.json"))[0] == 1
    assert scans


@pytest.fixture(scope="module")
def deep_order_file(tmp_path_factory):
    # 510 nested levels, 1,021 events: encoding recursively took two
    # frames a level
    depth = 510
    n, trees = deep_chain_trees(depth)
    labels = [f"e{i}" for i in range(n)]
    path = _write_order(tmp_path_factory.mktemp("deep") / "deep.json", labels, tree_order(n, trees)[0])
    return path, deep_chain_text(depth, labels)


def test_a_deep_order_passes_check_qso(capsys, deep_order_file):
    path, _ = deep_order_file
    assert run(capsys, "check", "--class", "qso", path) == (
        0,
        "PASS: precedence relation is a quasi-stratified order\n",
        "",
    )


def test_a_deep_order_decomposes(capsys, deep_order_file):
    path, text = deep_order_file
    assert run(capsys, "decompose", path) == (0, text + "\n", "")


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "--n", "-1"], "--n must be non-negative"),
        (["selftest", "--max-n", "0"], "--max-n must be at least 1"),
    ],
)
def test_option_values_below_their_range_are_input_errors(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "prec, code, out, err",
    [
        (
            [["a", "b"], ["b", "c"], ["c", "a"]],
            1,
            "FAIL: not quasi-stratified acyclic; {a, b, c} is strongly connected over the"
            " combined relation, no pre-dominant\n",
            "",
        ),
        ([["a", "b"]], 2, "", "error: domain size 7 exceeds enumeration bound 6\n"),
    ],
)
def test_saturate_beyond_the_bound_gives_the_verdict_first(capsys, tmp_path, prec, code, out, err):
    path = tmp_path / "seven.json"
    path.write_text(json.dumps({"domain": list("abcdefg"), "prec": prec, "weak": []}))
    assert run(capsys, "saturate", "--limit", "3", str(path)) == (code, out, err)


@pytest.mark.parametrize("argv", [["decompose"], ["render", "--format", "tree"]], ids=" ".join)
def test_the_empty_order_prints_empty(capsys, tmp_path, argv):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"domain": [], "prec": []}))
    assert run(capsys, *argv, str(path)) == (0, "(empty)\n", "")


def test_close_refuses_a_step_that_leaves_a_pair_violation(capsys, monkeypatch):
    # x prec y beside y weak x breaks qsc:1 or qsc:2
    def broken(s):
        x, y = s.domain.labels[:2]
        return new_structure(s.domain.labels, [(x, y)], [(y, x)])

    monkeypatch.setattr(qstrat.closure, "closure_step", broken)
    s = new_structure("ab")
    with pytest.raises(InternalError, match="closure step left a qsc:1 or qsc:2 violation"):
        qstrat.closure.close(s)
    code, out, err = run(capsys, "close", fixture("transactions.json"))
    assert (code, out) == (3, "")
    assert err == "internal error: closure step left a qsc:1 or qsc:2 violation\n"


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
    # each list of pairs is decoded straight into rows, once, and no
    # relation of the file a second time through from_pairs
    decoded = spy(monkeypatch, "from_pairs", BinRel)
    lists = spy(monkeypatch, "_relation", qstrat.cli)
    run(capsys, command[0], fixture(name), *command[1:])
    assert decoded == []
    assert len(lists) == relations


@pytest.mark.parametrize("name, relations", [("transactions.json", 2), ("nested_order.json", 1)])
@pytest.mark.parametrize("command", DECODING_COMMANDS, ids=" ".join)
def test_each_list_of_pairs_is_decoded_into_rows_once(capsys, monkeypatch, command, name, relations):
    # read_input decodes pairs straight into rows, not through from_pairs
    calls = spy(monkeypatch, "_relation", qstrat.cli)
    run(capsys, command[0], fixture(name), *command[1:])
    assert len(calls) == relations


def outcome(capsys, argv):
    """Exit code, or the code of a SystemExit, with stdout and stderr."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


T = fixture("transactions.json")
# each command with an option, then again without it
PARSER_REUSE_SEQUENCE = [
    ("saturate", "--limit", "2", T),
    ("saturate", T),
    ("render", "--format", "dot", T),
    ("render", T),
    ("gen", "--n", "4", "--seed", "5", "--density", "0.9"),
    ("gen", "--n", "4"),
    ("check", "--class", "bogus", T),
    ("check", T),
    ("check", "--class", "qsa", T),
]


def test_a_reused_parser_prints_what_a_first_call_prints(capsys):
    first = []
    for argv in PARSER_REUSE_SEQUENCE:
        qstrat.cli.build_parser.cache_clear()
        first.append(outcome(capsys, argv))
    assert first[6][0] == first[7][0] == ("SystemExit", 2)
    qstrat.cli.build_parser.cache_clear()
    for argv, expected in zip(PARSER_REUSE_SEQUENCE, first):
        assert outcome(capsys, argv) == expected, argv


def test_repeated_main_calls_construct_no_parser(capsys, monkeypatch):
    run(capsys, "check", "--class", "qsa", T)
    built = spy(monkeypatch, "__init__", argparse.ArgumentParser)
    for argv in [
        ("close", T),
        ("saturate", "--limit", "2", T),
        ("render", T),
        ("gen", "--n", "3"),
        ("check", "--class", "qsm", T),
    ]:
        run(capsys, *argv)
    assert built == []


def test_a_plain_request_constructs_no_parser_and_another_constructs_one(capsys, monkeypatch):
    # counted from a fresh process's state, so the first call is seen too
    qstrat.cli.build_parser.cache_clear()
    built = spy(monkeypatch, "__init__", argparse.ArgumentParser)
    for argv in [
        ("close", T),
        ("saturate", T, "--limit", "2"),
        ("gen", "--n", "3"),
        ("check", "--class", "qsa", T),
    ]:
        run(capsys, *argv)
    assert built == []
    # an option written --opt=value goes to argparse: the top-level parser
    # and its command parsers are built then, and once
    for _ in range(2):
        run(capsys, "saturate", T, "--limit=2")
    assert [parser.prog for parser, *_ in built] == ["qstrat", *[f"qstrat {c}" for c in _OPTIONS]]


# the help texts, usage lines and exit codes of the parser, at 80 columns:
# the top level's and each command's help, no command, and a missing option
HELP_PINS = json.loads((Path(__file__).parent / "cli_help.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("row", HELP_PINS, ids=lambda row: " ".join(row["argv"]) or "(none)")
def test_help_and_usage_are_pinned(capsys, monkeypatch, row):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [fixture(a) if a.endswith(".json") else a for a in row["argv"]]
    code, out, err = outcome(capsys, argv)
    assert (code, out, err) == (("SystemExit", row["code"]), row["stdout"], row["stderr"])


# every route through the parsing: no command, top-level help, an unknown
# command, an option before the command, a command's own errors and help,
# an argument left over, "--", an abbreviated option, a bad value, and
# repeated or misplaced options
PARSE_PARITY_ARGV = [
    (),
    ("-h",),
    ("--help",),
    ("bogus",),
    ("-x", "close", T),
    ("close",),
    ("close", "-h"),
    ("close", T, "extra"),
    ("close", "--", T),
    ("gen", "--n", "3", "--bogus"),
    ("saturate", T, "--lim", "2"),
    ("saturate", T, "--limit", "x"),
    ("check", T),
    ("check", "--class", "bogus", T),
    ("check", "--class", "qsc", T, "--class", "qsa"),
    ("selftest", "--max-n", "x"),
    # forms the command's grammar hands on, and plain ones it reads itself
    ("saturate", T, "--limit=2"),
    ("saturate", T, "--limit", "-1"),
    ("saturate", T, "--limit", "2", "--limit", "3"),
    ("gen", "--n", "3", "--seed", "-5"),
    ("close", "-"),
    ("close", ""),
    ("close", T, "-h"),
    ("render", "--format", "dot", T),
    ("render", "--format", "bogus", T),
    ("gen", "--n", "3", "--density", "nan"),
    ("gen", "--n", "3", "--density", "-inf"),
    ("selftest",),
]


def _argv_id(argv) -> str:
    return " ".join(Path(a).name if a == T else a for a in argv) or "(none)"


@pytest.mark.parametrize("argv", PARSE_PARITY_ARGV, ids=_argv_id)
def test_main_parses_as_the_top_level_parser_does(capsys, monkeypatch, argv):
    # the reference: the top-level parser alone, then the command, under
    # main's own handling of what the command raises.  selftest's suites
    # take a while and print their seconds, so it prints what it was given
    monkeypatch.setattr(qstrat.cli, "cmd_selftest", lambda args: print(args) or 0)
    got = outcome(capsys, argv)
    monkeypatch.setattr(qstrat.cli, "_parse", lambda args: qstrat.cli.build_parser().parse_args(args))
    assert got == outcome(capsys, argv)


# each command's options, and the values an option is given: good ones,
# and ones that the type, the choices or the plain grammar refuse
_OPTIONS = {
    "check": ["--class"], "close": [], "saturate": ["--limit"], "decompose": [], "intervals": [],
    "render": ["--format"], "gen": ["--n", "--seed", "--density"], "selftest": ["--max-n"],
}  # fmt: skip
_VALUES = {
    "--class": ["qsc", "po", "io", "bogus"],
    "--format": ["dot", "tree", "json", "bogus"],
    "--density": ["0.5", "nan", "1", "x", "-1", "-inf"],
    **dict.fromkeys(["--limit", "--n", "--seed", "--max-n"], ["2", "0", "7", "x", "-1"]),
}
# tokens that no plain argv holds, or holds in other places, a repeated
# option among them
_STRAY = [T, "", "-", "--", "-h", "--lim", "--limit=2", "--n", "--class", "bogus", "5"]


@st.composite
def _command_argv(draw) -> list[str]:
    """A command's argv: its file, then each of its options or not, with
    a value, in any order; now and then a stray token."""
    command = draw(st.sampled_from([*_OPTIONS, "bogus"]))
    words = [] if command in ("gen", "selftest") else [(T,)]
    options = _OPTIONS.get(command, ["--n"])
    for option in draw(st.lists(st.sampled_from(options), unique=True)) if options else []:
        words.append((option, draw(st.sampled_from(_VALUES[option]))))
    if draw(st.integers(0, 3)) == 0:
        words.append((draw(st.sampled_from(_STRAY)),))
    return [command, *[token for word in draw(st.permutations(words)) for token in word]]


@settings(max_examples=120, deadline=None)
@given(_command_argv())
def test_the_grammar_reads_only_what_the_top_level_parser_reads_alike(argv):
    # wherever the grammar gives a request, the top-level parser gives the
    # same one; wherever that parser exits, the grammar gave none
    settled = qstrat.cli._settle(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = repr(qstrat.cli.build_parser().parse_args(argv))
        except SystemExit:
            parsed = None
    assert settled is None or repr(settled) == parsed


PARSE_METHODS = ["parse_args", "parse_known_args", "parse_intermixed_args", "parse_known_intermixed_args"]


def _parses(monkeypatch) -> dict[str, list[str]]:
    """The parsers that each argparse parse method runs on from here on,
    by their prog."""

    def prog(parser, *args, **kwargs):
        return parser.prog

    return {method: spy(monkeypatch, method, argparse.ArgumentParser, record=prog) for method in PARSE_METHODS}


@pytest.mark.parametrize("argv", [("close", T), ("saturate", "--limit", "2", T), ("gen", "--n", "3")])
def test_a_command_call_parses_once(capsys, monkeypatch, argv):
    # a plain request is read once, by its command's grammar, with no
    # argparse parse, and its file is read with no pathlib open
    parses = _parses(monkeypatch)
    settled = spy(monkeypatch, "_settle", qstrat.cli)
    opened = spy(monkeypatch, "open", Path)
    assert run(capsys, *argv)[0] == 0
    assert settled == [(list(argv),)]
    assert parses == dict.fromkeys(PARSE_METHODS, [])
    assert opened == []


def test_a_request_the_grammar_cannot_settle_is_parsed_once_by_the_top_level_parser(capsys, monkeypatch):
    parses = _parses(monkeypatch)
    assert run(capsys, "saturate", T, "--limit=2")[0] == 0
    assert parses["parse_args"] == ["qstrat"]


def test_saturate_decodes_each_relation_once_and_reencodes_no_order(capsys, monkeypatch, tmp_path):
    path = tmp_path / "shuffled.json"
    path.write_text(
        json.dumps({"domain": ["d", "b", "a", "c"], "prec": [["b", "a"]], "weak": [["c", "d"]]})
    )
    decoded = spy(monkeypatch, "from_pairs", BinRel)
    encoded = spy(monkeypatch, "order_trees", qstrat.qsseq)
    code, out, _ = run(capsys, "saturate", "--limit", "10", str(path))
    assert code == 0
    assert out.startswith("10 saturation(s) (truncated)\n")
    assert len(decoded) <= 2
    assert encoded == []


def test_saturate_builds_each_position_permutation_once(capsys, monkeypatch, tmp_path):
    # moving each printed order on its own built the permutation twice a
    # saturation: to the declared labels in the library, back to the
    # sorted ones for the tree check
    path = tmp_path / "shuffled.json"
    path.write_text(
        json.dumps({"domain": ["d", "b", "a", "c"], "prec": [["b", "a"]], "weak": [["c", "d"]]})
    )
    moved = spy(monkeypatch, "aligned_to", BinRel)
    aligners = spy(monkeypatch, "_aligner", qstrat.saturate)
    code, out, _ = run(capsys, "saturate", "--limit", "10", str(path))
    assert code == 0
    assert out.count("-- saturation ") == 10
    # the spec's move to the sorted positions, which the CLI prints from
    assert not hasattr(qstrat.cli, "_aligner")
    assert len(moved) + len(aligners) <= 1


def _printed_saturations(out: str) -> list[tuple[list[tuple[str, str]], str]]:
    """(prec pairs, tree text) of each saturation that saturate printed."""
    lines = out.splitlines()
    found = []
    for k, line in enumerate(lines):
        if line.startswith("-- saturation "):
            body = lines[k + 1].removeprefix("   prec: ")
            pairs = [] if body == "(none)" else [tuple(p.split("->")) for p in body.split(", ")]
            found.append((pairs, lines[k + 3].removeprefix("   tree: ")))
    return found


def _assert_trees_encode_printed_orders(capsys, path, labels, *options):
    code, out, _ = run(capsys, "saturate", str(path), *options)
    assert code == 0, out
    printed = _printed_saturations(out)
    assert len(printed) == int(out.split()[0])
    for pairs, tree in printed:
        order = QsOrder(new_poset(labels, pairs).prec)
        assert tree == format_seq(order_to_seq(order)), (labels, pairs)
    return len(printed)


def test_printed_trees_encode_the_printed_orders_of_every_fixture(capsys):
    checked = 0
    for path in sorted(FIXTURES.glob("*.json")):
        f = read_input(path)
        if not is_qsa(f.structure()):
            continue
        checked += _assert_trees_encode_printed_orders(capsys, path, f.prec.domain.labels)
    assert checked > 8


def test_printed_trees_encode_the_printed_orders_of_random_specs(capsys, tmp_path):
    rng = random.Random(1105)
    pool = ["a", "B", "b10", "b2", "z", "é", "c"]
    checked = 0
    for case in range(40):
        n = rng.randint(1, 6)
        labels = rng.sample(pool, n)  # declared out of sorted order
        s = random_qsa_structure(labels, seed=case, density=rng.uniform(0.1, 0.6))
        path = tmp_path / f"spec{case}.json"
        path.write_text(structure_json_text(s), encoding="utf-8")
        options = () if n <= 4 else ("--limit", "40")
        checked += _assert_trees_encode_printed_orders(capsys, path, labels, *options)
    assert checked > 200


def test_saturate_with_another_saturations_tree_is_internal_error(capsys, monkeypatch):
    # a failure while listing, here in the third saturation's decode,
    # leaves stdout empty: the listing is written whole or not at all
    real, decoded = qstrat.qsseq.tree_order, []

    def failing_third(n, trees):
        decoded.append(trees)
        if len(decoded) == 3:
            raise InternalError("a saturation's tree does not decode")
        return real(n, trees)

    monkeypatch.setattr(qstrat.qsseq, "tree_order", failing_third)
    code, out, err = run(capsys, "saturate", T)
    assert code == 3
    assert out == ""
    assert err.strip() == "internal error: a saturation's tree does not decode"


@pytest.mark.parametrize("name", ["transactions.json", "forbidden_cycle.json"])
def test_close_decides_once_per_sweep_and_saturate_once(capsys, decisions, name):
    # close decides once per sweep, the first sweep deciding the input;
    # saturate and the acyclicity and closedness checks decide once
    run(capsys, "close", fixture(name))
    sweeps = 1  # close is one sweep
    assert 0 < len(decisions) <= sweeps
    for argv in (["saturate", "--limit", "10"], ["check", "--class", "qsa"], ["check", "--class", "qsc"]):
        decisions.clear()
        run(capsys, *argv, fixture(name))
        assert len(decisions) == 1, argv


@pytest.mark.parametrize("command", ["close", "saturate"])
def test_each_relation_is_scanned_for_self_loops_once(capsys, monkeypatch, command):
    # a close request asks its input's relations whether they are
    # irreflexive three times (its verdict, its refusal, its prober),
    # saturate twice; each relation computes its self-loop mask once
    scanned = []
    real_loops = BinRel._loops.func

    def counted_loops(rel):
        scanned.append(rel)
        return real_loops(rel)

    loops = functools.cached_property(counted_loops)
    loops.__set_name__(BinRel, "_loops")
    monkeypatch.setattr(BinRel, "_loops", loops)
    asked = spy(monkeypatch, "is_irreflexive", BinRel, record=lambda rel: rel)
    code, _, _ = run(capsys, command, T)
    assert code == 0
    # the input's two relations are the only ones asked, each more than once
    times_asked = Counter(map(id, asked))
    assert len(times_asked) == 2 and min(times_asked.values()) > 1
    assert sorted(Counter(map(id, scanned)).values()) == [1, 1]


def test_saturate_checks_each_printed_order_once(capsys, monkeypatch):
    # each printed tree is decoded once, by the printer's one walk: the
    # walk keeps its trees undecoded, its realization is read off the
    # tree, printed unchecked and ranked by no count, and no Poset
    # re-validates what the walk built as an order
    realized = []
    validated = spy(monkeypatch, "__post_init__", Poset)
    monkeypatch.setattr(qstrat.orders, "_realization", lambda *args: realized.append(args))
    decoded = spy(monkeypatch, "tree_order", qstrat.qsseq, qstrat.saturate)
    code, out, _ = run(capsys, "saturate", "--limit", "10", T)
    assert code == 0
    printed = out.count("-- saturation ")
    assert printed == 8
    assert len(decoded) == printed
    assert realized == []
    assert validated == []


def test_saturate_prints_without_a_transpose(capsys, monkeypatch):
    # each printed order's columns come from the decode of its tree: once
    # the walk has returned, no row set is transposed
    transposed = spy(monkeypatch, "_columns", qstrat.relcore)
    real_saturations = qstrat.saturate.saturations

    def walked(s, limit=None):
        sats = real_saturations(s, limit)
        transposed.clear()
        return sats

    monkeypatch.setattr(qstrat.saturate, "saturations", walked)
    assert not hasattr(qstrat.cli, "_columns")
    code, out, _ = run(capsys, "saturate", "--limit", "10", T)
    assert code == 0 and out.count("-- saturation ") == 8
    assert transposed == []


_NESTED = json.loads((FIXTURES / "nested_order.json").read_text(encoding="utf-8"))
_CHAIN = {"domain": ["a", "b", "c"], "prec": [["a", "b"], ["a", "c"], ["b", "c"]]}
_TWO_STRATA = {"domain": ["a", "b", "c"], "prec": [["a", "c"], ["b", "c"]]}


@pytest.mark.parametrize(
    "argv, doc",
    [
        (("check", "--class", "qso"), _NESTED),
        (("check", "--class", "io"), _NESTED),
        (("check", "--class", "so"), _TWO_STRATA),
        (("check", "--class", "to"), _CHAIN),
        (("decompose",), _NESTED),
        (("intervals",), _NESTED),
        (("render", "--format", "tree"), _NESTED),
    ],
    ids=["check-qso", "check-io", "check-so", "check-to", "decompose", "intervals", "render-tree"],
)
def test_order_commands_decide_a_passing_order_from_its_rows(capsys, monkeypatch, tmp_path, argv, doc):
    # the order commands read the rows alone: a column table is built
    # only to name a FAIL line's witness, never on a passing order
    transposed = spy(monkeypatch, "_columns", qstrat.relcore)
    for module in (qstrat.cli, qstrat.orders, qstrat.qso, qstrat.qsseq):
        assert not hasattr(module, "_columns")
    path = tmp_path / "order.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, *argv, str(path))
    assert code == 0 and out
    assert transposed == []


@pytest.mark.parametrize(
    "doc, so_code, to_code",
    [(_CHAIN, 0, 0), (_TWO_STRATA, 0, 1), (_NESTED, 1, 1)],
    ids=["chain", "two-strata", "nested"],
)
def test_stratified_and_total_orders_are_decided_without_stratum_trees(
    capsys, monkeypatch, tmp_path, doc, so_code, to_code
):
    # so and to read their strata off the interval realization's points
    # (orders._strata), passing or failing: no stratum tree is built
    built = spy(monkeypatch, "order_trees", qstrat.qsseq)
    path = tmp_path / "order.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "check", "--class", "so", str(path))[0] == so_code
    assert run(capsys, "check", "--class", "to", str(path))[0] == to_code
    strata = qstrat.orders.stratified_partition(new_poset(doc["domain"], map(tuple, doc["prec"])))
    assert (strata is None) == bool(so_code)
    assert built == []


def test_saturate_builds_as_many_relations_at_every_limit_and_no_strata(capsys, monkeypatch):
    # each saturation prints from the walk's rows and trees: no BinRel,
    # Structure or QsSeq per printed saturation
    counts = {}
    for limit, printed in ((2, 2), (10, 8)):
        relations, strata = (spy(monkeypatch, "__init__", cls) for cls in (BinRel, QssStratum))
        code, out, _ = run(capsys, "saturate", "--limit", str(limit), T)
        assert code == 0 and out.count("-- saturation ") == printed
        counts[limit] = len(relations)
        assert strata == []
        monkeypatch.undo()
    assert counts[2] == counts[10]


# labels whose sort differs from their declared order (e10 < e2),
# labels that need quoting in the text outputs, and one that a
# %-format would read as a conversion
_SATURATE_LABELS = ["e2", "e10", "e1", "e11", "e3", "e20", "a ; b", "d\ne", 'q"', "é", "5%d"]


def _reference_saturate_text(s, limit):
    """saturate's stdout built from the library's labelled results:
    sorted label pairs, the trees as QsSeq and the realization dict."""
    sats = qstrat.saturate.saturations(s, limit)
    to_seq = qstrat.qsseq.seq_converter(sorted(s.domain.labels))

    def pairs(rel):
        shown = [f"{show_label(x)}->{show_label(y)}" for x, y in sorted(rel.label_pairs)]
        return ", ".join(shown) or "(none)"

    lines = [f"{len(sats)} saturation(s){' (truncated)' if sats.truncated else ''}"]
    for k, (m, trees) in enumerate(zip(sats, sats.trees), start=1):
        realization = sorted(qstrat.orders.interval_realization(m.prec).items())
        lines += [
            f"-- saturation {k}",
            f"   prec: {pairs(m.prec)}",
            f"   weak: {pairs(m.weak)}",
            f"   tree: {format_seq(to_seq(trees))}",
            "   intervals: " + " ".join(f"{show_label(x)}:[{b},{e}]" for x, (b, e) in realization),
        ]
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(
    labels=st.lists(st.sampled_from(_SATURATE_LABELS), min_size=1, max_size=6, unique=True),
    seed=st.integers(0, 10**6),
    density=st.floats(0.0, 0.7),
    limit=st.one_of(st.none(), st.integers(0, 40)),
)
def test_saturate_prints_what_the_labelled_results_render(labels, seed, density, limit):
    if limit is None and len(labels) > 4:
        limit = 40  # six free events have 38,703 saturations
    s = random_qsa_structure(labels, seed=seed, density=density)
    argv = ["saturate"] + ([] if limit is None else ["--limit", str(limit)])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(structure_json_text(s), encoding="utf-8")
        out = io.StringIO()
        real_stdout, sys.stdout = sys.stdout, out
        try:
            code = main(argv + [str(path)])
        finally:
            sys.stdout = real_stdout
    assert code == 0
    assert out.getvalue() == _reference_saturate_text(s, limit)


def _saturation_blocks(out):
    """saturate's stdout after its header line, one block per saturation."""
    return re.split(r"(?m)^(?=-- saturation )", out.partition("\n")[2])[1:]


def test_saturate_limit_prints_the_first_blocks_of_the_full_list(capsys, tmp_path):
    paths = [fixture(name) for name in ("maximal.json", "nested_order.json")]
    paths += [fixture(name) for name in ("transactions.json", "transactions_closure.json")]
    rng = random.Random(31)
    for case in range(60):
        labels = rng.sample(_SATURATE_LABELS, rng.randint(1, 6))
        s = random_qsa_structure(labels, seed=case, density=rng.uniform(0.3, 0.7))
        paths.append(tmp_path / f"spec{case}.json")
        paths[-1].write_text(structure_json_text(s), encoding="utf-8")
    for path in paths:
        code, out, _ = run(capsys, "saturate", str(path))
        assert code == 0
        count = int(out.split(" ", 1)[0])
        blocks = _saturation_blocks(out)
        assert len(blocks) == count
        for k in {1, 2, 3, count - 1, count}:
            code, cut, _ = run(capsys, "saturate", "--limit", str(k), str(path))
            assert code == 0
            truncated = " (truncated)" if k < count else ""
            assert cut.partition("\n")[0] == f"{min(k, count)} saturation(s){truncated}"
            assert _saturation_blocks(cut) == blocks[:k]


@settings(max_examples=100, deadline=None)
@given(_structure_files())
def test_file_writers_list_the_sorted_label_pairs(doc):
    s = new_structure(doc["domain"], map(tuple, doc["prec"]), map(tuple, doc["weak"]))
    prec, weak = sorted(s.prec.label_pairs), sorted(s.weak.label_pairs)
    assert structure_json_text(s) == (
        "{\n"
        f'  "domain": {json.dumps(doc["domain"])},\n'
        f'  "prec": {json.dumps([list(p) for p in prec])},\n'
        f'  "weak": {json.dumps([list(p) for p in weak])}\n'
        "}\n"
    )
    dot = qstrat.cli._dot_id
    lines = [
        "digraph structure {",
        "  rankdir=LR;",
        *(f"  {dot(x)};" for x in doc["domain"]),
        *(f"  {dot(x)} -> {dot(y)};" for x, y in prec),
        *(f"  {dot(x)} -> {dot(y)} [style=dashed];" for x, y in weak),
        "}",
    ]
    assert qstrat.cli.dot_text(s) == "\n".join(lines) + "\n"


def _plain_pairs(labels, names, rows):
    """The pairs of rows in sorted-label order, one step per pair and no
    memo: the reference for ``cli._pair_lister``."""
    order = sorted(range(len(labels)), key=labels.__getitem__)
    return [(names[i], names[j]) for i in order for j in order if rows[i] >> j & 1]


# labels that show_label quotes, then plain ones
_LISTER_LABELS = ["b c", "x->y", 'q"', "a;b", "[k]", "d\ne", "z:1", "(", "é", "a", "e10", "e2"]


def _lister_rows(rng, n):
    """Random rows, with one value repeated at several positions, so a
    memo keyed on the row alone would print another position's head."""
    rows = [sum(1 << j for j in range(n) if rng.random() < rng.choice((0.05, 0.3, 0.8))) for _ in range(n)]
    if n:
        shared = rng.getrandbits(n)
        for i in rng.sample(range(n), min(n, 4)):
            rows[i] = shared
    return tuple(rows)


def test_the_row_memo_writes_what_a_plain_pair_listing_writes():
    rng = random.Random(2701)
    for n in range(71):
        pool = _LISTER_LABELS + [f"e{k}" for k in range(20, 20 + n)]
        declared = sorted(pool[:n])
        for labels in (declared, rng.sample(declared, n)):
            domain = Domain(tuple(labels))
            prec, weak = _lister_rows(rng, n), _lister_rows(rng, n)
            s = Structure(BinRel(domain, prec), BinRel(domain, weak))
            names = [json.dumps(x) for x in labels]
            assert structure_json_text(s) == (
                "{\n"
                f'  "domain": [{", ".join(names)}],\n'
                f'  "prec": [{", ".join(f"[{x}, {y}]" for x, y in _plain_pairs(labels, names, prec))}],\n'
                f'  "weak": [{", ".join(f"[{x}, {y}]" for x, y in _plain_pairs(labels, names, weak))}]\n'
                "}\n"
            )
            dot = [qstrat.cli._dot_id(x) for x in labels]
            lines = [
                "digraph structure {",
                "  rankdir=LR;",
                *(f"  {x};" for x in dot),
                *(f"  {x} -> {y};" for x, y in _plain_pairs(labels, dot, prec)),
                *(f"  {x} -> {y} [style=dashed];" for x, y in _plain_pairs(labels, dot, weak)),
                "}",
            ]
            assert qstrat.cli.dot_text(s) == "\n".join(lines) + "\n"
            # one lister for several relations, as saturate keeps one per
            # request: rows seen before come from the memo
            shown = [show_label(x) for x in labels]
            arrows = qstrat.cli._arrow_lister(labels, shown)
            for rows in (prec, weak, prec, (0,) * n, weak, _lister_rows(rng, n)):
                expected = ", ".join(f"{x}->{y}" for x, y in _plain_pairs(labels, shown, rows))
                assert arrows(rows) == (expected or "(none)")


# the domain ["a ; b", "c", "d\ne"] with "a ; b" prec c: its text outputs
# split lines and tokens unless the labels are quoted
_SEPARATOR_OUTPUTS = {
    ("saturate", "--limit", "2"): (
        "stdout",
        '2 saturation(s) (truncated)\n'
        '-- saturation 1\n'
        '   prec: "a ; b"->c, "a ; b"->"d\\ne", c->"d\\ne"\n'
        '   weak: "a ; b"->c, "a ; b"->"d\\ne", c->"d\\ne"\n'
        '   tree: "a ; b" ; c ; "d\\ne"\n'
        '   intervals: "a ; b":[0,0] c:[1,1] "d\\ne":[2,2]\n'
        '-- saturation 2\n'
        '   prec: "a ; b"->c, "a ; b"->"d\\ne", "d\\ne"->c\n'
        '   weak: "a ; b"->c, "a ; b"->"d\\ne", "d\\ne"->c\n'
        '   tree: "a ; b" ; "d\\ne" ; c\n'
        '   intervals: "a ; b":[0,0] c:[2,2] "d\\ne":[1,1]\n',
    ),
    ("decompose",): ("stdout", '("d\\ne" | "a ; b" c)\n'),
    ("intervals",): ("stdout", '"a ; b": [0, 0]\nc: [1, 1]\n"d\\ne": [0, 1]\n'),
    ("close",): ("stderr", 'added prec: (none)\nadded weak: "a ; b"->c\n'),
    ("check", "--class", "qsc"): (
        "stdout",
        'FAIL: not closed; qsc:3: adding c prec "a ; b" breaks acyclicity, '
        'so "a ; b" weak c is required but missing\n',
    ),
}


@pytest.mark.parametrize("argv", list(_SEPARATOR_OUTPUTS), ids=" ".join)
def test_labels_with_separators_print_quoted(capsys, tmp_path, argv):
    doc = {"domain": ["a ; b", "c", "d\ne"], "prec": [["a ; b", "c"]]}
    if argv[0] in ("saturate", "close", "check"):
        doc["weak"] = []
    path = tmp_path / "separators.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    stream, expected = _SEPARATOR_OUTPUTS[argv]
    assert code == (1 if argv[0] == "check" else 0)
    assert (out if stream == "stdout" else err) == expected


# a witness set prints in braces, so a label holding one prints quoted:
# bare, the domain ["{a", "b}"] would print as {b}, {a}
_BRACES_FAIL = (
    'FAIL: not quasi-stratified acyclic; {"b}", "{a"} is strongly connected '
    "over the combined relation, no pre-dominant\n"
)


@pytest.mark.parametrize("argv", [("check", "--class", "qsa"), ("close",), ("saturate",)], ids=" ".join)
def test_labels_with_braces_print_quoted(capsys, tmp_path, argv):
    doc = {"domain": ["{a", "b}"], "prec": [["{a", "b}"]], "weak": [["b}", "{a"]]}
    path = tmp_path / "braces.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out, err) == (1, _BRACES_FAIL, "")
    assert _foreign_tokens(out, doc["domain"]) == []


class _FlushedOnly(io.StringIO):
    """Stdout whose text counts as shown only once flushed."""

    shown = ""

    def flush(self):
        self.shown = self.getvalue()


def test_selftest_shows_each_suite_line_as_the_suite_ends(monkeypatch):
    stdout = _FlushedOnly()
    monkeypatch.setattr(sys, "stdout", stdout)
    shown_when_second_suite_starts = spy(
        monkeypatch, "enumerate_qs_orders", qstrat.qso, record=lambda labels: stdout.shown
    )
    assert main(["selftest", "--max-n", "2"]) == 0
    (first,) = shown_when_second_suite_starts[0].splitlines()
    assert re.fullmatch(r"acyclicity: polynomial vs subset scan +17 cases +\d+\.\d\d s  PASS", first)
    lines = stdout.shown.splitlines()
    assert len(lines) == 4
    assert all(re.search(r" [1-9]\d* cases +\d+\.\d\d s  PASS$", line) for line in lines)


def test_selftest_reports_each_acyclicity_size_on_stderr(capsys):
    code, out, err = run(capsys, "selftest", "--max-n", "5")
    assert code == 0
    assert len(out.splitlines()) == 4
    # every structure on 1, 2 and 3 events, then 300 random ones per size
    cases = [1, 4**2, 64**2, 300, 300]
    lines = err.splitlines()
    assert len(lines) == len(cases)
    for n, (count, line) in enumerate(zip(cases, lines), 1):
        assert re.fullmatch(rf"selftest: acyclicity n={n}: {count} cases, \d+\.\d\d s", line), line


def test_selftest_suite_stops_at_its_first_failing_case(capsys, monkeypatch):
    monkeypatch.setattr(qstrat.oracles, "is_qsa_naive", lambda s: False)
    code, out, _ = run(capsys, "selftest", "--max-n", "2")
    assert code == 1
    first, *rest = out.splitlines()
    assert re.fullmatch(r"acyclicity: polynomial vs subset scan +1 cases +\d+\.\d\d s  FAIL", first)
    assert len(rest) == 3 and all(line.endswith("PASS") for line in rest)


# sha256 of `qstrat gen --n N --seed S --density D` stdout, (N, D, S)
GEN_DIGESTS = {
    (16, 0.1, 1): "5edf581c49050fc1255ab441beeff59204bad0c62d30225bcf6d4d041805f13a",
    (16, 0.1, 2): "9b6279166f270d911c5015ddcb98246d3b26a685b96fb3c15316b12eac77daa7",
    (16, 0.35, 1): "043dd90b3c04a9994bfd53cfbcc960b9a7cdc86560ce1299e1d047f9f66e8add",
    (16, 0.35, 2): "5040aec2652b2e4bb4f6899c94916dbe6c5d5c3105328ecb0ba1e92b07d8d156",
    (48, 0.1, 1): "acdea1c5621a7c46c083b0fa9ce67a03968bfc00e22d66b97c29f7208377933b",
    (48, 0.1, 2): "f294676135c069620f96d6ab0ae99c55abf9b50d2a7180ebf0b540d976648b16",
    (48, 0.35, 1): "f8b896f536e54583828f1b50b120603d9a3a497e00b448c5d80afda0efeceea7",
    (48, 0.35, 2): "f0e110842f7a2b9ad5e7dfb12459008533adf7410340ddfb042ef8693c28acae",
    (128, 0.1, 1): "25ae22581a23ab6ab929701d10c5e20c8b312a9f6674a5136d6de637299bd090",
    (128, 0.1, 2): "95fae762ae24a9291c4c1adf48fe69a3f688555de1cde85fe9602448175b3113",
    (128, 0.35, 1): "4d750db8630186b100abfa97517b6de4425faebb2a514b0a7d2d74fe1e2fcd62",
    (128, 0.35, 2): "106f61c88e9ebf2d9abe98ae041fe3986532028efd3d6fd6d63b8fe1f71c13b3",
}


@pytest.mark.parametrize("n, density, seed", sorted(GEN_DIGESTS))
def test_gen_stdout_bytes_are_pinned(capsys, n, density, seed):
    argv = ["gen", "--n", str(n), "--seed", str(seed), "--density", str(density)]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GEN_DIGESTS[n, density, seed]


# sha256 of `qstrat close` stdout then stderr on the output of
# `qstrat gen --n N --seed 1 --density D`, (N, D)
CLOSE_DIGESTS = {
    (32, 0.1): "8c97185f28557053191a29653c3da632ad92d437aded208618b2a4b08da800b5",
    (32, 0.3): "1f6a7a62dff8d0cbcf19ee02e25b0ca8b24d1ac20175f3c8f3b5329200278988",
    (128, 0.1): "2d06ac0f7fadae3f3ba9d348acf513c3906169dcee23d22a7fc579f29644288f",
    (128, 0.3): "5fdc3c348c09652dcd517e43b5bd1e1f27b44b799606acf0e17b71aa0e6ce379",
    (256, 0.3): "91754f649695d47693e785f9e7290ef73acd8780d88b699fa86f4537f96b6343",
}


@pytest.mark.parametrize("n, density", sorted(CLOSE_DIGESTS))
def test_close_output_bytes_are_pinned(capsys, tmp_path, n, density):
    code, spec, _ = run(capsys, "gen", "--n", str(n), "--seed", "1", "--density", str(density))
    assert code == 0
    path = tmp_path / "spec.json"
    path.write_text(spec, encoding="utf-8")
    code, out, err = run(capsys, "close", str(path))
    assert code == 0
    assert hashlib.sha256((out + err).encode()).hexdigest() == CLOSE_DIGESTS[n, density]


# one fault per file, each with the message it has always had
# per fault, the file (a string is written as it is, anything else as
# JSON) and the message; "{path}" stands for the file's path, and a
# message ending in "..." pins a prefix, the rest being the json module's
INPUT_FAULTS = {
    "invalid JSON": ("not json", "{path} is not valid JSON: ..."),
    "JSON array": ([], "input must be a JSON object"),
    "no prec": ({"domain": ["a"]}, 'input needs "domain" and "prec" keys'),
    "non-string label": ({"domain": ["a", 1], "prec": []}, '"domain" must be a list of strings'),
    # a string or an object would decode as its characters or keys
    "domain a string": ({"domain": "ab", "prec": []}, '"domain" must be a list of strings'),
    "domain an object": ({"domain": {"a": 0}, "prec": []}, '"domain" must be a list of strings'),
    "domain null": ({"domain": None, "prec": []}, '"domain" must be a list of strings'),
    "domain a number": ({"domain": 3, "prec": []}, '"domain" must be a list of strings'),
    "no weak, prec a 2-cycle": (
        {"domain": ["a", "b"], "prec": [["a", "b"], ["b", "a"]]},
        "cannot embed as a structure: partial order must be transitive",
    ),
    "prec not a list": (
        {"domain": ["a", "b"], "prec": {"a": "b"}},
        '"prec" must be a list of pairs',
    ),
    "entry shape": (
        {"domain": ["a", "b"], "prec": [["a", "b", "a"]]},
        '"prec" entries must be two-element lists of strings',
    ),
    "non-string member": (
        {"domain": ["a", "b"], "prec": [], "weak": [["a", 1]]},
        '"weak" entries must be two-element lists of strings',
    ),
    "unknown label beside a non-string member": (
        {"domain": ["b"], "prec": [["a", 5]]},
        '"prec" entries must be two-element lists of strings',
    ),
    "boolean member": (
        {"domain": ["a"], "prec": [[True, "a"]]},
        '"prec" entries must be two-element lists of strings',
    ),
    "unhashable member": (
        {"domain": ["a"], "prec": [], "weak": [[["x"], "a"]]},
        '"weak" entries must be two-element lists of strings',
    ),
    "unknown prec label": (
        {"domain": ["a", "b"], "prec": [["a", "b"], ["b", "z"]]},
        "unknown label: 'z'",
    ),
    "unknown weak label": (
        {"domain": ["a", "b"], "prec": [["a", "b"]], "weak": [["y", "a"]]},
        "unknown label: 'y'",
    ),
    "duplicate label": (
        {"domain": ["a", "b", "a"], "prec": []},
        "duplicate label: 'a'",
    ),
    # json.loads alone keeps a repeated key's last value, dropping a list
    "duplicate key": (
        '{"domain": ["a"], "prec": [["a", "a"]], "weak": [], "prec": []}',
        "duplicate key: 'prec'",
    ),
    "empty label": (
        {"domain": ["a", ""], "prec": []},
        "labels must be non-empty strings, got ''",
    ),
}


@pytest.mark.parametrize("fault", list(INPUT_FAULTS))
def test_each_input_fault_exits_2_with_its_message(capsys, tmp_path, fault):
    doc, message = INPUT_FAULTS[fault]
    path = tmp_path / "s.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    expected = f"error: {message.replace('{path}', str(path))}\n"
    for command in (["check", "--class", "qsa"], ["close"]):
        code, out, err = run(capsys, *command, str(path))
        assert (code, out) == (2, "")
        if expected.endswith("...\n"):
            assert err.startswith(expected[:-4]) and err.count("\n") == 1
        else:
            assert err == expected


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"domain": ["a", "a"], "prec": [["a"]], "weak": 0}, "duplicate label: 'a'"),
        ({"domain": ["a"], "prec": [["a", "z"]], "weak": 0}, "unknown label: 'z'"),
        ({"domain": ["a"], "prec": [["a", "z"], ["a"]]}, "unknown label: 'z'"),
        ({"domain": ["a"], "prec": [["a"], ["a", "z"]]}, '"prec" entries must be two-element lists of strings'),
        # entries a bare "for x, y in entries" would take for a pair
        ({"domain": ["a", "b"], "prec": ["ab"]}, '"prec" entries must be two-element lists of strings'),
        ({"domain": ["a", "b"], "prec": [{"a": 0, "b": 1}]}, '"prec" entries must be two-element lists of strings'),
        # a shape fault comes before a label fault in the same entry
        ({"domain": ["a", "b"], "prec": [["a", "b", "a"]]}, '"prec" entries must be two-element lists of strings'),
        ({"domain": ["a", "b"], "prec": [["z", 1]]}, '"prec" entries must be two-element lists of strings'),
        ({"domain": ["a", "b"], "prec": [], "weak": [[None, "z"]]}, '"weak" entries must be two-element lists of strings'),
        ({"domain": ["a", "b"], "prec": [["a", ["b"]]]}, '"prec" entries must be two-element lists of strings'),
        ({"domain": ["a", "b"], "prec": [[{"a": 0}, "z"]]}, '"prec" entries must be two-element lists of strings'),
        ({"domain": ["a", "b"], "prec": [["z", "y"], ["a", 1]]}, "unknown label: 'z'"),
        ({"domain": ["a", "b"], "prec": [["a", 1], ["z", "y"]]}, '"prec" entries must be two-element lists of strings'),
        # a fault after a thousand good entries
        ({"domain": ["a", "b"], "prec": [["a", "b"]] * 1000 + [["a", "z"], "ab"]}, "unknown label: 'z'"),
        ({"domain": ["a", "b"], "prec": [["a", "b"]] * 1000 + ["ab", ["a", "z"]]}, '"prec" entries must be two-element lists of strings'),
        ({"domain": ["a", "b"], "prec": [], "weak": [["b", "a"]] * 1000 + [["a", ["b"]]]}, '"weak" entries must be two-element lists of strings'),
        # a label that is no string comes first, before an empty or a
        # repeated label, wherever it stands
        ({"domain": ["", 1], "prec": []}, '"domain" must be a list of strings'),
        ({"domain": [1, ""], "prec": []}, '"domain" must be a list of strings'),
        ({"domain": ["a", "a", 1], "prec": []}, '"domain" must be a list of strings'),
    ],
)
def test_read_input_reports_the_domain_then_prec_then_weak_in_file_order(tmp_path, doc, message):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(qstrat.cli.InputError) as caught:
        read_input(path)
    assert str(caught.value) == message


def _per_pair_relation(value, key, domain):
    """The reference decode of a list of pairs: one entry at a time, in
    file order, its shape checked before its labels, and one row write
    per pair.  The rows, or the message of the first fault."""
    rows = [0] * len(domain)
    for item in value:
        if type(item) is not list or len(item) != 2 or {type(x) for x in item} != {str}:
            return f'"{key}" entries must be two-element lists of strings'
        for label in item:
            if label not in domain.index:
                return f"unknown label: {label!r}"
        x, y = item
        rows[domain.index[x]] |= 1 << domain.index[y]
    return tuple(rows)


def _decoded(value, key, domain):
    """cli._relation's rows, or its message."""
    bit = {label: 1 << i for i, label in enumerate(domain.labels)}
    try:
        return qstrat.cli._relation(value, key, domain, bit).rows
    except qstrat.cli.InputError as exc:
        return str(exc)


@st.composite
def _pair_lists(draw):
    """A domain and a list of its pairs, as drawn (runs of one first
    label interleaved, pairs repeated) or grouped by first label in an
    order of its own, with some pairs repeated in place."""
    labels = draw(st.lists(st.text(min_size=1, max_size=3), max_size=6, unique=True))
    label = st.sampled_from(labels) if labels else st.nothing()
    pairs = draw(st.lists(st.lists(label, min_size=2, max_size=2), max_size=40 if labels else 0))
    if draw(st.booleans()):
        firsts = draw(st.permutations(labels))
        pairs.sort(key=lambda pair: firsts.index(pair[0]))
    repeats = draw(st.lists(st.integers(0, max(len(pairs) - 1, 0)), max_size=4)) if pairs else []
    for at in sorted(repeats, reverse=True):
        pairs.insert(at, list(pairs[at]))
    return Domain(tuple(labels)), pairs


@settings(max_examples=300, deadline=None)
@given(_pair_lists(), st.sampled_from(["prec", "weak"]))
def test_the_run_decode_gives_the_rows_of_the_per_pair_decode(drawn, key):
    domain, pairs = drawn
    expected = _per_pair_relation(pairs, key, domain)
    assert isinstance(expected, tuple)
    assert _decoded(pairs, key, domain) == expected


# entries that are no pair of the domain's labels, by what is wrong
_BAD_ENTRIES = st.sampled_from(
    [
        "ab",  # a 2-character string, which unpacks as two labels
        {"a": 0, "b": 1},  # a 2-key object, which unpacks as its keys
        [None, "a"],
        ["a", None],
        [1, "a"],
        ["a", 2.5],
        [True, "a"],
        ["a", "zz"],  # unknown labels
        ["zz", "a"],
        ["a", "a", "b"],  # wrong lengths
        ["a"],
        [],
        [["a"], "b"],
        None,
        7,
    ]
)


@settings(max_examples=400, deadline=None)
@given(
    _pair_lists(),
    st.lists(st.tuples(st.sampled_from(["first", "middle", "last", "boundary"]), _BAD_ENTRIES), min_size=1, max_size=2),
    st.sampled_from(["prec", "weak"]),
)
def test_the_run_decode_names_the_fault_of_the_per_pair_decode(drawn, faults, key):
    domain, pairs = drawn
    if "a" not in domain.index or "b" not in domain.index:
        domain = Domain(tuple(dict.fromkeys([*domain.labels, "a", "b"])))
    boundaries = [k for k in range(1, len(pairs)) if pairs[k - 1][0] != pairs[k][0]] or [len(pairs) // 2]
    places = {"first": 0, "middle": len(pairs) // 2, "last": len(pairs), "boundary": boundaries[0]}
    for at, entry in sorted([(places[where], entry) for where, entry in faults], key=itemgetter(0), reverse=True):
        pairs.insert(at, entry)
    expected = _per_pair_relation(pairs, key, domain)
    assert isinstance(expected, str)
    assert _decoded(pairs, key, domain) == expected


@pytest.mark.parametrize("shape", ["order 64", "dense 256"])
def test_reading_a_file_of_many_pairs_starts_no_collector_pass(tmp_path, shape):
    # more pairs than the youngest generation's threshold: the parsed
    # document is freed while the collector is paused, so no pass follows
    labels = qstrat.cli.default_labels(64 if shape == "order 64" else 256)
    if shape == "order 64":  # as the file of an order, its weak pairs omitted
        prec, weak = seq_to_order(random_qs_seq(labels, 1)).prec, None
        text = json.dumps({"domain": labels, "prec": list(prec.pairs())})
    else:
        s = dense_structure(labels)
        prec, weak, text = s.prec, s.weak, structure_json_text(s)
    path = tmp_path / "s.json"
    path.write_text(text, encoding="utf-8")
    assert text.count("], [") > gc.get_threshold()[0]
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    was = gc.isenabled()
    gc.enable()
    gc.collect()
    gc.callbacks.append(count)
    try:
        read = read_input(path)
    finally:
        gc.callbacks.remove(count)
        (gc.enable if was else gc.disable)()
    assert (read.prec, read.weak) == (prec, weak)
    assert starts == []


@pytest.mark.parametrize(
    "argv",
    [
        ["saturate", fixture("transactions.json")],
        ["check", "--class", "qsa", fixture("transactions.json")],
        ["gen", "--n", "40"],
    ],
    ids=["saturate", "check", "gen"],
)
def test_a_closed_stdout_exits_141_without_a_traceback(argv):
    # a pipe whose read end is closed, as when "| head -1" has exited
    read_end, write_end = os.pipe()
    os.close(read_end)
    script = "import sys; from qstrat.cli import main; sys.exit(main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": str(Path(qstrat.__file__).parent.parent)}
    try:
        done = subprocess.run(
            [sys.executable, "-c", script, *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")


def _option_values(valid, huge):
    """Text for a numeric option: a valid value, or a negative, huge
    (from ``huge`` on), NaN, infinite or malformed one."""
    return st.one_of(
        valid.map(str),
        st.integers(max_value=-1).map(str),
        st.integers(min_value=huge).map(str),
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.sampled_from(["nan", "-nan", "inf", "-inf", "1e999", "-1e999", "0x10", " 3 ", "", "9" * 5000]),
    )


def _exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    real, sys.stdout, sys.stderr = (sys.stdout, sys.stderr), out, err
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses a value by exiting
        code = exc.code
    finally:
        sys.stdout, sys.stderr = real
    assert "internal error" not in err.getvalue(), err.getvalue()
    return code


@settings(max_examples=60, deadline=None)
@given(
    n=_option_values(st.integers(0, 16), huge=qstrat.qsa.GENERATION_BOUND + 1),
    seed=_option_values(st.integers(), huge=0),
    density=_option_values(st.floats(0.0, 1.0), huge=2),
)
def test_gen_refuses_or_accepts_every_numeric_option(n, seed, density):
    assert _exit_code(["gen", f"--n={n}", f"--seed={seed}", f"--density={density}"]) in {0, 2}


@settings(max_examples=40, deadline=None)
@given(limit=_option_values(st.integers(0, 20), huge=0))
def test_saturate_refuses_or_accepts_every_limit(limit):
    assert _exit_code(["saturate", f"--limit={limit}", fixture("transactions.json")]) in {0, 2}


@settings(max_examples=15, deadline=None)
@given(max_n=_option_values(st.integers(1, 3), huge=qstrat.oracles.SUBSET_SCAN_BOUND + 1))
def test_selftest_refuses_or_accepts_every_max_n(max_n):
    assert _exit_code(["selftest", f"--max-n={max_n}"]) in {0, 2}
