import random
import string
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qstrat.closure
import qstrat.qsa
from qstrat import (
    BinRel,
    NotAcyclicError,
    Prober,
    Structure,
    add_prec,
    add_weak,
    close,
    close_oracle,
    closure_step,
    extends,
    is_qsa,
    is_qsc,
    is_qsm,
    legal_extensions,
    new_structure,
    one_saturation,
    poset_to_structure,
    qsc_property_suite,
    qsa_witness,
    qsc_violation,
    random_qs_seq,
    random_qsa_structure,
    saturations,
    seq_to_order,
)
from qstrat.cli import default_labels, read_input
from qstrat.closure import _pair_violation, law_closure
from qstrat.qsseq import ENUMERATION_BOUND

from bounds import law_bound
from conftest import (
    LABELS,
    all_relational_structures,
    forward_structure,
    nested_structure,
    random_structure,
    spec_structure,
    spy,
)

FIXTURES = Path(__file__).parent / "fixtures"


def test_transactions_closure_is_closed(transactions_closure):
    assert is_qsc(transactions_closure)


def test_transactions_not_closed(transactions):
    bad = qsc_violation(transactions)
    assert bad == ("qsc:4", ("d", "a"))


def test_empty_is_closed():
    assert is_qsc(new_structure([]))


def test_self_loop_reported_first():
    s = new_structure(["a"], [], [("a", "a")])
    assert qsc_violation(s) == ("qsc:1", ("a", "a"))


def test_non_acyclic_structures_are_never_closed(cycle_structures):
    # a present pair probes as a no-op addition, so an unresolvable
    # cycle in the structure itself surfaces through qsc:3 or qsc:4
    assert not is_qsc(cycle_structures["d"])


def test_closed_implies_acyclic_random():
    rng = random.Random(151)
    for _ in range(300):
        s = random_structure(rng, rng.randint(1, 4))
        if is_qsc(s):
            assert is_qsa(s)


def test_closure_step_transactions_one_shot(transactions, transactions_closure):
    stepped = closure_step(transactions)
    assert stepped == transactions_closure
    assert sorted(stepped.prec.label_pairs - transactions.prec.label_pairs) == [("a", "d")]
    assert sorted(stepped.weak.label_pairs - transactions.weak.label_pairs) == [
        ("a", "c"),
        ("a", "d"),
        ("b", "d"),
    ]


def test_closure_step_fixed_on_closed(transactions_closure, maximal_ext):
    assert closure_step(transactions_closure) == transactions_closure
    assert closure_step(maximal_ext) == maximal_ext


def test_closure_step_empty():
    empty = new_structure([])
    assert closure_step(empty) == empty


@pytest.fixture
def scans(monkeypatch):
    """The structures that ``closure._forced_pairs`` scans, in order."""
    return spy(monkeypatch, "_forced_pairs", qstrat.closure, record=lambda prober, _: prober.structure())


def test_close_empty(scans):
    report = close(new_structure([]))
    assert report.closed == new_structure([])
    assert scans == [new_structure([])]
    assert not report.added_prec and not report.added_weak


def test_closure_step_fixed_iff_closed():
    rng = random.Random(83)
    for _ in range(200):
        n = rng.randint(1, 5)
        s = random_qsa_structure("abcde"[:n], seed=rng.randrange(1 << 30))
        assert (closure_step(s) == s) == is_qsc(s)


def test_close_transactions(transactions, transactions_closure, scans):
    report = close(transactions)
    assert report.closed == transactions_closure
    assert report.added_prec == {("a", "d")}
    assert report.added_weak == {("a", "c"), ("a", "d"), ("b", "d")}
    assert scans == [transactions]


def test_close_of_qsm_is_identity(maximal_ext, scans):
    report = close(maximal_ext)
    assert report.closed == maximal_ext
    assert scans == [maximal_ext]
    assert not report.added_prec and not report.added_weak


def test_close_rejects_non_acyclic(cycle_structures):
    with pytest.raises(ValueError, match="acyclic"):
        close(cycle_structures["d"])


def test_close_idempotent_and_extensive(scans):
    rng = random.Random(89)
    for _ in range(150):
        n = rng.randint(1, 5)
        s = random_qsa_structure("abcde"[:n], seed=rng.randrange(1 << 30))
        closed = close(s).closed
        assert extends(s, closed)
        assert close(closed).closed == closed
        assert is_qsc(closed)
        scans.clear()
        close(closed)
        assert scans == [closed]


def test_close_iteration_bound(scans):
    # close is one sweep: it scans the pairs of its input once
    rng = random.Random(97)
    for _ in range(100):
        n = rng.randint(1, 5)
        s = random_qsa_structure("abcde"[:n], seed=rng.randrange(1 << 30))
        scans.clear()
        close(s)
        assert scans == [s]


def test_close_oracle_transactions(transactions, transactions_closure):
    assert close_oracle(transactions) == transactions_closure


def test_close_oracle_of_qsm(maximal_ext):
    assert close_oracle(maximal_ext) == maximal_ext


def test_close_oracle_bound():
    with pytest.raises(ValueError, match="bound"):
        close_oracle(new_structure("abcdefg"))


def _intersected_saturations(s):
    """The closure as the component-wise intersection of the embedded
    saturations, ``saturations(s).structures``: the reference that the
    row-level ``close_oracle`` is checked against."""
    n = len(s.domain)
    prec, weak = [(1 << n) - 1] * n, [(1 << n) - 1] * n
    for m in saturations(s).structures:
        prec = [a & b for a, b in zip(prec, m.prec.rows)]
        weak = [a & b for a, b in zip(weak, m.weak.rows)]
    return Structure(s.domain, BinRel(s.domain, tuple(prec)), BinRel(s.domain, tuple(weak)))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_close_oracle_intersects_the_structures_of_every_spec(n):
    checked = 0
    for s in all_relational_structures(n):
        if is_qsa(s):
            assert close_oracle(s) == _intersected_saturations(s)
            checked += 1
    assert checked > (0 if n < 3 else 100)


def test_close_oracle_intersects_the_structures_of_random_specs():
    # labels declared out of sorted order, so the rows move back
    rng = random.Random(2201)
    for case in range(300):
        n = rng.randint(4, 5)
        labels = rng.sample("edcba", n)
        s = random_qsa_structure(labels, seed=case, density=rng.uniform(0.05, 0.7))
        assert close_oracle(s) == _intersected_saturations(s)


def test_close_matches_oracle_random():
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randint(1, 5)
        s = random_qsa_structure(
            "abcde"[:n], seed=rng.randrange(1 << 30), density=rng.uniform(0.1, 0.6)
        )
        assert close(s).closed == close_oracle(s)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 6),
    seed=st.integers(0, 2**30),
    density=st.floats(0.05, 0.8),
)
def test_close_laws_hypothesis(n, seed, density):
    s = random_qsa_structure("abcdef"[:n], seed=seed, density=density)
    report = close(s)
    assert report.closed == close_oracle(s)
    again = close(report.closed)
    assert again.closed == report.closed
    assert not again.added_prec and not again.added_weak


def test_close_monotone():
    rng = random.Random(103)
    for _ in range(100):
        n = rng.randint(2, 5)
        s = random_qsa_structure("abcde"[:n], seed=rng.randrange(1 << 30), density=0.3)
        t = s
        for _ in range(3):
            x, y = rng.sample(t.domain.labels, 2)
            probe = add_prec(t, x, y) if rng.random() < 0.5 else add_weak(t, x, y)
            if is_qsa(probe):
                t = probe
        assert extends(s, t)
        assert extends(close(s).closed, close(t).closed)


def test_close_preserves_saturations():
    rng = random.Random(107)
    for _ in range(100):
        n = rng.randint(1, 4)
        s = random_qsa_structure("abcd"[:n], seed=rng.randrange(1 << 30))
        assert set(saturations(s)) == set(saturations(close(s).closed))


def test_same_saturations_iff_same_closure():
    rng = random.Random(109)
    structures = [
        random_qsa_structure("abcd"[: rng.randint(1, 4)], seed=seed, density=0.35)
        for seed in range(40)
    ]
    for s in structures:
        for t in structures:
            if s.domain.label_set != t.domain.label_set:
                continue
            same_sats = set(saturations(s)) == set(saturations(t))
            same_closure = close(s).closed == close(t).closed
            assert same_sats == same_closure


def test_closed_structures_are_largest_with_their_saturations():
    rng = random.Random(113)
    for _ in range(60):
        n = rng.randint(2, 4)
        s = close(
            random_qsa_structure("abcd"[:n], seed=rng.randrange(1 << 30))
        ).closed
        sats = set(saturations(s))
        for x in s.domain.labels:
            for y in s.domain.labels:
                if x == y:
                    continue
                for probe in (add_prec(s, x, y), add_weak(s, x, y)):
                    if probe == s or not is_qsa(probe):
                        continue
                    assert set(saturations(probe)) != sats


def test_class_chain_maximal_closed_acyclic():
    rng = random.Random(127)
    for _ in range(300):
        s = random_structure(rng, rng.randint(1, 4))
        if is_qsm(s):
            assert is_qsc(s)
        if is_qsc(s):
            assert is_qsa(s)


def test_closure_step_between_input_and_closure():
    rng = random.Random(131)
    for _ in range(100):
        n = rng.randint(1, 5)
        s = random_qsa_structure("abcde"[:n], seed=rng.randrange(1 << 30))
        stepped = closure_step(s)
        assert extends(s, stepped)
        assert extends(stepped, close(s).closed)


def test_property_suite_on_transactions_closure(transactions_closure):
    results = qsc_property_suite(transactions_closure)
    assert all(check.status == "pass" for check in results)
    names = {check.name for check in results}
    assert "prec_implies_weak" in names
    assert "open_pair_splits_saturations" in names


def test_property_suite_on_random_closures():
    rng = random.Random(137)
    for _ in range(60):
        n = rng.randint(1, 5)
        s = close(random_qsa_structure("abcde"[:n], seed=rng.randrange(1 << 30))).closed
        for check in qsc_property_suite(s):
            assert check.status in ("pass", "not evaluated")


def test_property_suite_rejects_unclosed(transactions):
    with pytest.raises(ValueError, match="closed"):
        qsc_property_suite(transactions)


def test_property_suite_reports_reversed_weak():
    broken = new_structure(["a", "b"], [("a", "b")], [("a", "b"), ("b", "a")])
    with pytest.raises(ValueError, match=r"qsc:2.*'a', 'b'"):
        qsc_property_suite(broken)


def test_property_suite_skips_beyond_enum_bound():
    closed = close(random_qsa_structure(LABELS[:7], seed=1)).closed
    results = {c.name: c.status for c in qsc_property_suite(closed)}
    assert results["open_pair_splits_saturations"] == "not evaluated"
    assert results["prec_implies_weak"] == "pass"


def _reference_qsc_violation(s):
    """The literal two-loop scan, kept as the reference for qsc_violation:
    the pair reference's qsc:1 and qsc:2, then a decision per pair."""
    bad = _reference_pair_violation(s)
    if bad is not None:
        return bad
    labels = s.domain.labels
    n = len(labels)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            x, y = labels[i], labels[j]
            if not s.prec.holds_idx(j, i) and qsa_witness(add_weak(s, x, y)) is not None:
                return "qsc:4", (x, y)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            x, y = labels[i], labels[j]
            if not s.weak.holds_idx(j, i) and qsa_witness(add_prec(s, x, y)) is not None:
                return "qsc:3", (x, y)
    return None


def test_qsc_violation_matches_reference_scan():
    rng = random.Random(4242)
    verdicts = set()
    for _ in range(400):
        n = rng.randint(1, 5)
        kind = rng.randrange(4)
        if kind == 0:
            s = random_structure(rng, n)  # relational, often not acyclic
        elif kind == 1:
            s = random_qsa_structure("abcde"[:n], seed=rng.randrange(1 << 30))
        elif kind == 2:
            s = close(random_qsa_structure("abcde"[:n], seed=rng.randrange(1 << 30))).closed
        else:
            s = random_structure(rng, n)
            loop = rng.choice(s.domain.labels)
            s = add_weak(s, loop, loop) if rng.random() < 0.5 else add_prec(s, loop, loop)
        expected = _reference_qsc_violation(s)
        assert qsc_violation(s) == expected, s
        verdicts.add(expected[0] if expected else None)
    assert verdicts == {"qsc:1", "qsc:2", "qsc:3", "qsc:4", None}


def _reference_closure_step(s):
    """One closure step from the literal oracle: decide every extension."""
    labels = s.domain.labels
    prec, weak = set(s.prec.label_pairs), set(s.weak.label_pairs)
    for x in labels:
        for y in labels:
            if x == y:
                continue
            if (y, x) not in s.prec.label_pairs and qsa_witness(add_weak(s, x, y)) is not None:
                prec.add((y, x))
            if (y, x) not in s.weak.label_pairs and qsa_witness(add_prec(s, x, y)) is not None:
                weak.add((y, x))
    return new_structure(labels, prec, weak)


@pytest.mark.parametrize("n", [6, 9, 12, 16])
def test_closure_matches_the_oracle_at_workload_sizes(n):
    labels = string.ascii_letters[:n]
    for seed, density in enumerate((0.05, 0.15, 0.4, 0.8)):
        s = random_qsa_structure(labels, seed=1000 * n + seed, density=density)
        closed = close(s).closed
        for t in (s, closed):
            assert closure_step(t) == _reference_closure_step(t)
            assert qsc_violation(t) == _reference_qsc_violation(t)
        assert qsc_violation(closed) is None


def test_close_decides_acyclicity_once_per_sweep(decisions, scans):
    # per-pair probing that re-decided each extension would make 2 n^2
    # decisions a sweep
    s = random_qsa_structure(string.ascii_letters[:16], seed=5, density=0.3)
    decisions.clear()  # the generator's own decision
    assert is_qsa(s)
    report = close(s)
    assert scans == [s] and report.added_prec
    assert decisions == [s]  # is_qsa's decision, which the sweep reads again


def _reference_close(s):
    """The closure as the fixpoint of the closure step, kept as the
    reference for the one-step ``close``."""
    current = s
    while True:
        stepped = closure_step(current)
        if stepped == current:
            return current
        current = stepped


def test_close_equals_the_fixpoint_of_the_closure_step():
    rng = random.Random(1409)
    for _ in range(300):
        n = rng.randint(2, 48)
        s = random_qsa_structure(
            string.ascii_letters[:n],
            seed=rng.randrange(1 << 30),
            density=rng.uniform(0.05, 0.8),
        )
        assert close(s).closed == _reference_close(s)


@pytest.mark.parametrize("seed, density", [(1, 0.1), (1, 0.3), (2, 0.1), (2, 0.3)])
def test_close_equals_the_fixpoint_at_128_events(seed, density):
    s = random_qsa_structure(default_labels(128), seed=seed, density=density)
    report = close(s)
    assert report.added_prec or report.added_weak
    assert report.closed == _reference_close(s)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 9), seed=st.integers(0, 2**30), density=st.floats(0.05, 0.8))
def test_closure_step_is_idempotent_hypothesis(n, seed, density):
    stepped = closure_step(random_qsa_structure(string.ascii_letters[:n], seed=seed, density=density))
    assert closure_step(stepped) == stepped


@pytest.mark.parametrize("n", range(ENUMERATION_BOUND + 1))
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**30), density=st.floats(0.05, 0.8))
def test_close_matches_the_oracle_at_every_enumerable_size(n, seed, density):
    s = random_qsa_structure(string.ascii_letters[:n], seed=seed, density=density)
    assert close(s).closed == close_oracle(s)


def test_productive_close_decides_and_scans_once(decisions, scans):
    # a confirming sweep would decide the closed structure's acyclicity
    # and scan its pairs a second time
    s = random_qsa_structure(string.ascii_letters[:16], seed=5, density=0.3)
    decisions.clear()  # the generator's own decision
    report = close(s)
    assert report.added_prec or report.added_weak
    assert decisions == [s]
    assert scans == [s]


def _legal_first_pair(s):
    return legal_extensions(s, *s.domain.labels[:2])


def test_refusals_carry_the_witness_of_the_one_decision(cycle_structures):
    refused = [s for s in cycle_structures.values() if qsa_witness(s) is not None]
    assert refused
    everyone = (close, closure_step, saturations, one_saturation, _legal_first_pair)
    for s in refused:
        for refuse in everyone:
            with pytest.raises(NotAcyclicError) as exc:
                refuse(s)
            assert exc.value.witness == qsa_witness(s)
    looped = new_structure("ab", [("a", "a")])
    for refuse in everyone:
        with pytest.raises(NotAcyclicError) as exc:
            refuse(looped)
        assert exc.value.witness is None


def _reference_pair_violation(s):
    """The literal double loop over qsc:1 and qsc:2, kept as the
    reference for the row-mask scan in ``closure._pair_violation``."""
    labels = s.domain.labels
    n = len(labels)
    for i in range(n):
        if s.weak.holds_idx(i, i) or s.prec.holds_idx(i, i):
            return "qsc:1", (labels[i], labels[i])
    for i in range(n):
        for j in range(n):
            if s.prec.holds_idx(i, j) and s.weak.holds_idx(j, i):
                return "qsc:2", (labels[i], labels[j])
    return None


def test_pair_violation_matches_the_double_loop():
    rng = random.Random(1212)
    structures = [read_input(path).structure() for path in sorted(FIXTURES.glob("*.json"))]
    assert len(structures) >= 7
    for _ in range(500):
        n = rng.randint(0, 8)
        s = random_structure(rng, n, rng.choice((0.05, 0.2, 0.5, 0.9)))
        labels = s.domain.labels
        for _ in range(rng.choice((0, 0, 1, 2))):
            loop = rng.choice(labels) if labels else None
            if loop is not None:
                s = add_weak(s, loop, loop) if rng.random() < 0.5 else add_prec(s, loop, loop)
        structures.append(s)
    verdicts = set()
    for s in structures:
        expected = _reference_pair_violation(s)
        assert _pair_violation(s) == expected, s
        verdicts.add(expected[0] if expected else None)
    assert verdicts == {"qsc:1", "qsc:2", None}


@pytest.mark.parametrize(
    "n, density", [(16, 0.1), (32, 0.05), (32, 0.3), (48, 0.3), (64, 0.1)]
)
def test_row_walks_look_up_fewer_reach_sets_than_pairs(monkeypatch, n, density):
    # probing pair by pair looks up at least one reach set per probe, so
    # more than 2 n^2 a sweep on these inputs; a row walk rules out every
    # j that does not reach i with the one coreach set of i, and the
    # candidates of one component share their chain level
    s = random_qsa_structure(default_labels(n), seed=1, density=density)
    calls = spy(monkeypatch, "_memo_spread", qstrat.qsa)
    report = close(s)
    assert report.added_prec or report.added_weak
    assert 0 < len(calls) <= 2 * n * n * 1  # one sweep
    calls.clear()
    assert qsc_violation(report.closed) is None
    assert 0 < len(calls) <= n * n


def test_pass_certificates_settle_most_probes_of_a_specification(monkeypatch):
    # a specification as the close workload draws it, a random subset of
    # one execution's maximal structure, is nearly acyclic over the
    # combined relation: most candidates of a row lie outside i's own
    # component, and the two pass certificates settle most of them from
    # the row masks alone.  Probing each of them made 477 pre-dominant
    # scans and spreads here; with the certificates it makes 87
    labels = default_labels(32)
    m = poset_to_structure(seq_to_order(random_qs_seq(labels, 7)))
    rng = random.Random(7)
    s = new_structure(
        labels,
        [pair for pair in m.prec.pairs() if rng.random() < 0.05],
        [pair for pair in m.weak.pairs() if rng.random() < 0.05],
    )
    untouched, spreads = (spy(monkeypatch, name, qstrat.qsa) for name in ("_untouched", "_memo_spread"))
    report = close(s)
    assert report.added_prec or report.added_weak
    assert qsc_violation(report.closed) is None
    assert 0 < len(untouched) + len(spreads) <= 120


def test_close_path_spreads_little_on_specifications(monkeypatch):
    # a timing-free guard for the close workload's path, close then
    # qsc_violation of the result: 60 specifications of 12-32 events.
    # Before a precedence walk below level 0 ended at once in a member
    # set where j has no edge, and before a row that its masks emptied
    # returned at once, these made 4,987 reach-set lookups; now 2,929
    calls = spy(monkeypatch, "_memo_spread", qstrat.qsa)
    for k in range(60):
        n, keep = (12, 16, 20, 24, 28, 32)[k % 6], (0.05, 0.3)[k % 2]
        report = close(spec_structure(default_labels(n), k, keep))
        assert qsc_violation(report.closed) is None
    assert 0 < len(calls) <= 3200


def test_spec_structure_draws_what_the_pair_lists_drew():
    # the helper builds the kept rows as masks, one draw per pair in
    # ``BinRel.pairs`` order; the pair lists it replaced are the
    # reference, so every specification the suite draws stays the same
    moved = 0
    for n, seed, keep in ((1, 3, 0.5), (12, 0, 0.05), (24, 1, 0.3), (32, 7, 0.3), (64, 5, 0.3), (64, 11, 0.9)):
        labels = default_labels(n)[::-1] if seed % 2 else default_labels(n)
        m = poset_to_structure(seq_to_order(random_qs_seq(labels, seed)))
        moved += m.domain.labels != tuple(labels)
        rng = random.Random(seed)
        expected = new_structure(
            labels,
            [pair for pair in m.prec.pairs() if rng.random() < keep],
            [pair for pair in m.weak.pairs() if rng.random() < keep],
        )
        got = spec_structure(labels, seed, keep)
        assert got.domain.labels == expected.domain.labels
        assert (got.prec.rows, got.weak.rows) == (expected.prec.rows, expected.weak.rows)
    assert moved  # the rows were moved to the labels' order somewhere


def _reference_law_closure(s):
    """The four laws applied pair by pair until nothing changes: P
    transitive, P inside W, P.W and W.P inside W."""
    n = len(s.domain)
    prec = {(i, j) for i in range(n) for j in range(n) if s.prec.holds_idx(i, j)}
    weak = {(i, j) for i in range(n) for j in range(n) if s.weak.holds_idx(i, j)}
    while True:
        grown_prec = prec | {(a, c) for a, b in prec for b2, c in prec if b == b2}
        grown_weak = weak | prec
        grown_weak |= {(a, c) for a, b in prec for b2, c in weak if b == b2}
        grown_weak |= {(a, c) for a, b in weak for b2, c in prec if b == b2}
        if (grown_prec, grown_weak) == (prec, weak):
            return prec, weak
        prec, weak = grown_prec, grown_weak


def test_law_closure_is_the_least_structure_obeying_the_laws():
    # cyclic and self-looped inputs included: the kernel needs no acyclicity
    rng = random.Random(1818)
    structures = [read_input(path).structure() for path in sorted(FIXTURES.glob("*.json"))]
    structures += [random_structure(rng, rng.randint(0, 8)) for _ in range(300)]
    structures.append(new_structure("ab", [("a", "b"), ("b", "a")], [("a", "a")]))
    for s in structures:
        law, labels = law_closure(s), s.domain.labels
        prec, weak = _reference_law_closure(s)
        assert law.prec.label_pairs == {(labels[i], labels[j]) for i, j in prec}
        assert law.weak.label_pairs == {(labels[i], labels[j]) for i, j in weak}
        assert law_closure(law) == law


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, ENUMERATION_BOUND), seed=st.integers(0, 2**30), density=st.floats(0.05, 0.8))
def test_law_closure_lies_in_the_closure_and_keeps_it(n, seed, density):
    s = random_qsa_structure(string.ascii_letters[:n], seed=seed, density=density)
    law = law_closure(s)
    assert extends(s, law) and extends(law, close_oracle(s))
    assert close(law).closed == close(s).closed


def _bound_inputs(n):
    """Forward inputs at densities 0.1 and 0.3, a specification and a
    nested input, at about n events."""
    labels = default_labels(n)
    return [
        forward_structure(labels, n, 0.1),
        forward_structure(labels, n + 1, 0.3),
        spec_structure(labels, n, 0.3),
        nested_structure(n // 2),
    ]


@pytest.mark.parametrize("n", [64, 128, 256])
def test_close_holds_the_least_structure_obeying_two_more_laws(n):
    # the interval and quasi-stratified laws (tests/bounds.py) bound close
    # from below at sizes the literal scans do not reach; a closure_step
    # that drops the qsc:4 pairs falls below the bound on every input but
    # the nested one, which is closed already
    for s in _bound_inputs(n):
        closed = close(s).closed
        prec, weak = law_bound(s.prec.rows, s.weak.rows)
        assert all(b & ~c == 0 for b, c in zip(prec, closed.prec.rows))
        assert all(b & ~c == 0 for b, c in zip(weak, closed.weak.rows))


def test_the_two_laws_add_to_the_law_closure():
    beyond = 0
    for s in _bound_inputs(64):
        law = law_closure(s)
        bound = law_bound(s.prec.rows, s.weak.rows)
        for rows, least in zip(bound, (law.prec.rows, law.weak.rows)):
            assert all(a & ~b == 0 for a, b in zip(least, rows))
        beyond += bound != (list(law.prec.rows), list(law.weak.rows))
    assert beyond == 3


@pytest.mark.parametrize("density", [0.1, 0.3])
def test_close_probes_only_the_pairs_the_laws_leave_open(monkeypatch, density):
    # probing every pair the input lacks hands run_row 30,646 (d = 0.1)
    # and 27,586 (d = 0.3) candidates here; the law closure decides all
    # but a few thousand of them
    n = 128
    s = random_qsa_structure(default_labels(n), seed=1, density=density)
    handed = spy(monkeypatch, "run_row", qstrat.qsa.Prober, record=lambda _, i, js, kind: js.bit_count())
    report = close(s)
    assert report.added_prec and report.added_weak
    assert 0 < sum(handed) <= n * n // 2


def test_close_reports_the_pairs_it_added():
    rng = random.Random(2020)
    for _ in range(60):
        n = rng.randint(0, 24)
        s = random_qsa_structure(default_labels(n), seed=rng.randrange(1 << 30), density=rng.uniform(0, 0.5))
        report = close(s)
        assert report.added_prec == report.closed.prec.label_pairs - s.prec.label_pairs
        assert report.added_weak == report.closed.weak.label_pairs - s.weak.label_pairs


def _reference_qsc_violation_by_probes(s):
    """``qsc_violation`` by one probe per pair, no probe left out."""
    bad = _reference_pair_violation(s)
    if bad is not None:
        return bad
    prober, labels = Prober(s), s.domain.labels
    for axiom, kind, forced in (("qsc:4", "weak", s.prec), ("qsc:3", "prec", s.weak)):
        for i in range(len(labels)):
            for j in range(len(labels)):
                if i != j and not forced.holds_idx(j, i) and prober.run(i, j, kind):
                    return axiom, (labels[i], labels[j])
    return None


def test_qsc_violation_names_the_first_witness_of_every_probe():
    # leaving out the probes of pairs an acyclic input holds changes no
    # verdict: checked on cyclic inputs, on acyclic ones and on acyclic
    # ones a few pairs short of their closure
    rng = random.Random(3131)
    structures = [read_input(path).structure() for path in sorted(FIXTURES.glob("*.json"))]
    for _ in range(300):
        n = rng.randint(0, 8)
        structures.append(random_structure(rng, n))
        s = random_qsa_structure(default_labels(n), seed=rng.randrange(1 << 30), density=rng.uniform(0, 0.6))
        closed = close(s).closed
        kept = [(x, y) for x, y in closed.prec.pairs() if rng.random() < 0.9]
        structures += [s, closed, new_structure(closed.domain.labels, kept, closed.weak.pairs())]
    verdicts = set()
    for s in structures:
        expected = _reference_qsc_violation_by_probes(s)
        assert qsc_violation(s) == expected, s
        verdicts.add(expected and expected[0])
    assert verdicts == {"qsc:1", "qsc:2", "qsc:3", "qsc:4", None}


def test_close_builds_the_added_label_pairs_only_when_read(monkeypatch, transactions):
    calls = spy(monkeypatch, "_gained", qstrat.closure)
    report = close(transactions)
    assert calls == []
    assert report.added_prec == {("a", "d")}
    assert len(calls) == 1
    assert report.added_prec == {("a", "d")}
    assert len(calls) == 1
