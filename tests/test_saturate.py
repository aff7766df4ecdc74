import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qstrat.relcore
import qstrat.saturate
from qstrat import (
    Domain,
    add_prec,
    add_weak,
    all_qsm_structures,
    close,
    close_oracle,
    enumerate_qs_orders,
    extends,
    is_qsa,
    is_qsm,
    new_poset,
    new_structure,
    one_saturation,
    order_to_seq,
    poset_to_structure,
    project,
    qsm_to_qso,
    qs_order_violation,
    qsm_violation,
    qso_from_poset,
    qso_to_qsm,
    random_qs_seq,
    random_qsa_structure,
    reindex_structure,
    saturations,
    seq_to_order,
    stratum_domain,
)
from qstrat.cli import default_labels
from qstrat.qsa import GENERATION_BOUND
from qstrat.qsseq import tree_order
from qstrat.relcore import InternalError

from conftest import (
    all_relational_structures,
    bit_length_calls,
    mutual_weak_path,
    nested_structure,
    random_structure,
    reference_one_saturation,
    reference_qsm_structures,
    spec_structure,
    spy,
)


def generation_key(m):
    """Rank of a saturation in the documented generation order, read off
    its stratum tree: per stratum, its domain's mask over the sorted
    labels, then leaf before node, then the base's mask, then the body."""
    position = {x: i for i, x in enumerate(sorted(m.domain.labels))}

    def mask(labels):
        return sum(1 << position[x] for x in labels)

    def sequence(strata):
        return tuple((mask(stratum_domain(st)), stratum(st)) for st in strata)

    def stratum(st):
        return (0,) if st.is_leaf else (1, mask(st.base), sequence(st.children))

    return sequence(order_to_seq(qsm_to_qso(m)).strata)


def assert_matches_oracle(s, universe):
    """Check saturations of s against the filter oracle: the maximal
    structures over the domain (universe) that extend s."""
    expected = [m for m in universe if extends(s, m)]
    assert list(saturations(s)) == sorted(expected, key=generation_key)
    if len(expected) > 3:
        cut = saturations(s, limit=3)
        assert cut.truncated
        assert list(cut) == sorted(expected, key=generation_key)[:3]


def reference_qsm_violation(s):
    """``qsm_violation`` by literal double loops over the pairs."""
    labels = s.domain.labels
    n = len(labels)
    prec, weak = s.prec, s.weak
    for i in range(n):
        if weak.holds_idx(i, i):
            return "qsm:1", (labels[i],)
    for i in range(n):
        for j in range(n):
            if prec.holds_idx(i, j) != (weak.holds_idx(i, j) and not weak.holds_idx(j, i)):
                return "qsm:2", (labels[i], labels[j])
    for i in range(n):
        for j in range(n):
            related = (
                prec.holds_idx(i, j)
                or prec.holds_idx(j, i)
                or (weak.holds_idx(i, j) and weak.holds_idx(j, i))
            )
            if related != (i != j):
                return "qsm:3", (labels[i], labels[j])
    witness = qs_order_violation(prec)
    if witness is not None:
        return "qsm:4", witness
    return None


def _maximality_cases(rng, count):
    """Seeded structures over shuffled declarations, cycling through
    kinds meant for each verdict: a maximal structure, one with a weak
    self-loop, one with weak pairs from one event toggled, one with an
    event made unrelated to a few others, and the embedding of a random
    two-dimensional poset."""
    for k in range(count):
        n = rng.randint(1, 8)
        labels = list("abcdefgh"[:n])
        rng.shuffle(labels)
        domain = Domain(tuple(labels))
        kind = k % 5
        if kind == 4:
            # the intersection of two random linear orders
            first, second = rng.sample(labels, n), rng.sample(labels, n)
            below = {(x, y) for x in labels for y in labels if first.index(x) < first.index(y)}
            pairs = [(x, y) for x, y in below if second.index(x) < second.index(y)]
            yield poset_to_structure(new_poset(labels, pairs))
            continue
        order = seq_to_order(random_qs_seq(labels, seed=rng.randrange(1 << 30)))
        m = reindex_structure(qso_to_qsm(order), domain)
        x = rng.choice(labels)
        others = rng.sample([y for y in labels if y != x], min(n - 1, rng.randint(1, 3)))
        if kind == 1:
            m = add_weak(m, x, x)
        elif kind == 2:
            weak = set(m.weak.label_pairs) ^ {(x, y) for y in others}
            m = new_structure(labels, m.prec.label_pairs, weak)
        elif kind == 3:
            apart = {(x, y) for y in others} | {(y, x) for y in others}
            m = new_structure(labels, m.prec.label_pairs - apart, m.weak.label_pairs - apart)
        yield m


def test_qsm_violation_matches_the_pairwise_reference():
    rng = random.Random(97)
    verdicts = set()
    for s in _maximality_cases(rng, 500):
        got = qsm_violation(s)
        assert got == reference_qsm_violation(s)
        verdicts.add(got and got[0])
    for s in all_relational_structures(2):
        assert qsm_violation(s) == reference_qsm_violation(s)
    assert verdicts == {"qsm:1", "qsm:2", "qsm:3", "qsm:4", None}


def test_maximal_extension_is_qsm(maximal_ext):
    assert is_qsm(maximal_ext)


def test_transactions_is_not_qsm(transactions):
    bad = qsm_violation(transactions)
    assert bad is not None
    assert set(bad[1]) <= {"a", "b", "c", "d"}
    # a and d are unrelated both ways, which maximality forbids
    assert not transactions.prec.holds("a", "d")
    assert not transactions.prec.holds("d", "a")
    assert not (transactions.weak.holds("a", "d") and transactions.weak.holds("d", "a"))


def test_empty_is_qsm():
    assert is_qsm(new_structure([]))


def test_correspondence_nested_order_maximal(nested_poset, maximal_ext):
    q = qso_from_poset(nested_poset)
    assert qso_to_qsm(q) == maximal_ext
    assert qsm_to_qso(maximal_ext) == q


def test_antichain_total_simultaneity():
    from qstrat import new_poset

    m = qso_to_qsm(qso_from_poset(new_poset(["a", "b"])))
    assert sorted(m.weak.label_pairs) == [("a", "b"), ("b", "a")]
    assert not m.prec.label_pairs


def test_round_trip_random_orders():
    from qstrat import random_qs_seq

    rng = random.Random(61)
    for _ in range(1000):
        n = rng.randint(1, 6)
        q = seq_to_order(random_qs_seq("abcdef"[:n], seed=rng.randrange(1 << 30)))
        assert qsm_to_qso(qso_to_qsm(q)) == q


def test_qsm_to_qso_rejects_non_maximal(transactions):
    with pytest.raises(ValueError, match="not a maximal structure"):
        qsm_to_qso(transactions)


def test_one_saturation_transactions(transactions):
    m = one_saturation(transactions)
    assert is_qsm(m)
    assert extends(transactions, m)
    assert m in saturations(transactions)


def test_one_saturation_fixed_point(maximal_ext):
    assert one_saturation(maximal_ext) == maximal_ext


def test_one_saturation_empty():
    empty = new_structure([])
    assert one_saturation(empty) == empty


def test_one_saturation_rejects_non_acyclic(cycle_structures):
    with pytest.raises(ValueError, match="acyclic"):
        one_saturation(cycle_structures["d"])


def test_one_saturation_matches_the_label_level_reference():
    rng = random.Random(101)
    for _ in range(300):
        n = rng.randint(1, 40)
        labels = [f"e{i}" for i in range(n)]
        rng.shuffle(labels)
        if n > 1 and labels == sorted(labels):
            labels.reverse()
        s = random_qsa_structure(
            labels, seed=rng.randrange(1 << 30), density=rng.uniform(0.02, 0.6)
        )
        got, expected = one_saturation(s), reference_one_saturation(s)
        assert got.domain.labels == expected.domain.labels == tuple(labels)
        assert got.prec.rows == expected.prec.rows
        assert got.weak.rows == expected.weak.rows


def test_one_saturation_transposes_nothing_once_the_tables_are_warm(monkeypatch):
    # the decode writes the order's columns and the weak rows come from
    # them, so once s's own cached tables exist no row set is transposed
    inputs = [
        new_structure(default_labels(300)),
        random_qsa_structure(default_labels(64), seed=5, density=0.1),
        spec_structure(default_labels(64), seed=5, keep=0.3),
    ]
    for s in inputs:
        s.prec._touch, s._decision  # the decision and the tables it reads
        transposed = spy(monkeypatch, "_columns", qstrat.relcore)
        m = one_saturation(s)
        monkeypatch.undo()
        assert transposed == []
        assert m.weak.rows == qstrat.relcore._embedded_weak(qstrat.relcore._columns(m.prec.rows))


def test_one_saturation_grows_linearly_along_a_mutual_weak_path():
    # the path is one component, every event a pre-dominant, so the tree
    # is one leaf: doubling the path doubles the steps (3,002 at 600
    # events, 6,002 at 1,200).  A base of one pre-dominant per level
    # would nest the tree one level per event, a pass each over the
    # events left, and quadruple them (543,902 and 2,167,802)
    steps, found = [], []
    for n in (600, 1200):
        s = mutual_weak_path(n)
        steps.append(bit_length_calls(lambda: found.append(one_saturation(s))))
        assert not any(found[-1].prec.rows)
        assert extends(s, found[-1])
    assert steps[1] <= 2.5 * steps[0]


def test_nested_250_is_its_own_closure_and_only_saturation():
    # 499 events, past the reach of every brute-force oracle: a maximal
    # structure is acyclic and maximal, closes to itself with no pair
    # added, and is the saturation it extends
    s = nested_structure(250)
    assert is_qsa(s)
    assert qsm_violation(s) is None
    report = close(s)
    assert report.closed == s and not report.added_prec and not report.added_weak
    assert one_saturation(s) == s


def test_one_saturation_succeeds_iff_qsa():
    rng = random.Random(67)
    for _ in range(300):
        s = random_structure(rng, rng.randint(1, 5))
        if is_qsa(s):
            m = one_saturation(s)
            assert is_qsm(m)
            assert extends(s, m)
        else:
            with pytest.raises(ValueError):
                one_saturation(s)


@settings(max_examples=60, deadline=None)
@given(
    labels=st.integers(1, 6).flatmap(lambda n: st.permutations("abcdef"[:n])),
    seed=st.integers(0, 2**30),
    density=st.floats(0.0, 0.8),
    spec=st.booleans(),
)
def test_one_saturation_is_one_of_the_saturations(labels, seed, density, spec):
    s = spec_structure(labels, seed, density) if spec else random_qsa_structure(labels, seed=seed, density=density)
    m = one_saturation(s)
    walked = saturations(s)
    # a maximal structure's weak pairs follow from its order
    assert is_qsm(m)
    assert m.prec.aligned_to(walked.ordered).rows in walked.rows


@pytest.mark.parametrize("n", [64, 128, 256, 1024])
def test_one_saturation_is_a_maximal_extension_at_larger_sizes(n):
    labels = default_labels(n)
    inputs = [
        new_structure(labels, list(zip(labels, labels[1:]))),
        new_structure(labels),
        spec_structure(labels, n, 0.05),
        spec_structure(labels, n + 1, 0.5),
    ]
    if n <= GENERATION_BOUND:
        inputs.append(random_qsa_structure(labels, seed=n, density=0.02 if n == 256 else 8 / n))
    else:
        inputs.append(mutual_weak_path(2500))
    for s in inputs:
        m = one_saturation(s)
        assert qsm_violation(m) is None
        assert extends(s, m)


def test_one_saturation_makes_no_pass_once_the_decision_is_made(monkeypatch):
    # the tree's sequences are the ones the decision split, the whole
    # domain and each node's body, and reading their levels runs no pass;
    # a pass of its own per sequence, with one pre-dominant as each base,
    # would run 22 on the random input, after the decision's 17
    trees = []
    fold = qstrat.saturate._fold

    def kept(*args):
        trees.append(fold(*args))
        return trees[-1]

    def bodies(strata):
        return [m for events, base, body in strata if body for m in (events & ~base, *bodies(body))]

    passes = spy(monkeypatch, "_scc_masks", qstrat.relcore, record=lambda rows, members: members)
    monkeypatch.setattr(qstrat.saturate, "_fold", kept)
    chain = default_labels(200)
    cases = [
        (new_structure(chain, list(zip(chain, chain[1:]))), 1),
        (new_structure(chain), 1),
        (random_qsa_structure(default_labels(64), seed=1, density=0.1), 17),
    ]
    for s, split in cases:
        passes.clear()
        assert is_qsa(s)
        decided = [m for m in passes if m]
        passes.clear()
        one_saturation(s)
        assert passes == []
        assert len(decided) == split
        assert sorted(decided) == sorted([(1 << len(s.domain)) - 1, *bodies(trees[-1])])


def test_one_saturation_refuses_a_result_that_does_not_extend_its_input(monkeypatch):
    # the decision's levels in topological order, not the pass's reverse
    # one, put the chain's sink first: the decoded order reverses every
    # pair
    scc = qstrat.relcore._scc_masks
    monkeypatch.setattr(qstrat.relcore, "_scc_masks", lambda rows, members: scc(rows, members)[::-1])
    labels = default_labels(8)
    with pytest.raises(InternalError, match="does not extend"):
        one_saturation(new_structure(labels, list(zip(labels, labels[1:]))))


def test_counting_and_the_close_oracle_embed_no_saturation(monkeypatch, transactions):
    calls = spy(monkeypatch, "_embed_order", qstrat.saturate)
    assert len(saturations(transactions)) == 8
    close_oracle(transactions)
    assert calls == []


def test_saturations_embed_each_saturation_once_on_first_read(monkeypatch, transactions):
    calls = spy(monkeypatch, "_embed_order", qstrat.saturate)
    sats = saturations(transactions)
    first = list(sats)
    assert len(calls) == 8
    assert list(sats) == first and sats.structures == tuple(first)
    assert first[0] in sats
    assert len(calls) == 8


def test_saturations_transactions_count(transactions):
    assert len(saturations(transactions)) == 8


def test_saturations_of_qsm_is_itself(maximal_ext):
    sats = saturations(maximal_ext)
    assert len(sats) == 1
    assert list(sats) == [maximal_ext]


@pytest.mark.parametrize("n", range(5))
def test_all_qsm_structures_are_the_embedded_orders_and_the_saturations_of_nothing(n):
    declared = tuple("abcd"[:n])
    # seed 0 declares every domain of two or more labels out of order
    for labels in (declared, tuple(random.Random(0).sample(declared, n))):
        every = all_qsm_structures(labels)
        assert every == tuple(qso_to_qsm(o) for o in enumerate_qs_orders(labels))
        assert all(m.domain.labels == labels and is_qsm(m) for m in every)
        assert set(every) == set(saturations(new_structure(labels)))


def test_saturations_two_element_empty():
    sats = saturations(new_structure(["a", "b"]))
    assert len(sats) == 3
    shapes = {
        (tuple(sorted(m.prec.label_pairs)), tuple(sorted(m.weak.label_pairs)))
        for m in sats
    }
    assert shapes == {
        ((("a", "b"),), (("a", "b"),)),
        ((("b", "a"),), (("b", "a"),)),
        ((), (("a", "b"), ("b", "a"))),
    }


def test_saturations_all_maximal_extensions(transactions):
    sats = saturations(transactions)
    for m in sats:
        assert is_qsm(m)
        assert extends(transactions, m)
    assert one_saturation(transactions) in sats


def test_saturations_limit(transactions):
    sats = saturations(transactions, limit=3)
    assert sats.truncated
    assert len(sats) == 3
    assert not saturations(transactions, limit=100).truncated
    full = saturations(transactions)
    in_generation_order = sorted(full, key=generation_key)
    for k in (1, 2, 3, 8, 9):
        cut = saturations(transactions, limit=k)
        assert cut.truncated == (k < 8)
        assert set(cut) <= set(full)
        if cut.truncated:
            assert list(cut) == in_generation_order[:k]
        else:
            assert list(cut) == list(full)


def test_saturations_checks_its_limit_before_deciding_or_walking(cycle_structures):
    # a negative limit is refused before the acyclicity decision and the
    # enumeration bound: both used to raise their own error first
    beyond = new_structure(default_labels(7))
    for s in (cycle_structures["d"], beyond):
        with pytest.raises(ValueError, match="limit must be non-negative, got -1"):
            saturations(s, limit=-1)


@pytest.mark.parametrize("limit", ["3", 2.5], ids=["text", "float"])
def test_saturations_refuses_a_limit_that_is_not_an_integer(cycle_structures, transactions, limit):
    # refused before the decision, so alike on acyclic input and on
    # input that is not
    for s in (transactions, cycle_structures["d"]):
        with pytest.raises(ValueError, match=f"limit must be an integer, got {limit!r}"):
            saturations(s, limit=limit)


def test_saturations_limit_ignores_declaration_order(transactions):
    shuffled = new_structure(
        ["d", "b", "c", "a"], transactions.prec.label_pairs, transactions.weak.label_pairs
    )
    for k in (1, 3, 5, None):
        assert list(saturations(shuffled, limit=k)) == list(saturations(transactions, limit=k))
        assert all(m.domain == shuffled.domain for m in saturations(shuffled, limit=k))


def assert_limits_cut_the_full_list(s):
    """Every limit, up to one past the count, keeps the first k of the
    unlimited list and is truncated exactly when it drops some."""
    full = saturations(s)
    assert not full.truncated
    for k in range(len(full) + 2):
        cut = saturations(s, limit=k)
        assert cut.trees == full.trees[:k]
        assert cut.rows == full.rows[:k]
        assert cut.truncated == (k < len(full))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_saturations_limit_cuts_the_full_list_exhaustive(n):
    seen = 0
    for s in all_relational_structures(n):
        if is_qsa(s):
            assert_limits_cut_the_full_list(s)
            seen += 1
    assert seen > 0


def test_saturations_limit_cuts_the_full_list_random():
    rng = random.Random(29)
    for case in range(200):
        n = rng.randint(4, 6)
        labels = list("abcdef"[:n])
        while labels == sorted(labels):
            rng.shuffle(labels)
        s = random_qsa_structure(labels, seed=case, density=rng.uniform(0.3, 0.6))
        assert_limits_cut_the_full_list(s)


def test_saturations_limit_zero_and_negative(transactions):
    assert list(saturations(transactions, limit=0)) == []
    assert saturations(transactions, limit=0).truncated
    with pytest.raises(ValueError, match="non-negative"):
        saturations(transactions, limit=-1)


@pytest.mark.parametrize("limit", [sys.maxsize - 1, sys.maxsize, 10**23])
def test_saturations_with_a_limit_no_walk_reaches(transactions, limit):
    sats = saturations(transactions, limit=limit)
    assert not sats.truncated
    assert list(sats) == list(saturations(transactions))
    assert sats.trees == saturations(transactions).trees


def test_saturations_of_empty_domain():
    empty = new_structure([])
    assert list(saturations(empty)) == [empty]


@pytest.mark.parametrize("n", [2, 3])
def test_saturations_match_filter_oracle_exhaustive(n):
    universe = None
    seen = 0
    for s in all_relational_structures(n):
        if not is_qsa(s):
            continue
        if universe is None:
            universe = reference_qsm_structures(s.domain.labels)
        assert_matches_oracle(s, universe)
        seen += 1
    assert seen > 0


def test_saturations_match_filter_oracle_random():
    rng = random.Random(83)
    universes = {n: reference_qsm_structures(tuple("abcde"[:n])) for n in (4, 5)}
    for _ in range(150):
        n = rng.randint(4, 5)
        labels = list("abcde"[:n])
        rng.shuffle(labels)
        s = random_qsa_structure(
            labels, seed=rng.randrange(1 << 30), density=rng.uniform(0.05, 0.6)
        )
        assert_matches_oracle(s, universes[n])


def test_saturations_match_filter_oracle_six_events(six_event_reference):
    labels, _, universe, _ = six_event_reference
    assert len(universe) == 38703
    rng = random.Random(89)
    for density in (0.15, 0.25, 0.35, 0.45, 0.55, 0.65):
        s = random_qsa_structure(labels, seed=rng.randrange(1 << 30), density=density)
        assert_matches_oracle(s, universe)


def test_saturations_bound(transactions):
    with pytest.raises(ValueError, match="bound"):
        saturations(new_structure("abcdefg"))


def test_saturations_rejects_non_acyclic(cycle_structures):
    with pytest.raises(ValueError, match="acyclic"):
        saturations(cycle_structures["d"])


def test_maximality_characterisation():
    # maximal <=> acyclic and no single pair can be added while staying acyclic
    seen = 0
    for s in all_relational_structures(2):
        maximal = is_qsm(s)
        if not is_qsa(s):
            assert not maximal
            continue
        labels = s.domain.labels
        can_grow = False
        for x in labels:
            for y in labels:
                if x == y:
                    continue
                for probe in (add_prec(s, x, y), add_weak(s, x, y)):
                    if probe != s and is_qsa(probe):
                        can_grow = True
        assert maximal == (not can_grow)
        seen += 1
    assert seen > 0

    rng = random.Random(71)
    for _ in range(200):
        s = random_structure(rng, rng.randint(3, 4))
        if not is_qsa(s):
            assert not is_qsm(s)
            continue
        labels = s.domain.labels
        can_grow = any(
            probe != s and is_qsa(probe)
            for x in labels
            for y in labels
            if x != y
            for probe in (add_prec(s, x, y), add_weak(s, x, y))
        )
        assert is_qsm(s) == (not can_grow)


def test_structure_is_qsm_iff_embedding_of_qs_order():
    from qstrat import is_qs_order

    rng = random.Random(73)
    for _ in range(300):
        s = random_structure(rng, rng.randint(1, 4))
        n = len(s.domain)
        expected_weak = {
            (x, y)
            for x in s.domain.labels
            for y in s.domain.labels
            if x != y and not s.prec.holds(y, x)
        }
        expected = is_qs_order(s.prec) and set(s.weak.label_pairs) == expected_weak
        assert is_qsm(s) == expected


def test_qsm_projections_remain_qsm(maximal_ext):
    rng = random.Random(79)
    for _ in range(50):
        subset = {x for x in maximal_ext.domain.labels if rng.random() < 0.6}
        assert is_qsm(project(maximal_ext, subset))


def test_saturation_trees_of_transactions(transactions):
    trees = {
        tuple(
            (tuple(sorted(st.base)), len(st.children))
            for st in order_to_seq(qsm_to_qso(m)).strata
        )
        for m in saturations(transactions)
    }
    assert len(trees) == 8


def test_saturation_trees_stay_in_step_with_their_structures():
    rng = random.Random(1106)
    for case in range(60):
        n = rng.randint(0, 5)
        labels = list("edcba"[:n])
        rng.shuffle(labels)
        s = random_qsa_structure(labels, seed=case, density=rng.uniform(0.05, 0.6))
        ordered = Domain(tuple(sorted(labels)))
        for limit in (None, 3):
            sats = saturations(s, limit=limit)
            assert len(sats.trees) == len(sats)
            for m, trees in zip(sats, sats.trees):
                assert tree_order(n, trees)[0] == m.prec.aligned_to(ordered).rows
