import json
import random
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qstrat import (
    BinRel,
    Domain,
    Poset,
    QsOrder,
    QsSeq,
    enumerate_qs_orders,
    enumerate_qs_seqs,
    factorize_strata,
    format_seq,
    is_qso_stratum,
    is_qs_order,
    is_stratified_order,
    is_valid_seq,
    leaf,
    new_poset,
    node,
    order_to_seq,
    partial_order_violation,
    qso_add_isolated,
    qso_empty,
    qso_from_poset,
    qso_seq_compose,
    qsm_to_qso,
    random_qs_seq,
    reindex_poset,
    seq_domain,
    seq_from_json,
    seq_to_json,
    seq_to_order,
    seq_violation,
    stratified_partition,
    stratum_domain,
)
import qstrat.orders
import qstrat.qsseq
from qstrat import oracles, qs_order_violation, qso
from qstrat.cli import main
from qstrat.orders import _realization, interval_order_violation
from qstrat.qsseq import (
    ENUMERATION_BOUND,
    order_trees,
    seq_converter,
    stratum_trees,
    tree_order,
    tree_texts,
)
from qstrat.relcore import _aligner, _columns, _embedded_weak, show_label

from conftest import (
    LABELS,
    deep_chain_text,
    deep_chain_trees,
    flat_trees,
    nested_structure,
    random_trees,
    reference_factorize_strata,
    reference_order_to_seq,
    reference_qs_seqs,
    reference_qsm_structures,
    spy,
)

NESTED_TREE = QsSeq((node({"b"}, [leaf({"a"}), leaf({"c"})]), leaf({"d"})))


def test_domain_of_leaf():
    assert seq_domain(QsSeq((leaf({"a", "b"}),))) == {"a", "b"}


def test_domain_of_nested_tree():
    assert seq_domain(NESTED_TREE) == {"a", "b", "c", "d"}


def test_domain_of_two_leaves():
    assert seq_domain(QsSeq((leaf({"a"}), leaf({"b"})))) == {"a", "b"}


def test_single_child_rejected():
    bad = QsSeq((node({"a"}, [leaf({"b"})]),))
    assert seq_violation(bad) == "an internal node needs at least two child strata"


def test_overlapping_bases_rejected():
    bad = QsSeq((leaf({"a"}), leaf({"a", "b"})))
    assert "disjoint" in seq_violation(bad)


def test_empty_base_rejected():
    assert seq_violation(QsSeq((leaf([]),))) == "empty base set"


def test_empty_sequence_rejected():
    assert seq_violation(QsSeq(())) is not None


def test_generated_sequences_validate():
    rng = random.Random(2)
    for _ in range(1000):
        n = rng.randint(1, 8)
        assert is_valid_seq(random_qs_seq(LABELS[:n], seed=rng.randrange(1 << 30)))


def test_decode_leaf_antichain():
    q = seq_to_order(QsSeq((leaf({"a", "b"}),)))
    assert not q.prec.label_pairs
    assert q.domain.label_set == {"a", "b"}


def test_decode_two_leaves_chain():
    q = seq_to_order(QsSeq((leaf({"a"}), leaf({"b"}))))
    assert sorted(q.prec.label_pairs) == [("a", "b")]


def test_decode_nested_tree(nested_poset):
    assert seq_to_order(NESTED_TREE) == qso_from_poset(nested_poset)


def _reference_seq_to_order(q):
    """Decoding through the two constructions, one order per step."""

    def strata(sts):
        out = qso_empty()
        for st in sts:
            out = qso_seq_compose(out, stratum(st))
        return out

    def stratum(st):
        out = strata(st.children)
        for x in sorted(st.base):
            out = qso_add_isolated(out, x)
        return out

    return strata(q.strata)


def test_decode_matches_the_constructions():
    for seed in range(40):
        q = random_qs_seq([f"e{i}" for i in range(1 + seed)], seed=seed)
        expected = _reference_seq_to_order(q)
        got = seq_to_order(q)
        assert got.domain.labels == expected.domain.labels
        assert got.prec.rows == expected.prec.rows


def test_decode_rejects_invalid():
    with pytest.raises(ValueError, match="invalid sequence"):
        seq_to_order(QsSeq((node({"a"}, [leaf({"b"})]),)))


def test_encode_antichain():
    q = seq_to_order(QsSeq((leaf({"a", "b"}),)))
    assert order_to_seq(q) == QsSeq((leaf({"a", "b"}),))


def test_encode_nested_order(nested_poset):
    assert order_to_seq(qso_from_poset(nested_poset)) == NESTED_TREE


def test_encode_chain():
    from qstrat import new_poset

    q = qso_from_poset(new_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")]))
    assert order_to_seq(q) == QsSeq((leaf({"a"}), leaf({"b"}), leaf({"c"})))


def test_encode_rejects_empty():
    from qstrat import qso_empty

    with pytest.raises(ValueError, match="empty"):
        order_to_seq(qso_empty())


def test_round_trip_enumerated_orders():
    for n in range(1, 5):
        for q in enumerate_qs_orders(LABELS[:n]):
            assert seq_to_order(order_to_seq(q)) == q


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**30), n=st.integers(1, 8))
def test_round_trip_random_sequences(seed, n):
    seq = random_qs_seq(LABELS[:n], seed=seed)
    assert order_to_seq(seq_to_order(seq)) == seq


def test_round_trip_past_eight_events():
    # the canonical form where no enumeration reaches: seeded sequences
    # of 9 to 64 events, and the order of the nested 200 input
    rng = random.Random(51)
    for _ in range(100):
        n = rng.randint(9, 64)
        seq = random_qs_seq([f"e{i}" for i in range(n)], seed=rng.randrange(1 << 30))
        assert order_to_seq(seq_to_order(seq)) == seq
    st = leaf({"b0"})
    for i in range(1, 200):
        st = node({f"a{i}"}, [st, leaf({f"b{i}"})])
    q = qsm_to_qso(nested_structure(200))
    assert order_to_seq(q) == QsSeq((st,))


def assert_built_as_quasi_stratified(q):
    # the library builds its orders unchecked (relcore.QsOrder), so the
    # checks a checked entry would make run here
    assert partial_order_violation(q.prec) is None
    assert qs_order_violation(q.prec) is None


def _seeded_orders(count, seed):
    """Seeded orders of 1 to 64 events (the first of 64), declared in a
    shuffled order."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(1, 64) if k else 64
        labels = [f"e{i}" for i in range(n)]
        order = seq_to_order(random_qs_seq(labels, seed=rng.randrange(1 << 30)))
        assert_built_as_quasi_stratified(order)
        rng.shuffle(labels)
        yield QsOrder(reindex_poset(Poset(order.prec), Domain(tuple(labels))).prec)


def assert_codec_matches_the_reference(q):
    assert order_to_seq(q) == reference_order_to_seq(q)
    got, expected = factorize_strata(q), reference_factorize_strata(q)
    for factor in got:
        assert_built_as_quasi_stratified(factor)
    assert [(f.domain.labels, f.prec.rows) for f in got] == [
        (f.domain.labels, f.prec.rows) for f in expected
    ]


def test_codec_matches_the_label_level_reference_up_to_five_events():
    rng = random.Random(21)
    for n in range(1, 6):
        labels = list(LABELS[:n])
        rng.shuffle(labels)
        for q in enumerate_qs_orders(labels):
            assert_codec_matches_the_reference(q)


def test_codec_matches_the_label_level_reference_up_to_64_events():
    for q in _seeded_orders(200, seed=22):
        assert_codec_matches_the_reference(q)


def test_order_trees_inverts_tree_order(walked_sequences):
    # every sequence of up to five events, from the walks already made
    for n, trees, (rows, _, _) in walked_sequences:
        if n < ENUMERATION_BOUND:
            assert order_trees(BinRel(Domain(tuple(LABELS[:n])), rows)) == trees


def _reference_tree_rows(n, trees):
    """The rows of a walked sequence, as the precedence rows of
    ``tree_order`` must be: every stratum's events ORed into the rows of
    each earlier stratum of its sequence, level by level."""
    rows = [0] * n
    pending = [trees]
    while pending:
        later = 0
        for events, _, children in reversed(pending.pop()):
            for i in range(n):
                if events >> i & 1:
                    rows[i] |= later
            later |= events
            if children:
                pending.append(children)
    return tuple(rows)


def _assert_one_walk(n, trees, walk):
    rows, weak, bounds = walk
    cols = _columns(rows)
    begins, ends = _realization(rows)
    assert rows == _reference_tree_rows(n, trees)
    assert weak == _embedded_weak(cols)
    assert (bounds[::2], bounds[1::2]) == (tuple(begins), tuple(ends))


def test_one_walk_gives_the_rows_weak_rows_and_count_ranks(walked_sequences):
    # one walk of each tree gives its rows, the weak rows of the order's
    # embedding, and the count ranks as leaf spans: on every sequence up
    # to the walk's bound, at a thousand nested levels and on seeded
    # random trees past the bound
    checked = 0
    for n, trees, walk in walked_sequences:
        _assert_one_walk(n, trees, walk)
        checked += 1
    assert checked == 41_281  # quasi-stratified orders on 0..6 events
    n, trees = deep_chain_trees(1000)
    _assert_one_walk(n, trees, tree_order(n, trees))
    for n in range(ENUMERATION_BOUND + 1, 17):
        for seed in range(20):
            trees = random_trees(n, seed)
            _assert_one_walk(n, trees, tree_order(n, trees))


@pytest.fixture(scope="module")
def deep_chain():
    # 1,000 nested levels, 2,001 events, a million pairs
    depth = 1000
    n, trees = deep_chain_trees(depth)
    rel = BinRel(Domain(tuple(f"e{i}" for i in range(n))), tree_order(n, trees)[0])
    return depth, trees, rel


def test_order_trees_encodes_a_thousand_levels(deep_chain):
    depth, trees, rel = deep_chain
    assert flat_trees(order_trees(rel)) == flat_trees(trees)
    assert qs_order_violation(rel) is None
    assert interval_order_violation(rel) is None


def test_encoding_a_thousand_levels_peaks_under_eight_times_its_rows(deep_chain):
    # the rows take 0.32 MB; grouping the events by interval peaks at
    # about 4 times that, listing each level's body anew at 28 times
    _, _, rel = deep_chain
    limit = 8 * sum(map(sys.getsizeof, rel.rows))
    tracemalloc.start()
    try:
        order_trees(rel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit


def test_qso_check_and_decompose_read_the_chain_once(monkeypatch):
    # a passing order, an interval order that is not quasi-stratified,
    # and a relation with no realization: one reading of the successor
    # chain per request, the one that orders._realization makes
    fixtures = Path(__file__).parent / "fixtures"
    chains = spy(monkeypatch, "_realization", qstrat.orders, qstrat.qsseq)
    for name in ("nested_order.json", "interval_only_order.json", "transactions.json"):
        for command in (["check", "--class", "qso"], ["decompose"]):
            chains.clear()
            main([*command, str(fixtures / name)])
            assert len(chains) == 1, (command, name)


def test_a_thousand_levels_convert_and_format(deep_chain):
    depth, trees, rel = deep_chain
    seq = seq_converter(rel.domain.labels)(trees)
    assert format_seq(seq) == deep_chain_text(depth, rel.domain.labels)
    labels = rel.domain.labels
    assert " ; ".join(tree_texts(trees, labels, labels)) == deep_chain_text(depth, labels)


def test_position_trees_format_as_their_sequences():
    # declared out of sorted order, with bases of several members and
    # labels that print quoted
    rng = random.Random(2026)
    pool = ["e2", "e10", "e1", "b c", "a;b", "é", 'q"', "x->y", "z"]
    for case in range(300):
        labels = rng.sample(pool, rng.randint(1, len(pool)))
        order = seq_to_order(random_qs_seq(labels, seed=case))
        rel = order.prec.aligned_to(Domain(tuple(labels)))
        trees = order_trees(rel)
        names = [show_label(x) for x in labels]
        text = " ; ".join(tree_texts(trees, labels, names))
        assert text == format_seq(seq_converter(labels)(trees))


def _deep_stratum(depth, innermost="z"):
    """A stratum nested depth levels deep, built innermost first."""
    st = leaf({innermost})
    for k in range(depth):
        st = node({f"x{k}"}, [st, leaf({f"z{k}"})])
    return st


def test_a_thousand_nested_strata_hash_and_compare():
    st, twin = _deep_stratum(1000), _deep_stratum(1000)
    assert st is not twin
    assert hash(st) == hash(twin) and st == twin
    assert len({st, twin}) == 1 and QsSeq((st,)) in {QsSeq((twin,))}
    # a difference at the deepest leaf alone
    other = _deep_stratum(1000, innermost="y")
    assert st != other and not st == other
    assert len({st, other}) == 2


def _same_hashes(*strata):
    """The strata, each stratum of each set to hash 0, so that equality
    must read the bases and child counts."""
    stack = list(strata)
    while stack:
        st = stack.pop()
        object.__setattr__(st, "_hash", 0)
        stack += st.children
    return strata


def _last_child_chain(depth, innermost):
    """A stratum nested depth levels deep, each level's nested stratum
    its last child, so the innermost node's children end the preorder."""
    st = node({"x"}, map(leaf, innermost))
    for k in range(depth):
        st = node({f"x{k}"}, [leaf({f"z{k}"}), st])
    return st


def test_equality_reads_bases_and_child_counts_past_equal_hashes():
    st, twin = _same_hashes(_deep_stratum(1000), _deep_stratum(1000))
    assert st == twin
    # a difference in the deepest base alone
    st, other = _same_hashes(_deep_stratum(1000), _deep_stratum(1000, innermost="y"))
    assert st != other and not st == other
    # a difference in the innermost child count alone: the shorter
    # preorder is the start of the longer one
    st, other = _same_hashes(_last_child_chain(1000, "ab"), _last_child_chain(1000, "abc"))
    assert st != other and other != st


def test_a_thousand_nested_strata_repr():
    st = _deep_stratum(1000)
    text = repr(st)
    assert text == f"<QssStratum {format_seq(QsSeq((st,)))}>"
    assert text.startswith("<QssStratum (x999 | (x998 | ") and text.endswith(" z999)>")
    assert repr(QsSeq((st,))) == f"QsSeq(strata=({text},))"


def test_stratum_repr_is_its_line():
    st = node({"b", "a"}, [leaf({"c"}), node({"d"}, [leaf({"f", "e"}), leaf({"g"})])])
    assert repr(st) == "<QssStratum (a,b | c (d | e,f g))>"
    assert repr(leaf({"x y"})) == '<QssStratum "x y">'


def test_strata_equal_exactly_when_their_preorders_are():
    rng = random.Random(2024)
    seqs = [random_qs_seq(LABELS[: rng.randint(1, 6)], seed=k) for k in range(300)]

    def preorder(q):
        out, stack = [], list(reversed(q.strata))
        while stack:
            st = stack.pop()
            out.append((st.base, len(st.children)))
            stack.extend(reversed(st.children))
        return out

    for a, b in zip(seqs, seqs[1:] + seqs[:1]):
        assert (a == b) == (preorder(a) == preorder(b))
        twin = seq_from_json(seq_to_json(a))
        assert twin == a and hash(twin) == hash(a)


def test_a_thousand_nested_strata_check_and_decode():
    st = _deep_stratum(1000)
    q = QsSeq((st,))
    assert seq_violation(q) is None
    labels = {"z"} | {f"{c}{k}" for c in "xz" for k in range(1000)}
    assert seq_domain(q) == stratum_domain(st) == labels
    order = seq_to_order(q)
    assert order.domain.labels[:3] == ("z", "z0", "x0") and len(order) == 2001
    # level k puts its first stratum, 2k + 1 events, before z{k}
    assert sum(map(int.bit_count, order.prec.rows)) == 1000**2


def _json_preorder(trees):
    """(base, child count) of each tree of a sequence's JSON form, in
    preorder, from an explicit stack."""
    out, stack = [], list(reversed(trees))
    while stack:
        item = stack.pop()
        children = item.get("children", [])
        out.append((item["base"], len(children)))
        stack.extend(reversed(children))
    return out


def test_a_thousand_nested_strata_round_trip_through_json():
    # the JSON form is compared flat: == on nested lists and dicts recurses
    st = _deep_stratum(1000)
    q = QsSeq((st,))
    data = seq_to_json(q)
    flat = _json_preorder(data)
    expected = [([f"x{k}"], 2) for k in reversed(range(1000))]
    expected += [(["z"], 0)] + [([f"z{k}"], 0) for k in range(1000)]
    assert flat == expected
    assert _json_preorder(seq_to_json(seq_from_json(data))) == flat
    assert seq_from_json(data) == q


def test_encoding_rejects_orders_outside_the_class():
    # 2+2: a poset that is not quasi-stratified, wrapped unchecked
    two_plus_two = QsOrder(new_poset(["a", "b", "c", "d"], [("a", "b"), ("c", "d")]).prec)
    with pytest.raises(ValueError, match="not a quasi-stratified order"):
        order_to_seq(two_plus_two)
    with pytest.raises(ValueError, match="not a quasi-stratified order"):
        factorize_strata(two_plus_two)
    domain = Domain(tuple("abcde"))
    for rows in (
        (0b10, 0b100, 0, 0, 0),  # not transitive
        (0b1, 0, 0, 0, 0),  # a self-loop
        (0b1000, 0b10000, 0, 0, 0),  # 2+2 beside an isolated event
        (0b1100, 0b1000, 0, 0, 0),  # interval but not quasi-stratified
    ):
        with pytest.raises(ValueError, match="not a quasi-stratified order"):
            order_trees(BinRel(domain, rows))


def test_encoding_revalidates_no_projection(monkeypatch):
    q = seq_to_order(random_qs_seq([f"e{i}" for i in range(64)], seed=9))
    checks = spy(monkeypatch, "qs_order_violation", qso)
    projections = spy(monkeypatch, "qso_projection", oracles)
    seq = order_to_seq(q)
    assert len(seq.strata) > 1 and any(stratum.children for stratum in seq.strata)
    assert checks == projections == []


def test_decoded_orders_are_qs_with_right_domain():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(1, 7)
        seq = random_qs_seq(LABELS[:n], seed=rng.randrange(1 << 30))
        q = seq_to_order(seq)
        assert is_qs_order(q.prec)
        assert q.domain.label_set == seq_domain(seq)


def test_stratum_correspondence():
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(1, 7)
        seq = random_qs_seq(LABELS[:n], seed=rng.randrange(1 << 30))
        assert (len(seq.strata) == 1) == is_qso_stratum(seq_to_order(seq))


def test_all_leaf_sequences_are_stratified():
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randint(1, 6)
        pool = list(LABELS[:n])
        rng.shuffle(pool)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) if n > 1 else []
        blocks = [pool[i:j] for i, j in zip([0] + cuts, cuts + [n])]
        seq = QsSeq(tuple(leaf(b) for b in blocks))
        q = seq_to_order(seq)
        assert is_stratified_order(q.prec)
        assert stratified_partition(Poset(q.prec)) == [frozenset(b) for b in blocks]


def test_enumerate_counts():
    assert len(enumerate_qs_seqs(LABELS[:1])) == 1
    assert len(enumerate_qs_seqs(LABELS[:2])) == 3
    assert len(enumerate_qs_seqs(LABELS[:3])) == 19


def test_enumerate_two_element_contents():
    seqs = set(enumerate_qs_seqs(LABELS[:2]))
    assert seqs == {
        QsSeq((leaf({"a", "b"}),)),
        QsSeq((leaf({"a"}), leaf({"b"}))),
        QsSeq((leaf({"b"}), leaf({"a"}))),
    }


def test_enumerate_matches_order_count():
    for n in range(1, 5):
        assert len(enumerate_qs_seqs(LABELS[:n])) == len(enumerate_qs_orders(LABELS[:n]))


def test_enumerate_all_valid_and_distinct():
    seqs = enumerate_qs_seqs(LABELS[:4])
    assert len(set(seqs)) == len(seqs)
    assert all(is_valid_seq(s) for s in seqs)


def test_enumerate_bound():
    with pytest.raises(ValueError, match="bound"):
        enumerate_qs_seqs(LABELS[:7])


def test_views_match_the_reference_walker(six_event_reference):
    # both views against the label-tuple walker, declared shuffled and
    # sorted up to five events and shuffled at six; every order, the
    # empty one too, passes the partial-order and qso checks
    labels6, seqs6, structures6, _ = six_event_reference
    rng = random.Random(14)
    [empty] = enumerate_qs_orders(())
    assert len(empty) == 0
    assert_built_as_quasi_stratified(empty)
    for n, count in zip(range(1, 7), (1, 3, 19, 183, 2371, 38703)):
        if n < 6:
            shuffled = list(LABELS[:n])
            rng.shuffle(shuffled)
            reference = reference_qs_seqs(shuffled)
            declarations = [tuple(shuffled), tuple(sorted(shuffled))]
        else:
            reference = seqs6
            declarations = [labels6]
        reference_seqs = set(reference)
        assert len(reference) == len(reference_seqs) == count
        # the references are decoded once, over the first declaration
        structures = structures6 if n == 6 else reference_qsm_structures(declarations[0], reference)
        reference_rows = {m.prec.rows for m in structures}
        for declared in declarations:
            seqs = enumerate_qs_seqs(declared)
            assert len(seqs) == count
            assert set(seqs) == reference_seqs
            orders = enumerate_qs_orders(declared)
            for q in orders:
                assert q.domain.labels == declared
                assert_built_as_quasi_stratified(q)
            rows = {q.prec.rows for q in orders}
            assert len(orders) == len(rows) == count
            align = _aligner(Domain(declared), structures[0].domain)
            assert set(map(align, rows)) == reference_rows


def test_the_six_event_reference_calls_no_library_decoder(six_event_reference):
    # the reference decodes by the two constructions, not through the
    # decoders that the views it checks are built on
    *_, decoder_calls = six_event_reference
    assert decoder_calls == {"tree_order": 0, "_fold": 0, "seq_to_order": 0}


@pytest.mark.parametrize(
    "labels", [["", "a"], ["a", "a"], [1, 2]], ids=["empty", "repeated", "int"]
)
def test_entry_points_reject_bad_labels(labels):
    with pytest.raises(ValueError):
        enumerate_qs_seqs(labels)
    with pytest.raises(ValueError):
        enumerate_qs_orders(labels)
    with pytest.raises(ValueError):
        random_qs_seq(labels, seed=0)
    with pytest.raises(ValueError):
        seq_from_json([{"base": labels}])


def test_random_seq_single_label_forced():
    for seed in range(5):
        assert random_qs_seq(["a"], seed=seed) == QsSeq((leaf({"a"}),))


def test_random_seq_deterministic():
    a = random_qs_seq(LABELS[:5], seed=42)
    b = random_qs_seq(LABELS[:5], seed=42)
    assert a == b


def test_random_seq_needs_labels():
    with pytest.raises(ValueError, match="at least one label"):
        random_qs_seq([], seed=0)


def test_json_round_trip():
    rng = random.Random(10)
    for _ in range(100):
        n = rng.randint(1, 7)
        seq = random_qs_seq(LABELS[:n], seed=rng.randrange(1 << 30))
        data = json.loads(json.dumps(seq_to_json(seq)))
        assert seq_from_json(data) == seq


def test_json_shape_of_nested_tree():
    assert seq_to_json(NESTED_TREE) == [
        {"base": ["b"], "children": [{"base": ["a"]}, {"base": ["c"]}]},
        {"base": ["d"]},
    ]


def test_json_rejects_garbage():
    with pytest.raises(ValueError):
        seq_from_json({"base": ["a"]})
    with pytest.raises(ValueError):
        seq_from_json([{"root": ["a"]}])


@pytest.mark.parametrize(
    "data, message",
    [
        ([{"base": "a"}], "tree base must be a list of strings"),
        ([{"base": ["a"], "children": {"base": ["b"]}}], "tree children must be a list"),
        # the first fault in preorder: the parent's children before a later tree's base
        (
            [{"base": ["a"], "children": [{"base": ["b"], "children": 0}]}, {"base": 1}],
            "tree children must be a list",
        ),
        ([5], "tree JSON must be an object with base and optional children"),
        ([{"base": ["a"], "children": 5}], "tree children must be a list"),
    ],
)
def test_json_rejects_a_base_or_children_of_the_wrong_type(data, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        seq_from_json(data)


@pytest.mark.parametrize(
    "fault, message",
    [
        ({"children": 5}, "tree children must be a list"),
        ({"base": 1}, "tree base must be a list of strings"),
        ({"leaf": []}, "tree JSON must be an object with base and optional children"),
    ],
)
def test_json_reports_a_fault_a_thousand_levels_down(fault, message):
    # the innermost tree is the only faulty one, and no children are
    # read from a tree before it is checked
    data = seq_to_json(QsSeq((_deep_stratum(1000),)))
    innermost = data[0]
    for _ in range(1000):
        innermost = innermost["children"][0]
    innermost.update(fault)
    with pytest.raises(ValueError, match=f"^{message}$"):
        seq_from_json(data)


def test_json_rejects_invalid_sequences():
    for data in (
        [],
        [{"base": []}],
        [{"base": ["a"]}, {"base": ["a"]}],
        [{"base": ["a"], "children": [{"base": ["b"]}]}],
    ):
        with pytest.raises(ValueError, match="invalid sequence"):
            seq_from_json(data)


def test_format_seq():
    assert format_seq(NESTED_TREE) == "(b | a c) ; d"
    assert format_seq(QsSeq((leaf({"b", "a"}), leaf({"c"})))) == "a,b ; c"
