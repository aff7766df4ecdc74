import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qstrat import (
    BinRel,
    Domain,
    add_prec,
    add_weak,
    enumerate_posets,
    enumerate_qs_orders,
    forbidden_cycle_interval,
    forbidden_cycle_stratified,
    forbidden_cycle_total,
    interval_order_violation,
    interval_realization,
    is_interval_order,
    is_partial_order,
    is_stratified_order,
    is_total_order,
    new_poset,
    new_structure,
    partial_order_violation,
    qs_order_violation,
    random_qs_seq,
    seq_to_order,
    stratified_order_violation,
    stratified_partition,
    total_order_violation,
)
from qstrat.orders import _realization
from qstrat.qsseq import ENUMERATION_BOUND, order_trees, tree_order

from conftest import LABELS, all_relational_structures, random_structure, random_trees


def all_relations(n):
    domain = Domain(tuple(LABELS[:n]))
    slots = [(i, j) for i in range(n) for j in range(n)]
    for mask in range(1 << len(slots)):
        rows = [0] * n
        for k, (i, j) in enumerate(slots):
            if mask >> k & 1:
                rows[i] |= 1 << j
        yield BinRel(domain, tuple(rows))


def test_hierarchy_classification(hierarchy_posets):
    verdicts = {
        name: (
            is_total_order(p.prec),
            is_stratified_order(p.prec),
            is_interval_order(p.prec),
            is_partial_order(p.prec),
        )
        for name, p in hierarchy_posets.items()
    }
    assert verdicts["a"] == (True, True, True, True)
    assert verdicts["b"] == (False, True, True, True)
    assert verdicts["c"] == (False, False, True, True)
    assert verdicts["d"] == (False, False, False, True)


def test_hierarchy_exhaustive_n4():
    for n in range(1, 5):
        for rel in all_relations(n):
            total = is_total_order(rel)
            strat = is_stratified_order(rel)
            interval = is_interval_order(rel)
            partial = is_partial_order(rel)
            assert not total or strat
            assert not strat or interval
            assert not interval or partial


def test_hierarchy_random_n6():
    rng = random.Random(23)
    domain = Domain(tuple(LABELS[:6]))
    for _ in range(500):
        rows = tuple(rng.randrange(1 << 6) for _ in range(6))
        rel = BinRel(domain, rows)
        assert not is_total_order(rel) or is_stratified_order(rel)
        assert not is_stratified_order(rel) or is_interval_order(rel)
        assert not is_interval_order(rel) or is_partial_order(rel)


def test_stratified_partition_antichain():
    assert stratified_partition(new_poset(["a", "b", "c"])) == [frozenset("abc")]


def test_stratified_partition_two_then_singles(hierarchy_posets):
    assert stratified_partition(hierarchy_posets["b"]) == [
        frozenset({"1", "2"}),
        frozenset({"3"}),
        frozenset({"4"}),
    ]


def test_stratified_partition_none_for_interval(hierarchy_posets):
    assert stratified_partition(hierarchy_posets["c"]) is None


def test_stratified_partition_agrees_and_rebuilds():
    # every order on 3 events, and quasi-stratified orders up to 12
    rng = random.Random(2202)
    labels = [f"e{k}" for k in range(12)]
    random_orders = [
        seq_to_order(random_qs_seq(labels[: rng.randint(1, 12)], seed=case)).poset
        for case in range(300)
    ]
    stratified = 0
    for poset in enumerate_posets(LABELS[:3]) + random_orders:
        strata = stratified_partition(poset)
        assert (strata is None) == (stratified_order_violation(poset.prec) is not None)
        if strata is None:
            continue
        stratified += 1
        assert sorted(x for stratum in strata for x in stratum) == sorted(poset.domain.labels)
        rebuilt = {
            (x, y)
            for i, si in enumerate(strata)
            for j, sj in enumerate(strata)
            if i < j
            for x in si
            for y in sj
        }
        assert rebuilt == set(poset.prec.label_pairs)
    assert stratified > 40


def test_interval_realization_chain():
    out = interval_realization(new_poset(["a", "b"], [("a", "b")]).prec)
    assert out == {"a": (0, 0), "b": (1, 1)}


def test_interval_realization_nested(nested_poset):
    out = interval_realization(nested_poset.prec)
    assert out is not None
    # b spans a and c; d comes after everything
    assert out["b"][0] <= out["a"][0] and out["a"][1] <= out["b"][1]
    assert out["b"][0] <= out["c"][0] and out["c"][1] <= out["b"][1]
    assert out["d"][0] > max(out[x][1] for x in "abc")


def test_interval_realization_none_for_two_plus_two(hierarchy_posets):
    assert interval_realization(hierarchy_posets["d"].prec) is None


def test_interval_realization_biconditional():
    for poset in enumerate_posets(LABELS[:4]):
        out = interval_realization(poset.prec)
        assert (out is not None) == is_interval_order(poset.prec)
        if out is None:
            continue
        for x in poset.domain.labels:
            assert out[x][0] <= out[x][1]
            for y in poset.domain.labels:
                assert poset.prec.holds(x, y) == (out[x][1] < out[y][0])


def _check_cycle(s, cycle, kind):
    assert cycle[0] == cycle[-1]
    assert len(cycle) >= 3
    steps = list(zip(cycle, cycle[1:]))
    combined = s.prec.label_pairs | s.weak.label_pairs
    assert all(step in combined for step in steps)
    strong = [step in s.prec.label_pairs for step in steps]
    if kind == "stratified":
        assert any(strong)
    if kind == "interval":
        for i in range(len(steps)):
            assert strong[i - 1] or strong[i]


def test_pure_weak_cycle(cycle_structures):
    s = cycle_structures["a"]
    cycle = forbidden_cycle_total(s)
    assert cycle is not None
    _check_cycle(s, cycle, "total")
    assert forbidden_cycle_stratified(s) is None
    assert forbidden_cycle_interval(s) is None


def test_one_prec_step_cycle(cycle_structures):
    s = cycle_structures["b"]
    cycle = forbidden_cycle_stratified(s)
    assert cycle is not None
    _check_cycle(s, cycle, "stratified")
    assert forbidden_cycle_interval(s) is None


def test_two_prec_step_cycle(cycle_structures):
    s = cycle_structures["c"]
    assert forbidden_cycle_stratified(s) is not None
    assert forbidden_cycle_interval(s) is None


def test_alternating_cycle(cycle_structures):
    s = cycle_structures["d"]
    cycle = forbidden_cycle_interval(s)
    assert cycle is not None
    _check_cycle(s, cycle, "interval")


def test_two_cycle_with_prec_is_interval_forbidden():
    s = new_structure(["a", "b"], [("a", "b")], [("b", "a")])
    cycle = forbidden_cycle_interval(s)
    assert cycle is not None
    _check_cycle(s, cycle, "interval")


def test_mutual_weak_pair_allowed_beyond_total():
    s = new_structure(["a", "b"], [], [("a", "b"), ("b", "a")])
    assert forbidden_cycle_total(s) is not None
    assert forbidden_cycle_stratified(s) is None
    assert forbidden_cycle_interval(s) is None


@pytest.mark.parametrize("search", [forbidden_cycle_total, forbidden_cycle_stratified, forbidden_cycle_interval])
def test_forbidden_cycles_require_relational(search):
    s = new_structure(["a"], [("a", "a")], [])
    with pytest.raises(ValueError, match="not relational"):
        search(s)


def _forbidden_walk_exists(s, kind):
    """Oracle: scan all closed walks up to twice the domain size.

    Any witness class has a witness that revisits no (vertex, step kind)
    state, so walks of length 2n are enough to decide existence.
    """
    labels = s.domain.labels
    n = len(labels)
    combined = s.prec.label_pairs | s.weak.label_pairs

    def condition(steps):
        strong = [step in s.prec.label_pairs for step in steps]
        if kind == "stratified":
            return any(strong)
        if kind == "interval":
            return all(strong[i - 1] or strong[i] for i in range(len(steps)))
        return True

    def walk(path):
        if len(path) > 2 * n + 1:
            return False
        last = path[-1]
        for nxt in labels:
            if (last, nxt) not in combined:
                continue
            if nxt == path[0] and len(path) >= 2:
                steps = list(zip(path, path[1:] + [nxt]))
                if condition(steps):
                    return True
            if walk(path + [nxt]):
                return True
        return False

    return any(walk([start]) for start in labels)


def test_forbidden_cycles_match_walk_oracle():
    rng = random.Random(157)
    finders = {
        "total": forbidden_cycle_total,
        "stratified": forbidden_cycle_stratified,
        "interval": forbidden_cycle_interval,
    }
    structures = list(all_relational_structures(2))
    structures += [random_structure(rng, rng.choice([3, 4])) for _ in range(300)]
    for s in structures:
        for kind, find in finders.items():
            assert (find(s) is not None) == _forbidden_walk_exists(s, kind), (
                kind,
                sorted(s.prec.label_pairs),
                sorted(s.weak.label_pairs),
            )


def test_cycle_witnesses_monotone_under_extension():
    rng = random.Random(31)
    finders = [forbidden_cycle_total, forbidden_cycle_stratified, forbidden_cycle_interval]
    for _ in range(150):
        s = random_structure(rng, rng.randint(2, 5))
        slots = [
            (x, y) for x in s.domain.labels for y in s.domain.labels if x != y
        ]
        x, y = slots[rng.randrange(len(slots))]
        bigger = add_prec(s, x, y) if rng.random() < 0.5 else add_weak(s, x, y)
        for find in finders:
            if find(s) is not None:
                assert find(bigger) is not None


def test_enumerate_posets_counts():
    assert len(enumerate_posets(LABELS[:1])) == 1
    assert len(enumerate_posets(LABELS[:2])) == 3
    assert len(enumerate_posets(LABELS[:3])) == 19


def test_enumerate_posets_bound():
    with pytest.raises(ValueError, match="bound"):
        enumerate_posets(LABELS[:5])


# The literal quantifier scans the row-mask kernels replaced, kept as
# references: every kernel must return the same first witness.


def _reference_transitivity_gap(rel):
    rows = rel.rows
    n = len(rows)
    for i in range(n):
        for j in range(n):
            if not rows[i] >> j & 1:
                continue
            for k in range(n):
                if rows[j] >> k & 1 and not rows[i] >> k & 1:
                    return i, j, k
    return None


def _reference_partial_order_violation(rel):
    labels = rel.domain.labels
    for i in range(len(labels)):
        if rel.holds_idx(i, i):
            return "po:1", (labels[i],)
    gap = _reference_transitivity_gap(rel)
    if gap is not None:
        return "po:2", tuple(labels[i] for i in gap)
    return None


def _reference_total_order_violation(rel):
    bad = _reference_partial_order_violation(rel)
    if bad is not None:
        return ("to:" + bad[0][3:], bad[1])
    labels = rel.domain.labels
    for i in range(len(labels)):
        for j in range(len(labels)):
            if i != j and not rel.holds_idx(i, j) and not rel.holds_idx(j, i):
                return "to:3", (labels[i], labels[j])
    return None


def _reference_stratified_order_violation(rel):
    bad = _reference_partial_order_violation(rel)
    if bad is not None:
        return ("so:" + bad[0][3:], bad[1])
    labels = rel.domain.labels
    n = len(labels)
    for x in range(n):
        for y in range(n):
            if rel.holds_idx(x, y) or rel.holds_idx(y, x):
                continue
            for z in range(n):
                if rel.holds_idx(x, z) and not rel.holds_idx(y, z):
                    return "so:3", (labels[x], labels[y], labels[z])
                if rel.holds_idx(z, x) and not rel.holds_idx(z, y):
                    return "so:4", (labels[x], labels[y], labels[z])
    return None


def _reference_pairs(rows):
    return [(i, j) for i, row in enumerate(rows) for j in range(len(rows)) if row >> j & 1]


def _reference_interval_order_violation(rel):
    labels, rows = rel.domain.labels, rel.rows
    for i, row in enumerate(rows):
        if row >> i & 1:
            return "io:1", (labels[i],)
    pairs = _reference_pairs(rows)
    for x, y in pairs:
        for z, w in pairs:
            if not rows[x] >> w & 1 and not rows[z] >> y & 1:
                return "io:2", (labels[x], labels[y], labels[z], labels[w])
    return None


def _reference_qs_order_violation(rel):
    labels, rows = rel.domain.labels, rel.rows
    for i, row in enumerate(rows):
        if row >> i & 1:
            return (labels[i],)
    pairs = _reference_pairs(rows)
    for x, y in pairs:
        for z, t in pairs:
            if rows[x] >> t & 1 and rows[z] >> y & 1:
                continue
            if rows[x] >> z & 1 and rows[x] >> t & 1:
                continue
            if rows[z] >> x & 1 and rows[z] >> y & 1:
                continue
            if rows[t] >> y & 1 and rows[z] >> y & 1:
                continue
            if rows[y] >> t & 1 and rows[x] >> t & 1:
                continue
            return (labels[x], labels[y], labels[z], labels[t])
    return None


KERNELS = [
    (partial_order_violation, _reference_partial_order_violation),
    (total_order_violation, _reference_total_order_violation),
    (qs_order_violation, _reference_qs_order_violation),
    (interval_order_violation, _reference_interval_order_violation),
    (stratified_order_violation, _reference_stratified_order_violation),
]


def _check_kernels(rel):
    """Every kernel against its literal scan, and ``is_transitive``
    against the literal scan for a transitivity gap."""
    for kernel, reference in KERNELS:
        assert kernel(rel) == reference(rel)
    assert rel.is_transitive() == (_reference_transitivity_gap(rel) is None)


def _relation(n, rows, shape):
    """Rows as drawn ("any"), without self-loops ("irreflexive"), or
    kept above the diagonal and transitively closed ("order")."""
    full = (1 << n) - 1
    if shape == "irreflexive":
        rows = [row & ~(1 << i) for i, row in enumerate(rows)]
    elif shape == "order":
        rows = [row & full & ~((2 << i) - 1) for i, row in enumerate(rows)]
        for i in reversed(range(n)):
            for j in _bits_of(rows[i]):
                rows[i] |= rows[j]
    return BinRel(Domain(tuple(LABELS[:n])), tuple(row & full for row in rows))


def _bits_of(mask):
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


@settings(max_examples=400, deadline=None)
@given(
    n=st.integers(0, 8),
    rows=st.lists(st.integers(0, 255), min_size=8, max_size=8),
    shape=st.sampled_from(["any", "irreflexive", "order"]),
)
def test_kernels_match_the_literal_scans(n, rows, shape):
    _check_kernels(_relation(n, rows[:n], shape))


def test_kernels_match_the_literal_scans_on_both_verdicts():
    rng = random.Random(31)
    outcomes = set()
    for _ in range(1500):
        n = rng.randint(1, 8)
        density = rng.uniform(0.05, 0.7)
        rows = [sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)]
        rel = _relation(n, rows, rng.choice(["any", "irreflexive", "order", "order"]))
        for kernel, reference in KERNELS:
            expected = reference(rel)
            assert kernel(rel) == expected
            outcomes.add((kernel.__name__, expected is None))
        transitive = rel.is_transitive()
        assert transitive == (_reference_transitivity_gap(rel) is None)
        outcomes.add(("is_transitive", transitive))
    assert len(outcomes) == 2 * len(KERNELS) + 2


@pytest.mark.parametrize("n", [32, 48, 64])
def test_kernels_match_the_literal_scans_on_large_orders(n):
    # a quasi-stratified order, then the same with one pair flipped
    rng = random.Random(n)
    rel = seq_to_order(random_qs_seq([f"e{i}" for i in range(n)], seed=n)).prec
    assert qs_order_violation(rel) is None
    assert interval_order_violation(rel) is None
    rows = list(rel.rows)
    i, j = rng.sample(range(n), 2)
    rows[i] ^= 1 << j
    flipped = BinRel(rel.domain, tuple(rows))
    for candidate in (rel, flipped):
        _check_kernels(candidate)


def test_deciders_match_the_literal_scans_on_every_relation_up_to_4():
    # self-loops included: there the realization's row check alone
    # would accept, e.g. a prec a beside b as a: [1, 0]
    count = 0
    for n in range(5):
        for rel in all_relations(n):
            count += 1
            assert qs_order_violation(rel) == _reference_qs_order_violation(rel)
            assert total_order_violation(rel) == _reference_total_order_violation(rel)
            expected = _reference_interval_order_violation(rel)
            assert interval_order_violation(rel) == expected
            assert (interval_realization(rel) is not None) == (expected is None)
    assert count == 66_067


def test_interval_orders_whose_intervals_cross_are_refused():
    # interval orders, so each refusal by order_trees is one whose
    # count-rank intervals cross; the literal scan decides each up to 10
    # events, and past it a refusal's witness still has no resolution
    # on its own events, while an accepted order's trees decode back
    rng = random.Random(54)
    refused = 0
    for k in range(1200):
        n = rng.randint(5, 10) if k < 1000 else rng.randint(11, 64)
        rel = BinRel(Domain(tuple(f"e{i}" for i in range(n))), _span_rows(rng, n, 0))
        assert interval_order_violation(rel) is None
        try:
            trees = order_trees(rel)
        except ValueError:
            refused += 1
            witness = qs_order_violation(rel)
            if n > 10:
                assert _reference_qs_order_violation(rel.restrict(witness)) is not None
        else:
            assert tree_order(n, trees)[0] == rel.rows
            witness = None
        if n <= 10:
            assert witness == _reference_qs_order_violation(rel)
    assert refused == 383  # 203 of 1,000 up to 10 events, 180 of 200 past that


def test_total_order_violation_matches_the_literal_scan_up_to_12():
    # random relations, and chains with a pair or two flipped, so that
    # every axiom fails somewhere and some relations pass
    rng = random.Random(12)
    outcomes = set()
    for k in range(800):
        n = rng.randint(1, 12)
        if k % 2:
            density = rng.uniform(0.05, 0.7)
            rows = [sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)]
        else:
            order = rng.sample(range(n), n)
            rows = [0] * n
            for at, i in enumerate(order):
                for j in order[at + 1 :]:
                    rows[i] |= 1 << j
            for _ in range(rng.choice([0, 0, 1, 2])):
                rows[rng.randrange(n)] ^= 1 << rng.randrange(n)
        rel = BinRel(Domain(tuple(f"e{i}" for i in range(n))), tuple(rows))
        expected = _reference_total_order_violation(rel)
        assert total_order_violation(rel) == expected
        outcomes.add(None if expected is None else expected[0])
    assert outcomes == {None, "to:1", "to:2", "to:3"}


def test_realization_refuses_a_self_loop_beside_an_unrelated_event():
    rel = BinRel.from_pairs(Domain(("a", "b")), [("a", "a")])
    assert interval_realization(rel) is None
    assert interval_order_violation(rel) == ("io:1", ("a",))
    assert qs_order_violation(rel) == ("a",)


def _set_rank_realization(rows, cols):
    """``orders._realization`` as it ranked endpoints before the count
    ranks: begins are the inclusion ranks of the distinct predecessor
    sets, ends those of the distinct successor sets."""
    if any(row >> i & 1 for i, row in enumerate(rows)):
        return None
    begin_rank = {m: r for r, m in enumerate(sorted(set(cols), key=lambda m: m.bit_count()))}
    end_rank = {m: r for r, m in enumerate(sorted(set(rows), key=lambda m: -m.bit_count()))}
    begins = [begin_rank[m] for m in cols]
    ends = [end_rank[m] for m in rows]
    later = [0] * (max(ends, default=0) + 1)
    for i, b in enumerate(begins):
        if b:
            later[min(b, len(later)) - 1] |= 1 << i
    for r in range(len(later) - 2, -1, -1):
        later[r] |= later[r + 1]
    if any(row != later[e] for row, e in zip(rows, ends)):
        return None
    return begins, ends


def _random_interval_rows(rng, n):
    """The rows of n random integer intervals, x before y when x ends
    before y begins; short and long intervals, so some share endpoints."""
    spans = []
    for _ in range(n):
        b = rng.randrange(2 * n + 1)
        spans.append((b, b + rng.choice((0, 1, rng.randrange(n + 1)))))
    return tuple(sum(1 << j for j, (b, _) in enumerate(spans) if e < b) for _, e in spans)


def _partial_orders_up_to_five():
    """Every partial order on at most five events: those of
    ``enumerate_posets``, which stops at four, and each order on four
    events with a fifth added above one set of them and below another."""
    for n in range(5):
        yield from (poset.prec for poset in enumerate_posets(LABELS[:n]))
    domain = Domain(tuple(LABELS[:5]))
    for poset in enumerate_posets(LABELS[:4]):
        for below in range(16):
            lifted = [row | (below >> i & 1) << 4 for i, row in enumerate(poset.prec.rows)]
            for above in range(16):
                rel = BinRel(domain, (*lifted, above))
                if is_partial_order(rel):
                    yield rel


def test_count_ranks_give_the_set_ranks_endpoints():
    orders = refused = 0
    for rel in _partial_orders_up_to_five():
        rows, cols = rel.rows, rel.column_masks
        expected = _set_rank_realization(rows, cols)
        assert _realization(rows) == expected
        orders += 1
        refused += expected is None
    # labelled partial orders on 0..5 events, and those with a 2+2 (12 on
    # four events, 780 on five): the others are interval orders
    assert (orders, refused) == (1 + 1 + 3 + 19 + 219 + 4_231, 12 + 780)
    rng = random.Random(2702)
    for n in range(65):
        for _ in range(12):
            rows = _random_interval_rows(rng, n)
            cols = tuple(sum((rows[i] >> j & 1) << i for i in range(n)) for j in range(n))
            found = _realization(rows)
            assert found is not None and found == _set_rank_realization(rows, cols)


def _per_event_realization(rows, cols):
    """``orders._realization`` as it was written with a Python step per
    event in each pass: the self-loop scan first, the count ranks through
    comprehensions, the later-begin table filled event by event, and the
    check as a list of lookups."""
    for i, row in enumerate(rows):
        if row >> i & 1:
            return None
    preds = list(map(int.bit_count, cols))
    succs = list(map(int.bit_count, rows))
    begin_rank = {c: r for r, c in enumerate(sorted(set(preds)))}
    end_rank = {c: r for r, c in enumerate(sorted(set(succs), reverse=True))}
    begins = [begin_rank[c] for c in preds]
    ends = [end_rank[c] for c in succs]
    later = [0] * (max(ends, default=0) + 1)
    for i, b in enumerate(begins):
        if b:
            later[min(b, len(later)) - 1] |= 1 << i
    for r in range(len(later) - 2, -1, -1):
        later[r] |= later[r + 1]
    if [later[e] for e in ends] != list(rows):
        return None
    return begins, ends


def _span_rows(rng, n, inverted):
    """The rows of n random integer spans, x before y when x ends before
    y begins; a share ``inverted`` of them end before they begin, so
    they precede themselves."""
    spans = []
    for _ in range(n):
        b = rng.randrange(2 * n + 1)
        e = b + rng.choice((0, 1, rng.randrange(n + 1)))
        spans.append((e, b) if e > b and rng.random() < inverted else (b, e))
    return tuple(sum(1 << j for j, (b, _) in enumerate(spans) if e < b) for _, e in spans)


def _columns_of(rows):
    n = len(rows)
    return tuple(sum((rows[i] >> j & 1) << i for i in range(n)) for j in range(n))


def test_realization_matches_the_per_event_formulation():
    orders = []
    for n in range(6):
        orders += [q.prec.rows for q in enumerate_qs_orders(LABELS[:n])]
    assert len(orders) == 1 + 1 + 3 + 19 + 183 + 2371  # quasi-stratified orders on 0..5 events
    rng = random.Random(3403)
    relations = []
    for n in range(32, 65):
        relations.append(_span_rows(rng, n, 0))  # an interval order
        relations.append(_span_rows(rng, n, 0.1))  # with self-loops
        flipped = list(_span_rows(rng, n, 0))
        i, j = rng.sample(range(n), 2)
        flipped[i] ^= 1 << j  # a pair more or less
        relations.append(tuple(flipped))
        density = rng.choice((0.05, 0.3, 0.7))
        relations.append(tuple(sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)))
    realized = 0
    for rows in orders + relations:
        cols = _columns_of(rows)
        expected = _per_event_realization(rows, cols)
        assert _realization(rows) == expected
        realized += expected is not None
    # every quasi-stratified order is an interval order; the random
    # relations give both answers
    assert len(orders) + 33 <= realized < len(orders + relations) - 33
    # self-loops that the successor check alone would pass: the
    # begin-before-end test refuses them
    passing_loops = 0
    for n in range(1, 8):
        for _ in range(300):
            rows = _span_rows(rng, n, 0.5)
            if any(row >> i & 1 for i, row in enumerate(rows)):
                cols = _columns_of(rows)
                assert _realization(rows) is None
                passing_loops += _counts_check_passes(rows, cols)
    assert passing_loops > 0


def _counts_check_passes(rows, cols):
    """The count construction's check of the successor sets alone,
    without the begin-before-end test."""
    preds, succs = [c.bit_count() for c in cols], [r.bit_count() for r in rows]
    firsts, lasts = sorted(set(preds)), sorted(set(succs), reverse=True)
    begins = [firsts.index(c) for c in preds]
    ends = [lasts.index(c) for c in succs]
    return all(row == sum(1 << j for j, b in enumerate(begins) if b > e) for row, e in zip(rows, ends))


# The three breadth-first searches that the one closed-walk search
# replaced, kept as references: every finder must return the same walk.


def _combined(s):
    return [p | w for p, w in zip(s.prec.rows, s.weak.rows)]


def _reference_shortest_cycle(rows, n):
    best = None
    for start in range(n):
        dist = {start: 0}
        parent = {}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in _bits_of(rows[u]):
                if v == start:
                    cycle = [start]
                    node = u
                    while node != start:
                        cycle.append(node)
                        node = parent[node]
                    cycle.append(start)
                    cycle = cycle[::-1]
                    if best is None or len(cycle) < len(best):
                        best = cycle
                    queue.clear()
                    break
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
    return best


def _reference_cycle_total(s):
    n = len(s.domain)
    cycle = _reference_shortest_cycle(_combined(s), n)
    if cycle is None:
        return None
    return [s.domain.labels[i] for i in cycle]


def _reference_cycle_stratified(s):
    rows = _combined(s)
    labels = s.domain.labels
    best = None
    for u, v in _reference_pairs(s.prec.rows):
        dist = {v: 0}
        parent = {}
        queue = deque([v])
        path = None
        while queue:
            w = queue.popleft()
            if w == u:
                path = [u]
                while path[-1] != v:
                    path.append(parent[path[-1]])
                path.reverse()
                break
            for t in _bits_of(rows[w]):
                if t not in dist:
                    dist[t] = dist[w] + 1
                    parent[t] = w
                    queue.append(t)
        if path is not None:
            cycle = [u] + path
            if best is None or len(cycle) < len(best):
                best = cycle
    if best is None:
        return None
    return [labels[i] for i in best]


def _reference_cycle_interval(s):
    n = len(s.domain)
    labels = s.domain.labels
    prec = s.prec.rows
    weak_only = tuple(s.weak.rows[i] & ~prec[i] for i in range(n))

    def successors(state):
        u, incoming_strong = state
        for v in _bits_of(prec[u]):
            yield v, True
        if incoming_strong:
            for v in _bits_of(weak_only[u]):
                yield v, False

    best = None
    for start in [(v, strong) for v in range(n) for strong in (True, False)]:
        dist = {start: 0}
        parent = {}
        queue = deque([start])
        found = False
        while queue and not found:
            state = queue.popleft()
            for nxt in successors(state):
                if nxt == start:
                    walk = [start, state]
                    while walk[-1] != start:
                        walk.append(parent[walk[-1]])
                    walk.reverse()
                    if best is None or len(walk) < len(best):
                        best = walk
                    found = True
                    break
                if nxt not in dist:
                    dist[nxt] = dist[state] + 1
                    parent[nxt] = state
                    queue.append(nxt)
    if best is None:
        return None
    return [labels[v] for v, _ in best]


FINDERS = [
    (forbidden_cycle_total, _reference_cycle_total),
    (forbidden_cycle_stratified, _reference_cycle_stratified),
    (forbidden_cycle_interval, _reference_cycle_interval),
]


def _shuffled_structure(rng, n):
    labels = [f"e{i}" for i in range(n)]
    rng.shuffle(labels)
    density = rng.uniform(0.05, 0.5)
    slots = [(x, y) for x in labels for y in labels if x != y]
    prec = [p for p in slots if rng.random() < density]
    weak = [p for p in slots if rng.random() < density]
    return new_structure(labels, prec, weak)


# From b, d and then e are one step each; e closes the cycle in two
# steps both through a (weak) and through c (precedence).  The step to
# the lower position wins, whatever its kind: ties this close are rare
# among random structures, so this one is pinned.
STRATIFIED_TIE = new_structure(
    "abcde", [("e", "c"), ("c", "b"), ("b", "d")], [("a", "b"), ("e", "a"), ("d", "e")]
)


def test_cycle_finders_match_the_reference_searches():
    structures = [s for n in (1, 2, 3) for s in all_relational_structures(n)]
    assert len(structures) == 4113
    rng = random.Random(2024)
    structures += [_shuffled_structure(rng, rng.randint(4, 10)) for _ in range(2000)]
    assert forbidden_cycle_stratified(STRATIFIED_TIE) == ["b", "d", "e", "a", "b"]
    structures.append(STRATIFIED_TIE)
    found = set()
    for s in structures:
        for finder, reference in FINDERS:
            expected = reference(s)
            assert finder(s) == expected, (
                finder.__name__,
                s.domain.labels,
                sorted(s.prec.label_pairs),
                sorted(s.weak.label_pairs),
            )
            found.add((finder.__name__, expected is None))
    assert len(found) == 2 * len(FINDERS)


def test_count_ranks_realize_every_order_saturate_can_print(walked_sequences):
    """``saturate`` prints the intervals of each order unchecked, each
    base spanning the leaves of its stratum (``qsseq.tree_order``), on
    this argument (the ``qsseq`` module docstring):

    1. ``qsseq.tree_order`` makes a quasi-stratified order of any stratum
       tree sequence;
    2. x precedes y exactly when x's stratum lies in a stratum before
       y's in one sequence, that is exactly when x's span ends before
       y's begins;
    3. those spans are the count ranks (``_realization``, after Fishburn
       1970), which ``tests/test_qsseq.py`` checks too.

    The argument holds at every size.  ``saturate`` refuses more than
    ``ENUMERATION_BOUND`` events, so this checks every sequence it could
    print, the walk's unconstrained sequences at every size up to the
    bound, and seeded random trees of 7 to 16 events, which it will
    print once the bound is lifted for limited walks, by plain loops
    over the pairs rather than through ``_realization``: x precedes y
    exactly when x's end is below y's begin, and every begin is at or
    below its own end."""

    def assert_realized(n, walk):
        rows, _, bounds = walk
        events = range(n)
        begins, ends = bounds[::2], bounds[1::2]
        for x in events:
            assert begins[x] <= ends[x]
            assert rows[x] == sum(1 << y for y in events if ends[x] < begins[y])

    checked = 0
    for n, _, walk in walked_sequences:
        assert_realized(n, walk)
        checked += 1
    assert checked == 1 + 1 + 3 + 19 + 183 + 2371 + 38703  # quasi-stratified orders on 0..6 events
    for n in range(ENUMERATION_BOUND + 1, 17):
        for seed in range(20):
            assert_realized(n, tree_order(n, random_trees(n, seed)))
