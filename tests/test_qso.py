import random

import pytest

from qstrat import (
    QsOrder,
    enumerate_posets,
    enumerate_qs_orders,
    factorize_strata,
    is_interval_order,
    is_qs_order,
    is_qso_stratum,
    is_stratified_order,
    new_poset,
    qs_order_violation,
    qso_add_isolated,
    qso_empty,
    qso_from_poset,
    qso_projection,
    qso_seq_compose,
    stratum_base,
)

from conftest import LABELS


def test_nested_order_is_qs(nested_poset):
    assert is_qs_order(nested_poset.prec)


def test_interval_only_witness(interval_only_poset):
    assert qs_order_violation(interval_only_poset.prec) == ("a", "c", "b", "d")


def test_empty_is_qs():
    assert is_qs_order(new_poset([]).prec)


def test_self_loop_witness():
    from qstrat import BinRel, Domain

    rel = BinRel.from_pairs(Domain(("a",)), [("a", "a")])
    assert qs_order_violation(rel) == ("a",)


def test_from_poset_rejects_non_qs(interval_only_poset):
    with pytest.raises(ValueError, match="witness"):
        qso_from_poset(interval_only_poset)


def test_compose_identity(nested_poset):
    q = qso_from_poset(nested_poset)
    assert qso_seq_compose(q, qso_empty()) == q
    assert qso_seq_compose(qso_empty(), q) == q


def test_compose_two_singletons():
    q = qso_seq_compose(
        qso_add_isolated(qso_empty(), "a"), qso_add_isolated(qso_empty(), "b")
    )
    assert sorted(q.prec.label_pairs) == [("a", "b")]


def test_constructors_build_nested_order(nested_poset):
    # sequentially compose a and c, add b in parallel, then append d
    ac = qso_seq_compose(
        qso_add_isolated(qso_empty(), "a"), qso_add_isolated(qso_empty(), "c")
    )
    abc = qso_add_isolated(ac, "b")
    q = qso_seq_compose(abc, qso_add_isolated(qso_empty(), "d"))
    assert q == qso_from_poset(nested_poset)


def test_compose_requires_disjoint():
    a = qso_add_isolated(qso_empty(), "a")
    with pytest.raises(ValueError, match="disjoint"):
        qso_seq_compose(a, a)


def test_add_isolated_requires_fresh():
    a = qso_add_isolated(qso_empty(), "a")
    with pytest.raises(ValueError, match="already in domain"):
        qso_add_isolated(a, "a")


def test_compose_associative():
    rng = random.Random(13)
    for trial in range(50):
        sizes = [rng.randint(1, 2) for _ in range(3)]
        pools = ["ab", "cd", "ef"]
        parts = []
        for pool, size in zip(pools, sizes):
            part = qso_empty()
            for x in pool[:size]:
                part = qso_add_isolated(part, x)
            parts.append(part)
        a, b, c = parts
        assert qso_seq_compose(qso_seq_compose(a, b), c) == qso_seq_compose(
            a, qso_seq_compose(b, c)
        )


def test_stratum_antichain():
    q = qso_add_isolated(qso_add_isolated(qso_empty(), "a"), "b")
    assert is_qso_stratum(q)
    assert stratum_base(q) == {"a", "b"}


def test_nested_order_not_a_stratum(nested_poset):
    q = qso_from_poset(nested_poset)
    assert not is_qso_stratum(q)
    assert stratum_base(q) == frozenset()


def test_projected_stratum(nested_poset):
    q = qso_projection(qso_from_poset(nested_poset), {"a", "b", "c"})
    assert is_qso_stratum(q)
    assert stratum_base(q) == {"b"}


def test_empty_not_a_stratum():
    assert not is_qso_stratum(qso_empty())


def test_factorize_chain():
    q = qso_from_poset(new_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")]))
    factors = factorize_strata(q)
    assert [set(f.domain.labels) for f in factors] == [{"a"}, {"b"}, {"c"}]


def test_factorize_nested_order(nested_poset):
    factors = factorize_strata(qso_from_poset(nested_poset))
    assert [set(f.domain.labels) for f in factors] == [{"a", "b", "c"}, {"d"}]


def test_factorize_antichain():
    q = qso_from_poset(new_poset(["a", "b", "c"]))
    assert len(factorize_strata(q)) == 1


def test_factorize_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        factorize_strata(qso_empty())


def test_factorize_recomposes_and_is_finest():
    for n in range(1, 5):
        for q in enumerate_qs_orders(LABELS[:n]):
            if len(q) == 0:
                continue
            factors = factorize_strata(q)
            assert all(is_qso_stratum(f) for f in factors)
            recomposed = qso_empty()
            for f in factors:
                recomposed = qso_seq_compose(recomposed, f)
            assert recomposed == q


def test_factorize_is_unique_under_regrouping():
    # composing any adjacent run of factors and factorizing the result
    # refines back to the same factor list
    rng = random.Random(139)
    for q in enumerate_qs_orders(LABELS[:4]):
        if len(q) == 0:
            continue
        factors = factorize_strata(q)
        if len(factors) < 2:
            continue
        i = rng.randrange(len(factors) - 1)
        merged = qso_seq_compose(factors[i], factors[i + 1])
        assert factorize_strata(merged) == factors[i : i + 2]


def test_projection_identity_and_chain(nested_poset):
    q = qso_from_poset(nested_poset)
    assert qso_projection(q, q.domain.labels) == q
    bd = qso_projection(q, {"b", "d"})
    assert sorted(bd.prec.label_pairs) == [("b", "d")]


def test_projection_of_an_unchecked_non_qs_order_is_value_error():
    # the 2+2 order, wrapped without qso_from_poset's check
    q = QsOrder(new_poset(["a", "b", "c", "d"], [("a", "b"), ("c", "d")]))
    with pytest.raises(ValueError, match="not a quasi-stratified order"):
        qso_projection(q, "abcd")


def test_projection_commutes_with_composition():
    rng = random.Random(41)
    for n in range(2, 5):
        orders = enumerate_qs_orders(LABELS[:n])
        for _ in range(30):
            q = orders[rng.randrange(len(orders))]
            shifted = {x: chr(ord(x) + n) for x in q.domain.labels}
            r_base = orders[rng.randrange(len(orders))]
            r = qso_from_poset(
                new_poset(
                    [shifted[x] for x in r_base.domain.labels],
                    [(shifted[x], shifted[y]) for x, y in r_base.prec.label_pairs],
                )
            )
            psi = {x for x in (set(q.domain.labels) | set(r.domain.labels)) if rng.random() < 0.6}
            left = qso_projection(qso_seq_compose(q, r), psi)
            right = qso_seq_compose(
                qso_projection(q, psi & set(q.domain.labels)),
                qso_projection(r, psi & set(r.domain.labels)),
            )
            assert left == right


def test_enumerate_counts():
    assert len(enumerate_qs_orders(LABELS[:1])) == 1
    assert len(enumerate_qs_orders(LABELS[:2])) == 3
    assert len(enumerate_qs_orders(LABELS[:3])) == 19


def test_enumerate_n3_equals_all_posets():
    found = {q.prec for q in enumerate_qs_orders(LABELS[:3])}
    assert found == {p.prec for p in enumerate_posets(LABELS[:3])}


def test_enumerate_bound():
    with pytest.raises(ValueError, match="bound"):
        enumerate_qs_orders(LABELS[:7])


def test_axioms_match_enumeration_exhaustively():
    for n in range(1, 5):
        generated = {q.prec for q in enumerate_qs_orders(LABELS[:n])}
        assert len(generated) == len(enumerate_qs_orders(LABELS[:n]))
        recognized = {
            p.prec for p in enumerate_posets(LABELS[:n]) if is_qs_order(p.prec)
        }
        assert generated == recognized


def test_axioms_match_enumeration_all_irreflexive_relations():
    from qstrat import BinRel, Domain

    # exhaustive over every irreflexive relation on up to 4 elements; the
    # orders are enumerated over the same declared labels, so equal rows
    # are equal relations
    for n in range(1, 5):
        domain = Domain(tuple(LABELS[:n]))
        generated = {q.prec.rows for q in enumerate_qs_orders(domain.labels)}
        slots = [(i, j) for i in range(n) for j in range(n) if i != j]
        for mask in range(1 << len(slots)):
            rows = [0] * n
            for k, (i, j) in enumerate(slots):
                if mask >> k & 1:
                    rows[i] |= 1 << j
            rel = BinRel(domain, tuple(rows))
            assert is_qs_order(rel) == (rel.rows in generated)
    # sampled for 5 and 6 elements
    rng = random.Random(149)
    for n in (5, 6):
        domain = Domain(tuple(LABELS[:n]))
        generated = {q.prec.rows for q in enumerate_qs_orders(domain.labels)}
        slots = [(x, y) for x in domain.labels for y in domain.labels if x != y]
        for _ in range(400):
            density = rng.uniform(0.05, 0.6)
            pairs = [p for p in slots if rng.random() < density]
            rel = BinRel.from_pairs(domain, pairs)
            assert is_qs_order(rel) == (rel.rows in generated)


def test_class_hierarchy_on_generated_orders():
    for n in range(1, 5):
        for q in enumerate_qs_orders(LABELS[:n]):
            if is_stratified_order(q.prec):
                assert is_qs_order(q.prec)
            assert is_interval_order(q.prec)


def test_strict_hierarchy_witnesses(nested_poset, interval_only_poset):
    assert is_qs_order(nested_poset.prec) and not is_stratified_order(nested_poset.prec)
    assert is_interval_order(interval_only_poset.prec) and not is_qs_order(interval_only_poset.prec)
