import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qstrat import (
    BinRel,
    Domain,
    Poset,
    Structure,
    add_element,
    add_prec,
    add_weak,
    extends,
    intersect,
    is_relational,
    new_poset,
    new_structure,
    poset_to_structure,
    project,
    random_qs_seq,
    reindex_poset,
    reindex_structure,
    saturations,
    seq_to_order,
)
from qstrat import relcore
from qstrat.relcore import (
    _bits,
    _columns,
    _columns_by_bits,
    _columns_by_text,
    _gather,
    _rows_leaving,
    _scatter,
    _untouched,
    show_label,
)

from conftest import LABELS, random_structure, spy


AB, BA, ABC = Domain(("a", "b")), Domain(("b", "a")), Domain(("a", "b", "c"))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: BinRel(AB, (0,)), "row count does not match domain size"),
        (lambda: BinRel(AB, (0b100, 0)), "relation references positions outside the domain"),
        (lambda: BinRel(AB, (0, -1)), "relation references positions outside the domain"),
        (lambda: Structure(BinRel.empty(AB), BinRel.empty(ABC)), "both relations must share"),
        (lambda: Structure(BinRel.empty(AB), BinRel.empty(BA)), "both relations must share"),
        (lambda: Poset(BinRel(AB, (0b1, 0))), "partial order must be irreflexive"),
        (lambda: Poset(BinRel(ABC, (0b10, 0b100, 0))), "partial order must be transitive"),
        (
            lambda: BinRel.empty(AB).intersection(BinRel.empty(BA)),
            "relation intersection requires identical domains",
        ),
    ],
    ids=[
        "row count", "outside", "negative row", "weak domain", "structure domain", "reflexive",
        "intransitive", "intersection",
    ],
)
def test_constructors_refuse_malformed_values(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_new_structure_basic():
    s = new_structure(["a", "b"], [("a", "b")], [])
    assert s.prec.holds("a", "b")
    assert not s.prec.holds("b", "a")
    assert not any(s.weak.rows)


def test_duplicate_label_rejected():
    with pytest.raises(ValueError, match="duplicate label"):
        new_structure(["a", "a"], [], [])


def test_unknown_label_in_pair_rejected():
    with pytest.raises(ValueError, match="unknown label"):
        new_structure(["a", "b"], [("a", "c")], [])


def test_a_position_outside_the_domain_is_refused():
    # below and past the domain on each side: each is refused as holds
    # refuses an unknown label, none reads another row or bit
    prec = new_structure("abc", [("c", "a")]).prec
    for i, j in ((-1, 0), (0, -1), (3, 0), (0, 5)):
        with pytest.raises(ValueError, match="outside a domain of 3"):
            prec.holds_idx(i, j)
    assert prec.holds_idx(2, 0) and not prec.holds_idx(0, 2)


def test_duplicate_pairs_collapse():
    s = new_structure(["a", "b"], [("a", "b"), ("a", "b")], [])
    assert sum(map(int.bit_count, s.prec.rows)) == 1


def test_transactions_constructs(transactions):
    assert sorted(transactions.prec.label_pairs) == [("a", "c"), ("b", "d")]
    assert sorted(transactions.weak.label_pairs) == [("a", "b"), ("c", "d")]


def test_is_relational():
    assert is_relational(new_structure([]))
    assert not is_relational(new_structure(["a"], [("a", "a")], []))
    assert not is_relational(new_structure(["a"], [], [("a", "a")]))


def test_transactions_is_relational(transactions):
    assert is_relational(transactions)


def test_extends_reflexive(transactions):
    assert extends(transactions, transactions)


def test_extends_maximal(transactions, maximal_ext):
    assert extends(transactions, maximal_ext)
    assert not extends(maximal_ext, transactions)


def test_extends_dropped_pair():
    rich = new_structure(["a", "b"], [("a", "b")], [])
    poor = new_structure(["a", "b"], [], [])
    assert not extends(rich, poor)
    assert extends(poor, rich)


def test_extends_different_label_sets():
    assert not extends(new_structure(["a"]), new_structure(["b"]))


def test_extends_is_partial_order():
    rng = random.Random(5)
    labels = ["a", "b", "c"]
    slots = [(x, y) for x in labels for y in labels if x != y]

    def rand():
        return new_structure(
            labels,
            [p for p in slots if rng.random() < 0.4],
            [p for p in slots if rng.random() < 0.4],
        )

    for _ in range(200):
        s, t, u = rand(), rand(), rand()
        assert extends(s, s)
        if extends(s, t) and extends(t, s):
            assert s == t
        if extends(s, t) and extends(t, u):
            assert extends(s, u)


def test_project_identity(transactions):
    assert project(transactions, transactions.domain.labels) == transactions


def test_project_transactions(transactions):
    p = project(transactions, {"a", "c"})
    assert sorted(p.prec.label_pairs) == [("a", "c")]
    assert not p.weak.label_pairs


def test_project_empty(transactions):
    p = project(transactions, set())
    assert len(p.domain) == 0


def test_project_unknown_label(transactions):
    with pytest.raises(ValueError, match="unknown label"):
        project(transactions, {"z"})


def test_project_composes(transactions):
    rng = random.Random(11)
    labels = set(transactions.domain.labels)
    for _ in range(50):
        a = {x for x in labels if rng.random() < 0.6}
        b = {x for x in labels if rng.random() < 0.6}
        assert project(project(transactions, a), a & b) == project(transactions, a & b)


def test_intersect_idempotent(transactions):
    assert intersect(transactions, transactions) == transactions


def test_intersect_disjoint_pairs():
    s = new_structure(["a", "b"], [("a", "b")], [])
    t = new_structure(["a", "b"], [("b", "a")], [])
    both = intersect(s, t)
    assert not both.prec.label_pairs
    assert not both.weak.label_pairs


def test_intersect_commutative_associative():
    rng = random.Random(3)
    labels = ["a", "b", "c"]
    slots = [(x, y) for x in labels for y in labels if x != y]

    def rand():
        return new_structure(
            labels,
            [p for p in slots if rng.random() < 0.5],
            [p for p in slots if rng.random() < 0.5],
        )

    for _ in range(100):
        s, t, u = rand(), rand(), rand()
        assert intersect(s, t) == intersect(t, s)
        assert intersect(intersect(s, t), u) == intersect(s, intersect(t, u))


def test_intersect_of_saturations_is_closure(transactions, transactions_closure):
    acc = None
    for m in saturations(transactions):
        acc = m if acc is None else intersect(acc, m)
    assert acc == transactions_closure


def test_add_element():
    s = add_element(new_structure([]), "a")
    assert list(s.domain.labels) == ["a"]
    with pytest.raises(ValueError, match="already in domain"):
        add_element(s, "a")


def test_add_prec():
    s = new_structure(["a", "b"])
    t = add_prec(s, "a", "b")
    assert t.prec.holds("a", "b")
    assert add_prec(t, "a", "b") == t
    assert extends(s, t)


def test_additions_always_extend():
    rng = random.Random(19)
    labels = ["a", "b", "c", "d"]
    slots = [(x, y) for x in labels for y in labels if x != y]
    for _ in range(100):
        s = new_structure(
            labels,
            [p for p in slots if rng.random() < 0.3],
            [p for p in slots if rng.random() < 0.3],
        )
        x, y = slots[rng.randrange(len(slots))]
        assert extends(s, add_prec(s, x, y))
        assert extends(s, add_weak(s, x, y))


def test_add_weak_keeps_relational(transactions):
    assert is_relational(add_weak(transactions, "a", "d"))


def test_add_unknown_label(transactions):
    with pytest.raises(ValueError, match="unknown label"):
        add_prec(transactions, "a", "z")


def test_embed_antichain():
    s = poset_to_structure(new_poset(["a", "b"]))
    assert not s.prec.label_pairs
    assert sorted(s.weak.label_pairs) == [("a", "b"), ("b", "a")]


def test_embed_chain():
    s = poset_to_structure(new_poset(["a", "b"], [("a", "b")]))
    assert sorted(s.prec.label_pairs) == [("a", "b")]
    assert sorted(s.weak.label_pairs) == [("a", "b")]


def test_embed_nested_order_gives_maximal(nested_poset, maximal_ext):
    assert poset_to_structure(nested_poset) == maximal_ext


def test_embed_trichotomy():
    rng = random.Random(17)
    for trial in range(200):
        n = rng.randint(1, 6)
        labels = LABELS[:n]
        pairs = set()
        for x in labels:
            for y in labels:
                if x < y and rng.random() < 0.4:
                    pairs.add((x, y))
        # transitive closure of a DAG on the alphabetic order
        changed = True
        while changed:
            changed = False
            for a, b in list(pairs):
                for c, d in list(pairs):
                    if b == c and (a, d) not in pairs:
                        pairs.add((a, d))
                        changed = True
        s = poset_to_structure(new_poset(labels, pairs))
        for x in labels:
            for y in labels:
                if x == y:
                    continue
                cases = [
                    s.prec.holds(x, y),
                    s.prec.holds(y, x),
                    s.weak.holds(x, y) and s.weak.holds(y, x),
                ]
                assert sum(cases) == 1


def test_aligned_to_moves_rows_through_the_position_permutation():
    rng = random.Random(1107)
    for _ in range(200):
        n = rng.randint(0, 8)
        labels = list(LABELS[:n])
        pairs = [(x, y) for x in labels for y in labels if rng.random() < 0.3]
        rel = new_structure(labels, pairs).prec
        rng.shuffle(labels)
        target = Domain(tuple(labels))
        aligned = rel.aligned_to(target)
        assert aligned.domain is target
        assert aligned.rows == BinRel.from_pairs(target, rel.pairs()).rows
    with pytest.raises(ValueError, match="different label sets"):
        rel.aligned_to(Domain(tuple(labels) + ("zz",)))


def _toggled(rel: BinRel, i: int, j: int) -> BinRel:
    rows = list(rel.rows)
    rows[i] ^= 1 << j
    return BinRel(rel.domain, tuple(rows))


def test_equality_and_hash_hold_across_declaration_orders():
    # a structure and a poset compare and hash as their relations do:
    # by label set and label pairs, whatever the declaration order
    rng = random.Random(5701)
    for n in range(1, 7):
        for _ in range(25):
            s = random_structure(rng, n)
            moved = reindex_structure(s, Domain(tuple(rng.sample(s.domain.labels, n))))
            assert moved == s and hash(moved) == hash(s) and len({s, moved}) == 1
            i, j = rng.randrange(n), rng.randrange(n)
            assert Structure(_toggled(s.prec, i, j), s.weak) != moved
            assert Structure(s.prec, _toggled(s.weak, i, j)) != moved

            p = Poset(seq_to_order(random_qs_seq(LABELS[:n], seed=rng.randrange(1 << 30))).prec)
            shown = reindex_poset(p, Domain(tuple(rng.sample(p.domain.labels, n))))
            assert shown == p and hash(shown) == hash(p) and len({p, shown}) == 1
            # drop a pair with nothing between its ends, or add one to an
            # antichain: either way still a poset
            rows, cols = p.prec.rows, p.prec.column_masks
            covers = [(i, j) for i in range(n) for j in _bits(rows[i]) if not rows[i] & cols[j]]
            if covers or n > 1:
                i, j = rng.choice(covers) if covers else (0, 1)
                assert Poset(_toggled(p.prec, i, j)) != shown

            embedded = poset_to_structure(p)
            assert embedded.prec == p.prec
            for one, other in ((embedded, p), (embedded, embedded.prec), (p, p.prec)):
                assert one != other and other != one


@st.composite
def _row_lists(draw):
    # arbitrary rows, not orders, many of them repeated; past 64 events
    # a row spans more than one machine word
    n = draw(st.integers(0, 70))
    pool = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=max(1, n)))
    return tuple(draw(st.sampled_from(pool)) for _ in range(n))


@settings(max_examples=200, deadline=None)
@given(_row_lists())
def test_rows_leaving_is_its_definition(rows):
    leaving = _rows_leaving(rows)
    assert len(leaving) == len(rows)
    for rx, mask in zip(rows, leaving):
        assert mask == sum(1 << z for z, rz in enumerate(rows) if rz & ~rx)


def _transpose_cases(n, rng):
    """Rows on both sides of ``_columns``'s switch: empty, full, the top
    position alone (its bit string needs no padding) or the bottom one
    alone (all padding), and random rows from sparse to nearly full."""
    cases = [(0,) * n, ((1 << n) - 1,) * n, (1 << max(n - 1, 0),) * n, (1,) * n]
    for density in (0.02, 0.1, 0.3, 0.7):
        cases.append(tuple(sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)))
    return cases


def test_both_transpose_routes_match_the_per_bit_transpose():
    rng = random.Random(2511)
    for n in range(71):
        sides = set()
        for rows in _transpose_cases(n, rng):
            expected = tuple(sum((rows[i] >> j & 1) << i for i in range(n)) for j in range(n))
            assert _columns_by_bits(rows) == expected
            assert _columns_by_text(rows) == expected
            assert _columns(rows) == expected
            sides.add(n >= 8 and sum(map(int.bit_count, rows)) > 4 * n + n * n // 100)
        # full rows take the string route from 8 events on, empty ones never
        assert sides == ({False, True} if n >= 8 else {False})


def test_gather_and_scatter_match_a_walk_over_bits():
    # every size to 200 events, then the sizes of the file commands around
    # a machine-word boundary; masks holding bit 0, the top bit, both and
    # neither, since the walks step down from the top and _bits up from 0
    rng = random.Random(2812)
    for n in [*range(201), 1023, 1024, 1025, 2048]:
        full, ends = (1 << n) - 1, (1 << max(n - 1, 0)) | 1
        table = [rng.getrandbits(n + 1) for _ in range(n)]
        # a symmetric touch table, as _untouched needs: a random
        # relation's rows | columns, its rows empty, one event or random,
        # and the events of one random mask in no pair, so that some
        # members of a mask touch none of it
        quiet = rng.getrandbits(n)
        rows = [(0, 1 << rng.randrange(n), rng.getrandbits(n))[i % 3] & ~quiet for i in range(n)]
        rows = [0 if quiet >> i & 1 else row for i, row in enumerate(rows)]
        touch = [a | b for a, b in zip(rows, _columns(rows))]
        picked = rng.getrandbits(n)
        masks = (0, full, full & 1 << max(n - 1, 0), full & 1, full & ends)
        for mask in masks + (picked | full & ends, picked & ~ends, rng.getrandbits(n)):
            positions = [i for i in range(n) if mask >> i & 1]
            assert list(_bits(mask)) == positions  # ascending
            union = 0
            for i in positions:
                union |= table[i]
            assert _gather(table, mask) == union
            assert _untouched(touch, mask) == sum(1 << i for i in positions if not touch[i] & mask)
            for value in (0, rng.getrandbits(n + 1)):
                expected = list(table)
                for i in positions:
                    expected[i] |= value
                scattered = list(table)
                _scatter(scattered, mask, value)
                assert scattered == expected
                assert [t for i, t in enumerate(scattered) if not mask >> i & 1] == [
                    t for i, t in enumerate(table) if not mask >> i & 1
                ]


def test_a_relations_touch_table_is_symmetric():
    # _untouched is exact only on a symmetric table: BinRel._touch is
    # rows | columns, self-loops included, at sizes on both of _columns'
    # routes and across a machine word
    rng = random.Random(3612)
    for n in [*range(1, 40), 64, 65, 200]:
        domain = Domain(tuple(f"e{i}" for i in range(n)))
        for density in (0.05, 0.5):
            rows = [sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)]
            k = rng.randrange(n)
            rows[k] |= 1 << k  # at least one self-loop
            touch = BinRel(domain, tuple(rows))._touch
            assert touch == _columns(touch)
            assert all(touch[i] >> i & 1 == rows[i] >> i & 1 for i in range(n))


# (n, the most pairs that stay on the per-bit route): 4n + n²/100 from 8
# events on, every pair of the matrix below that
_SWITCH_POINTS = [(1, 1), (7, 49), (8, 32), (9, 36), (16, 66), (64, 296), (80, 384), (256, 1679)]


@pytest.mark.parametrize("n, most", _SWITCH_POINTS)
def test_the_transpose_route_switches_where_the_two_costs_meet(monkeypatch, n, most):
    by_bits, by_text = (spy(monkeypatch, name, relcore) for name in ("_columns_by_bits", "_columns_by_text"))
    for pairs in (most - 1, most, most + 1):
        if pairs > n * n:
            continue
        # the first pairs of the matrix in row-major order
        rows = [0] * n
        for k in range(pairs):
            rows[k // n] |= 1 << k % n
        expected = tuple(sum((rows[i] >> j & 1) << i for i in range(n)) for j in range(n))
        by_bits.clear()
        by_text.clear()
        assert _columns(rows) == expected
        assert [len(by_bits), len(by_text)] == ([0, 1] if pairs > most else [1, 0]), (n, pairs)


@pytest.mark.parametrize("label", ["a", "e10", "x-y", "a>b", "-", "é", "a.b", "λ", "1"])
def test_a_plain_label_shows_bare(label):
    assert show_label(label) == label


@pytest.mark.parametrize(
    "label",
    ["a ; b", "a b", "d\ne", "\t", "\u00a0x", "\x7f", 'q"', "b\\c", "a,b", "a;b", "a|b",
     "(a", "a)", "[a", "a]", "a:b", "a->b", "->"],
)
def test_a_label_with_a_separator_or_an_unprintable_shows_as_json(label):
    shown = show_label(label)
    assert shown == json.dumps(label) and json.loads(shown) == label


@settings(max_examples=300, deadline=None)
@given(st.text(min_size=1))
def test_a_shown_label_is_one_token_that_names_its_label(label):
    # a JSON string keeps a space as it is, and escapes every other
    # whitespace, so a shown label never breaks a line
    shown = show_label(label)
    assert shown.isprintable()
    if shown != label:
        assert json.loads(shown) == label
    else:
        assert not any(c.isspace() for c in shown)
        assert not any(sep in shown for sep in (",", ";", "|", "(", ")", "[", "]", ":", "->", '"'))


def test_every_whitespace_character_is_quoted():
    spaces = [c for c in map(chr, range(0x110000)) if c.isspace()]
    assert len(spaces) > 20
    for c in spaces:
        assert show_label(f"a{c}b") == json.dumps(f"a{c}b")
