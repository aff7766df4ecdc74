import functools
import json
import random
import string
import unittest.mock
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qstrat.oracles
import qstrat.qsa
import qstrat.relcore
from qstrat import (
    BinRel,
    Prober,
    add_prec,
    add_weak,
    close_oracle,
    csc_components,
    csc_subsets_naive,
    extends,
    intersect,
    is_csc_subset,
    is_qsa,
    is_qsa_naive,
    legal_extensions,
    new_structure,
    one_saturation,
    poset_to_structure,
    predominants,
    probe,
    project,
    qsa_witness,
    qsa_witness_naive,
    random_qs_seq,
    random_qsa_structure,
    saturations,
    seq_to_order,
)

from qstrat.cli import default_labels, main, read_input
from qstrat.closure import law_closure
from qstrat.relcore import _columns

from conftest import all_relational_structures, bit_length_calls, nested_structure, random_structure, spy

FIXTURES = Path(__file__).parent / "fixtures"


def test_predominants_singleton():
    s = new_structure(["x"])
    assert predominants(s, {"x"}) == {"x"}


def test_predominants_transactions_empty(transactions):
    assert predominants(transactions, ["a", "b", "c", "d"]) == frozenset()


def test_predominants_one_prec_cycle(cycle_structures):
    assert predominants(cycle_structures["b"], ["1", "2", "3", "4"]) == {"3", "4"}


def test_predominants_empty_subset_rejected(transactions):
    with pytest.raises(ValueError, match="non-empty"):
        predominants(transactions, set())


def test_predominants_unknown_label(transactions):
    with pytest.raises(ValueError, match="unknown label"):
        predominants(transactions, {"z"})


def test_csc_subsets_transactions(transactions):
    assert csc_subsets_naive(transactions) == [
        frozenset({"a"}),
        frozenset({"b"}),
        frozenset({"c"}),
        frozenset({"d"}),
    ]


def test_csc_subsets_pure_weak_cycle(cycle_structures):
    subsets = csc_subsets_naive(cycle_structures["a"])
    assert frozenset({"1", "2", "3", "4"}) in subsets
    assert len(subsets) == 5


def test_csc_subsets_empty_structure():
    assert csc_subsets_naive(new_structure([])) == []


def test_csc_subsets_bound():
    with pytest.raises(ValueError, match="bound"):
        csc_subsets_naive(new_structure([str(i) for i in range(13)]))


def test_cycle_structure_verdicts(cycle_structures):
    assert is_qsa_naive(cycle_structures["a"])
    assert is_qsa_naive(cycle_structures["b"])
    assert is_qsa(cycle_structures["c"])
    assert not is_qsa_naive(cycle_structures["d"])
    witness = qsa_witness_naive(cycle_structures["d"])
    assert witness.subset == {"1", "2", "3", "4"}


def test_transactions_is_qsa(transactions):
    assert is_qsa_naive(transactions)
    assert is_qsa(transactions)


def test_non_relational_is_not_qsa():
    s = new_structure(["a"], [("a", "a")], [])
    assert not is_qsa(s)
    with pytest.raises(ValueError, match="not relational"):
        qsa_witness(s)


def test_poly_agrees_with_naive_exhaustively_n2():
    for s in all_relational_structures(2):
        assert is_qsa(s) == is_qsa_naive(s)


def test_poly_agrees_with_naive_random():
    rng = random.Random(37)
    for _ in range(800):
        s = random_structure(rng, rng.randint(3, 6))
        naive = qsa_witness_naive(s)
        poly = qsa_witness(s)
        assert (naive is None) == (poly is None)
        if poly is not None:
            assert predominants(s, poly.subset) == frozenset()


def test_witness_subsets_are_genuine(cycle_structures):
    from qstrat import is_csc_subset

    witness = qsa_witness(cycle_structures["d"])
    assert is_csc_subset(cycle_structures["d"], witness.subset)
    assert predominants(cycle_structures["d"], witness.subset) == frozenset()


def test_csc_monotone_under_extension():
    rng = random.Random(43)
    for _ in range(150):
        s = random_structure(rng, rng.randint(2, 5))
        labels = s.domain.labels
        x, y = rng.sample(labels, 2)
        bigger = add_prec(s, x, y) if rng.random() < 0.5 else add_weak(s, x, y)
        small = set(csc_subsets_naive(s))
        big = set(csc_subsets_naive(bigger))
        assert small <= big
        # acyclicity is downward closed: witnesses survive extension
        if not is_qsa(s) and extends(s, bigger):
            assert not is_qsa(bigger)


def test_qsa_closed_under_projection_and_intersection():
    rng = random.Random(47)
    for _ in range(150):
        n = rng.randint(1, 5)
        s = random_qsa_structure("abcde"[:n], seed=rng.randrange(1 << 30))
        t = random_qsa_structure("abcde"[:n], seed=rng.randrange(1 << 30))
        subset = {x for x in s.domain.labels if rng.random() < 0.6}
        assert is_qsa(project(s, subset))
        assert is_qsa(intersect(s, t))


def test_legal_extensions_reverse_weak_of_prec(transactions):
    # a prec c is present, so adding c weak a must fail
    assert not legal_extensions(transactions, "c", "a").weak_ok


def test_legal_extensions_totality():
    rng = random.Random(53)
    for _ in range(300):
        n = rng.randint(2, 5)
        s = random_qsa_structure("abcde"[:n], seed=rng.randrange(1 << 30))
        x, y = rng.sample(s.domain.labels, 2)
        assert (
            legal_extensions(s, x, y).prec_ok or legal_extensions(s, y, x).weak_ok
        )


def test_legal_extensions_on_empty_two():
    s = new_structure(["a", "b"])
    for x, y in [("a", "b"), ("b", "a")]:
        result = legal_extensions(s, x, y)
        assert result.prec_ok and result.weak_ok


def test_legal_extensions_preconditions(transactions):
    with pytest.raises(ValueError, match="distinct"):
        legal_extensions(transactions, "a", "a")
    bad = new_structure(["a", "b"], [("a", "b"), ("b", "a")], [])
    with pytest.raises(ValueError, match="acyclic"):
        legal_extensions(bad, "a", "b")


def test_extension_recipe_items_four_and_five():
    rng = random.Random(59)
    for _ in range(200):
        n = rng.randint(2, 4)
        s = random_qsa_structure("abcd"[:n], seed=rng.randrange(1 << 30))
        x, y = rng.sample(s.domain.labels, 2)
        base_count = len(saturations(s))
        if not is_qsa(add_prec(s, x, y)):
            forced = add_weak(s, y, x)
            assert is_qsa(forced)
            assert len(saturations(forced)) == base_count
        if not is_qsa(add_weak(s, x, y)):
            forced = add_prec(s, y, x)
            assert is_qsa(forced)
            assert len(saturations(forced)) == base_count


def test_random_qsa_structure_deterministic_and_acyclic():
    a = random_qsa_structure("abcde", seed=7, density=0.4)
    b = random_qsa_structure("abcde", seed=7, density=0.4)
    assert a == b
    for seed in range(50):
        assert is_qsa(random_qsa_structure("abcde", seed=seed, density=0.5))


@pytest.mark.parametrize("density", [float("nan"), -3.0, -1e-9, 1.0 + 1e-9, 7.0, float("inf")])
def test_random_qsa_structure_refuses_a_density_outside_the_unit_interval(density):
    with pytest.raises(ValueError, match=r"density must lie in \[0, 1\]"):
        random_qsa_structure("abcdef", seed=1, density=density)


def test_random_qsa_structure_takes_both_ends_of_the_unit_interval():
    assert random_qsa_structure("abcdef", seed=1, density=0.0).prec.rows == (0,) * 6
    full = random_qsa_structure("abcdef", seed=1, density=1.0)
    assert is_qsa(full) and any(full.prec.rows + full.weak.rows)


def _reference_random_qsa_structure(labels, seed, density):
    """The generator deciding every candidate on its full extension."""
    label_tuple = tuple(labels)
    rng = random.Random(seed)
    candidates = [
        (which, x, y)
        for which in ("prec", "weak")
        for x in label_tuple
        for y in label_tuple
        if x != y
    ]
    rng.shuffle(candidates)
    s = new_structure(label_tuple)
    for which, x, y in candidates:
        if rng.random() >= density:
            continue
        extended = add_prec(s, x, y) if which == "prec" else add_weak(s, x, y)
        if qsa_witness(extended) is None:
            s = extended
    return s


@pytest.mark.parametrize("n", [24, 32, 48])
@pytest.mark.parametrize("density", [0.1, 0.35])
def test_random_qsa_structure_matches_the_reference_loop(n, density):
    labels = default_labels(n)
    for seed in (1, 2):
        s = random_qsa_structure(labels, seed=seed, density=density)
        expected = _reference_random_qsa_structure(labels, seed, density)
        assert s.domain.labels == expected.domain.labels
        assert (s.prec.rows, s.weak.rows) == (expected.prec.rows, expected.weak.rows)


def test_gen_decides_acyclicity_at_most_once(decisions, capsys):
    # deciding each candidate on its extension would decide once per
    # candidate kept by the density draw
    assert main(["gen", "--n", "16", "--seed", "3", "--density", "0.5"]) == 0
    assert capsys.readouterr().out.count("[") > 20
    assert len(decisions) <= 1


def _prober_reference_random_qsa_structure(labels, seed, density):
    """The generator probing every drawn candidate against one growing
    ``Prober``, without the closure facts."""
    label_tuple = tuple(labels)
    n = len(label_tuple)
    rng = random.Random(seed)
    candidates = [
        (which, i, j) for which in ("prec", "weak") for i in range(n) for j in range(n) if i != j
    ]
    rng.shuffle(candidates)
    prober = Prober(new_structure(label_tuple))
    for which, i, j in candidates:
        if rng.random() < density:
            prober.extend(i, j, which)
    return prober.structure()


def test_random_qsa_structure_matches_the_probing_loop_on_seeded_cases():
    # sizes 2 to 64, most of them small: a case costs about n^2 probes
    rng = random.Random(1313)
    for _ in range(300):
        labels = default_labels(2 + round(62 * rng.random() ** 2))
        seed, density = rng.randrange(1 << 30), rng.uniform(0.05, 1.0)
        expected = _prober_reference_random_qsa_structure(labels, seed, density)
        assert random_qsa_structure(labels, seed=seed, density=density) == expected


@pytest.mark.parametrize("density", [0.1, 0.35])
def test_random_qsa_structure_matches_the_probing_loop_at_128_events(density):
    labels = default_labels(128)
    for seed in (1, 2):
        expected = _prober_reference_random_qsa_structure(labels, seed, density)
        assert random_qsa_structure(labels, seed=seed, density=density) == expected


def _closure_facts_hold(facts, closed):
    # P and W.P= lie in the closure, and prec_cols are P's columns
    weak_cols = closed.weak.column_masks
    for i in range(len(closed.domain)):
        assert facts.prec[i] & ~closed.prec.rows[i] == 0
        assert facts.weak_into[i] & ~weak_cols[i] == 0
    assert facts.prec_cols == list(BinRel(closed.domain, tuple(facts.prec)).column_masks)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 9),
    candidates=st.lists(
        st.tuples(st.sampled_from(("prec", "weak")), st.integers(0, 8), st.integers(0, 8)),
        min_size=20,
        max_size=60,
    ),
)
def test_closure_facts_reject_only_what_a_probe_rejects(n, candidates):
    # grow an acyclic structure as the generator does, over candidates in
    # any order: a candidate whose reverse pair of the other kind the
    # facts imply must fail a fresh probe of the structure grown so far,
    # and every fact learned must lie in the closure computed by
    # intersecting the saturations: at each step at n <= 4, and at
    # n <= 6 at the end, as the closure only grows.  At 6
    # events a sparse structure has thousands of saturations, so each run
    # draws at least 20 candidates
    labels = default_labels(n)
    prober = Prober(new_structure(labels))
    facts = qstrat.qsa._ClosureFacts(n)
    closed = None  # close_oracle of the structure grown so far, once needed
    for which, i, j in candidates:
        i, j = i % n, j % n
        if i == j:
            continue
        other = "weak" if which == "prec" else "prec"
        if facts.implies(j, i, other):
            assert Prober(prober.structure()).run(i, j, which)
            continue
        if not prober.extend(i, j, which):
            facts.learn(i, j, which)
            closed = None
        else:
            facts.learn(j, i, other)
        if n <= 4:
            closed = closed or close_oracle(prober.structure())
            _closure_facts_hold(facts, closed)
    if n <= 6:
        _closure_facts_hold(facts, close_oracle(prober.structure()))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 6),
    candidates=st.lists(
        st.tuples(st.sampled_from(("prec", "weak")), st.integers(0, 5), st.integers(0, 5)),
        min_size=20,
        max_size=60,
    ),
)
def test_closure_implied_pairs_leave_the_saturations_as_they_are(n, candidates):
    # grow a structure as the generator does, the prober holding only the
    # pairs the facts do not already put in the closure: adding a pair
    # the facts imply leaves the closure of the structure kept as it
    # was, and the prober's basis has the saturations of the structure
    # kept at every step (trivially so while the two are equal).  Each
    # run draws at least 20 candidates, as a sparse structure on 6 events
    # has thousands of saturations, so each structure's closure and
    # saturations are computed once: a kept structure was the previous
    # step's grown one, and the basis repeats until it grows
    labels = default_labels(n)
    prober = Prober(new_structure(labels))
    facts = qstrat.qsa._ClosureFacts(n)
    kept = new_structure(labels)
    # per structure, its close_oracle and its saturations, each computed
    # once in this example: close_oracle's own saturations go through the
    # same cache
    closure_of = functools.cache(close_oracle)
    saturations_of = functools.cache(saturations)
    with unittest.mock.patch.object(qstrat.oracles, "saturations", saturations_of):
        for which, i, j in candidates:
            i, j = i % n, j % n
            other = "weak" if which == "prec" else "prec"
            if i == j or facts.implies(j, i, other):
                continue
            x, y = labels[i], labels[j]
            grown = add_prec(kept, x, y) if which == "prec" else add_weak(kept, x, y)
            if facts.implies(i, j, which):
                assert closure_of(grown) == closure_of(kept)
            elif not prober.extend(i, j, which):
                facts.learn(i, j, which)
            else:
                facts.learn(j, i, other)
                continue
            kept = grown
            basis = prober.structure()
            if basis != kept:
                # one domain, so equal rows are equal structures
                assert saturations_of(basis).rows == saturations_of(kept).rows


def test_gen_extends_its_prober_by_few_of_the_pairs_it_keeps(monkeypatch, capsys):
    # 527 of the 861 pairs kept at these settings lie in the closure of
    # the pairs kept before them; extending the prober by every drawn
    # pair the facts do not forbid makes 940 extends
    calls = spy(monkeypatch, "extend", Prober)
    assert main(["gen", "--n", "48", "--seed", "1", "--density", "0.35"]) == 0
    doc = json.loads(capsys.readouterr().out)
    kept = len(doc["prec"]) + len(doc["weak"])
    assert kept == 861
    assert len(calls) < 0.6 * kept


@pytest.mark.parametrize("n, seed, density", [(24, 1, 0.35), (40, 2, 0.1), (40, 3, 0.6)])
def test_prober_touch_table_stays_symmetric_under_extend(monkeypatch, n, seed, density):
    # relcore._untouched reads the prober's pre-dominants from its touch
    # table in one gather, which is exact only on a symmetric table
    grown = []
    extend = Prober.extend

    def checked(self, i, j, kind):
        mask = extend(self, i, j, kind)
        assert self._touch == list(_columns(self._touch)), (i, j, kind)
        grown.append(not mask and kind == "prec")
        return mask

    monkeypatch.setattr(Prober, "extend", checked)
    random_qsa_structure(default_labels(n), seed=seed, density=density)
    assert any(grown)  # some precedence pair joined the table


def test_gen_probes_few_of_the_candidates_it_rejects(monkeypatch):
    # the closure facts decide most rejections; probing every drawn
    # candidate probes all 696 rejections at these settings
    calls = spy(monkeypatch, "run", Prober)
    n, density = 48, 0.35
    s = random_qsa_structure(default_labels(n), seed=1, density=density)
    kept = sum(row.bit_count() for row in s.prec.rows + s.weak.rows)
    # the generator's draws: what its shuffle draws depends on the length alone
    rng = random.Random(1)
    rng.shuffle([None] * (2 * n * (n - 1)))
    drawn = sum(rng.random() < density for _ in range(2 * n * (n - 1)))
    rejected = drawn - kept
    assert rejected > 0
    assert len(calls) - kept <= rejected / 4


def test_probe_agrees_with_is_qsa_of_the_extension():
    rng = random.Random(77)
    structures = [s for n in (1, 2) for s in all_relational_structures(n)]
    structures += [random_structure(rng, rng.randint(2, 6)) for _ in range(150)]
    for s in structures:
        for x in s.domain.labels:
            for y in s.domain.labels:
                if x == y:
                    continue
                assert (probe(s, x, y, "prec") is None) == is_qsa(add_prec(s, x, y))
                assert (probe(s, x, y, "weak") is None) == is_qsa(add_weak(s, x, y))


def test_probe_witness_is_the_extension_witness(transactions):
    witness = probe(transactions, "d", "a", "weak")
    assert witness is not None
    assert witness == qsa_witness(add_weak(transactions, "d", "a"))


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 14),
    seed=st.integers(0, 2**30),
    density=st.floats(0.05, 0.8),
    acyclic=st.booleans(),
)
def test_prober_matches_the_extension_oracle(n, seed, density, acyclic):
    labels = string.ascii_letters[:n]
    if acyclic:
        s = random_qsa_structure(labels, seed=seed, density=density)
    else:
        rng = random.Random(seed)
        slots = [(x, y) for x in labels for y in labels if x != y]
        s = new_structure(
            labels,
            [pair for pair in slots if rng.random() < density],
            [pair for pair in slots if rng.random() < density],
        )
    prober = Prober(s)
    assert prober.witness == qsa_witness(s)
    for i, x in enumerate(labels):
        for j, y in enumerate(labels):
            if i == j:
                continue
            for kind in ("prec", "weak"):
                mask = prober.run(i, j, kind)
                subset = frozenset(labels[k] for k in range(n) if mask >> k & 1)
                # the oracle: add the pair, then decide the whole extension
                extension = add_prec(s, x, y) if kind == "prec" else add_weak(s, x, y)
                if prober.witness is None:
                    expected = qsa_witness(extension)
                    assert subset == (expected.subset if expected else frozenset())
                else:
                    assert is_csc_subset(extension, subset)
                    assert predominants(extension, subset) == frozenset()


def test_prober_rejects_non_relational_structures_and_equal_events(transactions):
    looped = new_structure(["a", "b"], [("a", "a")], [("a", "b")])
    with pytest.raises(ValueError, match="not relational"):
        Prober(looped)
    with pytest.raises(ValueError, match="not relational"):
        probe(looped, "a", "b", "weak")
    with pytest.raises(ValueError, match="distinct"):
        Prober(transactions).run(1, 1, "prec")
    with pytest.raises(ValueError, match="unknown label"):
        probe(transactions, "a", "z", "prec")


def test_probe_of_a_non_acyclic_structure_returns_its_own_witness(cycle_structures):
    s = cycle_structures["d"]
    own = qsa_witness(s)
    assert own is not None
    for x, y in [("1", "2"), ("2", "1"), ("1", "3")]:
        for kind in ("prec", "weak"):
            assert probe(s, x, y, kind) == own


def _probe_masks(prober, n):
    return [
        prober.run(i, j, kind)
        for i in range(n)
        for j in range(n)
        if i != j
        for kind in ("prec", "weak")
    ]


def test_grown_prober_matches_a_fresh_prober():
    # the oracle: after every extend, a prober built from scratch on the
    # grown structure answers every probe alike.  Probing every pair marks
    # every memo as in use; ``quiet`` grows alike but is probed only by
    # its extends until the end, so it also drops memos it did not use
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(2, 10)
        density = rng.uniform(0.0, 0.3)
        s = random_qsa_structure(default_labels(n), seed=rng.randrange(1 << 30), density=density)
        prober, quiet = Prober(s), Prober(s)
        for _ in range(rng.randint(1, 40)):
            i, j = rng.sample(range(n), 2)
            kind = rng.choice(("prec", "weak"))
            mask = prober.extend(i, j, kind)
            assert mask == quiet.extend(i, j, kind) == Prober(s).run(i, j, kind)
            if not mask:
                x, y = s.domain.labels[i], s.domain.labels[j]
                s = add_prec(s, x, y) if kind == "prec" else add_weak(s, x, y)
            assert prober.structure() == s
            assert _probe_masks(prober, n) == _probe_masks(Prober(s), n)
        assert quiet.structure() == s
        assert _probe_masks(quiet, n) == _probe_masks(Prober(s), n)


def test_prober_of_a_non_acyclic_structure_never_grows(cycle_structures):
    s = cycle_structures["d"]
    prober = Prober(s)
    own = prober.run(0, 1, "weak")
    assert own and prober.witness is not None
    n = len(s.domain)
    for i in range(n):
        for j in range(n):
            if i != j:
                for kind in ("prec", "weak"):
                    assert prober.extend(i, j, kind) == own
    assert prober.structure() == s


@pytest.mark.parametrize("name", ["acyclic", "cycle"])
def test_an_unknown_probe_kind_raises_before_any_work(cycle_structures, transactions, name):
    # on a structure that is not acyclic every probe used to return its
    # witness before the kind was read; on any structure a kind other
    # than "prec" was taken as "weak"
    s = transactions if name == "acyclic" else cycle_structures["d"]
    prober, labels = Prober(s), s.domain.labels
    for kind in ("bogus", "PREC", "x"):
        with pytest.raises(ValueError, match=f"unknown probe kind: {kind!r}"):
            probe(s, labels[2], labels[0], kind)
        with pytest.raises(ValueError, match="unknown probe kind"):
            prober.run(0, 2, kind)
        with pytest.raises(ValueError, match="unknown probe kind"):
            prober.extend(0, 2, kind)
        with pytest.raises(ValueError, match="unknown probe kind"):
            prober.run_row(1, 0b101, kind)
    assert prober.structure() == s


def test_probe_and_legal_extensions_check_their_labels_before_deciding(cycle_structures):
    looped = new_structure(["a", "b"], [("a", "a")], [("a", "b")])
    with pytest.raises(ValueError, match="unknown label"):
        probe(looped, "a", "z", "prec")
    # the kind and the distinctness come before the decision too
    with pytest.raises(ValueError, match="unknown probe kind: 'bogus'"):
        probe(looped, "a", "b", "bogus")
    with pytest.raises(ValueError, match="a probe needs two distinct events"):
        probe(looped, "a", "a", "prec")
    s = cycle_structures["d"]
    with pytest.raises(ValueError, match="two distinct elements"):
        legal_extensions(s, "1", "1")
    with pytest.raises(ValueError, match="unknown label"):
        legal_extensions(s, "1", "z")
    with pytest.raises(ValueError, match="unknown label"):
        legal_extensions(looped, "z", "a")


@pytest.mark.parametrize("name", ["acyclic", "cycle"])
def test_a_probe_outside_the_domain_raises_before_any_state_is_written(cycle_structures, name):
    # every position is checked before a probe reads or writes state, on
    # acyclic input and on input whose every probe returns its witness
    s = cycle_structures["d"]
    if name == "acyclic":
        s = new_structure("abc", [("a", "b")], [("b", "c")])
    n = len(s.domain)
    prober = Prober(s)
    calls = [
        (prober.run, 0, n), (prober.run, -1, 0), (prober.run, 0, -1), (prober.run, n, 0),
        (prober.extend, 0, n), (prober.extend, -1, 0), (prober.extend, n, 1),
        (prober.run_row, n, 1), (prober.run_row, -1, 1), (prober.run_row, 0, -2),
        (prober.run_row, 0, 1 << n),
    ]
    for call, i, j in calls:
        for kind in ("prec", "weak"):
            with pytest.raises(ValueError, match="positions of the domain"):
                call(i, j, kind)
    grown = prober.structure()
    assert (grown.prec.rows, grown.weak.rows) == (s.prec.rows, s.weak.rows)
    # an unknown kind is still named first, equal positions last
    with pytest.raises(ValueError, match="unknown probe kind"):
        prober.run(0, n, "bogus")
    with pytest.raises(ValueError, match="two distinct events"):
        prober.extend(1, 1, "prec")


def test_gen_spreads_nothing_over_the_full_domain(monkeypatch):
    # the full domain's reach and coreach sets come from the condensation
    # and grow by Italiano's rule, so no spread runs over it; spreading
    # them on demand made up to 2n, and rebuilding them after every
    # accepted pair thousands.  The member sets below it still spread
    n = 48
    full = (1 << n) - 1
    calls = spy(monkeypatch, "_spread", qstrat.qsa, record=lambda rows, members, start: members == full)
    random_qsa_structure(default_labels(n), seed=1, density=0.35)
    assert sum(calls) == 0 < len(calls)


def test_gen_does_no_more_prober_work_than_it_did(monkeypatch):
    # a timing-free guard for changes made only for speed: the numbers
    # are the calls one 48-event generation made when it was last
    # measured, so a change that adds work to the probes fails here
    calls = {
        name: spy(monkeypatch, name, qstrat.qsa.Prober if name == "_dominants_of" else qstrat.qsa)
        for name in ("_memo_spread", "_spread", "_dominants_of", "_untouched")
    }
    random_qsa_structure(default_labels(48), seed=1, density=0.35)
    assert 0 < len(calls["_memo_spread"]) <= 1250
    assert 0 < len(calls["_spread"]) <= 695
    assert 0 < len(calls["_dominants_of"]) <= 824
    assert 0 < len(calls["_untouched"]) <= 151


def test_chain_passes_at_once_where_j_has_no_edge_into_the_member_set(monkeypatch):
    # b reaches a through c in the whole domain, but the member set {a, b}
    # holds no edge from b, so b reaches nothing there and the walk ends
    # without a spread; the set still counts as used, so that extend keeps
    # its memos
    s = new_structure("abc", [], [("b", "c"), ("c", "a")])
    prober = Prober(s)
    calls = spy(monkeypatch, "_memo_spread", qstrat.qsa)
    members = 0b011
    assert prober._chain(0, 1, "prec", members) == 0
    assert calls == []
    assert members in prober._recent


def test_random_qsa_structure_refuses_domains_beyond_the_generation_bound():
    bound = qstrat.qsa.GENERATION_BOUND
    message = f"domain size {bound + 1} exceeds generation bound {bound}"
    with pytest.raises(ValueError, match=message):
        random_qsa_structure(default_labels(bound + 1), seed=1)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 14),
    seed=st.integers(0, 2**30),
    density=st.floats(0.05, 0.8),
    acyclic=st.booleans(),
    data=st.data(),
)
def test_row_walk_matches_the_extension_oracle(n, seed, density, acyclic, data):
    labels = string.ascii_letters[:n]
    if acyclic:
        s = random_qsa_structure(labels, seed=seed, density=density)
    else:
        rng = random.Random(seed)
        slots = [(x, y) for x in labels for y in labels if x != y]
        s = new_structure(
            labels,
            [pair for pair in slots if rng.random() < density],
            [pair for pair in slots if rng.random() < density],
        )
    own = qsa_witness(s)
    prober = Prober(s)
    for i, x in enumerate(labels):
        js = data.draw(st.integers(0, (1 << n) - 1)) & ~(1 << i)
        for kind in ("prec", "weak"):
            found = prober.run_row(i, js, kind)
            for j, y in enumerate(labels):
                if not js >> j & 1:
                    assert j not in found
                    continue
                subset = frozenset(labels[k] for k in range(n) if found.get(j, 0) >> k & 1)
                if own is not None:
                    assert subset == own.subset
                    continue
                # the oracle: add the pair, then decide the whole extension
                extension = add_prec(s, x, y) if kind == "prec" else add_weak(s, x, y)
                expected = qsa_witness(extension)
                assert subset == (expected.subset if expected else frozenset())
            with pytest.raises(ValueError, match="distinct"):
                prober.run_row(i, js | 1 << i, kind)
    with pytest.raises(ValueError, match="positions of the domain"):
        prober.run_row(0, 1 << n, "weak")


def _certified(s, i, kind):
    """The candidates of a full row i outside i's own component that a
    pass certificate settles (qsa module docstring), read off the
    definitions: comp = reach(j) & coreach(i); for a weak pair, i or j
    untouched inside comp; for a precedence pair, no edge from j into R,
    the events that reach i through events touched inside the union of
    comp over those candidates."""
    n, spread = len(s.domain), qstrat.qsa._spread
    full = (1 << n) - 1
    rows, touch = s._combined, s.prec._touch
    cols = tuple(p | w for p, w in zip(s.prec.column_masks, s.weak.column_masks))
    back, ahead = spread(cols, full, 1 << i), spread(rows, full, 1 << i)
    others = [j for j in range(n) if back >> j & 1 and not ahead >> j & 1]
    comps = {j: spread(rows, full, 1 << j) & back for j in others}
    union = 0
    for comp in comps.values():
        union |= comp
    inside = sum(1 << v for v in range(n) if union >> v & 1 and touch[v] & union)
    into_i = spread(cols, inside | 1 << i, 1 << i)  # R
    settled = 0
    for j, comp in comps.items():
        if kind == "weak":
            settled |= (not (touch[i] & comp and touch[j] & comp)) << j
        else:
            settled |= (not rows[j] & into_i) << j
    return settled


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 14), seed=st.integers(0, 2**30), keep=st.floats(0.0, 1.0))
def test_row_walk_matches_the_extension_oracle_on_specifications(n, seed, keep):
    # specifications as the close workload draws them: a random subset of
    # the pairs of one execution's maximal structure.  Their components
    # are mostly single events, so most candidates of a row lie outside
    # i's own component, where the pass certificates act; the structures
    # of the test above have few such candidates
    labels = string.ascii_letters[:n]
    m = poset_to_structure(seq_to_order(random_qs_seq(labels, seed)))
    rng = random.Random(seed)
    s = new_structure(
        labels,
        [pair for pair in m.prec.pairs() if rng.random() < keep],
        [pair for pair in m.weak.pairs() if rng.random() < keep],
    )
    prober = Prober(s)
    for i, x in enumerate(labels):
        for kind in ("prec", "weak"):
            found = prober.run_row(i, ((1 << n) - 1) & ~(1 << i), kind)
            settled = _certified(s, i, kind)
            for j, y in enumerate(labels):
                if j == i:
                    continue
                extension = add_prec(s, x, y) if kind == "prec" else add_weak(s, x, y)
                expected = qsa_witness(extension)
                subset = frozenset(labels[k] for k in range(n) if found.get(j, 0) >> k & 1)
                assert subset == (expected.subset if expected else frozenset())
                if settled >> j & 1:
                    assert expected is None


def _assert_memos_exact(prober):
    rows, cols = tuple(prober._rows), tuple(prober._cols)
    full = (1 << len(rows)) - 1
    assert prober._ahead == [qstrat.qsa._spread(rows, full, 1 << v) for v in range(len(rows))]
    assert prober._back == [qstrat.qsa._spread(cols, full, 1 << v) for v in range(len(cols))]
    for memo, edges in ((prober._reach, rows), (prober._coreach, cols)):
        for members, known in memo.items():
            for v, spread in known.items():
                assert spread == qstrat.qsa._spread(edges, members, 1 << v)
    touch = tuple(prober._touch)
    for comp, dominants in prober._dominants.items():
        assert dominants == qstrat.qsa._untouched(touch, comp)


def test_extend_keeps_every_memo_exact_between_row_walks():
    # a row walk spreads the coreach set of i before any reach set, so a
    # member set can have coreach memos and no reach memo; extend must
    # grow those as well.  Besides the row walks, each round fills one
    # coreach set of a random member set alone, as a walk in use since
    # the last new edge may.  Probing every pair would fill the reach
    # memos too, so that waits until the end
    rng = random.Random(12)
    for _ in range(80):
        n = rng.randint(2, 10)
        density = rng.uniform(0.0, 0.6)
        s = random_qsa_structure(default_labels(n), seed=rng.randrange(1 << 30), density=density)
        prober = Prober(s)
        for _ in range(rng.randint(1, 30)):
            for _ in range(rng.randint(0, 4)):
                i = rng.randrange(n)
                kind = rng.choice(("prec", "weak"))
                prober.run_row(i, rng.randrange(1 << n) & ~(1 << i), kind)
            members = rng.randrange(1, 1 << n)
            start = rng.choice([v for v in range(n) if members >> v & 1])
            qstrat.qsa._memo_spread(prober._coreach, prober._cols, members, start)
            prober._recent.add(members)
            i, j = rng.sample(range(n), 2)
            kind = rng.choice(("prec", "weak"))
            if not prober.extend(i, j, kind):
                x, y = s.domain.labels[i], s.domain.labels[j]
                s = add_prec(s, x, y) if kind == "prec" else add_weak(s, x, y)
            assert prober.structure() == s
            _assert_memos_exact(prober)
        assert _probe_masks(prober, n) == _probe_masks(Prober(s), n)


@pytest.mark.parametrize("n, density, seed", [(8, 0.35, 1), (16, 0.1, 2), (16, 0.35, 3), (32, 0.2, 4)])
def test_closure_facts_hold_the_law_closure_of_what_they_learned(monkeypatch, n, density, seed):
    # after every learn, P is the kernel's precedence and P u P=.(W.P=)
    # its weak relation, on the structure of the pairs learned so far;
    # implies answers membership of that law closure
    labels = default_labels(n)
    learned = {"prec": [], "weak": []}
    learn = qstrat.qsa._ClosureFacts.learn

    def checked(facts, i, j, kind):
        learn(facts, i, j, kind)
        learned[kind].append((labels[i], labels[j]))
        law = law_closure(new_structure(labels, learned["prec"], learned["weak"]))
        assert facts.prec == list(law.prec.rows)
        weak_then_prec = BinRel(law.domain, tuple(facts.weak_into)).column_masks  # W.P= by rows
        weak = []
        for a, ahead in enumerate(facts.prec):
            row = ahead | weak_then_prec[a]
            for c in range(n):
                if ahead >> c & 1:
                    row |= weak_then_prec[c]
            weak.append(row)
        assert weak == list(law.weak.rows)
        if n <= 16:
            for x in range(n):
                for y in range(n):
                    if x != y:
                        assert facts.implies(x, y, "prec") == law.prec.holds_idx(x, y)
                        assert facts.implies(x, y, "weak") == law.weak.holds_idx(x, y)

    monkeypatch.setattr(qstrat.qsa._ClosureFacts, "learn", checked)
    random_qsa_structure(labels, seed=seed, density=density)
    assert learned["prec"] and learned["weak"]


def _textbook_scc(rows, members):
    """Tarjan's recursive pass over the members, roots and successors in
    increasing position: the reference for the bitmask ``_scc_masks``."""
    index, low, stack, out = {}, {}, [], []

    def connect(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        for w in range(len(rows)):
            if not (rows[v] & members) >> w & 1:
                continue
            if w not in index:
                connect(w)
                low[v] = min(low[v], low[w])
            elif w in stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = 0
            while not comp >> v & 1:
                comp |= 1 << stack.pop()
            out.append(comp)

    for v in range(len(rows)):
        if members >> v & 1 and v not in index:
            connect(v)
    return out


def _kernel_graphs(rng):
    """The fixtures' combined rows, then 1,500 random graphs of up to 14
    events, self-loops included."""
    graphs = [read_input(path).structure()._combined for path in sorted(FIXTURES.glob("*.json"))]
    assert len(graphs) >= 7
    for _ in range(1500):
        n = rng.randint(0, 14)
        density = rng.choice((0.05, 0.15, 0.3, 0.6))
        graphs.append(tuple(sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)))
    return graphs


def test_scc_masks_match_the_textbook_pass():
    rng = random.Random(4242)
    for rows in _kernel_graphs(rng):
        full = (1 << len(rows)) - 1
        for members in (full, *(rng.randrange(full + 1) for _ in range(4))):
            assert qstrat.qsa._scc_masks(rows, members) == _textbook_scc(rows, members)


def _decision_steps(s):
    """The ``int.bit_length`` calls that a profile hook sees while s's
    acyclicity decision runs (``relcore._peel``): every bit walk of a
    pass and of the pre-dominant filter makes one per step, so they
    count the decision's Python-level steps without a clock.  The
    decision's levels are all that ``one_saturation`` reads, so they
    bound its steps too, but for the decode."""
    return bit_length_calls(lambda: qstrat.relcore._peel(s))


def test_the_decision_stays_quadratic_in_the_depth_of_nested_input():
    # nested k peels about k levels, each a pass over nearly every event
    # left: one step per event makes doubling k about quadruple the
    # steps (7,318 at k = 60, 29,038 at 120); Tarjan's low links, one
    # step per on-stack hit, grow them eightfold (217,948 and 1,735,498)
    small, large = (_decision_steps(nested_structure(k)) for k in (60, 120))
    assert large <= 5 * small


def test_reach_tables_match_a_spread_from_each_event():
    spread = qstrat.qsa._spread
    for rows in _kernel_graphs(random.Random(4343)):
        n = len(rows)
        full = (1 << n) - 1
        cols = tuple(sum(1 << i for i in range(n) if rows[i] >> j & 1) for j in range(n))
        comps = tuple(qstrat.qsa._scc_masks(rows, full))
        ahead, back = qstrat.qsa._reach_tables(list(rows), list(cols), comps)
        assert ahead == [spread(rows, full, 1 << v) for v in range(n)]
        assert back == [spread(cols, full, 1 << v) for v in range(n)]


def test_connect_matches_the_reach_tables_of_the_grown_graph():
    # Italiano's rule against a recomputation from the new rows; both
    # gain masks are taken before either table is written
    rng = random.Random(2813)
    grown = 0
    for _ in range(400):
        n = rng.randint(1, 40)
        density = rng.choice((0.01, 0.03, 0.08, 0.2))
        rows = [sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)]
        full = (1 << n) - 1
        cols = [sum(1 << i for i in range(n) if rows[i] >> j & 1) for j in range(n)]
        comps = tuple(qstrat.qsa._scc_masks(tuple(rows), full))
        ahead, back = qstrat.qsa._reach_tables(rows, cols, comps)
        edges = [(i, j) for i in range(n) for j in range(n) if not ahead[i] >> j & 1]
        if not edges:
            continue
        i, j = rng.choice(edges)
        rows[i] |= 1 << j
        cols[j] |= 1 << i
        qstrat.qsa._connect(ahead, back, i, j)
        comps = tuple(qstrat.qsa._scc_masks(tuple(rows), full))
        assert (ahead, back) == qstrat.qsa._reach_tables(rows, cols, comps)
        grown += 1
    assert grown > 300


def test_a_prober_shares_the_full_domain_pass_of_its_decision(monkeypatch):
    # the reach tables, the components and the one saturation are read
    # off the components the decision found over the whole domain, not
    # from a second pass over it
    inputs = [random_qsa_structure(default_labels(24), seed=7, density=0.3), nested_structure(20)]
    passes = spy(
        monkeypatch, "_scc_masks", qstrat.relcore, qstrat.qsa, record=lambda rows, members: members == full
    )
    for s in inputs:
        full = (1 << len(s.domain)) - 1
        passes.clear()
        prober = Prober(s)
        assert prober.witness is None and passes.count(True) == 1
        assert csc_components(s) and passes.count(True) == 1
        assert one_saturation(s) and passes.count(True) == 1


def test_written_out_shuffle_draws_what_the_stdlib_shuffle_does():
    # per seed: lengths 0-40, both sides of each power of two up to 4,096
    # (the bound picks the bits drawn), gen's largest benchmark size 4,512
    # (n = 48), 4,600 and one at random; the generator's state must end
    # where the stdlib's does
    for seed in range(50):
        rng = random.Random(seed)
        lengths = [*range(41), *(m + d for k in range(6, 13) for m in [1 << k] for d in (-1, 0, 1))]
        lengths += [4512, 4600, rng.randrange(4601)]
        for length in lengths:
            expected, written = list(range(length)), list(range(length))
            stdlib, ours = random.Random(seed * 7919 + length), random.Random(seed * 7919 + length)
            stdlib.shuffle(expected)
            qstrat.qsa._shuffle(ours, written)
            assert written == expected
            assert ours.getstate() == stdlib.getstate()
