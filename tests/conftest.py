"""Shared fixtures: the worked examples used across the suite, random
structure helpers, the reference walker of the stratum-tree formation
rules, and label-level references for the stratum-tree codec and for
one saturation.

The suite counts work in two ways only: ``spy`` records the calls made
through a patched name, and ``bit_length_calls`` counts the bit-walk
steps that a profile hook sees."""

from __future__ import annotations

import random
import sys
from functools import cache
from typing import Iterable

import pytest

import qstrat.relcore
from qstrat import (
    BinRel,
    Domain,
    QsOrder,
    QsSeq,
    QssStratum,
    Structure,
    csc_components,
    is_qso_stratum,
    leaf,
    new_poset,
    new_structure,
    node,
    poset_to_structure,
    predominants,
    project,
    qso_projection,
    qso_to_qsm,
    random_qs_seq,
    seq_to_order,
    stratum_base,
)
from qstrat.qsseq import ENUMERATION_BOUND, order_trees, stratum_trees, tree_order
from qstrat.relcore import _aligner, _bits

LABELS = "abcdefgh"


@pytest.fixture
def decisions(monkeypatch) -> list[Structure]:
    """The structures whose acyclicity is decided, in order: each call of
    the peel that ``Structure._decision`` caches (``relcore._peel``) is
    one decision, however often its verdict or its levels are read
    afterwards, ``one_saturation`` reading the levels too."""
    return spy(monkeypatch, "_peel", qstrat.relcore, record=lambda s: s)


@pytest.fixture
def transactions() -> Structure:
    """Four transactions: a before c, b before d, a not later than b,
    c not later than d."""
    return new_structure(
        ["a", "b", "c", "d"], [("a", "c"), ("b", "d")], [("a", "b"), ("c", "d")]
    )


@pytest.fixture
def maximal_ext() -> Structure:
    """One maximal extension of transactions: the embedding of nested_poset."""
    return new_structure(
        ["a", "b", "c", "d"],
        [("a", "c"), ("a", "d"), ("b", "d"), ("c", "d")],
        [
            ("a", "b"),
            ("b", "a"),
            ("a", "c"),
            ("a", "d"),
            ("b", "c"),
            ("c", "b"),
            ("b", "d"),
            ("c", "d"),
        ],
    )


@pytest.fixture
def transactions_closure() -> Structure:
    """The closure of transactions."""
    return new_structure(
        ["a", "b", "c", "d"],
        [("a", "c"), ("a", "d"), ("b", "d")],
        [("a", "b"), ("a", "c"), ("a", "d"), ("b", "d"), ("c", "d")],
    )


@pytest.fixture
def nested_poset():
    """Quasi-stratified but not stratified: b spans a and c, then d."""
    return new_poset(["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("c", "d"), ("b", "d")])


@pytest.fixture
def interval_only_poset():
    """Interval but not quasi-stratified."""
    return new_poset(["a", "b", "c", "d"], [("a", "c"), ("b", "d"), ("a", "d")])


@pytest.fixture
def hierarchy_posets():
    """The four-order hierarchy: total, stratified, interval, partial."""
    return {
        "a": new_poset(
            ["1", "2", "3", "4"],
            [("1", "2"), ("2", "3"), ("3", "4"), ("1", "3"), ("2", "4"), ("1", "4")],
        ),
        "b": new_poset(
            ["1", "2", "3", "4"],
            [("2", "3"), ("3", "4"), ("1", "3"), ("2", "4"), ("1", "4")],
        ),
        "c": new_poset(["1", "2", "3", "4"], [("1", "3"), ("2", "4"), ("1", "4")]),
        "d": new_poset(["1", "2", "3", "4"], [("1", "3"), ("2", "4")]),
    }


@pytest.fixture
def cycle_structures():
    """The forbidden-cycle hierarchy on four events."""
    return {
        "a": new_structure(
            ["1", "2", "3", "4"], [], [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")]
        ),
        "b": new_structure(
            ["1", "2", "3", "4"], [("1", "2")], [("2", "3"), ("3", "4"), ("4", "1")]
        ),
        "c": new_structure(
            ["1", "2", "3", "4"], [("1", "2"), ("2", "3")], [("3", "4"), ("4", "1")]
        ),
        "d": new_structure(
            ["1", "2", "3", "4"], [("1", "2"), ("3", "4")], [("2", "3"), ("4", "1")]
        ),
    }


def random_structure(rng: random.Random, n: int, density: float | None = None) -> Structure:
    """Random relational structure (no acyclicity guarantee)."""
    labels = LABELS[:n]
    if density is None:
        density = rng.uniform(0.05, 0.5)
    slots = [(x, y) for x in labels for y in labels if x != y]
    prec = [p for p in slots if rng.random() < density]
    weak = [p for p in slots if rng.random() < density]
    return new_structure(labels, prec, weak)


def spec_structure(labels, seed: int, keep: float) -> Structure:
    """A specification as the close workload draws it: a random subset
    of the pairs of one execution's maximal structure, each kept with
    probability keep, prec pairs first.  One draw per pair, taken in the
    order ``BinRel.pairs`` yields the pairs: each row of m in turn, its
    positions lowest first.  The kept rows are built as masks over m's
    domain and moved to the labels' order."""
    m = poset_to_structure(seq_to_order(random_qs_seq(labels, seed)))
    draw = random.Random(seed).random
    domain = Domain.of(labels)
    align = _aligner(m.domain, domain)

    def kept(rel: BinRel) -> BinRel:
        return BinRel(domain, align(tuple(sum(1 << j for j in _bits(row) if draw() < keep) for row in rel.rows)))

    return Structure(kept(m.prec), kept(m.weak))


def dense_structure(labels, seed: int = 1) -> Structure:
    """The "dense n" input: one execution's maximal structure with each
    pair kept with probability 1/2, drawn row by row, a row's prec pairs
    before its weak pairs."""
    m = poset_to_structure(seq_to_order(random_qs_seq(labels, seed)))
    rng = random.Random(seed)
    prec, weak = [], []
    for p, w in zip(m.prec.rows, m.weak.rows):
        for kept, row in ((prec, p), (weak, w)):
            kept.append(sum(1 << j for j in range(len(labels)) if row >> j & 1 and rng.random() < 0.5))
    return Structure(BinRel(m.domain, tuple(prec)), BinRel(m.domain, tuple(weak)))


def forward_structure(labels, seed: int, density: float) -> Structure:
    """The "forward n, d" input: each pair running forward in one random
    order of the labels is a precedence pair with probability density,
    and a weak pair with the same probability, drawn independently.
    Every cycle of the combined relation would have to run backward
    somewhere, so there is none and the structure is acyclic."""
    rng = random.Random(seed)
    n = len(labels)
    order = rng.sample(range(n), n)
    prec, weak = [0] * n, [0] * n
    for at, x in enumerate(order):
        for y in order[at + 1 :]:
            if rng.random() < density:
                prec[x] |= 1 << y
            if rng.random() < density:
                weak[x] |= 1 << y
    domain = Domain.of(labels)
    return Structure(BinRel(domain, tuple(prec)), BinRel(domain, tuple(weak)))


def nested_structure(k: int) -> Structure:
    """The "nested k" input, 2k - 1 events: the maximal structure of a
    one-stratum order nested k levels deep, each level a base a{i} over
    the sequence (level below, leaf b{i}).  Built innermost first,
    without recursion.  Its acyclicity decision peels one level per
    base, each over a component of nearly every event left."""
    st = leaf({"b0"})
    for i in range(1, k):
        st = node({f"a{i}"}, [st, leaf({f"b{i}"})])
    return qso_to_qsm(seq_to_order(QsSeq((st,))))


def mutual_weak_path(n: int) -> Structure:
    """A path of n events, each mutually weak with the next and with no
    precedence pair: one component in which every event is a
    pre-dominant."""
    labels = [f"e{i:04d}" for i in range(n)]
    pairs = list(zip(labels, labels[1:]))
    return new_structure(labels, weak=pairs + [(y, x) for x, y in pairs])


def bit_length_calls(run) -> int:
    """The ``int.bit_length`` calls that a profile hook sees while run()
    runs.  Every bit walk of a pass, of the pre-dominant filter and of
    the decode makes one per step, so they count Python-level steps
    without a clock."""
    steps = 0

    def hook(frame, event, arg):
        nonlocal steps
        if event == "c_call" and arg.__name__ == "bit_length":
            steps += 1

    outer = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        if outer is None or callable(outer):
            sys.setprofile(outer)
        else:  # a C-level profiler, such as cProfile's, puts itself back
            outer.enable()
    return steps


def spy(monkeypatch, name: str, *owners, record=None) -> list:
    """The calls made through ``name`` on each owner, a module or a
    class, in call order: one list shared by every owner, each call
    appending ``record`` of its arguments (by default the tuple of its
    positional arguments) before it runs that owner's own original and
    returns what the original returns.  monkeypatch puts the originals
    back, a classmethod's descriptor too."""
    calls = []

    def through(original):
        def call(*args, **kwargs):
            calls.append(args if record is None else record(*args, **kwargs))
            return original(*args, **kwargs)

        return call

    for owner in owners:
        monkeypatch.setattr(owner, name, through(getattr(owner, name)))
    return calls


def all_relational_structures(n: int):
    """Every relational structure on the first n labels."""
    labels = LABELS[:n]
    slots = [(x, y) for x in labels for y in labels if x != y]
    k = len(slots)
    for pm in range(1 << k):
        prec = [slots[i] for i in range(k) if pm >> i & 1]
        for wm in range(1 << k):
            weak = [slots[i] for i in range(k) if wm >> i & 1]
            yield new_structure(labels, prec, weak)


def reference_qs_seqs(labels: Iterable[str]) -> list[QsSeq]:
    """Every stratum-tree sequence over the labels, by the formation
    rules over label tuples: ordered partitions of the label set into
    stratum domains, and for each stratum domain either a leaf or every
    split into a base plus a body of at least two strata.  The
    reference that ``qsseq.stratum_trees`` and its views are checked
    against; it shares no code with them."""
    label_tuple = tuple(sorted(labels))

    @cache
    def seqs_over(subset: tuple[str, ...]) -> tuple[QsSeq, ...]:
        out: list[QsSeq] = []
        for block, rest in _subsets(subset):
            heads = strata_over(block)
            if not rest:
                out.extend(QsSeq((head,)) for head in heads)
            else:
                tails = seqs_over(rest)
                out.extend(QsSeq((head,) + tail.strata) for head in heads for tail in tails)
        return tuple(out)

    @cache
    def strata_over(subset: tuple[str, ...]) -> tuple[QssStratum, ...]:
        out: list[QssStratum] = [QssStratum(frozenset(subset))]
        for base, rest in _subsets(subset):
            if len(rest) < 2:
                continue
            for body in seqs_over(rest):
                if len(body.strata) >= 2:
                    out.append(QssStratum(frozenset(base), body.strata))
        return tuple(out)

    return list(seqs_over(label_tuple)) if label_tuple else []


def _subsets(labels: tuple[str, ...]):
    n = len(labels)
    for mask in range(1, 1 << n):
        inside = tuple(labels[i] for i in range(n) if mask >> i & 1)
        outside = tuple(labels[i] for i in range(n) if not mask >> i & 1)
        yield inside, outside


def reference_qsm_structures(
    labels: tuple[str, ...], seqs: Iterable[QsSeq] | None = None
) -> tuple[Structure, ...]:
    """Every maximal structure over the labels, in their declaration
    order, decoded from the reference sequences (``seqs``, when given,
    must be ``reference_qs_seqs(labels)``) by the two constructions over
    position masks, level by level: the events of a stratum precede
    every event of the later strata of its sequence, and weak is the
    embedding, each event weak before every other event that does not
    precede it.  No library decoder is called: only ``Domain``,
    ``BinRel`` and ``Structure`` are built."""
    domain = Domain.of(labels)
    n = len(domain)
    bit = {x: 1 << i for i, x in enumerate(domain.labels)}
    if seqs is None:
        seqs = reference_qs_seqs(labels)

    @cache
    def events(st: QssStratum) -> int:
        return sum(map(bit.__getitem__, st.base)) + sum(map(events, st.children))

    def structure(q: QsSeq) -> Structure:
        after, before = [0] * n, [0] * n
        sequences = [q.strata]
        while sequences:
            strata = sequences.pop()
            masks = list(map(events, strata))
            earlier, later = 0, sum(masks)
            for st, mask in zip(strata, masks):
                later -= mask
                for i in range(n):
                    if mask >> i & 1:
                        after[i] |= later
                        before[i] |= earlier
                earlier += mask
                sequences.append(st.children)
        full = (1 << n) - 1
        weak = [full ^ before[i] ^ 1 << i for i in range(n)]
        return Structure(BinRel(domain, tuple(after)), BinRel(domain, tuple(weak)))

    return tuple(map(structure, seqs))


LIBRARY_DECODERS = ("tree_order", "_fold", "seq_to_order")


@pytest.fixture(scope="session")
def six_event_reference():
    """Six labels declared out of order, their reference sequences, the
    maximal structures those decode to, and the number of calls that
    building them made to each of ``LIBRARY_DECODERS``, spied through
    every module that binds it, this one included; built once per
    session."""
    labels = ("f", "c", "a", "e", "b", "d")
    modules = [module for name, module in sys.modules.items() if name.split(".")[0] == "qstrat"]
    modules.append(sys.modules[__name__])
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = [
            spy(monkeypatch, name, *[module for module in modules if hasattr(module, name)])
            for name in LIBRARY_DECODERS
        ]
        seqs = reference_qs_seqs(labels)
        structures = reference_qsm_structures(labels, seqs)
    return labels, seqs, structures, dict(zip(LIBRARY_DECODERS, map(len, calls)))


@pytest.fixture(scope="session")
def walked_sequences():
    """Every unconstrained stratum-tree sequence of up to
    ``ENUMERATION_BOUND`` events, each with its one walk:
    ``(n, trees, qsseq.tree_order(n, trees))``, enumerated and walked
    once per session for the tests that check the walk."""
    return [
        (n, trees, tree_order(n, trees))
        for n in range(ENUMERATION_BOUND + 1)
        for trees in stratum_trees((0,) * n, (0,) * n)
    ]


def reference_factorize_strata(q: QsOrder) -> list[QsOrder]:
    """The stratum factorization by a label-level cut scan: cut a
    predecessor-count sort of the events after every prefix whose
    members precede all the rest, and project the order to each segment
    through the validating ``qso_projection``."""
    n = len(q)
    if n == 0:
        raise ValueError("cannot factorize the empty order")
    cols = q.prec.column_masks
    order = sorted(range(n), key=lambda i: (cols[i].bit_count(), i))
    full = (1 << n) - 1
    segments: list[list[int]] = []
    segment: list[int] = []
    prefix = 0
    for i in order:
        segment.append(i)
        prefix |= 1 << i
        rest = full & ~prefix
        if rest == 0 or all(rest & ~q.prec.rows[j] == 0 for j in segment):
            segments.append(segment)
            segment = []
    factors = [qso_projection(q, [q.domain.labels[i] for i in seg]) for seg in segments]
    if not all(map(is_qso_stratum, factors)):
        raise ValueError("factor is not a stratum; input is not quasi-stratified")
    return factors


def reference_order_to_seq(q: QsOrder) -> QsSeq:
    """The stratum-tree encoding over labels: each stratum of the
    reference factorization has its ``stratum_base`` as base and the
    encoding of its projection to the other events as body."""

    def stratum(f: QsOrder) -> QssStratum:
        base = stratum_base(f)
        rest = f.domain.label_set - base
        if not rest:
            return QssStratum(base)
        return QssStratum(base, reference_order_to_seq(qso_projection(f, rest)).strata)

    return QsSeq(tuple(map(stratum, reference_factorize_strata(q))))


def reference_one_saturation(s: Structure) -> Structure:
    """One saturation of an acyclic structure by recursion over label
    sets: a strongly connected domain makes all its pre-dominants
    mutually weak with every other event and saturates the rest;
    otherwise each component of the condensation, read from the last
    emitted to the first, precedes the components read after it, and
    each is saturated on its own."""

    def pairs(s: Structure) -> tuple[set, set]:
        labels = s.domain.labels
        if len(labels) <= 1:
            return set(s.prec.label_pairs), set(s.weak.label_pairs)
        components = csc_components(s)
        if len(components) == 1:
            base = predominants(s, labels)
            rest = [x for x in labels if x not in base]
            prec, weak = pairs(project(s, rest))
            weak.update((b, x) for b in base for x in labels if x != b)
            weak.update((x, b) for b in base for x in labels if x != b)
            return prec, weak
        prec, weak, later = set(), set(), []
        # emitted first is read last, so it follows every other component
        for component in components:
            head = [x for x in labels if x in component]
            prec_head, weak_head = pairs(project(s, head))
            cross = {(x, y) for x in head for y in later}
            prec.update(prec_head, cross)
            weak.update(weak_head, cross)
            later += head
        return prec, weak

    prec, weak = pairs(s)
    return new_structure(s.domain.labels, prec, weak)


def deep_chain_trees(depth: int) -> tuple[int, tuple]:
    """(event count, trees) of a chain of nodes nested depth levels deep,
    over positions: level k has base {2k} over the sequence (level k+1,
    leaf {2k+1}), and the innermost level is the leaf {2·depth}.  Built
    innermost first, without recursion."""
    tree: tuple = (1 << 2 * depth, 1 << 2 * depth, ())
    for k in reversed(range(depth)):
        leaf = (1 << 2 * k + 1, 1 << 2 * k + 1, ())
        tree = (tree[0] | leaf[0] | 1 << 2 * k, 1 << 2 * k, (tree, leaf))
    return 2 * depth + 1, (tree,)


def random_trees(n: int, seed: int) -> tuple:
    """The position trees of a random sequence over n events,
    deterministic per seed: ``random_qs_seq`` decoded and encoded back,
    over the positions its decode declares."""
    order = seq_to_order(random_qs_seq([f"e{i}" for i in range(n)], seed=seed))
    return order_trees(order.prec)


def deep_chain_text(depth: int, names) -> str:
    """``format_seq`` of ``deep_chain_trees(depth)``, positions read as
    indices into names."""
    text = names[2 * depth]
    for k in reversed(range(depth)):
        text = f"({names[2 * k]} | {text} {names[2 * k + 1]})"
    return text


def flat_trees(trees: tuple) -> list[tuple[int, int, int]]:
    """(events, base, child count) of each tree in preorder, listed
    without recursion, so deep trees compare without it too."""
    out, stack = [], list(reversed(trees))
    while stack:
        events, base, children = stack.pop()
        out.append((events, base, len(children)))
        stack.extend(reversed(children))
    return out
