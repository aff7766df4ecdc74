"""Stratum trees: the canonical encoding of quasi-stratified orders.

A sequence is an ordered forest of set-labelled trees.  Each tree is a
stratum: its root holds the base events (simultaneous with everything
below them), and an internal node's children form an ordered sequence
of at least two sub-strata executed sequentially during the lifetime of
the base.  All base sets across a sequence are disjoint and non-empty.

Inside the library a tree is one form: strata ``(events, base,
children)`` over position masks.  ``stratum_trees`` walks the formation
rules under a structure's tables and yields each tree once; the
enumerations of sequences, orders and saturations are views of that
walk, the unconstrained ones under the empty structure's all-zero
tables.  ``tree_order``, the one tree decoder, gives a tree's order
and ``order_trees`` encodes its rows back; they are mutually inverse, so
distinct trees are distinct orders.  The ``QsSeq`` codecs and the
factorization go through this pair, and ``seq_converter`` is the one
reading of a tree as a labelled ``QsSeq``.  Every tree is built by one
fold, ``_fold``, innermost first and without recursion: the decoder
``seq_to_order``, the converter, the JSON codecs, the encoder
``order_trees`` and ``saturate.one_saturation``.  Every labelled tree,
a ``QssStratum`` or its JSON form, is walked by one lazy preorder,
``_preorder``, also without recursion: the formation-rule check
``seq_violation``, the domains, equality and the JSON check of
``seq_from_json``.  One renderer writes the one-line text, of a
``QsSeq`` (``format_seq``) or straight from position trees and the
shown labels (``tree_texts``, the text of each of many trees in one
fold).

``tree_order`` walks a tree once for all that ``saturate`` prints of
its order: the rows, the weak rows of the order's embedding and an
interval realization, read off the tree's leaves.  Number the leaves
in preorder and give each base the span [first leaf, last leaf] of its
stratum.  The spans realize the order.  Strata are nested or disjoint.
If x precedes y, their strata lie inside strata A before B of one
sequence, and every leaf of A comes before every leaf of B, so x's
span ends before y's begins.  Otherwise x and y share a base, or one's
stratum lies inside the other's, and the spans overlap.  The spans are
also the endpoints of ``orders._realization``: an event's end is the
rank of its successor set among the distinct ones, largest first, and
its begin the number of those sets that hold it (its depth in their
chain).  The successors of the events whose span ends at leaf j are
the events of the strata whose leaves all lie after j, a set that
shrinks strictly with j (it loses the base that leaf j + 1 begins), and
every leaf ends its own base's span; so the ends rank the distinct
successor sets, largest first.  An event whose span begins at leaf j
lies in the successor sets of exactly the events whose spans end
before j, at leaves 0 to j - 1: j distinct sets hold it.

``order_trees`` reads the rows alone, and the same chain: it groups
the events by their ``_realization`` intervals, and decides by whether
those intervals nest.  An interval order is quasi-stratified exactly
when no two of its intervals cross, one beginning inside the other and
ending after it.

*Quasi-stratified, so nested.*  On a quasi-stratified order the
intervals are the leaf spans, so the events of one span are one base.
Distinct strata have distinct spans: a node's span strictly holds each
child's, since a body has at least two strata, each with a leaf, and
the spans of a sequence's strata are disjoint.  So the spans form a
laminar family, any two nested or disjoint, and listed by begin,
longest first, they come in preorder, each one after the stratum that
holds it; its parent is the innermost listed span that has not ended
before it begins.  A relation with no realization is not an interval
order, so not quasi-stratified, since the spans realize every
quasi-stratified order.

*Nested, so the forest decodes to the rows.*  Nest the distinct
intervals of an interval order so, each interval's events its base.
Siblings are disjoint and in begin order, since each is closed before
the next one opens, and each subtree's intervals lie inside its
root's.  If x and y lie under siblings A before B, x's interval lies
in A's, which ends before B's begins, and y's in B's.  Otherwise
either their intervals overlap, as they share a base or one's stratum
holds the other's, or y lies under an earlier sibling, so y's interval
ends before x's begins.  So x is before y in the forest exactly when
x's interval ends before y's begins, the relation that
``_realization`` realizes: the rows.

*Nested, so every internal node has at least two children.*  On the
chain of m distinct successor sets every point 0 to m - 1 is some
event's end, since the ends rank the distinct rows, and some event's
begin: the events of begin k are S_(k-1) minus S_k, non-empty for
0 < k < m as the chain shrinks strictly, and the minimal events have
begin 0.  Let a node's interval [b, e] have a single child [b', e'],
strictly inside it.  If e' < e, the event that begins at e' + 1 lies
under the node, since its interval begins inside [b, e], after b, and
crosses none, so inside [b', e'], where it cannot begin; if b < b',
the event that ends at b' - 1 is ruled out alike.  So a node with one
child would share that child's interval, and with it its base.

So nested intervals give a valid forest whose order is the relation,
and crossing intervals refuse it: nesting decides membership, and a
passing order is never decoded.

``stratum_trees`` reads two subset tables built per call.
``leaving[m]``, for every subset m of the positions, is the union of
``combined[y]`` over the members y of m, and ``touching[m]`` the
union of ``touch[y]``.  Each is filled in 2^n steps, one position at a
time, as ``leaving[m - 2^y] | combined[y]`` for m's highest member y
(Knuth, TAOCP 4A §7.1.3).  A combined pair from an event left over enters the
block exactly when ``leaving[rest] & block`` is non-zero, and, touch
being symmetric, the members of a stratum that touch none of its
members are ``events & ~touching[events]`` (``relcore._untouched``);
so the tables answer the tests that scans over the members would, and
the walk yields the same trees in the same order.  Every walk builds
both tables, of 2^n entries each, 64 within ``ENUMERATION_BOUND``; a
walk allowed past that bound (ROADMAP item 1) must cap n where the
tables are built, or test blocks and bases without them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter, methodcaller
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

from .orders import _realization
from .relcore import BinRel, Domain, QsOrder, _bits, show_label

S = TypeVar("S")
R = TypeVar("R")


@dataclass(frozen=True, eq=False)
class QssStratum:
    """One tree: a base set plus zero or at least two child strata.

    Two trees are equal when their bases are equal and their children
    are, pairwise.  The hash is computed once, at construction, from the
    base and the children's hashes, which exist already; equality walks
    both trees in step through ``_preorder``; the repr is the
    ``format_seq`` line.
    """

    base: frozenset[str]
    children: tuple[QssStratum, ...] = ()
    _hash: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.base, *(c._hash for c in self.children))))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"<QssStratum {format_seq(QsSeq((self,)))}>"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QssStratum):
            return NotImplemented
        # preorder and child counts fix an ordered tree, so the two walks
        # stay in step exactly while the trees agree
        for a, b in zip(_preorder((self,), _CHILDREN), _preorder((other,), _CHILDREN)):
            if a._hash != b._hash or a.base != b.base or len(a.children) != len(b.children):
                return False
        return True

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class QsSeq:
    """Ordered, domain-disjoint sequence of strata."""

    strata: tuple[QssStratum, ...]


def leaf(labels: Iterable[str]) -> QssStratum:
    return QssStratum(frozenset(labels))


def node(base: Iterable[str], children: Iterable[QssStratum]) -> QssStratum:
    return QssStratum(frozenset(base), tuple(children))


def _preorder(roots: Iterable[S], children: Callable[[S], Sequence[S]]) -> Iterator[S]:
    """The roots and all their descendants, of any tree form, each before
    its children and the children in order, yielded lazily from an
    explicit stack, so nesting depth is not bounded by the interpreter's
    recursion limit.  A node is yielded before ``children`` reads it, so
    a caller can check the node first."""
    stack = list(roots)[::-1]
    while stack:
        node = stack.pop()
        yield node
        stack += reversed(children(node))


_CHILDREN = attrgetter("children")


def _fold(
    roots: Iterable[S], children: Callable[[S], Sequence[S]], build: Callable[[S, tuple[R, ...]], R]
) -> tuple[R, ...]:
    """The roots' results, where a node's result is ``build(node, its
    children's results)``, built innermost first and siblings in order;
    a node without children gets an empty tuple.  The nodes are listed
    from an explicit stack with their child counts, so ``children`` runs
    once per node and nesting depth is not bounded by the interpreter's
    recursion limit.  Each is listed before its descendants and its
    children last to first, so read backwards the list has each node
    right after its children, in order."""
    nodes: list[S] = []
    counts: list[int] = []
    stack = list(roots)
    while stack:
        node = stack.pop()
        below = children(node)
        nodes.append(node)
        counts.append(len(below))
        stack += below
    done: list[R] = []
    for node, count in zip(reversed(nodes), reversed(counts)):
        if count:
            done[-count:] = [build(node, tuple(done[-count:]))]
        else:
            done.append(build(node, ()))
    return tuple(done)


def stratum_domain(st: QssStratum) -> frozenset[str]:
    return frozenset().union(*(t.base for t in _preorder((st,), _CHILDREN)))


def seq_domain(q: QsSeq) -> frozenset[str]:
    return frozenset().union(*(st.base for st in _preorder(q.strata, _CHILDREN)))


def seq_violation(q: QsSeq) -> str | None:
    """Description of the first formation-rule violation, in preorder, or
    None."""
    if not q.strata:
        return "a sequence needs at least one stratum"
    seen: set[str] = set()
    for st in _preorder(q.strata, _CHILDREN):
        if not st.base:
            return "empty base set"
        if seen & st.base:
            clash = sorted(seen & st.base)[0]
            return f"base sets must have mutually disjoint domains, {clash!r} repeats"
        seen.update(st.base)
        if len(st.children) == 1:
            return "an internal node needs at least two child strata"
    return None


def is_valid_seq(q: QsSeq) -> bool:
    return seq_violation(q) is None


def seq_to_order(q: QsSeq) -> QsOrder:
    """Decode a sequence into its quasi-stratified order.

    The events are declared as the two constructions would add them:
    stratum by stratum, each stratum's body before its sorted base.
    """
    bad = seq_violation(q)
    if bad is not None:
        raise ValueError(f"invalid sequence: {bad}")
    labels: list[str] = []

    def place(st: QssStratum, body: tuple[Tree, ...]) -> Tree:
        # the base takes the positions right after its body's; the masks
        # are disjoint, so their sum is their union
        start = len(labels)
        labels.extend(sorted(st.base))
        base = (1 << len(labels)) - (1 << start)
        return sum(events for events, _, _ in body) + base, base, body

    trees = _fold(q.strata, _CHILDREN, place)
    domain = Domain(tuple(labels))
    return QsOrder(BinRel(domain, tree_order(len(labels), trees)[0]))


def order_to_seq(q: QsOrder) -> QsSeq:
    """Encode a nonempty order as its unique stratum-tree sequence."""
    if len(q) == 0:
        raise ValueError("the empty order has no sequence encoding")
    return seq_converter(q.domain.labels)(order_trees(q.prec))


def seq_converter(names: Sequence[str]) -> Callable[[tuple[Tree, ...]], QsSeq]:
    """Tree sequence to ``QsSeq``, positions read as indices into names.
    The strata are memoised per converter, since the walker's sequences
    share their subtrees; reuse one converter across one walk.  A leaf
    is memoised under its base, a node under its base and the identities
    of its children's memoised strata: equal trees get one key without
    hashing whole subtrees.
    """
    memo: dict[int | tuple[int, ...], QssStratum] = {}

    def build(tree: Tree, body: tuple[QssStratum, ...]) -> QssStratum:
        base = tree[1]
        key = (base, *map(id, body)) if body else base
        stratum = memo.get(key)
        if stratum is None:
            stratum = memo[key] = QssStratum(frozenset(names[i] for i in _bits(base)), body)
        return stratum

    return lambda trees: QsSeq(_fold(trees, itemgetter(2), build))


ENUMERATION_BOUND = 6
"""Largest domain ``stratum_trees`` walks, and so the bound of every
enumeration built on it (there are 38,703 trees over 6 events)."""

Tree = tuple[int, int, tuple["Tree", ...]]


def stratum_trees(touch: Sequence[int], combined: Sequence[int]) -> Iterator[tuple[Tree, ...]]:
    """Every stratum-tree sequence over the positions 0..n-1, n the
    length of the tables, that a structure's tables allow, each exactly
    once, as a tuple of strata ``(events, base, children)`` over
    position masks; a leaf's base is all of its events and it has no
    children.

    The tables are a structure's: ``touch``, per event, the events its
    precedence pairs join it to either way (``BinRel._touch``, a
    symmetric table, as the base test needs), and ``combined``, the
    successor masks of both relations.  All-zero tables, the empty
    structure's, allow every tree.  The formation rules, constrained:

    - a sequence over the events left starts with a non-empty block
      that no combined pair enters from the rest of those events (one
      lookup in a subset table of the module docstring);
    - a leaf stratum holds no two events that touch;
    - a base set is a non-empty set of the stratum's events that touch
      none of its events (one lookup in the other table);
    - a body has at least two strata.

    Generation order: leading blocks, and the bases of one stratum, run
    through the subsets in increasing value of their position mask; a
    stratum's leaf comes before its nodes; the rest of a sequence varies
    fastest.  The empty domain has one tree, the empty sequence.
    Raises ValueError beyond ``ENUMERATION_BOUND``.
    """
    n = len(combined)
    if n > ENUMERATION_BOUND:
        raise ValueError(f"domain size {n} exceeds enumeration bound {ENUMERATION_BOUND}")
    # leaving[m]: the events that a combined pair from a member of m
    # enters; touching[m]: the events that touch a member of m.  The
    # subsets holding y as their highest member follow those of the lower
    # positions
    leaving, touching = [0], [0]
    for c, t in zip(combined, touch):
        leaving += [m | c for m in leaving]
        touching += [m | t for m in touching]

    def sequences(events: int, body: bool) -> Iterator[tuple[Tree, ...]]:
        block = 0
        while True:
            block = (block - events) & events
            if block == 0:
                return
            rest = events & ~block
            if body and not rest:  # a body needs a second stratum
                return
            if leaving[rest] & block:
                continue
            for head in strata(block):
                if not rest:
                    yield (head,)
                    continue
                for tail in sequences(rest, False):
                    yield (head,) + tail

    def strata(events: int) -> Iterator[Tree]:
        free = events & ~touching[events]
        if free == events:
            yield events, events, ()
        base = 0
        while True:
            base = (base - free) & free
            if base == 0:
                return
            for body in sequences(events & ~base, True):
                yield events, base, body

    return sequences((1 << n) - 1, False) if n else iter([()])


def tree_order(
    n: int, trees: tuple[Tree, ...]
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The order a walked sequence describes, from one preorder walk of
    its strata: ``(rows, weak, bounds)``, its precedence rows (each
    stratum's events precede the later strata of its sequence), the
    weak rows of its embedding (each event weak before every other
    event that does not precede it) and its interval realization,
    event e's interval ``[bounds[2e], bounds[2e + 1]]``.

    The leaves are numbered in preorder, and each base spans the leaves
    of its stratum, first to last (the module docstring says why the
    spans realize the order).  Each stratum is pushed with what precedes
    it and what follows it.  A node stays open until the walk reaches
    its last leaf, the one leaf with the node's successors, so each leaf
    writes its own base, then closes each open node with the same
    successors, innermost first, writing that node's base.  A base of
    one event is written by index, and one of several member by member,
    as their weak rows and intervals differ."""
    full = (1 << n) - 1
    rows, weak, bounds = [0] * n, [0] * n, [0] * (2 * n)
    # (stratum, what precedes it, what follows it), the next stratum in
    # preorder last
    pending = []
    later = 0
    for tree in reversed(trees):
        pending.append((tree, full ^ later ^ tree[0], later))
        later |= tree[0]
    # (what follows it, base, what precedes it, its first leaf) of each
    # open node, innermost last, over an entry that no leaf closes
    opened = [(-1, 0, 0, 0)]
    leaves = 0
    while pending:
        (events, base, children), before, after = pending.pop()
        if children:
            opened.append((after, base, before, leaves))
            body, later = events ^ base, 0
            for tree in reversed(children):
                pending.append((tree, before | (body ^ later ^ tree[0]), after | later))
                later |= tree[0]
            continue
        first = leaves
        while True:
            if base & (base - 1):
                for i in _bits(base):
                    rows[i] = after
                    weak[i] = full ^ before ^ 1 << i
                    bounds[2 * i], bounds[2 * i + 1] = first, leaves
            else:  # one member, as most bases have
                i = base.bit_length() - 1
                rows[i] = after
                weak[i] = full ^ before ^ base
                bounds[2 * i], bounds[2 * i + 1] = first, leaves
            if opened[-1][0] != after:
                break
            _, base, before, first = opened.pop()
        leaves += 1
    return tuple(rows), tuple(weak), tuple(bounds)


def order_trees(rel: BinRel) -> tuple[Tree, ...]:
    """The stratum trees of a quasi-stratified order, the inverse of
    ``tree_order``; raises ValueError when rel is not one.  Only the
    rows are read: no column mask and no touch table.

    The strata are read off ``orders._realization``: each distinct
    interval is one stratum's leaf span, and its events are that
    stratum's base.  The intervals are listed by begin, longest first,
    which is preorder, and each one is a child of the innermost open
    interval that has not ended before it begins.  A relation with no
    realization is not even an interval order, and one whose new
    interval ends after that open interval has two intervals that
    cross; any other relation is quasi-stratified, and its trees decode
    to it (the module docstring proves both), so none is decoded here.
    """
    rows = rel.rows
    n = len(rows)
    found = _realization(rows)
    if found is None:
        raise ValueError("not a quasi-stratified order")
    # one int per interval, ordered by begin, then by end, largest first
    bases: dict[int, int] = {}
    for i, (begin, end) in enumerate(zip(*found)):
        key = begin * (n + 1) + n - end
        bases[key] = bases.get(key, 0) | 1 << i
    # (base, children) per stratum; (end, children) of each open
    # interval, innermost last, over an entry for the top level that no
    # interval closes
    roots: list[tuple[int, list]] = []
    opened = [(n, roots)]
    for key in sorted(bases):
        begin, rest = divmod(key, n + 1)
        while opened[-1][0] < begin:
            opened.pop()
        if opened[-1][0] < n - rest:  # the two intervals cross
            raise ValueError("not a quasi-stratified order")
        stratum = (bases[key], [])
        opened[-1][1].append(stratum)
        opened.append((n - rest, stratum[1]))
    return _fold(
        roots, itemgetter(1), lambda st, body: (st[0] + sum(map(itemgetter(0), body)), st[0], body)
    )


def enumerate_qs_seqs(labels: Iterable[str]) -> list[QsSeq]:
    """Every sequence with the given domain, duplicate-free: one per tree
    of ``stratum_trees`` over the labels' declaration positions, in its
    generation order.  The empty domain has none."""
    names = Domain.of(labels).labels
    to_seq = seq_converter(names)
    zeros = (0,) * len(names)
    # the empty domain's one tree, the empty sequence, is no QsSeq
    return [to_seq(trees) for trees in stratum_trees(zeros, zeros) if trees]


def random_qs_seq(labels: Iterable[str], seed: int) -> QsSeq:
    """A random valid sequence over the labels, deterministic per seed."""
    pool = sorted(Domain.of(labels).labels)
    if not pool:
        raise ValueError("need at least one label")
    rng = random.Random(seed)
    return _random_seq(rng, pool, min_strata=1)


def _random_seq(rng: random.Random, pool: list[str], min_strata: int) -> QsSeq:
    pool = pool[:]
    rng.shuffle(pool)
    count = rng.randint(min_strata, len(pool))
    cuts = sorted(rng.sample(range(1, len(pool)), count - 1)) if count > 1 else []
    blocks = [pool[i:j] for i, j in zip([0] + cuts, cuts + [len(pool)])]
    return QsSeq(tuple(_random_stratum(rng, block) for block in blocks))


def _random_stratum(rng: random.Random, pool: list[str]) -> QssStratum:
    if len(pool) < 3 or rng.random() < 0.4:
        return QssStratum(frozenset(pool))
    base_size = rng.randint(1, len(pool) - 2)
    picked = pool[:]
    rng.shuffle(picked)
    base, rest = picked[:base_size], picked[base_size:]
    body = _random_seq(rng, rest, min_strata=2)
    return QssStratum(frozenset(base), body.strata)


def seq_to_json(q: QsSeq) -> list[dict[str, Any]]:
    """JSON form: a list of trees, base members sorted, leaves omit
    children."""

    def build(st: QssStratum, body: tuple[dict[str, Any], ...]) -> dict[str, Any]:
        item: dict[str, Any] = {"base": sorted(st.base)}
        if body:
            item["children"] = list(body)
        return item

    return list(_fold(q.strata, _CHILDREN, build))


def seq_from_json(data: Any) -> QsSeq:
    """The sequence of a JSON form.  Each tree is checked as ``_preorder``
    meets it, before its children are read, so the first fault in
    preorder is the one reported, and the strata are then built by
    ``_fold``."""
    if not isinstance(data, list):
        raise ValueError("sequence JSON must be a list of trees")
    children = methodcaller("get", "children", [])
    for item in _preorder(data, children):
        if not isinstance(item, dict) or not set(item) <= {"base", "children"}:
            raise ValueError("tree JSON must be an object with base and optional children")
        if not isinstance(item.get("base"), list):
            raise ValueError("tree base must be a list of strings")
        if not isinstance(children(item), list):
            raise ValueError("tree children must be a list")
        Domain.of(item["base"])  # labels are distinct non-empty strings
    q = QsSeq(_fold(data, children, lambda item, body: QssStratum(frozenset(item["base"]), body)))
    bad = seq_violation(q)
    if bad is not None:
        raise ValueError(f"invalid sequence: {bad}")
    return q


def format_seq(q: QsSeq) -> str:
    """One-line rendering: strata joined by " ; ", nodes as "(base | children)",
    each base's labels sorted and shown through ``relcore.show_label``."""
    return " ; ".join(
        _render(q.strata, lambda st: ",".join(map(show_label, sorted(st.base))), _CHILDREN)
    )


def tree_texts(trees: Sequence[Tree], labels: Sequence[str], names: Sequence[str]) -> tuple[str, ...]:
    """The text of each tree, over the positions of labels, as
    ``format_seq`` writes its stratum, ``names[i]`` the shown label of
    position i, all in one fold: no ``QsSeq`` is built.  Joined by
    " ; ", the texts of a sequence's trees are its line."""

    def base(tree: Tree) -> str:
        members = tree[1]
        if members & (members - 1) == 0:  # one member
            return names[members.bit_length() - 1]
        return ",".join([names[i] for i in sorted(_bits(members), key=labels.__getitem__)])

    return _render(trees, base, itemgetter(2))


def _render(
    strata: Sequence[S], base: Callable[[S], str], children: Callable[[S], Sequence[S]]
) -> tuple[str, ...]:
    """The text of each of the strata, of any form, as ``format_seq``
    writes it, given each one's base text and children, built through
    ``_fold``: a leaf is its base text alone."""

    def build(st: S, body: tuple[str, ...]) -> str:
        return f"({base(st)} | {' '.join(body)})" if body else base(st)

    return _fold(strata, children, build)
