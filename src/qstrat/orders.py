"""Recognition of the classical order classes and their witness machinery.

The four classes form a chain: every total order is stratified, every
stratified order is interval, every interval order is partial.  Each
``*_violation`` function returns the first offending tuple that a
literal quantifier scan of its axiom set, in domain declaration order,
would find, so witnesses are deterministic; the scans run on row masks.
po, and with it to:1-2 and so:1-2, scans nothing itself: it reads two
tables each relation caches (``relcore`` module docstring), ``_loops``
for po:1 and ``_transitivity_gap`` for po:2.

Past po, each class is decided from the rows alone, and its scan runs
only on a relation outside the class, to name the witness; a scan that
then finds none is an internal error.  A total order is told by its
successor counts, a stratified one by its stratum trees
(``qsseq.order_trees``, all leaves at the top), and an interval order
by its interval realization (``_realization``).  The realization reads
the chain that the successor sets of an interval order form (Fishburn
1970): an event's end is the rank of its successor set in the chain,
its begin the number of the chain's sets that hold it.  No column mask
is built unless a scan names a witness.

The module also hosts the two constructive characterisations (stratified
partition and integer interval realization) and the forbidden-cycle
searches on two-relation structures that mirror the order classes.
All three run through one search, ``_shortest_closed_walk``: it
refuses a structure that is not relational, finds the first shortest
closed walk breadth first and returns it as the labels of the events
that lead its states.  Each search gives only its starts and its
successors, the state graph: 1-tuples (vertex,) under the combined
relation (total); pairs (vertex, phase), phase 0 leaving only by a
precedence step (stratified); pairs (vertex, incoming step strong), a
weak-only step leaving only a strong state (interval).
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate, count
from operator import le, or_
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .qsseq import Tree, order_trees
from .relcore import (
    BinRel,
    InternalError,
    Poset,
    Structure,
    _bits,
    _rows_leaving,
    _scatter,
    is_relational,
)

Violation = tuple[str, tuple[str, ...]]
State = TypeVar("State", bound=tuple)


def partial_order_violation(rel: BinRel) -> Violation | None:
    """The first self-loop (po:1), else the relation's transitivity gap
    (po:2), or None: both read from the relation's cached tables."""
    labels = rel.domain.labels
    if rel._loops:
        return "po:1", (labels[next(_bits(rel._loops))],)
    gap = rel._transitivity_gap
    if gap is not None:
        return "po:2", tuple(map(labels.__getitem__, gap))
    return None


def total_order_violation(rel: BinRel) -> Violation | None:
    """First witness against the total-order axioms, or None.

    to:1 and to:2 are po:1 and po:2 with the same witness; to:3 names
    the first incomparable pair in row-major order.  A partial order is
    total exactly when its successor counts are 0 to n - 1, all
    distinct, so the rows decide and the columns are read only to name
    the to:3 witness.  In a total order the event with k events after
    it has k successors.  Conversely, by induction from the largest
    count down, each event precedes every event of a smaller count: an
    event of count k precedes no event of a larger count, which
    precedes it, so its k successors are the k events below it.  Raises
    InternalError when the scan finds no witness.
    """
    bad = partial_order_violation(rel)
    if bad is not None:
        return ("to:" + bad[0][3:], bad[1])
    rows = rel.rows
    if sorted(map(int.bit_count, rows)) == list(range(len(rows))):
        return None
    labels = rel.domain.labels
    cols = rel.column_masks
    full = (1 << len(rows)) - 1
    for i, row in enumerate(rows):
        apart = full & ~(row | cols[i] | 1 << i)
        if apart:
            return "to:3", (labels[i], labels[next(_bits(apart))])
    raise InternalError("a partial order with repeated successor counts has no incomparable pair")


def stratified_order_violation(rel: BinRel) -> Violation | None:
    """First witness against the stratified-order axioms, or None.

    so:1 and so:2 are po:1 and po:2 with the same witness.  A partial
    order is stratified exactly when ``_strata`` finds its strata, so
    the rows decide.  Otherwise the witness comes from the first
    incomparable pair (x, y) in row-major order: the lowest z with
    x < z but not y < z (so:3) or with z < x but not z < y (so:4), so:3
    first when both hold at z; the columns are read only for it.
    Raises InternalError when the scan finds no witness.
    """
    bad = partial_order_violation(rel)
    if bad is not None:
        return ("so:" + bad[0][3:], bad[1])
    if _strata(rel) is not None:
        return None
    labels = rel.domain.labels
    rows, cols = rel.rows, rel.column_masks
    full = (1 << len(rows)) - 1
    for x, (rx, cx) in enumerate(zip(rows, cols)):
        for y in _bits(full & ~(rx | cx)):
            above = rx & ~rows[y]
            split = above | cx & ~cols[y]
            if split:
                z = next(_bits(split))
                axiom = "so:3" if above >> z & 1 else "so:4"
                return axiom, (labels[x], labels[y], labels[z])
    raise InternalError("the stratum trees fail on an order the stratified scan passes")


def interval_order_violation(rel: BinRel) -> Violation | None:
    """None when rel is an interval order, decided by ``_realization``
    of its rows, else the first witness that ``_interval_witness``
    names."""
    if _realization(rel.rows) is not None:
        return None
    return _interval_witness(rel)


def _interval_witness(rel: BinRel) -> Violation:
    """The first witness against the interval-order axioms of a relation
    that has no interval realization.

    io:1 names the first self-loop.  io:2 names the first 2+2, pairs
    x < y and z < w with neither x < w nor z < y, in row-major order
    of (x, y), then of (z, w): the scan over every pair of pairs finds
    the same one.  A pair (x, y) fails exactly when some z whose row
    leaves rows[x] is not below y.  Raises InternalError when there is
    none.
    """
    labels = rel.domain.labels
    rows = rel.rows
    if rel._loops:
        return "io:1", (labels[next(_bits(rel._loops))],)
    cols = rel.column_masks
    leaving = _rows_leaving(rows)
    for x, rx in enumerate(rows):
        for y in _bits(rx):
            outside = leaving[x] & ~cols[y]
            if outside:
                z = next(_bits(outside))
                w = next(_bits(rows[z] & ~rx))
                return "io:2", (labels[x], labels[y], labels[z], labels[w])
    raise InternalError("no interval realization for an order the 2+2 scan passes")


def is_partial_order(rel: BinRel) -> bool:
    return partial_order_violation(rel) is None


def is_total_order(rel: BinRel) -> bool:
    return total_order_violation(rel) is None


def is_stratified_order(rel: BinRel) -> bool:
    return stratified_order_violation(rel) is None


def is_interval_order(rel: BinRel) -> bool:
    return interval_order_violation(rel) is None


def stratified_partition(p: Poset) -> list[frozenset[str]] | None:
    """Strata of a stratified order, earliest first, or None: the
    events of each tree that ``_strata`` finds."""
    strata = _strata(p.prec)
    if strata is None:
        return None
    labels = p.domain.labels
    return [frozenset(labels[i] for i in _bits(events)) for events, _, _ in strata]


def _strata(rel: BinRel) -> tuple[Tree, ...] | None:
    """The stratum trees of rel when they are all leaves, else None.

    A stratified order is exactly a quasi-stratified order whose
    top-level strata are all leaves, and those leaves are its strata:
    the top level of its stratum trees (``qsseq.order_trees``).  A
    sequence of antichains, each before all later ones, has them as its
    cuts, and each is a leaf, as no two of its events touch; a sequence
    of leaves is such a sequence.
    """
    try:
        trees = order_trees(rel)
    except ValueError:  # not quasi-stratified
        return None
    return None if any(children for _, _, children in trees) else trees


def interval_realization(rel: BinRel) -> dict[str, tuple[int, int]] | None:
    """Integer interval endpoints realizing rel, per label, or None when
    rel is not an interval order: ``_realization`` of its rows."""
    found = _realization(rel.rows)
    if found is None:
        return None
    return dict(zip(rel.domain.labels, zip(*found)))


def _realization(rows: Sequence[int]) -> tuple[list[int], list[int]] | None:
    """The interval begins and ends of each position of a relation, given
    its rows alone, or None when it is not an interval order: the
    ``_count_ranks`` of the relation, read off the chain of its
    successor sets and checked against its rows; no column mask is read.

    The successors of each event i must be exactly the events whose
    begin lies after i's end, and i's begin must lie at or before its
    end.  Given the first, the second holds exactly when i is not among
    its own successors, so a self-loop gets None.  When both hold, x
    precedes y exactly when x's interval ends before y's begins:
    whatever the endpoints, the relation is an interval order.  On an
    interval order the check always passes (see ``_count_ranks``), so it
    passes exactly on interval orders.  It compares whole lists, so the
    only Python step per event files it under its begin.
    """
    begins, ends = _count_ranks(rows)
    # at[b]: the events whose begin is b; later[r]: those whose begin
    # lies after r.  A begin counts distinct rows and an end ranks them,
    # so n + 1 entries hold them all.
    at, bit = [0] * (len(rows) + 1), 1
    for b in begins:
        at[b] |= bit
        bit <<= 1
    later = list(accumulate(reversed(at), or_, initial=0))[-2::-1]
    if tuple(map(later.__getitem__, ends)) != tuple(rows) or not all(map(le, begins, ends)):
        return None
    return begins, ends


def _count_ranks(rows: Sequence[int]) -> tuple[list[int], list[int]]:
    """The interval begins and ends that realize an interval order, given
    its rows alone, unchecked: no column mask is read.

    On an interval order the distinct successor sets form a chain under
    inclusion (Fishburn 1970), S_0 above S_1 above ... S_(m-1): if y
    lay in x's set but not in z's, and w in z's but not in x's, then
    x < y and z < w with neither x < w nor z < y, which no intervals
    realize.  Along a chain distinct sets have distinct sizes, so
    sorting them by size, largest first, lists the chain.  An event's
    end is the rank of its own successor set in it, and its begin its
    depth in the chain, the number of the sets that hold it: e lies in
    S_k exactly for k below its begin, so x precedes y, y in S_end(x),
    exactly when x's end lies below y's begin.  The begins take every
    value from 0 to m - 1: a minimal event lies in no set, S_(m-1) is
    the empty set of a maximal event, and S_(k-1) minus S_k holds the
    events of begin k.  The events before e are those whose set holds
    e, a set that grows strictly with e's depth, so each begin is also
    the rank of the event's predecessor count among the distinct ones,
    smallest first, and each end that of its successor count, largest
    first: the count ranks.

    The chain is read in one pass, smallest set first: a set's members
    in no smaller set get the set's depth, its rank plus one, through
    one ``_scatter``.  Each event is written at most once, whatever the
    rows, so every begin is at most m.  ``_realization`` checks the
    endpoints against the rows, to decide the class.  The ``saturate``
    command prints no count ranks: it reads the same intervals off each
    order's stratum tree (``qsseq.tree_order``).
    """
    chain = sorted(set(rows), key=int.bit_count, reverse=True)
    ends = list(map(dict(zip(chain, count())).__getitem__, rows))
    begins, below = [0] * len(rows), 0
    for depth in range(len(chain), 0, -1):
        held = chain[depth - 1]
        _scatter(begins, held & ~below, depth)
        below |= held
    return begins, ends


def _shortest_closed_walk(
    s: Structure, starts: Iterable[State], successors: Callable[[State], Iterable[State]]
) -> list[str] | None:
    """The first shortest closed walk (start at both ends) over the states
    of one of s's forbidden-cycle searches, as the labels of the events
    that lead its states, or None; s must be relational.

    A breadth-first search from each start in turn stops at its first
    step back into the start; a later walk replaces it only if shorter.
    """
    if not is_relational(s):
        raise ValueError("structure is not relational")
    best: list[State] | None = None
    for start in starts:
        parent: dict[State, State] = {}
        queue = deque([start])
        walk: list[State] | None = None
        while queue and walk is None:
            state = queue.popleft()
            for nxt in successors(state):
                if nxt == start:
                    walk = [start, state]
                    while walk[-1] != start:
                        walk.append(parent[walk[-1]])
                    break
                if nxt not in parent:
                    parent[nxt] = state
                    queue.append(nxt)
        if walk is not None and (best is None or len(walk) < len(best)):
            best = walk[::-1]
    return None if best is None else [s.domain.labels[state[0]] for state in best]


def forbidden_cycle_total(s: Structure) -> list[str] | None:
    """Shortest cycle over the combined relation, as labels, or None.

    Any such cycle rules out a sequential (total order) execution.
    """
    rows = s._combined
    # zip over one iterable yields its items as the 1-tuples (u,)
    return _shortest_closed_walk(s, zip(range(len(rows))), lambda state: zip(_bits(rows[state[0]])))


def forbidden_cycle_stratified(s: Structure) -> list[str] | None:
    """Shortest combined cycle containing a precedence step, or None.

    States (vertex, phase) start in phase 0, which only a precedence
    step leaves, into phase 1; phase 1 takes any combined step, to
    phase 1 before phase 0, and so may close the cycle.
    """
    rows, prec = s._combined, s.prec.rows

    def successors(state: tuple[int, int]) -> Iterator[tuple[int, int]]:
        u, phase = state
        for v in _bits(rows[u] if phase else prec[u]):
            yield v, 1
            if phase:
                yield v, 0

    return _shortest_closed_walk(s, [(u, 0) for u in range(len(rows))], successors)


def forbidden_cycle_interval(s: Structure) -> list[str] | None:
    """Shortest combined closed walk with no two adjacent weak-only steps.

    Steps taken in the precedence relation are strong; a step available
    only through weak precedence is weak.  The walk is forbidden for
    interval executions when every pair of cyclically consecutive steps
    contains a strong one; states (vertex, incoming step strong) make
    that a plain closed-walk search.
    """
    rows, prec = s._combined, s.prec.rows

    def successors(state: tuple[int, bool]) -> Iterator[tuple[int, bool]]:
        u, incoming_strong = state
        for v in _bits(prec[u]):
            yield v, True
        if incoming_strong:
            for v in _bits(rows[u] & ~prec[u]):
                yield v, False

    starts = [(v, strong) for v in range(len(rows)) for strong in (True, False)]
    return _shortest_closed_walk(s, starts, successors)
