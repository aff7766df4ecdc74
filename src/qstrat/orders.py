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
then finds none is an internal error.  One reading of the chain of
successor sets decides total, stratified and interval orders
(``_realization``), on two classical facts; ``qsseq.order_trees``
reads the stratum trees of a quasi-stratified order off the same
intervals, which nest exactly when the order is quasi-stratified.

- *A relation is an interval order exactly when its successor sets are
  nested and no event precedes itself* (Fishburn 1970).  An interval
  order is a partial order with no 2+2: pairs x < y and z < w with
  neither x < w nor z < y.  Such pairs put y in x's set but not in
  z's, and w in z's but not in x's, so nested sets exclude a 2+2, and
  conversely two sets that are not nested name one.  Nesting and
  irreflexivity give transitivity: if x < y and y < z, y lies in x's
  set and not in its own, so y's set, which holds z, lies inside x's.
- *An interval order is stratified exactly when its count-rank
  realization gives every event a single point, and total when those
  points are also distinct* (Fishburn 1985).  List the distinct
  successor sets largest first, S_0 above S_1 above ... S_(m-1); an
  event's end is its own set's rank and its begin the number of sets
  that hold it.  e lies in S_k exactly for k below its begin, so x
  precedes y exactly when x's end lies below y's begin, and e's begin
  is at most its end exactly when e is not in its own set.  If every
  begin equals its end, x precedes y exactly when x's point lies below
  y's: the events of each point form a stratum, before every later
  one, a stratified order.  Conversely, if the strata of a stratified
  order are L_0 to L_(m-1), earliest first, an event of L_k has
  L_(k+1) to L_(m-1) as its successors, the set of rank k, and lies in
  the sets of the k strata before its own: its begin and end are both
  k.  So the points number the strata, earliest first, and a
  stratified order is total exactly when its strata are single events.

No column mask is built unless a scan names a witness.

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
from itertools import count
from operator import and_, le, xor
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

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
    total exactly when ``_strata`` gives its events distinct stratum
    numbers (module docstring), so the rows decide and the columns are
    read only to name the to:3 witness.  Raises InternalError when the scan finds no
    witness.
    """
    bad = partial_order_violation(rel)
    if bad is not None:
        return ("to:" + bad[0][3:], bad[1])
    rows = rel.rows
    strata = _strata(rows)
    if strata is not None and len(set(strata)) == len(rows):
        return None
    labels = rel.domain.labels
    cols = rel.column_masks
    full = (1 << len(rows)) - 1
    for i, row in enumerate(rows):
        apart = full & ~(row | cols[i] | 1 << i)
        if apart:
            return "to:3", (labels[i], labels[next(_bits(apart))])
    raise InternalError("a partial order with no distinct strata has no incomparable pair")


def stratified_order_violation(rel: BinRel) -> Violation | None:
    """First witness against the stratified-order axioms, or None.

    so:1 and so:2 are po:1 and po:2 with the same witness.  A partial
    order is stratified exactly when ``_strata`` numbers its strata, so
    the rows decide.  Otherwise the witness comes from the first
    incomparable pair (x, y) in row-major order: the lowest z with
    x < z but not y < z (so:3) or with z < x but not z < y (so:4), so:3
    first when both hold at z; the columns are read only for it.
    Raises InternalError when the scan finds no witness.
    """
    bad = partial_order_violation(rel)
    if bad is not None:
        return ("so:" + bad[0][3:], bad[1])
    if _strata(rel.rows) is not None:
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
    raise InternalError("no strata for an order the stratified scan passes")


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
    """Strata of a stratified order, earliest first, or None: the labels
    grouped by the stratum numbers that ``_strata`` gives them."""
    strata = _strata(p.prec.rows)
    if strata is None:
        return None
    groups: dict[int, set[str]] = {}
    for label, k in zip(p.domain.labels, strata):
        groups.setdefault(k, set()).add(label)
    return [frozenset(groups[k]) for k in range(len(groups))]


def _strata(rows: Sequence[int]) -> list[int] | None:
    """The stratum number of each position of a stratified order, earliest
    stratum first and every number from 0 up taken, given its rows
    alone, or None when it is not one: the ends of its ``_realization``
    when every begin equals its end (module docstring)."""
    found = _realization(rows)
    if found is None or found[0] != found[1]:
        return None
    return found[1]


def interval_realization(rel: BinRel) -> dict[str, tuple[int, int]] | None:
    """Integer interval endpoints realizing rel, per label, or None when
    rel is not an interval order: ``_realization`` of its rows."""
    found = _realization(rel.rows)
    if found is None:
        return None
    return dict(zip(rel.domain.labels, zip(*found)))


def _realization(rows: Sequence[int]) -> tuple[list[int], list[int]] | None:
    """The interval begins and ends of each position of a relation, given
    its rows alone, or None when it is not an interval order: its count
    ranks, read off the chain of its successor sets; no column mask is
    read.

    Along a chain distinct sets have distinct sizes, so sorting the
    distinct rows by size, largest first, lists the chain when there is
    one, and each set holds the next exactly when they are all nested.
    Otherwise two sets lie apart, a 2+2, and there is no realization.
    An event's end is the rank of its own set in the chain, and its
    begin the number of the chain's sets that hold it: on a chain those
    are the first ones, so the events of begin k are S_(k-1) minus S_k,
    with S_m empty: on a chain, the two sets' xor, one ``_scatter`` per
    set.  Given the chain, x precedes y exactly when x's end lies below
    y's begin, and every begin is at most its end exactly when no event
    precedes itself (module docstring): the relation is an interval
    order exactly when the check passes, and the endpoints then realize
    it.  Since the
    events before e are those whose set holds e, each begin is also the
    rank of the event's predecessor count among the distinct ones,
    smallest first, and each end that of its successor count, largest
    first: the count ranks.  ``qsseq.order_trees`` groups the events by
    these intervals into the strata of a quasi-stratified order, and
    decides membership by whether the intervals nest, no two crossing;
    the ``saturate`` command, which starts from the trees, reads the same
    intervals off each one (``qsseq.tree_order``).
    """
    chain = sorted(set(rows), key=int.bit_count, reverse=True)
    inner = chain[1:]
    if list(map(and_, chain, inner)) != inner:
        return None
    ends = list(map(dict(zip(chain, count())).__getitem__, rows))
    begins = [0] * len(rows)
    for depth, holders in enumerate(map(xor, chain, inner + [0]), 1):
        _scatter(begins, holders, depth)
    return (begins, ends) if all(map(le, begins, ends)) else None


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
