"""Finite labelled domains, binary relations, and two-relation structures.

A structure pairs a precedence relation ("earlier than") with a weak
precedence relation ("not later than") over a shared domain of labelled
events.  Relations are stored as one successor bitmask per element, so
subset tests, unions and intersections are one integer operation per
row.  The enumerations stop at a few events, but the file commands read,
close and check structures of a thousand events and more, whose rows
span many machine words; ``_columns`` transposes such a matrix in whole
rows.  Two helpers walk a row mask's set positions for every layer:
``_gather`` takes the union of a table's entries at them, and
``_scatter`` ORs one value into the table's entries at them.  The
pre-dominant filter ``_untouched`` is one ``_gather`` over a symmetric
touch table, with no walk of its own.

A relation computes each of these tables once, on first read:

- ``column_masks``, the predecessors of each element: the order and
  maximality scans, the prober's columns and the embedding of an order;
- ``_touch``, rows | columns: the pre-dominants of the acyclicity
  decision, the prober and the stratum trees;
- ``_loops``, the mask of its self-loops: ``is_irreflexive`` and every
  first-self-loop witness (po:1, io:1, the ``qso`` witness, qsm:1 and
  the CLI's detail);
- ``_transitivity_gap``, the first i -> j -> k without i -> k:
  ``is_transitive`` and po:2;
- ``label_pairs``: equality and hashing across declaration orders, and
  the pairs ``close`` reports.

A structure caches two tables: the combined rows
(``Structure._combined``) and its acyclicity decision
(``Structure._decision``), which ``_peel`` computes once.  The decision
holds the mask of the first component without a pre-dominant, or 0
when the structure is acyclic (the ``qsa`` module docstring has the
argument), and the components of every level the peel split, the whole
domain's first.  Every verdict, witness and refusal of ``qsa`` reads
that mask, the prober's reach sets and ``qsa.csc_components`` read the
whole domain's level, and ``saturate.one_saturation`` builds its
stratum tree from the levels, with no pass of its own: the peel is the
library's one, and its first level the one ``_scc_masks`` pass over
the whole domain that all of them share.

A walk whose result does not depend on the order it visits positions
(a union, an OR, a filter per position) steps down from the highest set
bit, ``i = mask.bit_length() - 1`` then ``mask ^= 1 << i``: one big int
fewer per step than isolating the lowest bit with ``mask & -mask``.
``_gather`` and ``_scatter`` walk so, as do three loops of ``qsa``: the
reach tables' skip-ahead spread, the weak-pair certificate of a probe
row and the fused scatter of the facts ``gen`` learns.  The walks whose
output follows their order stay ascending: ``_bits`` yields positions
lowest first, ``_scc_masks`` takes successors lowest first, which fixes
the emission order and with it the witnesses and the FAIL lines, and a
probe row groups its candidates by component lowest first, the order in
which its results come.

Values are immutable and safe to share.  Every operation returns a new
value.  Equality on relations, structures and posets is semantic: two
values are equal when they have the same label set and relate the same
label pairs, regardless of the order in which labels were declared.
Declaration order still matters for iteration and serialisation, which
follow it deterministically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence


class InternalError(RuntimeError):
    """A broken invariant of the library itself, never a fault of the input."""


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _gather(table: Sequence[int], mask: int) -> int:
    """The union of ``table[i]`` over the positions i of mask.

    This and ``_scatter`` are ``_bits`` written out, without a generator
    step per position: the probes' spreads and reach tables, the law
    closure, the transposes and the aligner run them once per set bit.
    Both walk down from the highest set bit, since a union and an OR
    come out the same in any order (module docstring)."""
    out = 0
    while mask:
        i = mask.bit_length() - 1
        out |= table[i]
        mask ^= 1 << i
    return out


def _scatter(table: list[int], mask: int, value: int) -> None:
    """``table[i] |= value`` for each position i of mask."""
    while mask:
        i = mask.bit_length() - 1
        table[i] |= value
        mask ^= 1 << i


@dataclass(frozen=True)
class Domain:
    """Ordered collection of distinct, non-empty event labels; ``index``
    maps each label to its position, built once, at construction, where
    it also finds a repeated label."""

    labels: tuple[str, ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for label in self.labels:
            if not isinstance(label, str) or not label:
                raise ValueError(f"labels must be non-empty strings, got {label!r}")
        index = dict(zip(self.labels, range(len(self.labels))))
        if len(index) != len(self.labels):  # equal labels share an entry
            seen: set[str] = set()
            for label in self.labels:
                if label in seen:
                    raise ValueError(f"duplicate label: {label!r}")
                seen.add(label)
        object.__setattr__(self, "index", index)

    @classmethod
    def of(cls, labels: Iterable[str]) -> Domain:
        return cls(tuple(labels))

    @cached_property
    def label_set(self) -> frozenset[str]:
        return frozenset(self.labels)

    def position(self, label: str) -> int:
        try:
            return self.index[label]
        except KeyError:
            raise ValueError(f"unknown label: {label!r}") from None

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __contains__(self, label: object) -> bool:
        return label in self.index


# a printable character is whitespace only when it is the space
_UNSAFE = frozenset(' "\\,;|()[]{}:')


def show_label(label: str) -> str:
    """A label as the text outputs print it: bare when it is printable and
    holds no whitespace, no quote or backslash and no separator of those
    outputs (``, ; | ( ) [ ] { } :`` or ``->``), else as its JSON string,
    so every printed token names one label."""
    if label.isprintable() and _UNSAFE.isdisjoint(label) and "->" not in label:
        return label
    return json.dumps(label)


def _columns(rows: Sequence[int]) -> tuple[int, ...]:
    """Column masks of a relation's rows: the predecessors of each position.

    Two routes give the same masks.  From 8 events on, rows with more
    than 4 pairs each on average, plus 1% of the matrix, are transposed
    through one bit string (``_columns_by_text``); all others bit by bit
    (``_columns_by_bits``).  The switch is where the two costs meet when
    timed (2-core machine, Python 3.11.7): 4-5 pairs per row at 16-64
    events, 7 at 256, 9 at 512 and 14 at 1,024, because the string route
    costs O(n²) character work whatever the density.  Below 8 events the
    loop is never slower, and the string route is 3-4x slower on sparse
    rows; on a dense 1,024-event order it takes 7 ms against 176 ms."""
    n = len(rows)
    if n >= 8 and sum(map(int.bit_count, rows)) > 4 * n + n * n // 100:
        return _columns_by_text(rows)
    return _columns_by_bits(rows)


def _columns_by_bits(rows: Sequence[int]) -> tuple[int, ...]:
    """``_columns`` one set bit at a time."""
    cols = [0] * len(rows)
    for i, row in enumerate(rows):
        _scatter(cols, row, 1 << i)
    return tuple(cols)


def _columns_by_text(rows: Sequence[int]) -> tuple[int, ...]:
    """``_columns`` through the rows written as one bit string, the last
    row first and each row as an n-digit binary numeral.  Column j is
    then every n-th character from position n - 1 - j: the column's own
    binary numeral, the last row's bit first."""
    n = len(rows)
    text = "".join([format(row, "b").zfill(n) for row in reversed(rows)])
    return tuple([int(text[n - 1 - j :: n], 2) for j in range(n)])


def _aligner(source: Domain, target: Domain) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """Moves rows over ``source`` to rows over ``target``, a domain with
    equal label set, through the position permutation built once here."""
    if target.labels == source.labels:
        return lambda rows: rows
    if target.label_set != source.label_set:
        raise ValueError("cannot align relations over different label sets")
    moved = [target.index[label] for label in source.labels]
    bit = [1 << k for k in moved]

    def align(rows: tuple[int, ...]) -> tuple[int, ...]:
        out = [0] * len(moved)
        for k, row in zip(moved, rows):
            out[k] = _gather(bit, row)
        return tuple(out)

    return align


@dataclass(frozen=True, eq=False)
class BinRel:
    """Binary relation over a domain, one successor bitmask per element."""

    domain: Domain
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.domain)
        if len(self.rows) != n:
            raise ValueError("row count does not match domain size")
        full = (1 << n) - 1
        # row & ~full is nonzero exactly for a row above full or below 0;
        # two C-level passes cost less than a generator step per row
        if self.rows and (max(self.rows) > full or min(self.rows) < 0):
            raise ValueError("relation references positions outside the domain")

    @classmethod
    def empty(cls, domain: Domain) -> BinRel:
        return cls(domain, (0,) * len(domain))

    @classmethod
    def from_pairs(cls, domain: Domain, pairs: Iterable[tuple[str, str]]) -> BinRel:
        rows = [0] * len(domain)
        for x, y in pairs:
            rows[domain.position(x)] |= 1 << domain.position(y)
        return cls(domain, tuple(rows))

    def holds(self, x: str, y: str) -> bool:
        return bool(self.rows[self.domain.position(x)] >> self.domain.position(y) & 1)

    def holds_idx(self, i: int, j: int) -> bool:
        if not (0 <= i < len(self.rows) and 0 <= j < len(self.rows)):
            raise ValueError(f"positions ({i}, {j}) lie outside a domain of {len(self.rows)}")
        return bool(self.rows[i] >> j & 1)

    def pairs(self) -> Iterator[tuple[str, str]]:
        """Related label pairs in row-major declaration order."""
        labels = self.domain.labels
        for i, row in enumerate(self.rows):
            for j in _bits(row):
                yield labels[i], labels[j]

    @cached_property
    def label_pairs(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.pairs())

    @cached_property
    def column_masks(self) -> tuple[int, ...]:
        return _columns(self.rows)

    @cached_property
    def _touch(self) -> tuple[int, ...]:
        """For each element, the mask of the elements it has a pair of
        the relation to or from: rows | columns, so the table is
        symmetric.  Computed once per relation; pre-dominants are read
        from it (``_untouched``)."""
        return tuple(a | b for a, b in zip(self.rows, self.column_masks))

    @cached_property
    def _loops(self) -> int:
        """The mask of the elements related to themselves, computed once
        per relation: a request asks ``is_irreflexive`` of its input more
        than once (its verdict, its refusal, its prober)."""
        return sum(row & 1 << i for i, row in enumerate(self.rows))

    @cached_property
    def _transitivity_gap(self) -> tuple[int, int, int] | None:
        """The first (i, j, k) with i -> j and j -> k but not i -> k, in
        row-major order of (i, j) with k lowest, or None when the
        relation is transitive; computed once per relation.  One
        ``_gather`` per row finds i, and a scan of that row alone names
        j and k."""
        rows = self.rows
        for i, row in enumerate(rows):
            if _gather(rows, row) & ~row:
                j = next(j for j in _bits(row) if rows[j] & ~row)
                return i, j, next(_bits(rows[j] & ~row))
        return None

    def with_pair(self, x: str, y: str) -> BinRel:
        """Relation with (x, y) added; a no-op when already present."""
        i, j = self.domain.position(x), self.domain.position(y)
        if self.rows[i] >> j & 1:
            return self
        rows = list(self.rows)
        rows[i] |= 1 << j
        return BinRel(self.domain, tuple(rows))

    def intersection(self, other: BinRel) -> BinRel:
        if other.domain is not self.domain and other.domain.labels != self.domain.labels:
            raise ValueError("relation intersection requires identical domains")
        return BinRel(self.domain, tuple(a & b for a, b in zip(self.rows, other.rows)))

    def is_subrelation_of(self, other: BinRel) -> bool:
        if other.domain.labels == self.domain.labels:
            return all(a & ~b == 0 for a, b in zip(self.rows, other.rows))
        return self.label_pairs <= other.label_pairs

    def restrict(self, labels: Iterable[str]) -> BinRel:
        """Restriction to a sub-domain, keeping declaration order."""
        kept = sorted(set(map(self.domain.position, labels)))
        sub = Domain(tuple(self.domain.labels[i] for i in kept))
        rows = (sum(1 << k for k, j in enumerate(kept) if self.rows[i] >> j & 1) for i in kept)
        return BinRel(sub, tuple(rows))

    def aligned_to(self, domain: Domain) -> BinRel:
        """The same relation re-indexed over a domain with equal label set:
        rows and their bits move through the position permutation."""
        return BinRel(domain, _aligner(self.domain, domain)(self.rows))

    def is_irreflexive(self) -> bool:
        return not self._loops

    def is_transitive(self) -> bool:
        return self._transitivity_gap is None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinRel):
            return NotImplemented
        if self.domain.labels == other.domain.labels:
            return self.rows == other.rows
        return (
            self.domain.label_set == other.domain.label_set
            and self.label_pairs == other.label_pairs
        )

    def __hash__(self) -> int:
        return hash((self.domain.label_set, self.label_pairs))


@dataclass(frozen=True, eq=False)
class Structure:
    """Two-relation structure: precedence and weak precedence over one domain."""

    domain: Domain
    prec: BinRel
    weak: BinRel

    def __post_init__(self) -> None:
        if self.prec.domain.labels != self.domain.labels or self.weak.domain.labels != self.domain.labels:
            raise ValueError("both relations must share the structure's domain")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Structure):
            return NotImplemented
        return (
            self.domain.label_set == other.domain.label_set
            and self.prec == other.prec
            and self.weak == other.weak
        )

    def __hash__(self) -> int:
        return hash((self.domain.label_set, self.prec, self.weak))

    @cached_property
    def _combined(self) -> tuple[int, ...]:
        """Successor masks of the union of both relations, computed once
        per structure: its acyclicity decision, its prober and the
        saturation walks all read them."""
        return tuple(a | b for a, b in zip(self.prec.rows, self.weak.rows))

    @cached_property
    def _decision(self) -> Peel:
        """The structure's acyclicity decision, made once (``_peel``).
        ``qsa`` reads every verdict, witness and refusal from its
        ``forbidden`` mask and the whole domain's components from its
        ``levels``, and ``saturate.one_saturation`` its tree from them."""
        return _peel(self)


@dataclass(frozen=True, eq=False)
class Poset:
    """Partial order: an irreflexive, transitive precedence relation."""

    domain: Domain
    prec: BinRel

    def __post_init__(self) -> None:
        if self.prec.domain.labels != self.domain.labels:
            raise ValueError("relation must share the poset's domain")
        if not self.prec.is_irreflexive():
            raise ValueError("partial order must be irreflexive")
        if not self.prec.is_transitive():
            raise ValueError("partial order must be transitive")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self.domain.label_set == other.domain.label_set and self.prec == other.prec

    def __hash__(self) -> int:
        return hash((self.domain.label_set, self.prec))


@dataclass(frozen=True)
class QsOrder:
    """A quasi-stratified order (decided in ``qso``); wraps the partial order."""

    poset: Poset

    @property
    def domain(self) -> Domain:
        return self.poset.domain

    @property
    def prec(self) -> BinRel:
        return self.poset.prec

    def __len__(self) -> int:
        return len(self.poset.domain)


def new_structure(
    labels: Iterable[str],
    prec: Iterable[tuple[str, str]] = (),
    weak: Iterable[tuple[str, str]] = (),
) -> Structure:
    """Build a structure from labels and label pairs; duplicate pairs collapse."""
    domain = Domain.of(labels)
    return Structure(domain, BinRel.from_pairs(domain, prec), BinRel.from_pairs(domain, weak))


def new_poset(labels: Iterable[str], prec: Iterable[tuple[str, str]] = ()) -> Poset:
    domain = Domain.of(labels)
    return Poset(domain, BinRel.from_pairs(domain, prec))


def is_relational(s: Structure) -> bool:
    """True when both relations are irreflexive."""
    return s.prec.is_irreflexive() and s.weak.is_irreflexive()


def extends(base: Structure, ext: Structure) -> bool:
    """True when ext refines base: same label set, both relations enlarged."""
    return (
        base.domain.label_set == ext.domain.label_set
        and base.prec.is_subrelation_of(ext.prec)
        and base.weak.is_subrelation_of(ext.weak)
    )


def project(s: Structure, subset: Iterable[str]) -> Structure:
    """Restriction of both relations to subset x subset."""
    wanted = set(subset)
    prec = s.prec.restrict(wanted)
    weak = s.weak.restrict(wanted)
    return Structure(prec.domain, prec, weak)


def intersect(s: Structure, t: Structure) -> Structure:
    """Component-wise intersection; the domain keeps s's declaration order."""
    common = t.domain.label_set & s.domain.label_set
    a = project(s, common)
    prec = a.prec.intersection(t.prec.restrict(common).aligned_to(a.domain))
    weak = a.weak.intersection(t.weak.restrict(common).aligned_to(a.domain))
    return Structure(a.domain, prec, weak)


def _scc_masks(rows: tuple[int, ...], members: int) -> list[int]:
    """Strongly connected components of the induced subgraph, as masks,
    in reverse topological order: each component is emitted after every
    component it reaches.

    Gabow's path-based pass on bitmasks (H. N. Gabow, "Path-based
    depth-first search for strong and biconnected components", IPL
    2000).  The stack is the mask ``on_stack``, and each event keeps the
    mask below it, so an on-stack event was pushed before v exactly when
    it lies in ``below[v]``.  ``bounds`` holds the first event of each
    tentative component on the stack: meeting on-stack successors merges
    every tentative component pushed after the earliest of them, and an
    event that finishes as the top boundary pops its component as one
    mask difference.  Each boundary is pushed and popped once, so a pass
    takes a few Python steps per event, each a whole-row mask operation,
    and none per edge.  Successors are taken lowest first, as a list of
    them would be, so the components come in the order Tarjan's pass
    emits them."""
    below = [0] * members.bit_length()
    visited = on_stack = 0
    out: list[int] = []
    # the path starts at a virtual root, -1, whose successors are the
    # members; it is never a boundary
    path, succs, bounds = [-1], [members], []
    while path:
        succ = succs[-1]
        fresh = succ & ~visited
        bit = fresh & -fresh
        # the successors before the next fresh one (all, when none is
        # left) are visited already
        hits = succ & (bit - 1) & on_stack
        while hits and hits & below[bounds[-1]]:
            bounds.pop()
        if bit:
            succs[-1] = succ & ~((bit << 1) - 1)
            w = bit.bit_length() - 1
            below[w], on_stack, visited = on_stack, on_stack | bit, visited | bit
            path.append(w)
            succs.append(rows[w] & members)
            bounds.append(w)
            continue
        v = path.pop()
        succs.pop()
        if bounds and bounds[-1] == v:
            bounds.pop()
            out.append(on_stack & ~below[v])
            on_stack = below[v]
    return out


class Peel(NamedTuple):
    """What ``_peel`` finds.  ``forbidden`` is the mask of the first
    component without a pre-dominant, or 0 when the structure is
    acyclic.  ``levels`` maps the event mask of each sequence the peel
    split to its components, as ``_scc_masks`` emits them: the whole
    domain, always present, to its components, and the body of each
    component it peeled, what is left once its pre-dominants are
    removed, to the components of that body.  On an acyclic structure
    every body has its entry."""

    forbidden: int
    levels: dict[int, Sequence[int]]


def _peel(s: Structure) -> Peel:
    """The acyclicity decision behind ``Structure._decision``: split the
    whole domain into its components, the structure's one whole-domain
    ``_scc_masks`` pass, then peel the pre-dominants off each component
    of two or more events and split what is left the same way, until
    one has no pre-dominant (``qsa`` module docstring).  Each level is
    visited in emission order and the pending bodies last in, first
    out, which fixes the component found and with it every witness and
    FAIL line.  Meaningful on a relational structure only."""
    rows, touch = s._combined, s.prec._touch
    levels: dict[int, Sequence[int]] = {}
    pending = [(1 << len(rows)) - 1]
    while pending:
        body = pending.pop()
        levels[body] = level = _scc_masks(rows, body)
        for comp in level:
            if comp.bit_count() < 2:
                continue
            dominants = _untouched(touch, comp)
            if dominants == 0:
                return Peel(comp, levels)
            pending.append(comp & ~dominants)
    return Peel(0, levels)


def _label_mask(domain: Domain, labels: Iterable[str]) -> int:
    """Bitmask of the labels' positions; unknown labels raise ValueError."""
    return sum(1 << i for i in set(map(domain.position, labels)))


def _untouched(touch: Sequence[int], mask: int) -> int:
    """Members of the mask touching no member, the pre-dominants when
    touch is a precedence relation's ``BinRel._touch``.

    The table must be symmetric: j lies in ``touch[i]`` exactly when i
    lies in ``touch[j]``.  Then a member j is touched by some member
    exactly when j lies in the union of the members' entries, so one
    ``_gather`` answers for every member at once.  ``BinRel._touch``
    is rows | columns, ``qsseq.stratum_trees`` reads the same union from
    a subset table of that table permuted, and the prober's copy stays
    symmetric under ``extend``."""
    return mask & ~_gather(touch, mask)


def _rows_leaving(rows: tuple[int, ...]) -> list[int]:
    """For each x, the mask of the z whose row is not inside rows[x].
    Events with equal rows share both sides of the test, so the scan
    runs over the distinct rows, each with the mask of its events."""
    holders: dict[int, int] = {}
    for z, rz in enumerate(rows):
        holders[rz] = holders.get(rz, 0) | 1 << z
    leaving = {}
    for rx in holders:
        outside, mask = ~rx, 0
        for rz, zs in holders.items():
            if rz & outside:
                mask |= zs
        leaving[rx] = mask
    return [leaving[rx] for rx in rows]


def add_prec(s: Structure, x: str, y: str) -> Structure:
    """Structure with x prec y added; a no-op when already present."""
    prec = s.prec.with_pair(x, y)
    return s if prec is s.prec else Structure(s.domain, prec, s.weak)


def add_weak(s: Structure, x: str, y: str) -> Structure:
    """Structure with x weak-prec y added; a no-op when already present."""
    weak = s.weak.with_pair(x, y)
    return s if weak is s.weak else Structure(s.domain, s.prec, weak)


def poset_to_structure(p: Poset) -> Structure:
    """Embed a partial order: weak precedence holds wherever the reverse
    precedence is absent, so unordered events come out mutually weak."""
    return _embed_order(p.prec)


def _embed_order(prec: BinRel) -> Structure:
    """``poset_to_structure`` of a relation that is an order by
    construction, which is not checked again."""
    return Structure(prec.domain, prec, BinRel(prec.domain, _embedded_weak(prec.column_masks)))


def _embedded_weak(cols: Sequence[int]) -> tuple[int, ...]:
    """The weak rows of an order's embedding, from the order's column
    masks: i is weak before every other j that does not precede it."""
    full = (1 << len(cols)) - 1
    return tuple([full & ~(1 << i) & ~col for i, col in enumerate(cols)])
