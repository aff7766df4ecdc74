"""Maximal quasi-stratified structures and saturation.

A maximal structure pins down one execution completely: every pair of
distinct events is either ordered by precedence or mutually weak, and
nothing can be added without breaking acyclicity.  These structures are
exactly the embeddings of quasi-stratified orders, and each order has
one stratum-tree encoding (see :mod:`qstrat.qsseq`).

The saturations of an acyclic structure s are the maximal structures
that extend it: their order contains s.prec and reverses no pair of
s.weak.  ``saturations`` generates their stratum trees directly under
those two constraints (through ``qsseq.stratum_trees``) instead of
filtering every maximal structure over the domain; ``one_saturation``
builds one such tree on position masks, nested as deep as the
decision's peel (through ``qsseq._fold``).  ``SaturationSet.rows`` and
``one_saturation`` decode trees through ``qsseq.tree_order``, which
gives the weak rows too, and ``qsm_violation`` checks maximality row
by row.

``one_saturation`` reads its tree off the levels of s's acyclicity
decision (``relcore.Peel``) and runs no pass of its own.  A pass emits
the components of the combined relation in reverse topological order,
so read from the last emitted to the first each is a source of the
events after it: no pair runs from a later component into it.  A
component of two or more events takes as base all of its
pre-dominants, exactly the events the peel removed from it, over a
body of the rest, which the peel split in turn.  A pre-dominant has no
precedence pair inside its component, so making it mutually weak with
the rest of the component reverses no pair of s, and every tree built
so decodes to a saturation that extends s.  Reading the levels takes
one pre-dominant filter per component, and the decision bounds its
steps: a path of mutually weak pairs is one component of
pre-dominants, so one leaf.

``saturations`` is the one producer of saturations.  Its
``SaturationSet`` keeps what the walk built over the positions of the
sorted labels, which compare as the labels do: each saturation's
stratum tree, and nothing decoded.  Counting reads the trees;
intersecting and comparing saturations read ``rows``, which decodes the
trees on first read, and ``structures`` embeds each order over the
declared domain on first read only.  The ``saturate`` command prints
straight from the trees, one walk each (``qsseq.tree_order``), and
prints the interval realization of each order unchecked: each base
spans the leaves of its stratum, and those spans realize the order of
any tree (the ``qsseq`` module docstring; an exhaustive test checks
every order the command can print).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterator

from .qsa import _refuse_unless_acyclic
from .qso import QsOrder, enumerate_qs_orders, qs_order_violation
from .qsseq import Tree, _fold, stratum_trees, tree_order
from .relcore import (
    BinRel,
    Domain,
    InternalError,
    Structure,
    _aligner,
    _bits,
    _embed_order,
    _untouched,
    extends,
)


def qsm_violation(s: Structure) -> tuple[str, tuple[str, ...]] | None:
    """First witness against maximality, as (axiom id, tuple): the first
    wrong row's lowest wrong bit, for each axiom checked on row masks."""
    labels = s.domain.labels
    prec, weak = s.prec.rows, s.weak.rows
    if s.weak._loops:
        return "qsm:1", (labels[next(_bits(s.weak._loops))],)
    # i prec j exactly when i weak j but not j weak i
    weak_cols = s.weak.column_masks
    for i, row in enumerate(prec):
        wrong = row ^ (weak[i] & ~weak_cols[i])
        if wrong:
            return "qsm:2", (labels[i], labels[next(_bits(wrong))])
    # distinct events are ordered one way or mutually weak
    prec_cols = s.prec.column_masks
    full = (1 << len(labels)) - 1
    for i, row in enumerate(prec):
        wrong = (row | prec_cols[i] | weak[i] & weak_cols[i]) ^ (full & ~(1 << i))
        if wrong:
            return "qsm:3", (labels[i], labels[next(_bits(wrong))])
    # prec is irreflexive once qsm:2 holds, so any witness is a quadruple
    witness = qs_order_violation(s.prec)
    if witness is not None:
        return "qsm:4", witness
    return None


def is_qsm(s: Structure) -> bool:
    return qsm_violation(s) is None


def qso_to_qsm(q: QsOrder) -> Structure:
    """The maximal structure of one order: unordered events become
    mutually weak.  q is an order already (``relcore.QsOrder``), so its
    relation is embedded without a ``Poset`` check."""
    return _embed_order(q.prec)


def qsm_to_qso(s: Structure) -> QsOrder:
    """Inverse direction; rejects non-maximal input."""
    witness = qsm_violation(s)
    if witness is not None:
        raise ValueError(f"not a maximal structure, {witness[0]} fails on {witness[1]}")
    return QsOrder(s.prec)


def one_saturation(s: Structure) -> Structure:
    """One maximal extension of an acyclic structure, from a stratum
    tree built on position masks out of the levels of s's acyclicity
    decision (``relcore.Peel``), with no pass of its own: the strata of
    a sequence are the components the peel split it into, read from the
    last emitted to the first, and a component of two or more events
    takes all of its pre-dominants, the events the peel removed from
    it, as base over the sequence of the rest, its body, which the peel
    split in turn.  The tree is built by ``qsseq._fold`` and decodes
    through ``qsseq.tree_order``, which makes a quasi-stratified order of
    any tree, so the order is not checked again.  The same walk writes
    the weak rows of the order's embedding, so no row set is transposed;
    unordered events come out mutually weak.  The result is checked to
    extend s, in one pass over the rows, and raises ``InternalError`` if
    it does not.  Input that is not acyclic raises ``NotAcyclicError``.
    """
    _refuse_unless_acyclic(s, "can only saturate a quasi-stratified acyclic structure")
    levels, touch = s._decision.levels, s.prec._touch

    def strata(events: int) -> list[tuple[int, int]]:
        # (events, base) per stratum of the sequence over events; a
        # component of pre-dominants alone, a single event among them, is
        # a leaf, and its empty body has no level
        return [(c, _untouched(touch, c)) for c in reversed(levels[events])] if events else []

    n = len(s.domain)
    trees = _fold(strata((1 << n) - 1), lambda st: strata(st[0] & ~st[1]), lambda st, body: (*st, body))
    rows, weak, _ = tree_order(n, trees)
    m = Structure(BinRel(s.domain, rows), BinRel(s.domain, weak))
    if not extends(s, m):
        raise InternalError("a saturation does not extend its structure")
    return m


@dataclass(frozen=True)
class SaturationSet:
    """Saturations in the walk's generation order: ``trees[k]`` is the
    stratum tree of the k-th order the walk built over ``ordered``, the
    sorted labels.  ``rows``, the orders' precedence rows over
    ``ordered``, decodes the trees on first read, and ``structures``,
    which iterating reads, embeds those orders over the declared
    ``domain`` on first read."""

    ordered: Domain
    trees: tuple[tuple[Tree, ...], ...]
    domain: Domain
    truncated: bool

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        n = len(self.ordered)
        return tuple(tree_order(n, trees)[0] for trees in self.trees)

    @cached_property
    def structures(self) -> tuple[Structure, ...]:
        to_declared = _aligner(self.ordered, self.domain)
        return tuple(_embed_order(BinRel(self.domain, to_declared(rows))) for rows in self.rows)

    def __iter__(self) -> Iterator[Structure]:
        return iter(self.structures)

    def __len__(self) -> int:
        return len(self.trees)


def all_qsm_structures(labels: tuple[str, ...]) -> tuple[Structure, ...]:
    """Every maximal structure over the labels, through the order
    enumeration: the saturations of the empty structure, in the order
    ``enumerate_qs_orders`` generates them."""
    return tuple(qso_to_qsm(o) for o in enumerate_qs_orders(labels))


def saturations(s: Structure, limit: int | None = None) -> SaturationSet:
    """All maximal extensions of an acyclic structure, in generation order.

    The extensions are generated from s's constraints, one per stratum
    tree that s allows (see ``qsseq.stratum_trees``), so without
    duplicates.  The walk runs over sorted-label positions, which compare
    as the labels do, so its order depends only on the label set, never
    on the order the labels were declared in.  With a limit, at most
    limit + 1 extensions are generated and the result is the first limit
    of the full list, ``truncated`` when there were more; a limit of
    ``sys.maxsize`` or more, which no walk reaches, is no limit.  The
    walk builds each order as one, so it is not checked again, and
    keeps its trees undecoded: ``SaturationSet.rows`` decodes them on
    first read, and the ``saturate`` command decodes each itself.  A
    limit that is not an ``int``, or is negative, raises ValueError
    first; then input that is not acyclic raises ``NotAcyclicError``
    with the witness of the one decision.
    """
    if limit is not None:
        if not isinstance(limit, int):
            raise ValueError(f"limit must be an integer, got {limit!r}")
        if limit < 0:
            raise ValueError(f"limit must be non-negative, got {limit}")
    _refuse_unless_acyclic(s, "can only saturate a quasi-stratified acyclic structure")
    ordered = Domain(tuple(sorted(s.domain.labels)))
    to_sorted = _aligner(s.domain, ordered)
    walk = stratum_trees(to_sorted(s.prec._touch), to_sorted(s._combined))
    if limit is not None and limit >= sys.maxsize:
        limit = None
    walked = tuple(islice(walk, None if limit is None else limit + 1))
    trees = walked[:limit]
    return SaturationSet(ordered, trees, s.domain, len(walked) > len(trees))
