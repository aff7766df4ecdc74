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
filtering every maximal structure over the domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .qsa import csc_components, is_qsa, predominants
from .qso import QsOrder, enumerate_qs_orders, qs_order_violation
from .qsseq import stratum_trees, tree_rows
from .relcore import (
    BinRel,
    Domain,
    Poset,
    Structure,
    _bits,
    _combined_rows,
    _touching,
    new_structure,
    poset_to_structure,
    project,
    reindex_structure,
)


def qsm_violation(s: Structure) -> tuple[str, tuple[str, ...]] | None:
    """First witness against maximality, as (axiom id, tuple)."""
    labels = s.domain.labels
    n = len(labels)
    prec, weak = s.prec, s.weak
    for i in range(n):
        if weak.holds_idx(i, i):
            return "qsm:1", (labels[i],)
    for i in range(n):
        for j in range(n):
            if prec.holds_idx(i, j) != (weak.holds_idx(i, j) and not weak.holds_idx(j, i)):
                return "qsm:2", (labels[i], labels[j])
    for i in range(n):
        for j in range(n):
            related = (
                prec.holds_idx(i, j)
                or prec.holds_idx(j, i)
                or (weak.holds_idx(i, j) and weak.holds_idx(j, i))
            )
            if related != (i != j):
                return "qsm:3", (labels[i], labels[j])
    # prec is irreflexive once qsm:2 holds, so any witness is a quadruple
    witness = qs_order_violation(prec)
    if witness is not None:
        return "qsm:4", witness
    return None


def is_qsm(s: Structure) -> bool:
    return qsm_violation(s) is None


def qso_to_qsm(q: QsOrder) -> Structure:
    """The maximal structure of one order: unordered events become
    mutually weak."""
    return poset_to_structure(q.poset)


def qsm_to_qso(s: Structure) -> QsOrder:
    """Inverse direction; rejects non-maximal input."""
    witness = qsm_violation(s)
    if witness is not None:
        raise ValueError(f"not a maximal structure, {witness[0]} fails on {witness[1]}")
    return QsOrder(Poset(s.domain, s.prec))


def one_saturation(s: Structure) -> Structure:
    """One maximal extension of an acyclic structure.

    When the whole domain is strongly connected, the least-labelled
    pre-dominant becomes a base event, mutually weak with everything
    else, and the rest is saturated recursively.  Otherwise the domain
    splits at the first condensation cut and the two sides compose
    sequentially.
    """
    if not is_qsa(s):
        raise ValueError("can only saturate a quasi-stratified acyclic structure")
    prec, weak = _saturate_pairs(s)
    return new_structure(s.domain.labels, prec, weak)


def _saturate_pairs(
    s: Structure,
) -> tuple[set[tuple[str, str]], set[tuple[str, str]]]:
    labels = s.domain.labels
    if len(labels) <= 1:
        return set(s.prec.label_pairs), set(s.weak.label_pairs)
    components = csc_components(s)
    if len(components) == 1:
        base = min(predominants(s, labels))
        rest = [x for x in labels if x != base]
        prec, weak = _saturate_pairs(project(s, rest))
        weak.update((base, x) for x in rest)
        weak.update((x, base) for x in rest)
        return prec, weak
    first = components[-1]
    head = [x for x in labels if x in first]
    tail = [x for x in labels if x not in first]
    prec, weak = _saturate_pairs(project(s, head))
    prec_tail, weak_tail = _saturate_pairs(project(s, tail))
    prec.update(prec_tail)
    weak.update(weak_tail)
    cross = {(x, y) for x in head for y in tail}
    prec.update(cross)
    weak.update(cross)
    return prec, weak


@dataclass(frozen=True)
class SaturationSet:
    """Saturations in canonical order, or, when truncated, the first
    ones in generation order (see ``saturations``)."""

    structures: tuple[Structure, ...]
    truncated: bool = False

    def __iter__(self) -> Iterator[Structure]:
        return iter(self.structures)

    def __len__(self) -> int:
        return len(self.structures)

    def __contains__(self, item: object) -> bool:
        return item in self.structures


def all_qsm_structures(labels: tuple[str, ...]) -> tuple[Structure, ...]:
    """Every maximal structure over the labels, through the order
    enumeration: the saturations of the empty structure, in the order
    ``enumerate_qs_orders`` generates them."""
    return tuple(qso_to_qsm(o) for o in enumerate_qs_orders(labels))


def saturations(s: Structure, limit: int | None = None) -> SaturationSet:
    """All maximal extensions of an acyclic structure.

    The extensions are generated from s's constraints, one per stratum
    tree that s allows (see ``qsseq.stratum_trees``), so without
    duplicates.  An untruncated result is in canonical order:
    sorted by the sorted list of prec pairs (a maximal structure's weak
    pairs follow from its prec pairs).  With a limit, at most limit + 1
    extensions are generated; when there are more than limit, the result
    is the first limit in generation order, which depends only on the
    label set, never on the order the labels were declared in.
    """
    if not is_qsa(s):
        raise ValueError("can only saturate a quasi-stratified acyclic structure")
    n = len(s.domain)
    ordered = reindex_structure(s, Domain(tuple(sorted(s.domain.labels))))
    walk = stratum_trees(n, _touching(ordered.prec), _combined_rows(ordered))
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    found = [tree_rows(n, trees) for trees in islice(walk, None if limit is None else limit + 1)]
    truncated = limit is not None and len(found) > limit
    if truncated:
        del found[limit:]
    else:
        # position pairs over sorted labels compare as the label pairs do
        found.sort(key=lambda rows: [(i, j) for i, row in enumerate(rows) for j in _bits(row)])
    return SaturationSet(
        tuple(
            reindex_structure(
                poset_to_structure(Poset(ordered.domain, BinRel(ordered.domain, rows))), s.domain
            )
            for rows in found
        ),
        truncated,
    )
