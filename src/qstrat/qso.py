"""Quasi-stratified orders.

The class sits strictly between the stratified and the interval orders.
It is generated from the empty order by two constructions: adding an
isolated element (a "base" event simultaneous with everything present)
and sequential composition.  Equivalently, an irreflexive relation is
quasi-stratified exactly when every pair of precedence pairs
(x, y) and (z, t) satisfies one of five resolutions:

    x < t and z < y       (the interval-order resolution)
    x < z and x < t
    z < x and z < y
    t < y and z < y
    y < t and x < t

Each nonempty quasi-stratified order factorizes uniquely into strata,
where a stratum is an order containing at least one element unordered
with everything else.

``QsOrder`` itself is defined in ``relcore`` and re-bound here, so
``qsseq`` needs nothing from this module; this module calls ``qsseq``
through the module, so a patched ``qsseq`` function is the one run.

Membership is decided by building that factorization.
``qsseq.order_trees`` reads the stratum trees off the relation's
interval realization (``orders._realization``): the events of each
interval form one base, and the intervals nest as the strata do.  A
relation is quasi-stratified exactly when it has that realization and
no two of its intervals cross.  The spans of a quasi-stratified
order's strata nest; conversely, nested intervals give a forest whose
internal nodes have at least two children each and which decodes to
the relation (the ``qsseq`` module docstring proves both).  Decoding a
forest is the two constructions: a tree's base is added as isolated
elements to the sequential composition of its children, and a
sequence composes its trees, so the trees are a membership proof.
Deciding by nesting compares no pairs of pairs and decodes nothing.
The scan of the axioms over pairs of pairs runs only after the
construction failed, to name the witness; when it finds none, the two
disagree and the library is at fault (``InternalError``).
"""

from __future__ import annotations

from typing import Iterable

from . import qsseq
from .relcore import (
    BinRel,
    Domain,
    InternalError,
    Poset,
    QsOrder,
    _bits,
    _rows_leaving,
    _untouched,
)


def qs_order_violation(rel: BinRel) -> tuple[str, ...] | None:
    """None when rel is quasi-stratified, decided by its stratum trees
    (module docstring), else the first witness against the axioms that
    ``_witness`` names."""
    try:
        qsseq.order_trees(rel)
    except ValueError:
        return _witness(rel)
    return None


def _witness(rel: BinRel) -> tuple[str, ...]:
    """The first witness against the axioms of a relation that
    ``qsseq.order_trees`` refused: (x,) for the first self-loop, else
    the first quadruple (x, y, z, t) with x<y and z<t admitting no
    resolution, in row-major order of (x, y), then of (z, t): the scan
    over every pair of pairs finds the same one.  Raises InternalError
    when there is none.

    For a pair (x, y) and an event z, the t that some resolution covers
    are rows[x] & rows[y], all of rows[x] once x < z, and rows[x] |
    cols[y] once z < y, unless also z < x, which covers every t.  So a
    z leaves some t uncovered only when its row leaves rows[x] or, for
    a z neither below y nor above x, rows[y].
    """
    labels = rel.domain.labels
    rows = rel.rows
    if rel._loops:
        return (labels[next(_bits(rel._loops))],)
    cols = rel.column_masks
    leaving = _rows_leaving(rows)
    for x, rx in enumerate(rows):
        for y in _bits(rx):
            cy = cols[y]
            # the lowest z not below y that leaves a t uncovered, then
            # any lower one among the z below y but not below x
            apart = ~cy & (leaving[x] | ~rx & leaving[y])
            first = apart & -apart
            for z in _bits(cy & ~cols[x] & leaving[x]):
                if first and first >> z == 0:
                    break
                uncovered = rows[z] & ~(rx | cy)
                if uncovered:
                    return labels[x], labels[y], labels[z], labels[next(_bits(uncovered))]
            if first:
                z = first.bit_length() - 1
                covered = rx if rx >> z & 1 else rx & rows[y]
                t = next(_bits(rows[z] & ~covered))
                return labels[x], labels[y], labels[z], labels[t]
    raise InternalError("no stratum trees for an order the axiom scan passes")


def is_qs_order(rel: BinRel) -> bool:
    return qs_order_violation(rel) is None


def qso_from_poset(p: Poset) -> QsOrder:
    """Validated constructor; raises with the violating tuple otherwise."""
    witness = qs_order_violation(p.prec)
    if witness is not None:
        raise ValueError(f"not a quasi-stratified order, witness {witness}")
    return QsOrder(p)


def stratum_base(q: QsOrder) -> frozenset[str]:
    """Elements with no precedence relation to any other element."""
    labels = q.domain.labels
    return frozenset(labels[i] for i in _bits(_untouched(q.prec._touch, (1 << len(labels)) - 1)))


def factorize_strata(q: QsOrder) -> list[QsOrder]:
    """The unique factorization of a nonempty order into strata: its
    projections to the top-level trees of ``qsseq.order_trees``, which
    raises ValueError when q is not quasi-stratified."""
    if len(q) == 0:
        raise ValueError("cannot factorize the empty order")
    labels = q.domain.labels
    trees = qsseq.order_trees(q.prec)
    rels = [q.prec.restrict(labels[i] for i in _bits(top)) for top, _, _ in trees]
    return [QsOrder(Poset(rel.domain, rel)) for rel in rels]


def enumerate_qs_orders(labels: Iterable[str]) -> list[QsOrder]:
    """Every quasi-stratified order over the labelled set, duplicate-free:
    one per tree of ``qsseq.stratum_trees`` over the labels' declaration
    positions, in its generation order; the empty set has the empty
    order.  Nothing is kept between calls.
    """
    domain = Domain.of(labels)
    n = len(domain)
    return [
        QsOrder(Poset(domain, BinRel(domain, qsseq.tree_order(n, trees)[0])))
        for trees in qsseq.stratum_trees((0,) * n, (0,) * n)
    ]
