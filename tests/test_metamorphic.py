"""Metamorphic checks at sizes no oracle reaches: ``close``, the
acyclicity verdict and ``saturations`` commute with reversing both
relations and with re-declaring the domain in another order.

The reverse of a structure s = (P, W) is s' = (P⁻¹, W⁻¹) over the same
domain: each row mask becomes a column mask.  A re-declaration
(``oracles.reindex_structure`` with shuffled labels) keeps every label
pair and moves its bit.  Both change the position of almost every bit,
so they drive the row-mask code, the pre-dominant filter
``relcore._untouched`` included, through new inputs at any size.

Why reversal is a symmetry.

- *Acyclicity is closed under reversal.*  A subset A is forbidden when
  it is strongly connected over P ∪ W and every member is touched by a
  precedence pair inside A (``qsa`` docstring).  A graph and its reverse
  have the same strongly connected subsets, since a path from x to y in
  one is a path from y to x in the other, and P ∪ W reversed is
  P⁻¹ ∪ W⁻¹.  A member x is touched inside A when some pair (x, y) or
  (y, x) of P has y in A, which is the same condition for P⁻¹.  So s
  and s' have the same forbidden subsets, and s is acyclic exactly when
  s' is.  Both relations stay irreflexive, so relational stays so too.
- *Quasi-stratified orders are closed under reversal.*  Every such
  order comes from the empty order by two constructions (``qso``
  docstring): adding an isolated element, and the sequential
  composition A;B, which puts every element of A before every element
  of B.  Reversing an order with an isolated element leaves that element
  isolated, and the reverse of A;B is B⁻¹;A⁻¹.  By induction on the
  constructions, the reverse of a quasi-stratified order is built by the
  same two constructions, so it is quasi-stratified.
- *Saturations and the closure commute with reversal.*  Reversal is a
  bijection on the structures over the domain that keeps inclusion both
  ways and, by the first point, keeps acyclicity.  So it maps the
  maximal acyclic extensions of s one to one onto those of s'.  (In
  terms of orders: the embedding of an order o holds x W y exactly when
  x ≠ y and not y o x.  The embedding of o⁻¹ holds x W y exactly when
  x ≠ y and not x o y, which is the reverse of the first embedding; the
  second point keeps o⁻¹ quasi-stratified.)  The closure is the
  intersection of the saturations (``closure`` docstring), and
  intersection commutes with reversal, so close(s') = close(s)'.

A re-declaration is a symmetry because every notion here is defined on
label pairs.  Declaration order only picks the bit positions, and it
may change which witness the one decision names, but never whether
there is one.
"""

import random
from functools import cache

import pytest

from qstrat import (
    BinRel,
    Domain,
    Structure,
    add_prec,
    add_weak,
    close,
    qsa_witness,
    random_qsa_structure,
    reindex_structure,
    saturations,
)
from qstrat.cli import default_labels

from conftest import random_structure, spec_structure

SIZES = [16, 48, 128]


def reverse(s):
    """Both relations reversed: each row becomes the column mask."""
    return Structure(s.domain, BinRel(s.domain, s.prec.column_masks), BinRel(s.domain, s.weak.column_masks))


def redeclare(s, seed):
    """The same structure over its labels in a seeded shuffled order."""
    labels = list(s.domain.labels)
    random.Random(seed).shuffle(labels)
    return reindex_structure(s, Domain(tuple(labels)))


@cache
def _inputs(n):
    """Generated and spec-shaped inputs, each with its closure; both
    tests at a size read them."""
    labels = default_labels(n)
    inputs = [
        random_qsa_structure(labels, seed=n, density=0.1),
        random_qsa_structure(labels, seed=n + 1, density=0.35),
        spec_structure(labels, n + 2, 0.3),
        spec_structure(labels, n + 3, 0.05),
    ]
    return [(s, close(s).closed) for s in inputs]


def _broken(s, closed, rng, count=3):
    """s plus the opposite of one forced pair, for a few forced pairs: y
    weak x against a forced x prec y, y prec x against a forced x weak y.
    No saturation holds both, so each variant is not acyclic."""
    labels = s.domain.labels
    forced = [
        (add_weak, j, i)
        for i, (a, b) in enumerate(zip(closed.prec.rows, s.prec.rows))
        for j in range(len(labels))
        if (a & ~b) >> j & 1
    ] + [
        (add_prec, j, i)
        for i, (a, b) in enumerate(zip(closed.weak.rows, s.weak.rows))
        for j in range(len(labels))
        if (a & ~b) >> j & 1
    ]
    return [add(s, labels[x], labels[y]) for add, x, y in rng.sample(forced, min(count, len(forced)))]


@pytest.mark.parametrize("n", SIZES)
def test_close_commutes_with_reversal_and_redeclaration(n):
    for k, (s, closed) in enumerate(_inputs(n)):
        flipped, expected = close(reverse(s)).closed, reverse(closed)
        assert (flipped.prec.rows, flipped.weak.rows) == (expected.prec.rows, expected.weak.rows)
        moved = close(redeclare(s, k)).closed
        back = reindex_structure(moved, s.domain)
        assert (back.prec.rows, back.weak.rows) == (closed.prec.rows, closed.weak.rows)


@pytest.mark.parametrize("n", SIZES)
def test_the_acyclicity_verdict_survives_reversal_and_redeclaration(n):
    rng = random.Random(n)
    broken = 0
    for k, (s, closed) in enumerate(_inputs(n)):
        variants = _broken(s, closed, rng)
        broken += len(variants)
        for t in [s, *variants]:
            verdict = qsa_witness(t) is None
            assert verdict == (t is s)
            assert (qsa_witness(reverse(t)) is None) == verdict
            assert (qsa_witness(redeclare(t, k)) is None) == verdict
    assert broken >= 9


def test_the_verdict_survives_reversal_on_small_random_structures():
    # about a third of these random structures are acyclic
    rng = random.Random(36)
    verdicts = set()
    for _ in range(300):
        s = random_structure(rng, rng.randint(2, 8))
        verdict = qsa_witness(s) is None
        verdicts.add(verdict)
        assert (qsa_witness(reverse(s)) is None) == verdict
        assert (qsa_witness(redeclare(s, rng.randrange(1 << 30))) is None) == verdict
    assert verdicts == {True, False}


def test_saturations_commute_with_reversal_and_redeclaration():
    rng = random.Random(6)
    inputs = [spec_structure(default_labels(n), n, 0.5) for n in range(1, 7)]
    inputs += [
        random_qsa_structure(default_labels(n), seed=rng.randrange(1 << 30), density=0.2)
        for n in range(1, 7)
    ]
    for k, s in enumerate(inputs):
        found = saturations(s)
        flipped = saturations(reverse(s))
        assert len(flipped) == len(found) > 0
        assert set(flipped) == {reverse(m) for m in found}
        # the walk runs over sorted labels, so a re-declaration changes
        # nothing it builds
        assert saturations(redeclare(s, k)).rows == found.rows
