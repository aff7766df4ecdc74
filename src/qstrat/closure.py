"""Closed structures and the structure closure.

A closed structure is the largest acyclic structure with a given set of
saturations; equivalently it is the component-wise intersection of
those saturations.  The practical route avoids enumerating saturations:
a one-step operator adds every pair whose opposite addition would break
acyclicity, and that one step already is the closure.  This generalises
the classical fact that a partial order is the intersection of its
total order extensions.

The closed structures are characterised by four axioms:

    qsc:1  both relations are irreflexive
    qsc:2  x prec y forbids y weak x
    qsc:3  if adding x prec y breaks acyclicity, y weak x is present
    qsc:4  if adding x weak y breaks acyclicity, y prec x is present

Why one step is exact, for an acyclic s and its saturations Sat(s).
First, acyclicity is hereditary and every acyclic extension of s lies
in some saturation of s, so s plus one pair is acyclic exactly when
some saturation holds that pair.  In a saturation two distinct events
are ordered one way or mutually weak (qsm:3), and y prec x holds
exactly when y weak x does and x weak y does not (qsm:2); so for
x != y a saturation holds y prec x exactly when it lacks x weak y, and
y weak x exactly when it lacks x prec y.  Second, y prec x is
therefore in every saturation exactly when no saturation holds
x weak y, that is exactly when adding x weak y to s breaks acyclicity:
the qsc:4 probe.  Dually y weak x is in every saturation exactly when
adding x prec y breaks acyclicity: the qsc:3 probe.  Saturations are
irreflexive and extend s, so the step, which keeps s and adds exactly
what the two probes force, yields the intersection of Sat(s).  Third,
that intersection lies between s and each saturation of s, so it has
the same saturations, and a second step adds nothing.  ``close`` is
therefore one ``closure_step``, followed by an O(n^2) check of qsc:1
and qsc:2 on its result that guards against a bug, not a hard input.
``oracles.close_oracle`` intersects the saturations instead and stays
the independent check.

Most of the closure follows from four laws without a probe.  The third
step of the ``qsa`` module docstring shows that each saturation, and so
the intersection, has a transitive P with P, P.W and W.P inside W.  The
law closure of s, the least structure holding s that obeys them (P the
transitive closure of s's precedence, W := P=.(W u P).P=, with P= the
reflexive P), therefore lies between s and its closure, and so it has
the same saturations and the same closure.  ``closure_step`` starts
from it: a pair in it needs no probe, and the probe of a pair in it
passes, since adding a pair of every saturation removes none.  The
probes still run against s, so the one decision and a refusal's witness
are s's own.

A sweep (``closure_step`` or ``qsc_violation``) probes pairs against one
``qsa.Prober`` and so decides the acyclicity of its input once.  On
acyclic input, adding one pair can only break the chain of components
through that pair (the ``qsa`` module docstring has the argument), so a
probe walks that chain instead of re-deciding the whole extension.  The
sweep probes a row at a time: for each event x and kind, one
``Prober.run_row`` over every y whose forced pair is absent, leaving out
on acyclic input the pairs already held, by s in ``qsc_violation`` and
by the law closure in ``closure_step``, whose probes pass.  Only a y
that reaches x can close a cycle through x -> y, so one mask, the
coreach set of x, rules out most of the row at once.  A y left outside
the component of x passes at once when it fails one of two certificates
(the ``qsa`` module docstring has both and their proof): for qsc:4, x or
y has no precedence pair inside reach(y) & coreach(x); for qsc:3, y has
no edge into the events that reach x through events touched by
precedence inside the union of those sets.  The y left in one component
share their reach set, so they walk one chain level together, and for
qsc:3 a y that is a pre-dominant of that component walks on alone, since
the precedence pair makes it touched.
qsc:1 and qsc:2 are read off row and column masks as well.
``oracles.qsc_property_suite`` scans the laws closed structures obey.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .qsa import (
    Prober,
    _refuse_unless_acyclic,
    qsa_witness,  # noqa: F401 - perfbench/test_perfbench.py traces this binding
)
from .relcore import BinRel, InternalError, Structure, _gather


def _pair_violation(s: Structure) -> tuple[str, tuple[str, str]] | None:
    """First witness against qsc:1 or qsc:2, row by row."""
    labels = s.domain.labels
    prec = s.prec.rows
    for i, (p, w) in enumerate(zip(prec, s.weak.rows)):
        if (p | w) >> i & 1:
            return "qsc:1", (labels[i], labels[i])
    for i, back in enumerate(s.weak.column_masks):
        hit = prec[i] & back  # the j with i prec j and j weak i
        if hit:
            return "qsc:2", (labels[i], labels[(hit & -hit).bit_length() - 1])
    return None


def law_closure(s: Structure) -> Structure:
    """The least structure holding s that obeys the four laws of every
    saturation (module docstring): P, the transitive closure of s's
    precedence pairs, and W := P=.(W u P).P=, which is P u P=.W.P=.

    Warshall skips a pivot whose row is empty when the loop reaches it:
    OR-ing it into the rows that hold the pivot changes none of them."""
    prec = list(s.prec.rows)
    for k in range(len(prec)):  # Warshall
        # the row as the earlier pivots grew it: one empty in s may not be
        bit, row = 1 << k, prec[k]
        if row:
            prec = [r | row if r & bit else r for r in prec]
    right = [w | _gather(prec, w) for w in s.weak.rows]  # W.P=
    weak = [p | r | _gather(right, p) for p, r in zip(prec, right)]  # P u P=.W.P=
    return Structure(BinRel(s.domain, tuple(prec)), BinRel(s.domain, tuple(weak)))


def _forced_pairs(prober: Prober, law: Structure):
    """Every (axiom, i, j), by positions, whose probe against the
    prober's structure s breaks acyclicity while law lacks the pair it
    forces: qsc:4 pairs first, then qsc:3, row-major.  law holds s and
    lies in s's closure: s itself, or its law closure.
    Each row is one ``Prober.run_row``.  On acyclic s a row leaves out
    the probes of the pairs that law holds: they lie in every
    saturation, so adding one keeps s acyclic."""
    n = len(law.domain)
    full = (1 << n) - 1
    for axiom, kind, forced, probed in (
        ("qsc:4", "weak", law.prec, law.weak),
        ("qsc:3", "prec", law.weak, law.prec),
    ):
        passing = probed.rows if prober.witness is None else (0,) * n
        for i, (present, held) in enumerate(zip(forced.column_masks, passing)):
            found = prober.run_row(i, full & ~present & ~held & ~(1 << i), kind)
            for j in sorted(found) if found else ():  # most rows find nothing
                yield axiom, i, j


def qsc_violation(s: Structure) -> tuple[str, tuple[str, str]] | None:
    """First witness against closedness, as (axiom id, pair).

    Probe axioms are scanned with qsc:4 ahead of qsc:3, so a missing
    precedence pair is reported before the weak pairs it entails.
    """
    found = _pair_violation(s)
    if found is None:
        labels = s.domain.labels
        for axiom, i, j in _forced_pairs(Prober(s), s):
            return axiom, (labels[i], labels[j])
    return found


def is_qsc(s: Structure) -> bool:
    return qsc_violation(s) is None


def closure_step(s: Structure) -> Structure:
    """One closure step: the law closure of the input, plus every pair
    that a probe against the input forces among those the laws leave
    open (module docstring).  Input that is not acyclic raises
    ``NotAcyclicError`` with the witness of its one decision."""
    _refuse_unless_acyclic(s, "can only close a quasi-stratified acyclic structure")
    prober = Prober(s)
    law = law_closure(s)
    prec_rows = list(law.prec.rows)
    weak_rows = list(law.weak.rows)
    for axiom, i, j in _forced_pairs(prober, law):
        (prec_rows if axiom == "qsc:4" else weak_rows)[j] |= 1 << i
    return Structure(BinRel(s.domain, tuple(prec_rows)), BinRel(s.domain, tuple(weak_rows)))


@dataclass(frozen=True)
class ClosureReport:
    """Closure outcome: the closed structure beside the given one, and
    the label pairs it added (the rows of ``_gained``), built on first
    read."""

    closed: Structure
    given: Structure

    @cached_property
    def added_prec(self) -> frozenset[tuple[str, str]]:
        return BinRel(self.given.domain, _gained(self.closed.prec, self.given.prec)).label_pairs

    @cached_property
    def added_weak(self) -> frozenset[tuple[str, str]]:
        return BinRel(self.given.domain, _gained(self.closed.weak, self.given.weak)).label_pairs


def close(s: Structure) -> ClosureReport:
    """The closure of an acyclic structure: one closure step, which adds
    exactly the pairs of the intersection of s's saturations."""
    closed = closure_step(s)
    if _pair_violation(closed) is not None:
        raise InternalError("closure step left a qsc:1 or qsc:2 violation")
    return ClosureReport(closed, s)


def _gained(after: BinRel, before: BinRel) -> tuple[int, ...]:
    """The rows of the pairs that after holds and before lacks, over one
    domain: what ``close`` added to a relation of its input."""
    return tuple(a & ~b for a, b in zip(after.rows, before.rows))

