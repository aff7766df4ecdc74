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

A sweep (``closure_step`` or ``qsc_violation``) probes its 2 n^2 pairs
against one ``qsa.Prober`` and so decides the acyclicity of its input
once.  On acyclic input, adding one pair can only break the chain of
components through that pair (the ``qsa`` module docstring has the
argument), so a probe walks that chain instead of re-deciding the
whole extension.  The sweep probes a row at a time: for each event x
and kind, one ``Prober.run_row`` over every y whose forced pair is
absent.  Only a y that reaches x can close a cycle through x -> y, so
one mask, the coreach set of x, rules out most of the row at once; the
y left in one component share their reach set, so they walk one chain
level together, and for qsc:3 a y that is a pre-dominant of that
component walks on alone, since the precedence pair makes it touched.
qsc:1 and qsc:2 are read off row and column masks as well.
``oracles.qsc_property_suite`` scans the laws closed structures obey.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qsa import (
    NotAcyclicError,
    Prober,
    qsa_witness,  # noqa: F401 - perfbench/test_perfbench.py traces this binding
)
from .relcore import BinRel, InternalError, Structure, is_relational


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


def _forced_pairs(s: Structure, prober: Prober):
    """Every (axiom, (x, y)) whose probe against s breaks acyclicity while
    the pair it forces is absent: qsc:4 pairs first, then qsc:3, row-major.
    Each row is one ``Prober.run_row``."""
    labels = s.domain.labels
    n = len(labels)
    full = (1 << n) - 1
    for axiom, kind, forced in (("qsc:4", "weak", s.prec), ("qsc:3", "prec", s.weak)):
        for i, present in enumerate(forced.column_masks):
            found = prober.run_row(i, full & ~present & ~(1 << i), kind)
            for j in sorted(found):
                yield axiom, (labels[i], labels[j])


def qsc_violation(s: Structure) -> tuple[str, tuple[str, str]] | None:
    """First witness against closedness, as (axiom id, pair).

    Probe axioms are scanned with qsc:4 ahead of qsc:3, so a missing
    precedence pair is reported before the weak pairs it entails.
    """
    return _pair_violation(s) or next(_forced_pairs(s, Prober(s)), None)


def is_qsc(s: Structure) -> bool:
    return qsc_violation(s) is None


def closure_step(s: Structure) -> Structure:
    """One closure step: every probe runs against the input and all
    additions land simultaneously.  Input that is not acyclic raises
    ``NotAcyclicError`` with the witness of the prober's decision."""
    prober = Prober(s) if is_relational(s) else None
    if prober is None or prober.witness is not None:
        witness = None if prober is None else prober.witness
        raise NotAcyclicError("can only close a quasi-stratified acyclic structure", witness)
    index = s.domain.index
    prec_rows = list(s.prec.rows)
    weak_rows = list(s.weak.rows)
    for axiom, (x, y) in _forced_pairs(s, prober):
        rows = prec_rows if axiom == "qsc:4" else weak_rows
        rows[index[y]] |= 1 << index[x]
    return Structure(
        s.domain, BinRel(s.domain, tuple(prec_rows)), BinRel(s.domain, tuple(weak_rows))
    )


@dataclass(frozen=True)
class ClosureReport:
    """Closure outcome: the closed structure and what was added."""

    closed: Structure
    added_prec: frozenset[tuple[str, str]]
    added_weak: frozenset[tuple[str, str]]


def close(s: Structure) -> ClosureReport:
    """The closure of an acyclic structure: one closure step, which adds
    exactly the pairs of the intersection of s's saturations."""
    closed = closure_step(s)
    if _pair_violation(closed) is not None:
        raise InternalError("closure step left a qsc:1 or qsc:2 violation")
    return ClosureReport(
        closed=closed,
        added_prec=closed.prec.label_pairs - s.prec.label_pairs,
        added_weak=closed.weak.label_pairs - s.weak.label_pairs,
    )

