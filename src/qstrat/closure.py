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
``close_oracle`` intersects the saturations instead and stays the
independent check.

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

``qsc_property_suite`` evaluates the consequence laws that closed
structures satisfy, used to probe candidate axiomatisations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .qsa import (
    SUBSET_SCAN_BOUND,
    NotAcyclicError,
    Prober,
    csc_subsets_naive,
    is_csc_subset,
    predominants,
    qsa_witness,  # noqa: F401 - perfbench/test_perfbench.py traces this binding
)
from .qsseq import ENUMERATION_BOUND
from .relcore import BinRel, InternalError, Structure, add_prec, add_weak, is_relational
from .saturate import saturations


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
    """Closure outcome: the closed structure, what was added, and how
    many operator applications it took, which is one for every acyclic
    input (see the module docstring)."""

    closed: Structure
    added_prec: frozenset[tuple[str, str]]
    added_weak: frozenset[tuple[str, str]]
    iterations: int


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
        iterations=1,
    )


def close_oracle(s: Structure) -> Structure:
    """Closure by definition: intersect all saturations component-wise."""
    sats = saturations(s)
    n = len(s.domain)
    prec_rows = [(1 << n) - 1] * n
    weak_rows = [(1 << n) - 1] * n
    for m in sats:
        for i in range(n):
            prec_rows[i] &= m.prec.rows[i]
            weak_rows[i] &= m.weak.rows[i]
    return Structure(
        s.domain, BinRel(s.domain, tuple(prec_rows)), BinRel(s.domain, tuple(weak_rows))
    )


@dataclass(frozen=True)
class PropertyCheck:
    """Outcome of one derived-property scan."""

    name: str
    status: str  # "pass", "fail", or "not evaluated"
    witness: tuple[str, ...] | None = None


def qsc_property_suite(s: Structure) -> list[PropertyCheck]:
    """Scan the consequence laws of closed structures.

    Reports the first violating tuple per law.  The twin-predominant law
    scans every subset and the saturation-counting law needs enumeration;
    each is marked "not evaluated" on domains larger than its bound,
    ``qsa.SUBSET_SCAN_BOUND`` and ``qsseq.ENUMERATION_BOUND``.  Input
    must be closed.
    """
    bad = qsc_violation(s)
    if bad is not None:
        raise ValueError(
            f"the property suite needs a closed structure; {bad[0]} fails on {bad[1]}"
        )
    labels = s.domain.labels
    n = len(labels)
    p = s.prec.holds_idx
    w = s.weak.holds_idx
    checks: list[PropertyCheck] = []

    def record(name: str, found: tuple[str, ...] | None) -> None:
        checks.append(PropertyCheck(name, "fail" if found else "pass", found))

    def scan(name: str, arity: int, violated) -> None:
        for combo in product(range(n), repeat=arity):
            if violated(*combo):
                record(name, tuple(labels[i] for i in combo))
                return
        record(name, None)

    scan("prec_implies_weak", 2, lambda x, y: p(x, y) and not w(x, y))
    scan(
        "prec_weak_prec_gives_prec",
        4,
        lambda x, y, z, t: p(x, y) and w(y, z) and p(z, t) and not p(x, t),
    )
    scan(
        "mixed_chain_gives_weak",
        3,
        lambda x, y, z: ((w(x, y) and p(y, z)) or (p(x, y) and w(y, z))) and not w(x, z),
    )
    scan(
        "weak_prec_weak_gives_weak",
        4,
        lambda x, y, z, t: w(x, y) and p(y, z) and w(z, t) and t != x and not w(x, t),
    )
    scan(
        "weak_cycle_orients_base",
        3,
        lambda x, y, z: w(x, z)
        and p(z, y)
        and w(y, x)
        and not (w(z, x) and w(x, y)),
    )
    scan(
        "prec_into_weak_cycle",
        4,
        lambda x, y, z, t: p(t, x)
        and w(x, z)
        and p(z, y)
        and w(y, x)
        and not (p(t, z) and p(t, y)),
    )
    scan(
        "prec_out_of_weak_cycle",
        4,
        lambda x, y, z, t: w(x, z)
        and p(z, y)
        and w(y, x)
        and p(x, t)
        and not (p(z, t) and p(y, t)),
    )
    scan(
        "weak_into_weak_cycle",
        4,
        lambda x, y, z, t: x != t
        and w(t, y)
        and w(y, x)
        and w(x, z)
        and p(z, y)
        and not w(t, x),
    )
    scan(
        "weak_out_of_weak_cycle",
        4,
        lambda x, y, z, t: p(z, y)
        and w(y, x)
        and w(x, z)
        and w(z, t)
        and t != x
        and not w(x, t),
    )
    scan(
        "double_route_gives_prec",
        4,
        lambda x, y, z, t: p(x, z)
        and w(z, y)
        and w(x, t)
        and p(t, y)
        and not p(x, y),
    )

    found = None
    for x, y, z in product(range(n), repeat=3):
        if w(x, y) and p(y, z) and w(z, x):
            triple = frozenset((labels[x], labels[y], labels[z]))
            if not is_csc_subset(s, triple) or predominants(s, triple) != {labels[x]}:
                found = (labels[x], labels[y], labels[z])
                break
    record("weak_cycle_sole_predominant", found)

    if n <= SUBSET_SCAN_BOUND:
        found = None
        for subset in csc_subsets_naive(s):
            doms = predominants(s, subset)
            if len(doms) == 2:
                a, b = sorted(doms)
                if not (s.weak.holds(a, b) and s.weak.holds(b, a)):
                    found = (a, b)
                    break
        record("twin_predominants_mutually_weak", found)
    else:
        checks.append(PropertyCheck("twin_predominants_mutually_weak", "not evaluated"))

    run = Prober(s).run
    found = None
    acyclic_pairs = []
    for x, y in product(range(n), repeat=2):
        if x == y or p(x, y) or w(y, x):
            continue
        if run(y, x, "weak") or run(x, y, "prec"):
            if found is None:
                found = (labels[x], labels[y])
        else:
            acyclic_pairs.append((labels[x], labels[y]))
    record("open_pair_stays_acyclic", found)

    if n <= ENUMERATION_BOUND:
        total = len(saturations(s))
        found = None
        for x, y in acyclic_pairs:
            if (
                len(saturations(add_weak(s, y, x))) >= total
                or len(saturations(add_prec(s, x, y))) >= total
            ):
                found = (x, y)
                break
        record("open_pair_splits_saturations", found)
    else:
        checks.append(PropertyCheck("open_pair_splits_saturations", "not evaluated"))

    return checks
