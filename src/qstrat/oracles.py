"""Brute-force reference implementations that check the fast paths.

Each oracle computes by definition what a fast module computes another
way: ``enumerate_posets`` scans every relation for the partial orders;
the ``qso_*`` constructions build quasi-stratified orders from their
generating operations; ``csc_subsets_naive``, ``qsa_witness_naive`` and
``is_qsa_naive`` decide acyclicity over every subset; ``close_oracle``
intersects every saturation; ``qsc_property_suite`` scans the
consequence laws of closed structures tuple by tuple.  Tests, demos and
``selftest`` call them; no fast module imports this one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable

from .closure import qsc_violation
from .qsa import CscWitness, Prober, is_csc_subset, predominants
from .qso import QsOrder, qs_order_violation, stratum_base
from .qsseq import ENUMERATION_BOUND
from .relcore import (
    BinRel,
    Domain,
    Poset,
    Structure,
    _aligner,
    _columns,
    _embedded_weak,
    add_prec,
    add_weak,
    is_relational,
)
from .saturate import saturations


def add_element(s: Structure, x: str) -> Structure:
    if x in s.domain:
        raise ValueError(f"label already in domain: {x!r}")
    domain = Domain(s.domain.labels + (x,))
    prec = BinRel(domain, s.prec.rows + (0,))
    weak = BinRel(domain, s.weak.rows + (0,))
    return Structure(domain, prec, weak)


def reindex_structure(s: Structure, domain: Domain) -> Structure:
    """The same structure over a domain with equal label set."""
    return Structure(domain, s.prec.aligned_to(domain), s.weak.aligned_to(domain))


def reindex_poset(p: Poset, domain: Domain) -> Poset:
    return Poset(domain, p.prec.aligned_to(domain))


POSET_ENUMERATION_BOUND = 4
"""Largest domain ``enumerate_posets`` scans (2^12 relations at 4 events)."""


def enumerate_posets(labels: Iterable[str]) -> list[Poset]:
    """All partial orders over the labelled set, by brute force."""
    domain = Domain.of(labels)
    n = len(domain)
    if n > POSET_ENUMERATION_BOUND:
        raise ValueError(f"domain size {n} exceeds enumeration bound {POSET_ENUMERATION_BOUND}")
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    out: list[Poset] = []
    for mask in range(1 << len(slots)):
        rows = [0] * n
        for k, (i, j) in enumerate(slots):
            if mask >> k & 1:
                rows[i] |= 1 << j
        rel = BinRel(domain, tuple(rows))
        if rel.is_transitive():
            out.append(Poset(domain, rel))
    return out


def qso_empty() -> QsOrder:
    domain = Domain(())
    return QsOrder(Poset(domain, BinRel.empty(domain)))


def qso_add_isolated(q: QsOrder, x: str) -> QsOrder:
    """Add x unordered with every existing element."""
    if x in q.domain:
        raise ValueError(f"label already in domain: {x!r}")
    domain = Domain(q.domain.labels + (x,))
    return QsOrder(Poset(domain, BinRel(domain, q.prec.rows + (0,))))


def qso_seq_compose(q: QsOrder, r: QsOrder) -> QsOrder:
    """Sequential composition: everything in q precedes everything in r."""
    if q.domain.label_set & r.domain.label_set:
        raise ValueError("sequential composition requires disjoint domains")
    domain = Domain(q.domain.labels + r.domain.labels)
    nq = len(q.domain)
    tail = ((1 << len(r.domain)) - 1) << nq
    rows = tuple(row | tail for row in q.prec.rows) + tuple(row << nq for row in r.prec.rows)
    return QsOrder(Poset(domain, BinRel(domain, rows)))


def is_qso_stratum(q: QsOrder) -> bool:
    return len(q) > 0 and bool(stratum_base(q))


def qso_projection(q: QsOrder, subset: Iterable[str]) -> QsOrder:
    """Restriction to a label subset; the class is closed under this, so
    a projection that is not quasi-stratified means q was not."""
    prec = q.prec.restrict(subset)
    if qs_order_violation(prec) is not None:
        raise ValueError("not a quasi-stratified order")
    return QsOrder(Poset(prec.domain, prec))


SUBSET_SCAN_BOUND = 12
"""Largest domain the subset-scan oracles take (2^12 subsets at 12 events)."""


def csc_subsets_naive(s: Structure) -> list[frozenset[str]]:
    """Every CSC subset, smallest first then lexicographic; the oracle."""
    n = len(s.domain)
    if n > SUBSET_SCAN_BOUND:
        raise ValueError(f"domain size {n} exceeds subset-scan bound {SUBSET_SCAN_BOUND}")
    rows = s._combined
    out: list[frozenset[str]] = []
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            if _strongly_connected(rows, combo):
                out.append(frozenset(s.domain.labels[i] for i in combo))
    return out


def _strongly_connected(rows: tuple[int, ...], members: tuple[int, ...]) -> bool:
    """True when the members, listed lowest first, reach one another
    inside their subset: a spread from the lowest along the edges, then
    one against them, each by plain loops over the members, covers the
    subset both times.  Shares no code with the fast ``_scc_masks``."""
    for edge in (lambda a, b: rows[a] >> b & 1, lambda a, b: rows[b] >> a & 1):
        reached, todo = {members[0]}, [members[0]]
        while todo:
            a = todo.pop()
            for b in members:
                if b not in reached and edge(a, b):
                    reached.add(b)
                    todo.append(b)
        if len(reached) < len(members):
            return False
    return True


def qsa_witness_naive(s: Structure) -> CscWitness | None:
    """Smallest, lexicographically least CSC subset without pre-dominant."""
    if not is_relational(s):
        raise ValueError("structure is not relational")
    for subset in csc_subsets_naive(s):
        if not predominants(s, subset):
            return CscWitness(subset)
    return None


def is_qsa_naive(s: Structure) -> bool:
    return is_relational(s) and qsa_witness_naive(s) is None


def close_oracle(s: Structure) -> Structure:
    """Closure by definition: intersect all saturations component-wise,
    on their rows.  prec is the AND of the orders' rows; weak is the
    embedding of their OR, as the meet of embeddings is the embedding
    of the join."""
    sats = saturations(s)
    n = len(s.domain)
    meet, join = [(1 << n) - 1] * n, [0] * n
    for rows in sats.rows:
        meet = [a & b for a, b in zip(meet, rows)]
        join = [a | b for a, b in zip(join, rows)]
    to_declared = _aligner(sats.ordered, s.domain)
    prec = BinRel(s.domain, to_declared(tuple(meet)))
    return Structure(s.domain, prec, BinRel(s.domain, to_declared(_embedded_weak(_columns(join)))))


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
    ``SUBSET_SCAN_BOUND`` and ``qsseq.ENUMERATION_BOUND``.  Input must be
    closed.
    """
    bad = qsc_violation(s)
    if bad is not None:
        raise ValueError(
            f"the property suite needs a closed structure; {bad[0]} fails on {bad[1]}"
        )
    labels = s.domain.labels
    n = len(labels)
    # bit tests on the rows, without holds_idx's position check: the
    # scans stay inside the domain, and run n^4 times
    prec, weak = s.prec.rows, s.weak.rows
    p = lambda i, j: prec[i] >> j & 1  # noqa: E731
    w = lambda i, j: weak[i] >> j & 1  # noqa: E731
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
        lambda x, y, z: w(x, z) and p(z, y) and w(y, x) and not (w(z, x) and w(x, y)),
    )
    scan(
        "prec_into_weak_cycle",
        4,
        lambda x, y, z, t: p(t, x) and w(x, z) and p(z, y) and w(y, x)
        and not (p(t, z) and p(t, y)),
    )
    scan(
        "prec_out_of_weak_cycle",
        4,
        lambda x, y, z, t: w(x, z) and p(z, y) and w(y, x) and p(x, t)
        and not (p(z, t) and p(y, t)),
    )
    scan(
        "weak_into_weak_cycle",
        4,
        lambda x, y, z, t: x != t and w(t, y) and w(y, x) and w(x, z) and p(z, y)
        and not w(t, x),
    )
    scan(
        "weak_out_of_weak_cycle",
        4,
        lambda x, y, z, t: p(z, y) and w(y, x) and w(x, z) and w(z, t) and t != x
        and not w(x, t),
    )
    scan(
        "double_route_gives_prec",
        4,
        lambda x, y, z, t: p(x, z) and w(z, y) and w(x, t) and p(t, y) and not p(x, y),
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
