"""Stratum trees: the canonical encoding of quasi-stratified orders.

A sequence is an ordered forest of set-labelled trees.  Each tree is a
stratum: its root holds the base events (simultaneous with everything
below them), and an internal node's children form an ordered sequence
of at least two sub-strata executed sequentially during the lifetime of
the base.  All base sets across a sequence are disjoint and non-empty.

``seq_to_order`` decodes a sequence into the order it describes and
``order_to_seq`` encodes a nonempty order back; the two are mutually
inverse, which is what makes the enumeration in :mod:`qstrat.qso`
duplicate-free.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from typing import Any, Iterable

from .qso import QsOrder, factorize_strata, qso_projection, stratum_base
from .relcore import BinRel, Domain, Poset


@dataclass(frozen=True)
class QssStratum:
    """One tree: a base set plus zero or at least two child strata."""

    base: frozenset[str]
    children: tuple[QssStratum, ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class QsSeq:
    """Ordered, domain-disjoint sequence of strata."""

    strata: tuple[QssStratum, ...]


def leaf(labels: Iterable[str]) -> QssStratum:
    return QssStratum(frozenset(labels))


def node(base: Iterable[str], children: Iterable[QssStratum]) -> QssStratum:
    return QssStratum(frozenset(base), tuple(children))


def stratum_domain(st: QssStratum) -> frozenset[str]:
    out = st.base
    for child in st.children:
        out |= stratum_domain(child)
    return out


def seq_domain(q: QsSeq) -> frozenset[str]:
    out: frozenset[str] = frozenset()
    for st in q.strata:
        out |= stratum_domain(st)
    return out


def seq_violation(q: QsSeq) -> str | None:
    """Description of the first formation-rule violation, or None."""
    if not q.strata:
        return "a sequence needs at least one stratum"
    seen: set[str] = set()

    def walk(st: QssStratum) -> str | None:
        if not st.base:
            return "empty base set"
        if seen & st.base:
            clash = sorted(seen & st.base)[0]
            return f"base sets must have mutually disjoint domains, {clash!r} repeats"
        seen.update(st.base)
        if len(st.children) == 1:
            return "an internal node needs at least two child strata"
        for child in st.children:
            bad = walk(child)
            if bad is not None:
                return bad
        return None

    for st in q.strata:
        bad = walk(st)
        if bad is not None:
            return bad
    return None


def is_valid_seq(q: QsSeq) -> bool:
    return seq_violation(q) is None


def seq_to_order(q: QsSeq) -> QsOrder:
    """Decode a sequence into its quasi-stratified order.

    The events are declared as the two constructions would add them:
    stratum by stratum, each stratum's body before its sorted base.
    """
    bad = seq_violation(q)
    if bad is not None:
        raise ValueError(f"invalid sequence: {bad}")
    labels: list[str] = []
    rows: list[int] = []
    _decode(q.strata, labels, rows)
    domain = Domain(tuple(labels))
    return QsOrder(Poset(domain, BinRel(domain, tuple(rows))))


def _decode(strata: tuple[QssStratum, ...], labels: list[str], rows: list[int]) -> None:
    """Append the events of a sequence of strata and their successor
    masks; every stratum precedes the later strata of its sequence."""
    start = len(labels)
    for st in strata:
        first = len(labels)
        _decode(st.children, labels, rows)
        labels.extend(sorted(st.base))
        rows.extend([0] * len(st.base))
        block = (1 << len(labels)) - (1 << first)
        for k in range(start, first):
            rows[k] |= block


def order_to_seq(q: QsOrder) -> QsSeq:
    """Encode a nonempty order as its unique stratum-tree sequence."""
    if len(q) == 0:
        raise ValueError("the empty order has no sequence encoding")
    return QsSeq(tuple(_encode_stratum(f) for f in factorize_strata(q)))


def _encode_stratum(q: QsOrder) -> QssStratum:
    base = stratum_base(q)
    rest = q.domain.label_set - base
    if not rest:
        return QssStratum(base)
    body = order_to_seq(qso_projection(q, rest))
    return QssStratum(base, body.strata)


def enumerate_qs_seqs(labels: Iterable[str], bound: int = 6) -> list[QsSeq]:
    """Every sequence with the given domain, duplicate-free.

    Walks the formation rules: ordered partitions of the label set into
    stratum domains, and for each stratum domain either a leaf or every
    split into a proper base plus a body of at least two strata.  The
    sequences and strata over each label subset are built once per call
    and shared within it; nothing outlives the call.
    """
    label_tuple = tuple(sorted(set(labels)))
    if len(label_tuple) > bound:
        raise ValueError(f"domain size {len(label_tuple)} exceeds enumeration bound {bound}")
    if not label_tuple:
        return []

    @cache
    def seqs_over(subset: tuple[str, ...]) -> tuple[QsSeq, ...]:
        out: list[QsSeq] = []
        for block, rest in _subsets(subset):
            heads = strata_over(block)
            if not rest:
                out.extend(QsSeq((head,)) for head in heads)
            else:
                tails = seqs_over(rest)
                out.extend(QsSeq((head,) + tail.strata) for head in heads for tail in tails)
        return tuple(out)

    @cache
    def strata_over(subset: tuple[str, ...]) -> tuple[QssStratum, ...]:
        out: list[QssStratum] = [QssStratum(frozenset(subset))]
        for base, rest in _subsets(subset):
            if len(rest) < 2:
                continue
            for body in seqs_over(rest):
                if len(body.strata) >= 2:
                    out.append(QssStratum(frozenset(base), body.strata))
        return tuple(out)

    return list(seqs_over(label_tuple))


def _subsets(labels: tuple[str, ...]) -> Iterable[tuple[tuple[str, ...], tuple[str, ...]]]:
    n = len(labels)
    for mask in range(1, 1 << n):
        inside = tuple(labels[i] for i in range(n) if mask >> i & 1)
        outside = tuple(labels[i] for i in range(n) if not mask >> i & 1)
        yield inside, outside


def random_qs_seq(labels: Iterable[str], seed: int) -> QsSeq:
    """A random valid sequence over the labels, deterministic per seed."""
    pool = sorted(set(labels))
    if not pool:
        raise ValueError("need at least one label")
    rng = random.Random(seed)
    return _random_seq(rng, pool, min_strata=1)


def _random_seq(rng: random.Random, pool: list[str], min_strata: int) -> QsSeq:
    pool = pool[:]
    rng.shuffle(pool)
    count = rng.randint(min_strata, len(pool))
    cuts = sorted(rng.sample(range(1, len(pool)), count - 1)) if count > 1 else []
    blocks = [pool[i:j] for i, j in zip([0] + cuts, cuts + [len(pool)])]
    return QsSeq(tuple(_random_stratum(rng, block) for block in blocks))


def _random_stratum(rng: random.Random, pool: list[str]) -> QssStratum:
    if len(pool) < 3 or rng.random() < 0.4:
        return QssStratum(frozenset(pool))
    base_size = rng.randint(1, len(pool) - 2)
    picked = pool[:]
    rng.shuffle(picked)
    base, rest = picked[:base_size], picked[base_size:]
    body = _random_seq(rng, rest, min_strata=2)
    return QssStratum(frozenset(base), body.strata)


def seq_to_json(q: QsSeq) -> list[dict[str, Any]]:
    """JSON form: a list of trees, base members sorted, leaves omit children."""

    def encode(st: QssStratum) -> dict[str, Any]:
        out: dict[str, Any] = {"base": sorted(st.base)}
        if st.children:
            out["children"] = [encode(c) for c in st.children]
        return out

    return [encode(st) for st in q.strata]


def seq_from_json(data: Any) -> QsSeq:
    if not isinstance(data, list):
        raise ValueError("sequence JSON must be a list of trees")

    def decode(item: Any) -> QssStratum:
        if not isinstance(item, dict) or not set(item) <= {"base", "children"}:
            raise ValueError("tree JSON must be an object with base and optional children")
        base = item.get("base")
        if not isinstance(base, list) or not all(isinstance(x, str) for x in base):
            raise ValueError("tree base must be a list of strings")
        children = item.get("children", [])
        if not isinstance(children, list):
            raise ValueError("tree children must be a list")
        return QssStratum(frozenset(base), tuple(decode(c) for c in children))

    return QsSeq(tuple(decode(item) for item in data))


def format_seq(q: QsSeq) -> str:
    """One-line rendering: strata joined by " ; ", nodes as "(base | children)"."""

    def fmt(st: QssStratum) -> str:
        base = ",".join(sorted(st.base))
        if st.is_leaf:
            return base
        return f"({base} | {' '.join(fmt(c) for c in st.children)})"

    return " ; ".join(fmt(st) for st in q.strata)
