"""Seeded inputs for the benchmark, and the facts known about them.

Everything here is written against the definitions, not against the
library under test, so a change to the library cannot change the inputs
or the expected answers.

An order is built from a random stratum tree: a sequence of strata, each
stratum a non-empty base set of events plus either no children or a body
of at least two strata.  Earlier strata of a sequence precede later
ones; base events are unordered with everything else in their stratum.
The tree encoding is unique, so the tree's text is the canonical
decomposition of the order it decodes to.

Orders are bitmask rows over element indices: ``rows[i] >> j & 1`` means
element i precedes element j.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Stratum:
    base: tuple[int, ...]
    children: tuple["Stratum", ...] = ()


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------- trees


def random_tree(
    rng: random.Random, n: int, leaf_p: float = 0.45, width: float = 0.5
) -> tuple[Stratum, ...]:
    """A random stratum-tree sequence over the elements 0..n-1.

    A stratum of three or more elements is a leaf with probability
    ``leaf_p``; a sequence over k elements has at most ``width * k``
    strata, so a small width leaves more pairs unordered.
    """
    pool = list(range(n))
    rng.shuffle(pool)
    return _random_seq(rng, pool, 1, leaf_p, width)


def _random_seq(rng, pool, min_strata, leaf_p, width):
    count = rng.randint(min_strata, max(min_strata, int(len(pool) * width)))
    cuts = sorted(rng.sample(range(1, len(pool)), count - 1))
    blocks = [pool[i:j] for i, j in zip([0] + cuts, cuts + [len(pool)])]
    return tuple(_random_stratum(rng, block, leaf_p, width) for block in blocks)


def _random_stratum(rng, pool, leaf_p, width):
    if len(pool) < 3 or rng.random() < leaf_p:
        return Stratum(tuple(sorted(pool)))
    base_size = rng.randint(1, max(1, (len(pool) - 2) // 3))
    return Stratum(
        tuple(sorted(pool[:base_size])),
        _random_seq(rng, pool[base_size:], 2, leaf_p, width),
    )


def _members(st: Stratum) -> int:
    mask = 0
    for i in st.base:
        mask |= 1 << i
    for child in st.children:
        mask |= _members(child)
    return mask


def decode(seq: tuple[Stratum, ...], n: int) -> list[int]:
    """Precedence rows of the order a tree sequence describes."""
    rows = [0] * n
    _decode_seq(seq, rows)
    return rows


def _decode_seq(seq, rows) -> None:
    later = 0
    for st in reversed(seq):
        members = _members(st)
        for i in _bits(members):
            rows[i] |= later
        later |= members
        _decode_seq(st.children, rows)


def shape(seq: tuple[Stratum, ...]) -> tuple[int, int, int]:
    """(elements, ordered pairs, rescan) of the order a sequence decodes
    to, from the tree alone.  Decomposition rescans the pairs inside
    every stratum; rescan sums the squares of those pair counts, the
    work of those rescans."""
    size = pairs = rescan = 0
    for st in seq:
        inner_size, inside, inner_rescan = shape(st.children)
        st_size = len(st.base) + inner_size
        pairs += inside + size * st_size
        rescan += inside * inside + inner_rescan
        size += st_size
    return size, pairs, rescan


def tree_text(seq: tuple[Stratum, ...], labels: list[str]) -> str:
    """Canonical one-line text: strata joined by " ; ", a node as
    "(base | children)", base members sorted by label."""

    def fmt(st: Stratum) -> str:
        base = ",".join(sorted(labels[i] for i in st.base))
        if not st.children:
            return base
        return f"({base} | {' '.join(fmt(c) for c in st.children)})"

    return " ; ".join(fmt(st) for st in seq)


# ----------------------------------------------------------- structures


def embed(rows: list[int]) -> tuple[list[int], list[int]]:
    """The maximal structure of an order: weak wherever the reverse
    precedence is absent."""
    n = len(rows)
    full = (1 << n) - 1
    cols = columns(rows)
    weak = [full & ~(1 << i) & ~cols[i] for i in range(n)]
    return list(rows), weak


def columns(rows: list[int]) -> list[int]:
    cols = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in _bits(row):
            cols[j] |= 1 << i
    return cols


def random_subset(rng: random.Random, rows: list[int], keep: float) -> list[int]:
    out = []
    for row in rows:
        kept = 0
        for j in _bits(row):
            if rng.random() < keep:
                kept |= 1 << j
        out.append(kept)
    return out


def structure_json(labels, prec, weak, order) -> str:
    """JSON input file, the domain declared in ``order`` (a permutation of
    the indices) so the library cannot lean on the generator's order.
    With ``weak`` None the file is a plain partial order."""

    def pairs(rows):
        return ", ".join(
            f'["{labels[i]}", "{labels[j]}"]' for i in order for j in sorted(_bits(rows[i]))
        )

    domain = ", ".join(f'"{labels[i]}"' for i in order)
    text = '{"domain": [%s], "prec": [%s]' % (domain, pairs(prec))
    if weak is not None:
        text += ', "weak": [%s]' % pairs(weak)
    return text + "}\n"


# ---------------------------------------------------------- independent checks


def subset_of(a: list[int], b: list[int]) -> bool:
    return all(x & ~y == 0 for x, y in zip(a, b))


def is_qs_order(rows: list[int]) -> bool:
    """The axiom: every two precedence pairs have one of five resolutions."""
    if any(row >> i & 1 for i, row in enumerate(rows)):
        return False
    pairs = [(i, j) for i, row in enumerate(rows) for j in _bits(row)]
    for x, y in pairs:
        rx, ry = rows[x], rows[y]
        for z, t in pairs:
            rz = rows[z]
            if (
                (rx >> t & 1 and rz >> y & 1)
                or (rx >> z & 1 and rx >> t & 1)
                or (rz >> x & 1 and rz >> y & 1)
                or (rows[t] >> y & 1 and rz >> y & 1)
                or (ry >> t & 1 and rx >> t & 1)
            ):
                continue
            return False
    return True


def is_maximal(prec: list[int], weak: list[int]) -> bool:
    """Maximal structure: irreflexive weak, prec is exactly the
    asymmetric part of weak, every distinct pair related, and prec a
    quasi-stratified order."""
    n = len(prec)
    for i in range(n):
        if weak[i] >> i & 1:
            return False
        for j in range(n):
            w_ij, w_ji = weak[i] >> j & 1, weak[j] >> i & 1
            if (prec[i] >> j & 1) != (w_ij and not w_ji):
                return False
            related = prec[i] >> j & 1 or prec[j] >> i & 1 or (w_ij and w_ji)
            if bool(related) != (i != j):
                return False
    return is_qs_order(prec)


def is_acyclic(prec: list[int], weak: list[int]) -> bool:
    """Quasi-stratified acyclicity by peeling: every strongly connected
    component of the combined relation with two or more members must
    have a member untouched by precedence inside it, and what is left
    after removing those members must pass again."""
    n = len(prec)
    if any((prec[i] | weak[i]) >> i & 1 for i in range(n)):
        return False
    comb = [p | w for p, w in zip(prec, weak)]
    pcols = columns(prec)
    pending = [(1 << n) - 1]
    while pending:
        members = pending.pop()
        for comp in _components(comb, members):
            if comp.bit_count() < 2:
                continue
            free = 0
            for i in _bits(comp):
                if prec[i] & comp == 0 and pcols[i] & comp == 0:
                    free |= 1 << i
            if not free:
                return False
            pending.append(comp & ~free)
    return True


def _components(rows: list[int], members: int) -> list[int]:
    """Strongly connected components of the induced subgraph, by
    forward and backward reachability."""
    out = []
    cols = columns([r & members for r in rows])
    left = members
    while left:
        v = (left & -left).bit_length() - 1
        fwd = _reach(rows, members, v)
        back = _reach(cols, members, v)
        comp = fwd & back
        out.append(comp)
        left &= ~comp
    return out


def _reach(rows, members, v) -> int:
    seen = 1 << v
    frontier = seen
    while frontier:
        nxt = 0
        for i in _bits(frontier):
            nxt |= rows[i] & members
        frontier = nxt & ~seen
        seen |= frontier
    return seen


def realizes(rows: list[int], begin: list[int], end: list[int]) -> bool:
    """Intervals [begin, end] realize the order: x precedes y exactly when
    x ends strictly before y begins."""
    n = len(rows)
    for i in range(n):
        if begin[i] > end[i]:
            return False
        for j in range(n):
            if bool(rows[i] >> j & 1) != (end[i] < begin[j]):
                return False
    return True
