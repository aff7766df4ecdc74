"""The paper's definitions on small domains, in plain loops over label
pairs.

A relation here is a frozenset of label pairs and a structure a pair
(prec, weak) of them.  Nothing below calls the library's deciders, walks
or probes, so a fault there cannot hide in a reference built on it: the
only names taken from ``qstrat`` are ``Domain``, ``BinRel`` and
``Structure``, to build library values to compare with
(``tests/test_lint.py`` pins that).

- a partial order is a transitive set of pairs of distinct labels;
- it is quasi-stratified when every two of its pairs (x, y) and (z, t)
  meet one of the five resolutions the ``qso`` module docstring lists;
- its embedding keeps its pairs as precedence and holds x weak y for
  distinct x and y exactly when y does not precede x;
- a structure is acyclic exactly when some embedding extends it, its
  saturations are the embeddings that extend it, and its closure is
  their component-wise intersection.
"""

from itertools import product

from qstrat import BinRel, Domain, Structure

Pairs = frozenset[tuple[str, str]]
Spec = tuple[Pairs, Pairs]


def slots(labels: tuple[str, ...]) -> list[tuple[str, str]]:
    """The pairs of distinct labels, row-major."""
    return [(x, y) for x in labels for y in labels if x != y]


def relations(labels: tuple[str, ...]) -> list[Pairs]:
    """Every irreflexive relation over the labels."""
    pairs = slots(labels)
    return [
        frozenset(p for p, kept in zip(pairs, keep) if kept)
        for keep in product((False, True), repeat=len(pairs))
    ]


def is_transitive(order: Pairs) -> bool:
    """A partial order, for an irreflexive relation such as ``relations``
    lists."""
    return all((x, t) in order for x, y in order for z, t in order if y == z)


def is_quasi_stratified(order: Pairs) -> bool:
    for x, y in order:
        for z, t in order:
            if not (
                ((x, t) in order and (z, y) in order)
                or ((x, z) in order and (x, t) in order)
                or ((z, x) in order and (z, y) in order)
                or ((t, y) in order and (z, y) in order)
                or ((y, t) in order and (x, t) in order)
            ):
                return False
    return True


def embeddings(labels: tuple[str, ...]) -> list[Spec]:
    """The embedding of every quasi-stratified order over the labels."""
    pairs, out = slots(labels), []
    for order in relations(labels):
        if is_transitive(order) and is_quasi_stratified(order):
            weak = frozenset((x, y) for x, y in pairs if (y, x) not in order)
            out.append((order, weak))
    return out


def saturations(spec: Spec, maximal: list[Spec]) -> list[Spec]:
    """The maximal structures that hold both relations of spec."""
    prec, weak = spec
    return [(p, w) for p, w in maximal if prec <= p and weak <= w]


def closure(sats: list[Spec]) -> Spec:
    """The component-wise intersection of one or more saturations."""
    prec, weak = sats[0]
    for p, w in sats[1:]:
        prec, weak = prec & p, weak & w
    return prec, weak


def structure(domain: Domain, spec: Spec) -> Structure:
    """The library value of a structure given by its pairs."""
    prec, weak = spec
    return Structure(BinRel.from_pairs(domain, prec), BinRel.from_pairs(domain, weak))
