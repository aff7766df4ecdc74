"""Independent oracles past the sizes the brute-force ones reach: numpy's
boolean matrix products for the law closure and networkx's strongly
connected components for the path-based pass, at 64, 128 and 256 events.
Both packages are test-only; without them these tests skip."""

import random

import pytest

from qstrat import BinRel, Structure
from qstrat.cli import default_labels
from qstrat.closure import law_closure
from qstrat.relcore import _bits, _scc_masks

from conftest import dense_structure, nested_structure, spec_structure

np = pytest.importorskip("numpy")
nx = pytest.importorskip("networkx")

SIZES = [64, 128, 256]


def _sparse_prec(s):
    """s with the precedence rows of three events in four emptied."""
    rows = tuple(row if i % 4 == 0 else 0 for i, row in enumerate(s.prec.rows))
    return Structure(BinRel(s.domain, rows), s.weak)


def _inputs(n):
    """Spec-shaped and dense inputs, some with most precedence rows empty."""
    labels = default_labels(n)
    dense = dense_structure(labels)
    return [
        spec_structure(labels, n, 0.05),
        spec_structure(labels, n + 1, 0.3),
        dense,
        _sparse_prec(dense),
        _sparse_prec(spec_structure(labels, n + 2, 0.5)),
    ]


def _matrix(rows, n):
    """The boolean matrix whose row i has bit j of rows[i] at column j."""
    width = (n + 7) // 8
    data = np.frombuffer(b"".join(row.to_bytes(width, "little") for row in rows), dtype=np.uint8)
    return np.unpackbits(data.reshape(len(rows), width), axis=1, bitorder="little")[:, :n] == 1


def _product(a, b):
    # float products are exact here: every sum of 0/1 terms stays below n^2
    return a.astype(float) @ b.astype(float) > 0


@pytest.mark.parametrize("n", SIZES)
def test_law_closure_matches_boolean_matrix_products(n):
    mostly_empty = 0  # inputs with most precedence rows empty
    for s in _inputs(n):
        prec, weak = _matrix(s.prec.rows, n), _matrix(s.weak.rows, n)
        mostly_empty += (~prec.any(axis=1)).sum() > n // 2
        closed = prec
        while True:  # transitive closure by repeated squaring
            grown = closed | _product(closed, closed)
            if (grown == closed).all():
                break
            closed = grown
        reflexive = closed | np.eye(n, dtype=bool)
        expected_weak = closed | _product(_product(reflexive, weak), reflexive)
        law = law_closure(s)
        assert (_matrix(law.prec.rows, n) == closed).all()
        assert (_matrix(law.weak.rows, n) == expected_weak).all()
    assert mostly_empty >= 2


def _assert_components(rows, members):
    graph = nx.DiGraph()
    graph.add_nodes_from(_bits(members))
    graph.add_edges_from((i, j) for i in _bits(members) for j in _bits(rows[i] & members))
    found = _scc_masks(rows, members)
    expected = {sum(1 << v for v in comp) for comp in nx.strongly_connected_components(graph)}
    assert len(found) == len(expected) and set(found) == expected
    # reverse topological order: every edge leads to a component emitted no later
    emitted = {v: k for k, comp in enumerate(found) for v in _bits(comp)}
    assert all(emitted[j] <= emitted[i] for i, j in graph.edges)


@pytest.mark.parametrize("n", SIZES)
def test_scc_masks_match_networkx(n):
    rng = random.Random(n)
    graphs = [s._combined for s in _inputs(n)]
    # raw random graphs near the giant-component threshold, so components
    # of every size show up
    graphs += [
        tuple(sum(1 << j for j in range(n) if j != i and rng.random() < c / n) for i in range(n))
        for c in (1.0, 1.5, 3.0)
    ]
    # nested n/2, n - 1 events: one component over the domain, and one
    # of about half of them inside a random member mask
    graphs.append(nested_structure(n // 2)._combined)
    for rows in graphs:
        full = (1 << len(rows)) - 1
        _assert_components(rows, full)
        _assert_components(rows, rng.getrandbits(len(rows)) | 1)
