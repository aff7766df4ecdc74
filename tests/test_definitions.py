"""Every irreflexive structure on 3 events against the paper's
definitions (``tests/definitions.py``), which share no code with the
library's deciders, walks, probes or oracles."""

import pytest

from qstrat import (
    Domain,
    NotAcyclicError,
    close,
    is_qsa,
    is_qsa_naive,
    is_qsc,
    legal_extensions,
    one_saturation,
    qsm_violation,
    saturations,
)

import definitions
from definitions import closure, embeddings, relations, slots, structure


def test_every_structure_on_three_events_meets_the_definitions():
    labels = ("a", "b", "c")
    domain = Domain(labels)
    maximal = embeddings(labels)
    assert len(maximal) == 19
    pairs = slots(labels)
    specs = [(prec, weak) for prec in relations(labels) for weak in relations(labels)]
    assert len(specs) == 4096
    acyclic = 0
    for spec in specs:
        s = structure(domain, spec)
        sats = definitions.saturations(spec, maximal)
        assert is_qsa(s) == bool(sats) == is_qsa_naive(s), spec
        assert (qsm_violation(s) is None) == (spec in maximal), spec
        if not sats:
            assert not is_qsc(s), spec
            for refused in (saturations, one_saturation, close):
                with pytest.raises(NotAcyclicError):
                    refused(s)
            with pytest.raises(NotAcyclicError):
                legal_extensions(s, "a", "b")
            continue
        acyclic += 1
        expected = {structure(domain, m) for m in sats}
        listed = list(saturations(s))
        assert len(set(listed)) == len(listed) and set(listed) == expected, spec
        assert one_saturation(s) in expected, spec
        closed = structure(domain, closure(sats))
        assert close(s).closed == closed, spec
        assert is_qsc(s) == (closed == s), spec
        for x, y in pairs:
            legal = legal_extensions(s, x, y)
            assert legal.prec_ok == any((x, y) in p for p, _ in sats), (spec, x, y)
            assert legal.weak_ok == any((x, y) in w for _, w in sats), (spec, x, y)
    assert acyclic == 448
