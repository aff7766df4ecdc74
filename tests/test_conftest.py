"""The suite's two counting helpers: ``spy`` and ``bit_length_calls``."""

import cProfile
import sys
import types

import pytest

import qstrat.orders
import qstrat.qso
import qstrat.relcore
from qstrat import BinRel, Domain, new_structure
from qstrat.qsa import Prober

from conftest import bit_length_calls, nested_structure, spy


def test_spy_shares_one_record_and_calls_each_owners_own_original(monkeypatch):
    first, second = types.ModuleType("first"), types.ModuleType("second")
    first.half, second.half = (lambda x: x // 2), (lambda x: -x // 2)
    calls = spy(monkeypatch, "half", first, second)
    assert (first.half(8), second.half(6), first.half(3)) == (4, -3, 1)
    with pytest.raises(TypeError):
        second.half("x")
    # the failing call is recorded too, before its original runs
    assert calls == [(8,), (6,), (3,), ("x",)]
    shown = spy(monkeypatch, "half", first, record=lambda x: f"half of {x}")
    assert first.half(5) == 2 and second.half(5) == -3
    assert shown == ["half of 5"] and calls == [(8,), (6,), (3,), ("x",), (5,), (5,)]


def test_spy_counts_a_method_and_a_classmethod_called_through_its_class(monkeypatch):
    s = new_structure("ab", [("a", "b")])
    expected = [Prober(s).extend(0, 1, "weak"), Prober(s).extend(1, 0, "prec")]
    domain, pairs = Domain.of("ab"), [("b", "a")]
    decoded = BinRel.from_pairs(domain, pairs)
    extends = spy(monkeypatch, "extend", Prober)
    built = spy(monkeypatch, "from_pairs", BinRel)
    prober = Prober(s)
    assert [prober.extend(0, 1, "weak"), prober.extend(1, 0, "prec")] == expected
    with pytest.raises(ValueError, match="two distinct events"):
        prober.extend(1, 1, "prec")
    assert extends == [(prober, 0, 1, "weak"), (prober, 1, 0, "prec"), (prober, 1, 1, "prec")]
    assert BinRel.from_pairs(domain, pairs) == decoded
    assert built == [(domain, pairs)]


def test_monkeypatch_puts_back_what_spy_patched(monkeypatch):
    def bindings():
        return (
            Prober.__dict__["extend"],
            BinRel.__dict__["from_pairs"],
            qstrat.qso._rows_leaving,
            qstrat.orders._rows_leaving,
        )

    originals = bindings()
    spy(monkeypatch, "extend", Prober)
    spy(monkeypatch, "from_pairs", BinRel)
    spy(monkeypatch, "_rows_leaving", qstrat.qso, qstrat.orders)
    assert not any(now is then for now, then in zip(bindings(), originals))
    monkeypatch.undo()
    assert all(now is then for now, then in zip(bindings(), originals))
    assert isinstance(BinRel.__dict__["from_pairs"], classmethod)


def test_bit_length_calls_nests_under_an_enabled_profiler():
    # cProfile's profiler is no Python hook that sys.setprofile can put
    # back; the count restores it through its own enable().  The outer
    # count puts back whatever hook the suite itself runs under
    s = nested_structure(12)
    plain = bit_length_calls(lambda: qstrat.relcore._peel(s))
    profiler, seen = cProfile.Profile(), []

    def profiled():
        profiler.enable()
        try:
            seen.append(bit_length_calls(lambda: qstrat.relcore._peel(s)))
            seen.append(sys.getprofile())
        finally:
            profiler.disable()

    bit_length_calls(profiled)
    assert plain > 0 and seen == [plain, profiler]
