"""Spans around the calls into each qstrat layer, recorded from outside.

``Tracer.install`` replaces each traced function in every ``qstrat``
module namespace that binds it (``qstrat.qsa.qsa_witness``,
``qstrat.closure.qsa_witness``, ``qstrat.qsa_witness``, ...), and in
the dispatch table ``qstrat.cli._ORDER_CLASSES``, with a wrapper that
records a span: function, start, end, parent span and request id.  Spans stay in
memory until ``uninstall``; ``layer_metrics`` then derives counts and
self times from them.  A layer is the module that defines the function.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

# Functions traced, by defining module (= layer).
TRACED = {
    "cli": ("main", "read_input", "structure_json_text"),
    "closure": ("close", "closure_step", "qsc_violation"),
    "qsa": ("qsa_witness", "is_qsa", "random_qsa_structure"),
    "relcore": ("add_prec", "add_weak", "extends"),
    "saturate": ("saturations", "all_qsm_structures", "qsm_violation", "qsm_to_qso"),
    "qso": ("enumerate_qs_orders", "qs_order_violation", "factorize_strata"),
    "qsseq": ("seq_to_order", "order_to_seq", "enumerate_qs_seqs"),
    "orders": (
        "partial_order_violation",
        "total_order_violation",
        "stratified_order_violation",
        "interval_order_violation",
        "interval_realization",
    ),
}

# Outcome tallies kept beside the spans, by function.
_FOUND = {"qsa.qsa_witness", "relcore.extends"}  # truthy / non-None results
_SIZED = {"qso.enumerate_qs_orders"}  # total length of results


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self.fn = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.request = array("l")
        self.current_request = -1
        self.found: dict[str, int] = {}
        self.sized: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper

    # ------------------------------------------------------------ wiring

    def install(self) -> None:
        if not self._wrappers:
            for layer, names in TRACED.items():
                module = sys.modules[f"qstrat.{layer}"]
                for name in names:
                    original = getattr(module, name)
                    self._wrappers[id(original)] = self._wrap(f"{layer}.{name}", layer, original)
        wrappers = self._wrappers
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qstrat" and not mod_name.startswith("qstrat."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._set(module, attr, wrappers[id(value)])
        # `check --class po/to/so/io` dispatches through this table of
        # (wording, finder) pairs
        table = sys.modules["qstrat.cli"]._ORDER_CLASSES
        for cls, (wording, finder) in list(table.items()):
            self._set(table, cls, (wording, wrappers[id(finder)]))

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._undo.clear()

    def _wrap(self, name: str, layer: str, fn):
        fid = len(self.names)
        self.names.append(name)
        self.name_layer.append(layer)
        stack, fns, starts, ends = self._stack, self.fn, self.start, self.end
        parents, requests = self.parent, self.request
        found = name in _FOUND
        sized = name in _SIZED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(fns)
            fns.append(fid)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.current_request)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if found and result is not None and result is not False:
                self.found[name] = self.found.get(name, 0) + 1
            if sized:
                self.sized[name] = self.sized.get(name, 0) + len(result)
            return result

        return wrapper

    # ----------------------------------------------------------- results

    def calls(self) -> dict[str, int]:
        out = dict.fromkeys(self.names, 0)
        for fid in self.fn:
            out[self.names[fid]] += 1
        return out

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span durations minus the time their child spans cover."""
        child = [0.0] * len(self.fn)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[idx] - self.start[idx]
        out = dict.fromkeys(TRACED, 0.0)
        for idx, fid in enumerate(self.fn):
            out[self.name_layer[fid]] += self.end[idx] - self.start[idx] - child[idx]
        return out

    def count_under(self, name: str, parent_name: str) -> int:
        """Spans of ``name`` whose direct parent is a ``parent_name`` span."""
        fid, pid = self.names.index(name), self.names.index(parent_name)
        return sum(
            1
            for idx, f in enumerate(self.fn)
            if f == fid and self.parent[idx] >= 0 and self.fn[self.parent[idx]] == pid
        )


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, as name -> (value, unit)."""
    calls = tracer.calls()
    self_s = tracer.self_seconds()

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    closes = calls["closure.close"]
    sweeps = tracer.count_under("closure.closure_step", "closure.close") + tracer.count_under(
        "closure.qsc_violation", "closure.close"
    )
    witness = calls["qsa.qsa_witness"]
    candidates = calls["relcore.extends"]
    enum_calls = calls["qso.enumerate_qs_orders"]
    qsm_calls = calls["saturate.all_qsm_structures"]
    out = {
        "closure.sweeps": (ratio(sweeps, closes), "sweeps/close"),
        "qsa.witness_calls": (witness, "count"),
        "qsa.witness_found_ratio": (ratio(tracer.found.get("qsa.qsa_witness", 0), witness), "ratio"),
        "relcore.single_pair_adds": (calls["relcore.add_prec"] + calls["relcore.add_weak"], "count"),
        "saturate.candidates": (candidates, "count"),
        "saturate.yield_ratio": (ratio(tracer.found.get("relcore.extends", 0), candidates), "ratio"),
        "saturate.cache_hit_ratio": (1.0 - ratio(enum_calls, qsm_calls) if qsm_calls else 0.0, "ratio"),
        "qso.enum_calls": (enum_calls, "count"),
        "qso.orders_enumerated": (tracer.sized.get("qso.enumerate_qs_orders", 0), "count"),
        "qso.recognize_calls": (calls["qso.qs_order_violation"], "count"),
        "qsseq.codec_calls": (
            calls["qsseq.seq_to_order"] + calls["qsseq.order_to_seq"] + calls["qsseq.enumerate_qs_seqs"],
            "count",
        ),
        "orders.scan_calls": (
            sum(calls[f"orders.{n}"] for n in TRACED["orders"]),
            "count",
        ),
    }
    for layer in TRACED:
        out[f"{layer}.self_s"] = (self_s[layer], "s")
    return out
