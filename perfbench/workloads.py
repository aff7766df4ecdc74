"""The three workloads: one cycle of requests at a time, plus the check
each request's output must pass.

A workload builds its requests one cycle at a time from a seeded
``random.Random``.  Every cycle has the same mix of sizes and kinds; the
seed picks only the contents.  ``tag`` names the cycle's files and
``pass_tag`` the pass, so two passes in one process never share labels.
A request is a ``qstrat`` argument list and a check on the exit code and
stdout; checks compare against facts known from generation (see
:mod:`gen`), never against the library.

Labels never contain ``->``, ``,`` or spaces, so the text outputs can be
split on them.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gen

Check = Callable[[int, str], "str | None"]


@dataclass
class Request:
    kind: str
    argv: list[str]
    check: Check
    # Where to write this request's stdout once it returns; a later
    # request of the same cycle reads that file.
    produces: Path | None = None


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def _rows_from(doc: dict, key: str, index: dict[str, int]) -> list[int]:
    rows = [0] * len(index)
    for x, y in doc[key]:
        rows[index[x]] |= 1 << index[y]
    return rows


def _passes(code: int, out: str) -> str | None:
    """Check for a ``check`` request on an input known to be in the class."""
    if code != 0 or not out.startswith("PASS:"):
        return f"expected PASS (exit 0), got exit {code}: {out[:80]!r}"
    return None


def _spec(rng: random.Random, n: int, keep: float, shuffle: bool = True):
    """A maximal structure m from a random stratum tree, a spec keeping
    each of m's pairs with probability ``keep``, and the order in which
    to declare the domain."""
    m = gen.embed(gen.decode(gen.random_tree(rng, n), n))
    spec = (gen.random_subset(rng, m[0], keep), gen.random_subset(rng, m[1], keep))
    perm = list(range(n))
    if shuffle:
        rng.shuffle(perm)
    return m, spec, perm


# ------------------------------------------------------------------ close


@dataclass
class Close:
    """``close <spec>`` then ``check --class qsc`` on the closed output.

    Each spec is a random subset of a maximal structure m, so it is
    acyclic and its closure lies between it and m.
    """

    # (n, share of m's pairs kept), one request each per cycle.  Sizes
    # step by 4 so that latencies spread without gaps.  The top of a
    # cycle is one (32, 0.3) close, three (32, 0.05) closes and then a
    # gap down to (28, 0.05): 26 requests, so p90 (the 2.6 slowest a
    # cycle) lands in the middle of the (32, 0.05) closes, never between
    # two size classes.
    specs: tuple[tuple[int, float], ...] = (
        *((n, keep) for n in (12, 16, 20, 24) for keep in (0.05, 0.3)),
        (28, 0.05), (32, 0.05), (32, 0.05), (32, 0.05), (32, 0.3),
    )  # fmt: skip

    def cycle(self, rng: random.Random, workdir: Path, tag: str, pass_tag: str) -> list[Request]:
        out: list[Request] = []
        order = list(range(len(self.specs)))
        rng.shuffle(order)
        for k in order:
            n, keep = self.specs[k]
            labels = [f"e{i}" for i in range(n)]
            m, spec, perm = _spec(rng, n, keep)
            path = _write(workdir / f"{tag}-c{k}.json", gen.structure_json(labels, *spec, perm))
            closed = workdir / f"{tag}-c{k}-closed.json"
            index = {x: i for i, x in enumerate(labels)}
            out.append(
                Request(f"close n={n}", ["close", str(path)], _closed_between(index, spec, m), closed)
            )
            out.append(Request(f"check qsc n={n}", ["check", "--class", "qsc", str(closed)], _passes))
        return out


def _closed_between(index, low, high) -> Check:
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"close exited {code}"
        doc = json.loads(out)
        if sorted(doc["domain"]) != sorted(index):
            return "closed output has another domain"
        prec, weak = _rows_from(doc, "prec", index), _rows_from(doc, "weak", index)
        if not (gen.subset_of(low[0], prec) and gen.subset_of(low[1], weak)):
            return "closed output lost a pair of the input"
        if not (gen.subset_of(prec, high[0]) and gen.subset_of(weak, high[1])):
            return "closed output has a pair outside a known saturation"
        return None

    return check


# --------------------------------------------------------------- saturate

LIMIT = 10  # saturations printed per request


@dataclass
class Saturate:
    """``saturate <spec> --limit 10`` on small specs.

    n=4 and n=5 specs each get labels never used before in the process,
    so the library's per-label-tuple caches miss, as in a fresh CLI
    process.  All n=6 specs of one pass share one label tuple, declared in
    one order: the first fills the caches, the rest hit them.
    """

    # Per cycle: four cold n=4, seven n=6 (warm after the first of the
    # pass) and three cold n=5, so the median falls among the n=6
    # requests and p90 among the n=5 ones.
    specs: tuple[tuple[int, float], ...] = (
        (4, 0.3), (4, 0.3), (4, 0.3), (4, 0.3),
        (6, 0.1), (6, 0.2), (6, 0.3), (6, 0.3), (6, 0.4), (6, 0.4), (6, 0.5),
        (5, 0.3), (5, 0.3), (5, 0.3),
    )  # fmt: skip
    shared_n: int = 6
    fresh: int = field(default=0, init=False)

    def cycle(self, rng: random.Random, workdir: Path, tag: str, pass_tag: str) -> list[Request]:
        out: list[Request] = []
        order = list(range(len(self.specs)))
        rng.shuffle(order)
        for k in order:
            n, keep = self.specs[k]
            if n == self.shared_n:
                labels = [f"{pass_tag}s{i}" for i in range(n)]
            else:
                self.fresh += 1
                labels = [f"{pass_tag}f{self.fresh}x{i}" for i in range(n)]
            # the caches key on the declared label order, so shared specs
            # keep one order
            m, spec, perm = _spec(rng, n, keep, shuffle=n != self.shared_n)
            path = _write(workdir / f"{tag}-s{k}.json", gen.structure_json(labels, *spec, perm))
            index = {x: i for i, x in enumerate(labels)}
            out.append(
                Request(
                    f"saturate n={n}",
                    ["saturate", str(path), "--limit", str(LIMIT)],
                    _saturations_ok(index, spec, m),
                )
            )
        return out


_HEADER = re.compile(r"(\d+) saturation\(s\)( \(truncated\))?$")


def _pairs_line(line: str, key: str, index: dict[str, int]) -> list[int]:
    prefix = f"   {key}: "
    if not line.startswith(prefix):
        raise ValueError(f"expected {key!r} line, got {line!r}")
    rows = [0] * len(index)
    body = line[len(prefix):]
    if body != "(none)":
        for pair in body.split(", "):
            x, y = pair.split("->")
            rows[index[x]] |= 1 << index[y]
    return rows


def _saturations_ok(index, spec, m) -> Check:
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"saturate exited {code}"
        lines = out.splitlines()
        head = _HEADER.match(lines[0]) if lines else None
        if head is None:
            return "missing saturation count"
        count, truncated = int(head.group(1)), head.group(2) is not None
        found = []
        for k, line in enumerate(lines):
            if line.startswith("-- saturation "):
                found.append((_pairs_line(lines[k + 1], "prec", index), _pairs_line(lines[k + 2], "weak", index)))
        if len(found) != count or count > LIMIT or (truncated and count != LIMIT):
            return f"printed {len(found)} saturations under a header of {count}"
        if len({(tuple(p), tuple(w)) for p, w in found}) != count:
            return "duplicate saturation"
        for prec, weak in found:
            if not gen.is_maximal(prec, weak):
                return "a printed saturation is not maximal"
            if not (gen.subset_of(spec[0], prec) and gen.subset_of(spec[1], weak)):
                return "a printed saturation does not extend the spec"
        if not truncated and (list(m[0]), list(m[1])) not in found:
            return "the generating maximal structure is missing"
        return None

    return check


# ------------------------------------------------------------- gen-orders


@dataclass
class GenOrders:
    """Two interleaved kinds of request.

    (a) ``gen --n N --density D``: the output must be relational and
    acyclic.  (b) ``check --class qso``, ``check --class io``,
    ``decompose`` and ``intervals`` on quasi-stratified orders decoded
    from random stratum trees.  The pair scans cost O(p^2) and
    decomposition rescans each stratum, so every order has a share of
    its pairs ordered within ``dense`` and a rescan (``gen.shape``) over
    pairs squared within ``rescan``: each costs about the same for every
    seed.
    """

    gens: tuple[tuple[int, float], ...] = tuple(
        (n, density) for n in (24, 32, 40, 48) for density in (0.1, 0.35)
    )
    orders: tuple[int, ...] = (32, 40, 48, 56, 64, 64)
    dense: tuple[float, float] = (0.55, 0.6)
    rescan: tuple[float, float] = (0.01, 0.1)

    def cycle(self, rng: random.Random, workdir: Path, tag: str, pass_tag: str) -> list[Request]:
        groups: list[list[Request]] = []
        for n, density in self.gens:
            argv = ["gen", "--n", str(n), "--seed", str(rng.randrange(1 << 30)), "--density", str(density)]
            groups.append([Request(f"gen n={n} d={density}", argv, _acyclic(n))])
        for k, n in enumerate(self.orders):
            labels = [f"v{i}" for i in range(n)]
            tree = self._tree(rng, n)
            rows = gen.decode(tree, n)
            perm = list(range(n))
            rng.shuffle(perm)
            path = str(_write(workdir / f"{tag}-o{k}.json", gen.structure_json(labels, rows, None, perm)))
            index = {x: i for i, x in enumerate(labels)}
            groups.append(
                [
                    Request(f"check qso n={n}", ["check", "--class", "qso", path], _passes),
                    Request(f"check io n={n}", ["check", "--class", "io", path], _passes),
                    Request(f"decompose n={n}", ["decompose", path], _text(gen.tree_text(tree, labels))),
                    Request(f"intervals n={n}", ["intervals", path], _intervals_ok(index, rows)),
                ]
            )
        rng.shuffle(groups)
        return [r for g in groups for r in g]

    def _tree(self, rng: random.Random, n: int) -> tuple[gen.Stratum, ...]:
        total = n * (n - 1) / 2
        while True:
            tree = gen.random_tree(rng, n, leaf_p=0.3, width=0.1)
            _, pairs, rescan = gen.shape(tree)
            if (
                pairs
                and self.dense[0] <= pairs / total <= self.dense[1]
                and self.rescan[0] <= rescan / pairs**2 <= self.rescan[1]
            ):
                return tree


def _acyclic(n: int) -> Check:
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"gen exited {code}"
        doc = json.loads(out)
        if len(doc["domain"]) != n:
            return f"gen produced {len(doc['domain'])} events, asked for {n}"
        index = {x: i for i, x in enumerate(doc["domain"])}
        if not gen.is_acyclic(_rows_from(doc, "prec", index), _rows_from(doc, "weak", index)):
            return "gen output is not relational and acyclic"
        return None

    return check


def _text(expected: str) -> Check:
    def check(code: int, out: str) -> str | None:
        if code != 0 or out.strip() != expected:
            return f"decomposition differs from the generating tree: {out.strip()[:80]!r}"
        return None

    return check


def _intervals_ok(index: dict[str, int], rows: list[int]) -> Check:
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"intervals exited {code}"
        begin, end = [0] * len(index), [-1] * len(index)
        seen = set()
        for line in out.splitlines():
            label, _, span = line.partition(": ")
            b, e = json.loads(span)
            begin[index[label]], end[index[label]] = b, e
            seen.add(label)
        if seen != set(index) or not gen.realizes(rows, begin, end):
            return "intervals do not realize the order"
        return None

    return check


WORKLOADS = {"close": Close, "saturate": Saturate, "gen-orders": GenOrders}
