"""Command-line front end.

Structure files are single JSON documents::

    {"domain": ["a", "b"], "prec": [["a", "b"]], "weak": []}

``weak`` may be omitted, which marks the file as a plain partial order;
commands that need a two-relation structure then embed it (unordered
events become mutually weak).  Unknown keys, and a key named twice,
are rejected.  ``read_input`` reads a file in one unbuffered binary
read, makes its line ends "\\n" as text mode does, and decodes it once
into an ``InputFile``: its prec relation and its weak relation (None
when omitted) over one domain.  It opens the name that ``pathlib``
would open, so every message is the one a text-mode read gave.  The
cyclic collector stays paused from the parse until the parsed document
has been decoded and freed, so no collector pass scans its lists of
pairs; each run of pairs with one first label is decoded into one row
(``_relation``).

Verdicts are one line, ``PASS: <subject> is <class>`` or
``FAIL: not <class>; <detail>``.  ``close`` and ``saturate`` print
``check --class qsa``'s verdict (``_qsa_detail``) before they call the
library, and stop at its FAIL line on a structure that is not
quasi-stratified acyclic.  The decision is a table the structure caches
(``relcore.Structure._decision``), so the library's calls read it
again and a request decides acyclicity once; every FAIL line about
acyclicity comes from ``_qsa_detail`` alone.

``saturate`` prints each saturation from the tree over sorted labels
that ``saturate.saturations`` keeps, building no structure: its pairs,
the stratum tree that the walk built for it, and the order's interval
realization.  One walk of the tree (``qsseq.tree_order``) gives the
precedence rows, the weak rows and the intervals, each base spanning
the leaves of its stratum.  The realization is not checked at run
time: the ``qsseq`` module docstring proves that the spans realize the
order of any tree, and an exhaustive test checks them on every order
the command can print.  The distinct top-level trees of a request are
rendered in one fold, and the listing goes to stdout in one write.
One lister (``_pair_lister``) writes the pairs of rows in sorted-label
order, in each printer's pair form, for every pair printer:
``saturate``, ``close``'s added pairs and the JSON and DOT writers; it
writes each distinct row of a request once.
It picks a row's second labels from the row's binary numeral, read in
sorted-label order by one ``itemgetter`` per lister, with
``itertools.compress``, so no Python step is taken per pair.
Text outputs show each label through ``relcore.show_label``, which
quotes a label that holds a separator of those outputs.

Each order check past ``po`` reads the chain of the order's successor
sets at most once (``orders._realization``), which gives its interval
realization.  ``check --class io``, ``so`` and ``to`` and
``intervals`` decide by those intervals: an interval order is
stratified when every interval is a point, and total when the points
are also distinct.  ``check --class qso``, ``decompose`` and
``render --format tree`` group the events by interval into stratum
trees (``qsseq.order_trees``) and decide by whether the intervals
nest.  Each reads the precedence rows alone: on a passing order no
column table is built.  The axiom scans run only when the
construction fails, to name the witness of the FAIL line, and a scan
that finds none is an internal error.  ``intervals`` writes its
listing in one write.

Each command's help line and arguments are declared once, in one table
(``_COMMANDS``), which both the plain-argv reader and argparse read.
``main`` can be called many times in one process, and dispatches each
request to the ``cmd_<command>`` function by name.  A plain request
(each option spelled as declared with one value, no value or positional
starting with "-", nothing missing or left over, every value of the
right type and choice) is read straight from the table, with no parser
built and no argparse parse (``_settle``).  Any other request goes to
the top-level parser, built from the same table on first use and then
kept (``build_parser``), so every usage line, help text, message and
exit code is argparse's (``_parse``).

Exit codes: 0 pass/success, 1 check failed, 2 usage or input error,
3 internal error: any unexpected failure, such as a broken invariant of
the library, reported as ``internal error: ...`` on stderr (with the
traceback unless it is an ``InternalError``).  Input errors are raised
as ``InputError`` alone; any other exception, a ``ValueError`` from the
library included, is internal, as a refusal (``qsa.NotAcyclicError``)
after a passing verdict would be.  141: stdout was closed by its reader,
as when a pipe into ``head`` ends early; the output stops and nothing is
printed on stderr (a shell reports 141 for a process that SIGPIPE
ended).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import sys
import time
import traceback
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, chain, compress
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from . import closure, oracles, orders, qsa, qso, qsseq, saturate
from .relcore import (
    BinRel,
    Domain,
    InternalError,
    Poset,
    Structure,
    _bits,
    new_structure,
    poset_to_structure,
    show_label,
)


class InputError(Exception):
    """Malformed or unusable input file."""


@dataclass(frozen=True)
class InputFile:
    prec: BinRel
    weak: BinRel | None

    def structure(self) -> Structure:
        if self.weak is not None:
            return Structure(self.prec, self.weak)
        try:
            return poset_to_structure(Poset(self.prec))
        except ValueError as exc:
            raise InputError(f"cannot embed as a structure: {exc}") from exc


_NO_LABEL = object()  # equal to no JSON value


def _relation(value: object, key: str, domain: Domain, bit: dict[str, int]) -> BinRel:
    """The relation a file's list of pairs names, decoded straight into
    rows; bit maps each label to its row bit.  Each run of pairs that
    share a first label is gathered into one mask, written to that
    label's row when the first label changes: one position lookup and
    one row write per run.  Every qstrat writer groups a row's pairs, so
    a file has one run per row; a run that comes back is merged."""
    if not isinstance(value, list):
        raise InputError(f'"{key}" must be a list of pairs')
    index = domain.index
    if list(map(type, value)).count(list) == len(value):
        # every entry is a list: unpacking checks its length, and the
        # lookups fail on every member that is not a label (labels are
        # strings), so a well-formed list is decoded without a check per
        # entry.  A first label equal to the run's is a string equal to a
        # label that was looked up.
        n = len(domain)
        rows = [0] * (n + 1)  # and a spare row, which the first write hits with 0
        at, first, row = n, _NO_LABEL, 0
        try:
            for x, y in value:
                if x != first:
                    rows[at] |= row
                    at, first, row = index[x], x, 0
                row |= bit[y]
        except (KeyError, TypeError, ValueError):
            pass
        else:
            rows[at] |= row
            return BinRel(domain, tuple(rows[:n]))
    # name the first fault in file order; an entry's shape comes before
    # its labels
    shape = f'"{key}" entries must be two-element lists of strings'
    for item in value:
        if type(item) is not list or len(item) != 2 or {type(x) for x in item} != {str}:
            raise InputError(shape)
        for label in item:
            if label not in index:
                raise InputError(f"unknown label: {label!r}")
    raise InternalError(f'"{key}" did not decode, but no entry is at fault')


def _file_name(path: str | os.PathLike[str]) -> str:
    """The name that ``pathlib`` gives path on POSIX, and so the one that
    an error message shows: no empty or "." part, no separator at the
    end, "." for nothing, and a leading "//", which POSIX leaves to the
    system, kept."""
    name = os.fspath(path)
    root = "//" if name[:2] == "//" and name[2:3] != "/" else name[:1] if name[:1] == "/" else ""
    return root + "/".join([part for part in name.split("/") if part not in ("", ".")]) or "."


class _Repeated(dict):
    """A JSON object that names a key twice, with that key."""

    key: str


def _object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict, marked as a ``_Repeated`` when it names a key
    twice (``json.loads`` alone keeps the last); only the top-level
    object's mark is read."""
    data = dict(pairs)
    if len(data) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        data = _Repeated(data)
        data.key = next(key for key in data if counts[key] > 1)  # the first in file order
    return data


# a decoder with the hook above, built once as json.loads builds its own:
# json.loads with a hook builds a fresh one per call
_JSON = json.JSONDecoder(object_pairs_hook=_object)


def read_input(path: str | os.PathLike[str]) -> InputFile:
    """Decode a structure file, read in one unbuffered binary read and
    one decode, its line ends then made "\\n" as text mode makes them,
    so every decode error names the line and column it always named.  A
    file with several faults reports the first one met: the domain's,
    then those of "prec", then those of "weak", each list's entries in
    file order.

    The parse builds a list per pair, which the cyclic collector would
    scan while they are alive.  It is paused, if on, from the parse
    until both relations are decoded and the parsed document is gone,
    freed by reference counting, and the caller's setting is restored
    whatever the decode raises: the passes are not moved but never
    made."""
    try:
        with open(_file_name(path), "rb", buffering=0) as file:
            text = file.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if "\r" in text:  # the newlines that text mode would translate
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    paused = gc.isenabled()
    gc.disable()
    try:
        # the document lives in _decode's frame alone, so it is freed
        # when _decode returns, before the collector is back on
        return _decode(text, path)
    finally:
        if paused:
            gc.enable()


def _decode(text: str, path: str | os.PathLike[str]) -> InputFile:
    """The structure that a file's text names, with its first fault."""
    try:
        if text.startswith("\ufeff"):  # refused as json.loads refuses it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        data = _JSON.decode(text)
    except RecursionError as exc:
        raise InputError(f"{path} nests too deeply to decode") from exc
    except ValueError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("input must be a JSON object")
    if isinstance(data, _Repeated):
        raise InputError(f"duplicate key: {data.key!r}")
    unknown = set(data) - {"domain", "prec", "weak"}
    if unknown:
        raise InputError(f"unknown keys: {sorted(unknown)}")
    if "domain" not in data or "prec" not in data:
        raise InputError('input needs "domain" and "prec" keys')
    labels = data["domain"]
    if not isinstance(labels, list):
        raise InputError('"domain" must be a list of strings')
    try:
        domain = Domain(tuple(labels))
    except ValueError as exc:
        # a label that is no string is reported before any other fault
        if not all(isinstance(x, str) for x in labels):
            raise InputError('"domain" must be a list of strings') from None
        raise InputError(str(exc)) from exc
    try:  # a lone surrogate decodes from JSON but prints nowhere
        "".join(labels).encode("utf-8")
    except UnicodeEncodeError as exc:
        # labels are not empty, so the first bad character's label is
        # the first whose end lies past it
        label = labels[bisect_right(list(accumulate(map(len, labels))), exc.start)]
        raise InputError(f"label {label!r} is not encodable as UTF-8") from None
    bit = {label: 1 << i for i, label in enumerate(labels)}  # shared by both relations
    prec = _relation(data["prec"], "prec", domain, bit)
    return InputFile(prec, _relation(data["weak"], "weak", domain, bit) if "weak" in data else None)


def _pair_lister(
    labels: Sequence[str], names: Sequence[str], pair: str, sep: str
) -> Callable[[Sequence[int]], str]:
    """Writes the pairs of rows over the labels' positions in sorted-label
    order, each as ``pair.format(names[i], names[j])``, joined by sep.
    A row's second labels are picked from its binary numeral, with no
    Python step per pair: the numeral is written as bytes of 0 and 1
    (byte k is bit n - 1 - k), one ``itemgetter`` built here reads them
    in sorted-label order, and ``compress`` keeps the names whose byte is
    1.  A row's text is kept under its position and value for the life
    of the lister, so each distinct row of a request is written once:
    the orders that one ``saturate`` request prints share most of their
    rows."""
    n = len(labels)
    order = sorted(range(n), key=labels.__getitem__)
    ranked = [names[i] for i in order]
    # the trailing index keeps pick's result a tuple at n <= 1; compress
    # stops after the n names
    pick = itemgetter(*[n - 1 - i for i in order], 0)
    digits = bytes.maketrans(b"01", b"\0\1")
    before, middle, after = pair.split("{}")
    memos: list[dict[int, str]] = [{} for _ in order]  # per position, by row

    def text(rows: Sequence[int]) -> str:
        out = []
        for i in order:
            row = rows[i]
            if not row:
                continue
            texts = memos[i]
            line = texts.get(row)
            if line is None:
                numeral = format(row, "b").zfill(n).encode().translate(digits)
                head = before + names[i] + middle
                seconds = compress(ranked, pick(numeral))
                line = texts[row] = head + (after + sep + head).join(seconds) + after
            out.append(line)
        return sep.join(out)

    return text


def structure_json_text(s: Structure) -> str:
    """Canonical file form: domain order preserved, pairs sorted, one
    line per key."""
    # json.dumps' own encoder for a string, without its per-call set-up
    names = [encode_basestring_ascii(label) for label in s.domain.labels]
    pairs = _pair_lister(s.domain.labels, names, "[{}, {}]", ", ")
    prec, weak = pairs(s.prec.rows), pairs(s.weak.rows)
    return (
        "{\n"
        f'  "domain": [{", ".join(names)}],\n'
        f'  "prec": [{prec}],\n'
        f'  "weak": [{weak}]\n'
        "}\n"
    )


def _dot_id(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_text(s: Structure) -> str:
    """DOT rendering: solid arrows for precedence, dashed for weak."""
    labels = s.domain.labels
    names = [_dot_id(label) for label in labels]
    solid = _pair_lister(labels, names, "  {} -> {};\n", "")
    dashed = _pair_lister(labels, names, "  {} -> {} [style=dashed];\n", "")
    lines = ["digraph structure {\n  rankdir=LR;\n"]
    lines += [f"  {x};\n" for x in names]
    lines += [solid(s.prec.rows), dashed(s.weak.rows), "}\n"]
    return "".join(lines)


def _shown(labels: Sequence[str]) -> list[str]:
    return [show_label(label) for label in labels]


def _arrow_lister(labels: Sequence[str], names: Sequence[str]) -> Callable[[Sequence[int]], str]:
    """The ``x->y`` list of rows that ``close`` and ``saturate`` print,
    "(none)" for no pairs."""
    pairs = _pair_lister(labels, names, "{}->{}", ", ")
    return lambda rows: pairs(rows) or "(none)"


def _verdict(subject: str, wording: str, detail: str | None) -> int:
    """Print the verdict line of a class check; detail is None on a pass."""
    if detail is None:
        print(f"PASS: {subject} is {wording}")
        return 0
    print(f"FAIL: not {wording}; {detail}")
    return 1


def _fails_on(bad: tuple[str, tuple[str, ...]] | None) -> str | None:
    return None if bad is None else f"{bad[0]} fails on ({', '.join(_shown(bad[1]))})"


def _qso_verdict(witness: tuple[str, ...] | None) -> int:
    detail = None if witness is None else f"witness ({', '.join(_shown(witness))})"
    return _verdict("precedence relation", "a quasi-stratified order", detail)


def _self_loop_detail(s: Structure) -> str | None:
    for name, rel in [("prec", s.prec), ("weak", s.weak)]:
        if rel._loops:
            first = s.domain.labels[next(_bits(rel._loops))]
            return f"{name} relates {show_label(first)} to itself"
    return None


def _witness_detail(witness: qsa.CscWitness) -> str:
    return f"{{{', '.join(_shown(sorted(witness.subset)))}}} is {witness.note}"


def _qsa_detail(s: Structure) -> str | None:
    """None when s is acyclic, else its self-loop or the subset that
    ``qsa_witness`` names: the structure's one decision, asked first so
    that acyclic input pays for no self-loop scan."""
    if qsa.is_qsa(s):
        return None
    return _self_loop_detail(s) or _witness_detail(qsa.qsa_witness(s))


def _qsc_detail(s: Structure) -> str | None:
    bad = closure.qsc_violation(s)
    if bad is None:
        return None
    axiom, (x, y) = bad
    x, y = show_label(x), show_label(y)
    if axiom == "qsc:4":
        return f"{axiom}: adding {x} weak {y} breaks acyclicity, so {y} prec {x} is required but missing"
    if axiom == "qsc:3":
        return f"{axiom}: adding {x} prec {y} breaks acyclicity, so {y} weak {x} is required but missing"
    return f"{axiom}: fails on ({x}, {y})"


_ORDER_CLASSES = {
    "po": ("a partial order", orders.partial_order_violation),
    "to": ("a total order", orders.total_order_violation),
    "so": ("a stratified order", orders.stratified_order_violation),
    "io": ("an interval order", orders.interval_order_violation),
}

_STRUCTURE_CLASSES = {
    "relational": ("relational", _self_loop_detail),
    "qsa": ("quasi-stratified acyclic", _qsa_detail),
    "qsm": ("maximal", lambda s: _fails_on(saturate.qsm_violation(s))),
    "qsc": ("closed", _qsc_detail),
}


def cmd_check(args: argparse.Namespace) -> int:
    f = read_input(args.path)
    if args.cls in _ORDER_CLASSES:
        wording, finder = _ORDER_CLASSES[args.cls]
        return _verdict("precedence relation", wording, _fails_on(finder(f.prec)))
    if args.cls == "qso":
        return _qso_verdict(qso.qs_order_violation(f.prec))
    wording, detail = _STRUCTURE_CLASSES[args.cls]
    return _verdict("structure", wording, detail(f.structure()))


def cmd_close(args: argparse.Namespace) -> int:
    s = read_input(args.path).structure()
    detail = _qsa_detail(s)
    if detail is not None:
        return _verdict("structure", "quasi-stratified acyclic", detail)
    closed = closure.close(s).closed
    sys.stdout.write(structure_json_text(closed))
    added_prec = closure._gained(closed.prec, s.prec)
    added_weak = closure._gained(closed.weak, s.weak)
    if not any(added_prec) and not any(added_weak):
        print("already closed, 0 additions", file=sys.stderr)
    else:
        labels = s.domain.labels
        arrows = _arrow_lister(labels, _shown(labels))
        print(f"added prec: {arrows(added_prec)}", file=sys.stderr)
        print(f"added weak: {arrows(added_weak)}", file=sys.stderr)
    return 0


def cmd_saturate(args: argparse.Namespace) -> int:
    """Lists the saturations of the input, written to stdout at once.
    Each one's tree is walked once (``qsseq.tree_order``), which gives
    its precedence rows, its weak rows and its intervals, the leaf spans
    of its strata, printed unchecked, as they realize the order of any
    tree (the ``qsseq`` module docstring).  The pair rows and the
    top-level tree texts are each written once per request, as the
    saturations share most of them; no printed order is transposed and
    no structure is built per saturation."""
    if args.limit is not None and args.limit < 0:
        raise InputError(f"limit must be non-negative, got {args.limit}")
    s = read_input(args.path).structure()
    detail = _qsa_detail(s)  # the verdict comes first at every size
    if detail is not None:
        return _verdict("structure", "quasi-stratified acyclic", detail)
    n = len(s.domain)
    if n > qsseq.ENUMERATION_BOUND:
        raise InputError(f"domain size {n} exceeds enumeration bound {qsseq.ENUMERATION_BOUND}")
    sats = saturate.saturations(s, limit=args.limit)
    out = [f"{len(sats)} saturation(s){' (truncated)' if sats.truncated else ''}"]
    # rows and trees are over the positions of the sorted labels, so a
    # position's pairs, base members and interval print in label order
    labels = sats.ordered.labels
    names = _shown(labels)
    arrows = _arrow_lister(labels, names)
    # the distinct top-level trees of the request, rendered in one fold
    tops = dict.fromkeys(chain.from_iterable(sats.trees))
    texts = dict(zip(tops, qsseq.tree_texts(tuple(tops), labels, names)))
    # the intervals line with the names in place, filled by one % per order
    intervals = " ".join([f"{name.replace('%', '%%')}:[%d,%d]" for name in names])
    for k, trees in enumerate(sats.trees, start=1):
        rows, weak, bounds = qsseq.tree_order(n, trees)
        out += [f"-- saturation {k}", f"   prec: {arrows(rows)}", f"   weak: {arrows(weak)}"]
        if n > 0:
            out.append(f"   tree: {' ; '.join(map(texts.__getitem__, trees))}")
            out.append(f"   intervals: {intervals % bounds}")
    out.append("")
    sys.stdout.write("\n".join(out))
    return 0


def _print_tree(f: InputFile) -> int:
    """The stratum-tree text of a quasi-stratified order file, from its
    one encoding, which also decides the class."""
    try:
        trees = qsseq.order_trees(f.prec)
    except ValueError:
        return _qso_verdict(qso._witness(f.prec))
    if not trees:
        print("(empty)")
        return 0
    labels = f.prec.domain.labels
    print(" ; ".join(qsseq.tree_texts(trees, labels, _shown(labels))))
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    return _print_tree(read_input(args.path))


def cmd_intervals(args: argparse.Namespace) -> int:
    f = read_input(args.path)
    realization = orders.interval_realization(f.prec)
    if realization is None:
        orders._interval_witness(f.prec)  # raises InternalError when it finds none
        print("FAIL: not an interval order")
        return 1
    lines = [f"{show_label(label)}: [{b}, {e}]\n" for label, (b, e) in realization.items()]
    sys.stdout.write("".join(lines))
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    f = read_input(args.path)
    if args.format == "tree":
        return _print_tree(f)
    s = f.structure()
    if args.format == "dot":
        sys.stdout.write(dot_text(s))
    else:
        sys.stdout.write(structure_json_text(s))
    return 0


def default_labels(n: int) -> tuple[str, ...]:
    if n <= 26:
        return tuple(chr(ord("a") + i) for i in range(n))
    return tuple(f"e{i}" for i in range(1, n + 1))


def cmd_gen(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise InputError("--n must be non-negative")
    if args.n > qsa.GENERATION_BOUND:
        raise InputError(f"domain size {args.n} exceeds generation bound {qsa.GENERATION_BOUND}")
    if not 0.0 <= args.density <= 1.0:
        raise InputError("--density must lie in [0, 1]")
    s = qsa.random_qsa_structure(default_labels(args.n), seed=args.seed, density=args.density)
    sys.stdout.write(structure_json_text(s))
    return 0


def _selftest_qsa_oracle(max_n: int, rng: random.Random) -> Iterator[bool]:
    """Every structure on up to 3 events, then 300 random ones per size;
    after each size a line on stderr names its cases and seconds, as the
    larger sizes run long."""
    for n in range(1, max_n + 1):
        start, labels = time.perf_counter(), default_labels(n)
        slots = [(x, y) for x in labels for y in labels if x != y]
        count = 4 ** len(slots) if n <= 3 else 300
        for k in range(count):
            if n <= 3:
                pm, wm = divmod(k, 1 << len(slots))
                prec = [slots[i] for i in range(len(slots)) if pm >> i & 1]
                weak = [slots[i] for i in range(len(slots)) if wm >> i & 1]
            else:
                density = rng.uniform(0.05, 0.5)
                prec = [p for p in slots if rng.random() < density]
                weak = [p for p in slots if rng.random() < density]
            s = new_structure(labels, prec, weak)
            yield qsa.is_qsa(s) == oracles.is_qsa_naive(s)
        seconds = time.perf_counter() - start
        print(f"selftest: acyclicity n={n}: {count} cases, {seconds:.2f} s", file=sys.stderr, flush=True)


def _selftest_axioms_vs_enumeration(max_n: int) -> Iterator[bool]:
    for n in range(1, min(max_n, 4) + 1):
        labels = default_labels(n)
        enumerated = qso.enumerate_qs_orders(labels)
        generated = {o.prec.label_pairs for o in enumerated}
        recognized = {
            p.prec.label_pairs
            for p in oracles.enumerate_posets(labels)
            if qso.is_qs_order(p.prec)
        }
        yield len(generated) == len(enumerated) and generated == recognized


def _selftest_round_trip(max_n: int, rng: random.Random) -> Iterator[bool]:
    for n in range(1, min(max_n, 4) + 1):
        for order in qso.enumerate_qs_orders(default_labels(n)):
            yield qsseq.seq_to_order(qsseq.order_to_seq(order)) == order
    for _ in range(200):
        n = rng.randint(1, 8)
        seq = qsseq.random_qs_seq(default_labels(n), seed=rng.randrange(1 << 30))
        yield qsseq.order_to_seq(qsseq.seq_to_order(seq)) == seq


def _selftest_closure_oracle(max_n: int, rng: random.Random) -> Iterator[bool]:
    for _ in range(50):
        n = rng.randint(1, min(max_n, 5))
        s = qsa.random_qsa_structure(
            default_labels(n), seed=rng.randrange(1 << 30), density=rng.uniform(0.1, 0.6)
        )
        yield closure.close(s).closed == oracles.close_oracle(s)


def cmd_selftest(args: argparse.Namespace) -> int:
    """Run each suite up to its first failing case; a suite's line names
    the cases it ran and their seconds, and is flushed as it ends."""
    if args.max_n < 1:
        raise InputError("--max-n must be at least 1")
    if args.max_n > oracles.SUBSET_SCAN_BOUND:
        raise InputError(
            f"domain size {args.max_n} exceeds subset-scan bound {oracles.SUBSET_SCAN_BOUND}"
        )
    rng = random.Random(20240101)
    # generators: a suite draws from rng only while it runs, so in this order
    suites = [
        ("acyclicity: polynomial vs subset scan", _selftest_qsa_oracle(args.max_n, rng)),
        ("order axioms vs enumeration", _selftest_axioms_vs_enumeration(args.max_n)),
        ("tree codec round trips", _selftest_round_trip(args.max_n, rng)),
        ("closure vs saturation intersection", _selftest_closure_oracle(args.max_n, rng)),
    ]
    all_ok = True
    for name, cases in suites:
        start = time.perf_counter()
        ok, count = True, 0
        for ok in cases:
            count += 1
            if not ok:
                break
        all_ok = all_ok and ok
        seconds = time.perf_counter() - start
        verdict = "PASS" if ok else "FAIL"
        print(f"{name:<40} {count:>5} cases {seconds:>7.2f} s  {verdict}", flush=True)
    return 0 if all_ok else 1


# each command's help line and its arguments, in order: a positional's
# name or an option's flag, with the keywords that ``add_argument`` takes.
# An argument's destination is its "dest", or, as argparse makes it, the
# flag without its leading dashes and with "_" for each inner "-"
_PATH = ("path", {})
_COMMANDS: dict[str, tuple[str, list[tuple[str, dict]]]] = {
    "check": ("classify an input file", [_PATH, ("--class", {
        "dest": "cls", "required": True, "choices": [*_ORDER_CLASSES, "qso", *_STRUCTURE_CLASSES],
    })]),
    "close": ("compute the structure closure", [_PATH]),
    "saturate": ("enumerate all maximal extensions", [_PATH, ("--limit", {
        "type": int, "metavar": "N", "help": "print the first N saturations in generation order",
    })]),
    "decompose": ("print the stratum-tree decomposition", [_PATH]),
    "intervals": ("print an integer interval realization", [_PATH]),
    "render": ("re-serialize an input file", [
        _PATH, ("--format", {"choices": ["json", "dot", "tree"], "default": "json"}),
    ]),
    "gen": ("generate a random acyclic structure", [
        ("--n", {"type": int, "required": True}),
        ("--seed", {"type": int, "default": 0}),
        ("--density", {"type": float, "default": 0.35}),
    ]),
    "selftest": ("run the oracle equivalence suites", [
        ("--max-n", {"type": int, "default": 4}),
    ]),
}  # fmt: skip


def _plain(arguments: list[tuple[str, dict]]) -> tuple[dict, list, dict]:
    """A command's plain grammar: its options by flag and its positionals
    in order, each as (destination, keywords), and each destination's
    default, in the declared order, in which argparse sets them."""
    options, positionals, defaults = {}, [], {}
    for flag, keys in arguments:
        argument = (keys.get("dest", flag.lstrip("-").replace("-", "_")), keys)
        if flag[0] == "-":
            options[flag] = argument
        else:
            positionals.append(argument)
        defaults[argument[0]] = keys.get("default")
    return options, positionals, defaults


# each command's plain grammar, read off the table once
_GRAMMARS = {name: _plain(arguments) for name, (_, arguments) in _COMMANDS.items()}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built from ``_COMMANDS`` on first use and
    then kept: it holds no request state, and ``main`` dispatches on the
    command's name, so a command function patched in later is still the
    one run.  Only a request that ``_settle`` hands on builds it."""
    parser = argparse.ArgumentParser(
        prog="qstrat",
        description="Analyse quasi-stratified orders and their specification structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (line, arguments) in _COMMANDS.items():
        command = sub.add_parser(name, help=line)
        for flag, keys in arguments:
            command.add_argument(flag, **keys)
    return parser


def _settle(argv: list[str]) -> argparse.Namespace | None:
    """The request of a plain argv, read straight from the named
    command's grammar (``_GRAMMARS``), with no parser built, or None for
    any other argv.  Plain: each option spelled as declared and followed
    by one value, each value and positional not starting with "-", no
    positional missing or left over, every required option given, and
    each value taken by its argument's type and choices, as argparse
    takes them.  An option given twice keeps its last value, as in
    argparse."""
    grammar = _GRAMMARS.get(argv[0]) if argv else None
    if grammar is None:
        return None
    options, positionals, defaults = grammar
    values = dict(defaults)
    free, given = iter(positionals), set()
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            argument = options.get(token)
            token = next(tokens, "-")  # a missing value is no plain one
            if argument is None or token.startswith("-"):
                return None
            given.add(argument[0])
        else:
            argument = next(free, None)
            if argument is None:
                return None
        dest, keys = argument
        try:
            value = keys.get("type", str)(token)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if value not in keys.get("choices", [value]):
            return None
        values[dest] = value
    if next(free, None) is not None or any(k.get("required") and d not in given for d, k in options.values()):
        return None
    return argparse.Namespace(command=argv[0], **values)


def _parse(argv: list[str]) -> argparse.Namespace:
    """The request that argv names.  A plain argv is read from the
    command table (``_settle``), with no parser built and no argparse
    parse.  Any other goes to the top-level parser, built then, which
    prints the usage line and message, or the help, and exits as it
    always has: no command, an unknown one, an option before it, an
    abbreviated or ``--opt=value`` option, a value starting with "-" (a
    negative number too), a bad value, "-h", "--", an argument missing
    or left over."""
    args = _settle(argv)
    return build_parser().parse_args(argv) if args is None else args


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout has gone: point the descriptor at the null
        # device, so that the flush at exit has nowhere left to fail
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return 141
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
