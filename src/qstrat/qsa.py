"""Quasi-stratified acyclicity of two-relation structures.

The forbidden pattern is a combined strongly connected subset (CSC
subset: strongly connected over the union of the two relations) in
which every member is touched by a precedence pair, so no member can
serve as the base of a nested stratum.  A member untouched by
precedence inside the subset is a pre-dominant.

The decider peels pre-dominants off strongly connected components:
any strongly connected subset lies inside one component, any subset
meeting the component's pre-dominants inherits one (being a
pre-dominant survives restriction), and the remaining subsets live in
the component minus its pre-dominants.  ``oracles.qsa_witness_naive``
scans all subsets instead and is its check.  The decision is a table
the structure caches, ``relcore.Structure._decision`` (the peel is
``relcore._peel``): the mask of the first component without a
pre-dominant, or 0, with the levels the peel split.  ``qsa_witness``,
``is_qsa``, ``Prober`` and the one refusal helper,
``_refuse_unless_acyclic``, all read the mask, so no caller decides
the same structure twice; ``saturate.one_saturation`` reads the levels.

Single-pair probes ("does adding x prec y, or x weak y, break
acyclicity?") do not re-decide the extension.  Adding the combined edge
x -> y to an acyclic s can only create a forbidden subset containing
both x and y: every strongly connected subset of the extension that
misses x or y is strongly connected in s with the same pre-dominants,
so s's acyclicity gives it one.  The only component holding both is
reach(y) & coreach(x) in s, empty unless y already reaches x, and below
it at most one component per peel level holds both.  ``Prober`` walks
that chain of components alone, on bitmasks memoised per structure, and
stops at the first one without pre-dominant: the subset ``qsa_witness``
of the extension returns.  On a structure that is not acyclic every
probe returns the structure's own witness, which stays forbidden in
every extension.  Below the full domain, a level whose member set holds
no edge from j ends the walk with a pass: a path from j to i inside the
set would start with one, so the set holds no cycle through the new
edge, and the deeper levels are subsets of it.  The set still counts as
used (``extend`` below keeps the memos of the sets used since the last
new edge and drops the others), so the test comes after the marking:
placed before it, the test let ``extend`` drop memos that later walks
spread again, and a 48-event ``random_qsa_structure`` rose from 695
``_spread`` calls to 744.

``Prober.run_row(i, js, kind)`` probes a whole row, the pairs from i to
every j in the position mask js, and shares what those probes have in
common.  At each chain level, a member set M holding i, the pair i -> j
closes a cycle only when j reaches i inside M, so one mask, coreach_M(i),
rules out every other candidate at once; on the closure's sweeps that
is four probes in five.  The candidates left that lie in one component
of M have the same reach set inside M, so they share the level's
component reach_M(j) & coreach_M(i), its pre-dominants and the next
level.  The candidates of i's own component reach what i does; any
other component is found from its lowest candidate j as reach_M(j) &
coreach_M(j).  A precedence pair also takes j out of the pre-dominants,
so a candidate that is a pre-dominant of the component walks on alone,
and the others go on together.  A lone candidate walks its chain as
``run`` does, spreading reach_M(j) first; a pre-dominant j with no edge
into its member set passes without a walk, by the test above.  That set
goes unmarked, which can only cost memos that a later ``extend`` drops
(the closure's sweeps never extend).  A row that the coreach mask or
the certificates below leave empty returns before any grouping.

On the full domain, before any grouping, ``run_row`` settles most
candidates outside i's own component from its masks, by two
certificates, each a necessary condition for a failing probe.  Both rest
on one fact about a forbidden subset X of the extension.  X holds i and
j (above).  Every member of X is reached from j, and reaches i, along a
shortest path inside X, and such a path skips the new edge, which would
make it revisit j or pass i before its end; so X lies inside
comp = reach(j) & coreach(i) in s.  And every member of X other than
the ends of a new precedence pair has a precedence pair of s inside X.
For a weak pair both ends need one, so j passes when touch[i] & comp or
touch[j] & comp is empty, touch[v] being the events v has a precedence
pair with; at level 0 this is exact, since it says that i or j is a
pre-dominant of the level's component.  For a precedence pair, take the
shortest path from j to i inside X: its inner events are touched inside
X, so inside U, the union of comp over the row's candidates outside i's
component, and each reaches i through the ones after it.  So its second
event lies in R, i plus the events that reach i through events touched
inside U, and j passes when rows[j] & R is empty.  R costs one spread
over columns per row, and the columns it gathers on the way hold exactly
the j with an edge into R; U, where coreach(i) would also do, keeps that
spread as small as the candidates' own components.  The candidates of
i's own component go on to the grouping, which takes them in one step
where a certificate would take one each: on dense structures that
component holds most of the row.

A prober grows with its structure: ``Prober.extend`` adds each pair its
probe accepts and keeps its memos exact instead of starting over, by
the single-edge lemma.  Adding the edge i -> j changes the reach sets
inside a member set M only when M holds both i and j.  Then reach_M(j)
stays as it was, since a walk from j through the new edge comes back to
j; each reach_M(v) that holds i gains reach_M(j); and nothing changes
when i already reaches j inside M.  Dually each coreach_M(v) that holds
j gains coreach_M(i).  A precedence pair between i and j leaves the
pre-dominants of a component as they were unless the component holds
both, and then takes exactly i and j out of them.  So the memos of the
sets holding both that probes used since the last new edge are updated
in place, and those of the other sets holding both are dropped.

The full domain, level 0 of every chain, is not memoised: the prober
holds its reach and coreach sets as two lists by position, ahead and
back, exact at all times, so no spread runs over it.  They are built
from the condensation of the one ``_scc_masks`` pass over the whole
domain, the first level of the structure's decision
(``Structure._decision``, whose mask ``qsa_witness`` reads).  In emission
order each component comes after its successors, so its members reach
the component and what its successors reach; in the reverse order each
comes after its predecessors, and coreach sets are built the same way.
A new edge i -> j with j outside ahead[i] grows them by Italiano's rule
(G. F. Italiano, "Amortized efficiency of a path retrieval data
structure", TCS 1986).  A path v -> x that the edge creates runs
through it, and a shortest one uses it once, so it exists exactly when
v reaches i and j reaches x without the edge.  So every v in back[i]
gains ahead[j] and every x in ahead[j] gains back[i], and only the rows
of the v outside back[j] and of the x outside ahead[i] change; both
masks are taken before any row is written.

``random_qsa_structure`` rejects without a probe each candidate whose
reverse pair of the other kind it already knows to lie in the closure
of the structure grown so far, the intersection of its saturations
(``closure``).  Five steps make the rejections exact.  First, adding
pairs only removes saturations, so the closure only grows while the
structure does, and a pair once known to lie in it stays there.
Second, two distinct events of a saturation are ordered one way or
mutually weak (qsm:3), and x prec y holds exactly when x weak y does
and y weak x does not (qsm:2); so a saturation holds y weak x exactly
when it lacks x prec y.
Every acyclic extension lies in some saturation, so when adding
x prec y breaks acyclicity no saturation holds it, and every saturation
holds y weak x.  Dually a rejected x weak y puts y prec x in every
saturation.  Third, the prec of a saturation is transitive, and in each
saturation P is contained in W, and so are P.W and W.P: from x prec y
and y weak z, z prec x would give z prec y, and z = x would give
y weak x, against qsm:2.  So the four laws hold in the intersection
too.  The generator keeps P, the transitive closure of the precedence
pairs it knows, and W.P=, where W is the weak pairs it knows and P= is
P plus the identity; each pair it keeps is known as itself, each
rejected pair as the reverse pair above.
Fourth, the converse of the second step: by qsm:2 a saturation that
holds y weak x lacks x prec y, and one that holds y prec x lacks
x weak y.  Since every acyclic extension lies in some saturation,
adding x prec y breaks acyclicity exactly when the closure holds
y weak x, and adding x weak y does exactly when it holds y prec x.  So
one question, whether the facts put a pair in the closure, rejects a
candidate when asked of its reverse pair of the other kind, and the
facts of the third step answer it: a candidate of either kind is
rejected when y P x holds, and a candidate x prec y also when
y (P= . W . P=) x does.  Last, every other candidate is probed, so a
pair is kept only when its probe passes.

The generator's prober holds a basis of the structure it keeps: a
candidate that the facts put in the closure itself is kept without a
probe, and neither the prober nor the facts learn it.  The facts imply
every pair of the law closure of what they learned, P for a precedence
pair and L = P u P=.W.P= for a weak one, which the four laws put in the
closure (``closure.law_closure`` computes it in one batch).  This is
exact.  A pair p that lies in every saturation of s removes none, so
Sat(s + p) = Sat(s), and for every set Q of pairs s + p + Q is acyclic
exactly when s + Q is (an extension is acyclic exactly when it lies in
some saturation).  So by induction the prober's structure b and the
structure kept s have Sat(b) = Sat(s) at every step, every probe of b
answers as one of s would, and the two share one closure.  Skipping
``learn`` changes no answer of ``implies`` either, for the candidate or
for its reverse pair.  ``learn`` keeps weak_into equal to W.P= for the
W learned, so ``implies`` reads only P and L: it tests i P j for a
precedence pair i prec j and i L j for a weak pair.  Learning an
implied precedence pair is a no-op.  Learning an implied weak pair p
adds P=.p.P= to L, which lies in P=.L.P= = L since P is transitive;
after any later pairs are learned, with P' and L' in place of P and L,
p still lies in L' and adds nothing to it either.  Weak pairs never
change P, so whether p is learned or skipped the facts hold the same P
and the same L at every step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import ClassVar, Iterable, Sequence

from .relcore import (
    BinRel,
    Structure,
    _bits,
    _gather,
    _label_mask,
    _scatter,
    _scc_masks,
    _untouched,
    is_relational,
    new_structure,
)


@dataclass(frozen=True)
class CscWitness:
    """Certificate against quasi-stratified acyclicity."""

    subset: frozenset[str]
    note: ClassVar[str] = "strongly connected over the combined relation, no pre-dominant"


class NotAcyclicError(ValueError):
    """Refusal of a structure that is not quasi-stratified acyclic.
    ``witness`` is the forbidden subset that the one decision found, or
    None when the structure is not relational."""

    def __init__(self, message: str, witness: CscWitness | None) -> None:
        super().__init__(message)
        self.witness = witness


def predominants(s: Structure, subset: Iterable[str]) -> frozenset[str]:
    """Members of the subset with no precedence pair to any member."""
    mask = _label_mask(s.domain, subset)
    if not mask:
        raise ValueError("pre-dominants are defined for non-empty subsets")
    return frozenset(s.domain.labels[i] for i in _bits(_untouched(s.prec._touch, mask)))


def _witness(s: Structure, mask: int) -> CscWitness:
    return CscWitness(frozenset(s.domain.labels[i] for i in _bits(mask)))


def _spread(rows: tuple[int, ...], members: int, start: int) -> int:
    """The start mask plus every member it reaches along rows inside members."""
    seen = frontier = start
    while frontier:
        frontier = _gather(rows, frontier) & members & ~seen
        seen |= frontier
    return seen


def csc_components(s: Structure) -> list[frozenset[str]]:
    """Strongly connected components of the combined relation, in
    reverse topological order of the condensation."""
    labels = s.domain.labels
    return [
        frozenset(labels[i] for i in _bits(mask))
        for mask in s._decision.levels[(1 << len(s.domain)) - 1]
    ]


def is_csc_subset(s: Structure, subset: Iterable[str]) -> bool:
    """True when the subset induces a strongly connected combined graph."""
    members = _label_mask(s.domain, subset)
    return members != 0 and len(_scc_masks(s._combined, members)) == 1


GENERATION_BOUND = 256
"""Largest domain ``random_qsa_structure`` takes: it lists all 2n(n-1)
candidate pairs before the first probe."""


def qsa_witness(s: Structure) -> CscWitness | None:
    """The failing component of s's one decision (``Structure._decision``)
    as witness, or None when s is acyclic."""
    if not is_relational(s):
        raise ValueError("structure is not relational")
    return _witness(s, s._decision.forbidden) if s._decision.forbidden else None


def is_qsa(s: Structure) -> bool:
    return is_relational(s) and not s._decision.forbidden


def _refuse_unless_acyclic(s: Structure, message: str) -> None:
    """``NotAcyclicError`` with s's witness, None when s is not
    relational, unless s is acyclic."""
    if not is_qsa(s):
        raise NotAcyclicError(message, qsa_witness(s) if is_relational(s) else None)


class Prober:
    """Single-pair acyclicity probes against one structure, which
    ``extend`` grows pair by pair.

    ``witness`` is ``qsa_witness(s)``, read from s's one decision; a
    structure that is not relational raises ValueError.
    ``run(i, j, kind)`` takes two distinct positions and returns the
    bitmask of the witness that adding the pair (kind "prec" or "weak")
    from position i to position j creates, or 0 when the extension stays
    acyclic.  On a structure that is not acyclic it returns the mask of
    ``witness`` (``Structure._decision``) for every pair.  Any other
    kind, two equal positions or a position outside the domain raise
    ValueError before any state is read or written, in ``run_row`` and
    ``extend`` too (``_check_probe``).  Each probe walks only the chain
    of components through the pair (module docstring).  It holds every
    reach and coreach set of the whole domain; the reach sets below it
    and the pre-dominants it needs are memoised per prober: the probes
    of one structure revisit the same few components, and the memos go
    when the prober does.

    ``run_row(i, js, kind)`` answers ``run(i, j, kind)`` for every
    position j in the mask js at once, as {j: witness mask} over the j
    whose pair breaks acyclicity (module docstring).

    ``extend(i, j, kind)`` runs the same probe and, when it passes, adds
    the pair to the prober's structure, keeping the memos exact by the
    single-edge lemma and the whole domain's sets by Italiano's rule;
    ``structure()`` returns the structure grown so far.
    """

    def __init__(self, s: Structure) -> None:
        self.witness = qsa_witness(s)
        self._fixed = s._decision.forbidden
        self._domain = s.domain
        self._full = (1 << len(s.domain)) - 1
        self._prec, self._weak = list(s.prec.rows), list(s.weak.rows)
        self._rows = list(s._combined)
        self._cols = [a | b for a, b in zip(s.prec.column_masks, s.weak.column_masks)]
        self._touch = list(s.prec._touch)
        # position -> what it reaches, or is reached from, in the whole
        # domain, itself included; kept exact by extend
        self._ahead, self._back = _reach_tables(self._rows, self._cols, s._decision.levels[self._full])
        # members -> {v: v plus what v reaches, or is reached from, inside
        # members}, for the member sets below the full domain
        self._reach: dict[int, dict[int, int]] = {}
        self._coreach: dict[int, dict[int, int]] = {}
        # component -> its pre-dominants
        self._dominants: dict[int, int] = {}
        # the member sets and components probes used since the last new
        # combined edge
        self._recent: set[int] = set()

    def run(self, i: int, j: int, kind: str) -> int:
        n = len(self._rows)
        _check_probe(n, i, 1 << j if 0 <= j < n else -1, kind)
        if self._fixed:
            return self._fixed
        return self._chain(i, j, kind, self._full)

    def run_row(self, i: int, js: int, kind: str) -> dict[int, int]:
        _check_probe(len(self._rows), i, js, kind)
        if self._fixed:
            return dict.fromkeys(_bits(js), self._fixed)
        # the full domain first: a j that does not reach i closes no cycle,
        # and a j outside i's own component passes when it fails a
        # certificate (module docstring)
        back, own, touch = self._back[i], self._ahead[i], self._touch
        js &= back
        if not js:
            return {}
        others = js & ~own
        if others and kind == "weak":
            ahead, mine = self._ahead, touch[i] & back
            while others:
                j = others.bit_length() - 1
                comp = ahead[j] & back
                if not (mine & comp and touch[j] & comp):
                    js ^= 1 << j
                others ^= 1 << j
        elif others:  # keep the j with an edge into R
            union = _gather(self._ahead, others) & back  # U, the union of their comps
            inside = union & ~_untouched(touch, union) | 1 << i
            into, seen, frontier = 0, 1 << i, 1 << i
            while frontier:  # R is seen once this spread ends
                step = _gather(self._cols, frontier)
                into |= step
                frontier = step & inside & ~seen
                seen |= frontier
            js &= own | into
        if not js:
            return {}
        found: dict[int, int] = {}
        pending = [(self._full, js)]
        while pending:
            members, js = pending.pop()
            if not js & (js - 1):
                if js:
                    j = js.bit_length() - 1
                    mask = self._chain(i, j, kind, members)
                    if mask:
                        found[j] = mask
                continue
            if members == self._full:
                reach, coreach = self._ahead.__getitem__, self._back.__getitem__
            else:
                self._recent.add(members)
                reach = partial(_memo_spread, self._reach, self._rows, members)
                coreach = partial(_memo_spread, self._coreach, self._cols, members)
            back = coreach(i)
            js &= back  # a j that does not reach i closes no cycle
            own = reach(i) if js else 0
            while js:
                low = js & -js
                if own & low:  # i's own component: every member reaches what i does
                    comp = own & back
                    group = js & comp
                else:
                    j = low.bit_length() - 1
                    comp = reach(j) & back
                    group = js & comp
                    if group != low:  # keep the candidates of j's own component
                        group &= coreach(j)
                js ^= group
                dominants = self._dominants_of(comp)
                if kind == "prec":
                    dominants &= ~(1 << i)
                    alone = group & dominants
                    if alone:  # a pre-dominant j stops being one once it gains the pair
                        group ^= alone
                        for j in _bits(alone):
                            rest = dominants & ~(1 << j)
                            if not rest:
                                found[j] = comp
                            elif self._rows[j] & comp & ~rest:  # else j reaches nothing there
                                pending.append((comp & ~rest, 1 << j))
                if not dominants:
                    for j in _bits(group):
                        found[j] = comp
                elif not dominants >> i & 1:  # else no deeper level holds i
                    pending.append((comp & ~dominants, group & ~dominants))
        return found

    def _chain(self, i: int, j: int, kind: str, members: int) -> int:
        """The probe of one pair, from the chain level members on."""
        pair = 1 << i | 1 << j
        recent = self._recent
        # the component of i and j in the extension, then the one holding
        # both after each peel, until one has no pre-dominant; the searches
        # skip the new edge i -> j, which no path from j to i needs
        while members & pair == pair:
            if members == self._full:
                ahead, back = self._ahead[j], self._back[i]
                if not ahead >> i & 1:
                    return 0
            else:
                recent.add(members)
                if not self._rows[j] & members:  # j reaches nothing here, so not i
                    return 0
                ahead = _memo_spread(self._reach, self._rows, members, j)
                if not ahead >> i & 1:
                    return 0
                back = _memo_spread(self._coreach, self._cols, members, i)
            comp = ahead & back
            dominants = self._dominants_of(comp)
            if kind == "prec":
                dominants &= ~pair
            if not dominants:
                return comp
            members = comp & ~dominants
        return 0

    def _dominants_of(self, comp: int) -> int:
        """The pre-dominants of comp, memoised."""
        self._recent.add(comp)
        dominants = self._dominants.get(comp)
        if dominants is None:
            dominants = self._dominants[comp] = _untouched(self._touch, comp)
        return dominants

    def extend(self, i: int, j: int, kind: str) -> int:
        """``run(i, j, kind)``; when it returns 0 the pair joins the
        structure, so a pair that breaks acyclicity is never added.  The
        memos stay exact by the single-edge lemma, and the whole domain's
        sets by Italiano's rule (module docstring)."""
        mask = self.run(i, j, kind)
        if mask:
            return mask
        bit, pair = 1 << j, 1 << i | 1 << j
        (self._prec if kind == "prec" else self._weak)[i] |= bit
        if kind == "prec":
            self._touch[i] |= bit
            self._touch[j] |= 1 << i
            for comp in self._prune(self._dominants, pair):
                self._dominants[comp] &= ~pair
        if not self._rows[i] & bit:
            self._rows[i] |= bit
            self._cols[j] |= 1 << i
            if not self._ahead[i] & bit:
                _connect(self._ahead, self._back, i, j)
            for members in self._prune(self._reach, pair):
                _grow(self._reach[members], self._rows, members, i, j)
            for members in self._prune(self._coreach, pair):
                _grow(self._coreach[members], self._cols, members, j, i)
            self._recent = set()
        return 0

    def structure(self) -> Structure:
        """The structure probed, with every pair ``extend`` added."""
        domain = self._domain
        return Structure(
            domain, BinRel(domain, tuple(self._prec)), BinRel(domain, tuple(self._weak))
        )

    def _prune(self, memo: dict, pair: int) -> list[int]:
        """The keys of memo holding both events of pair that probes used
        since the last new combined edge; the other keys holding both are
        deleted from memo."""
        kept = []
        for key in [k for k in memo if k & pair == pair]:
            if key in self._recent:
                kept.append(key)
            else:
                del memo[key]
        return kept


def _check_probe(n: int, i: int, js: int, kind: str) -> None:
    """Refuses with ValueError a probe from position i to the positions
    of the mask js, over n events, that names a kind other than "prec"
    or "weak", else a position outside the domain (js -1 stands for
    one), else i among js.  Every probe checks here before it reads or
    writes any state."""
    if kind not in ("prec", "weak"):
        raise ValueError(f"unknown probe kind: {kind!r}")
    if not 0 <= i < n or js < 0 or js >> n:
        raise ValueError("a probe names positions of the domain only")
    if js >> i & 1:
        raise ValueError("a probe needs two distinct events")


def _reach_tables(
    rows: list[int], cols: list[int], comps: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Each position's reach and coreach set in the whole domain, itself
    included, from comps, the domain's components in ``_scc_masks``
    emission order: there a component's successors come first, so its
    reach set is itself plus theirs, and in the reverse order its
    coreach set is itself plus its predecessors'."""
    n = len(rows)
    ahead, back = [0] * n, [0] * n
    for table, edges, order in ((ahead, rows, comps), (back, cols, comps[::-1])):
        for comp in order:
            # a lone event, as most components are, needs no gather and
            # no scatter: its row is comp's union, its entry comp's
            single, v = not comp & (comp - 1), comp.bit_length() - 1
            spread, out = comp, (edges[v] if single else _gather(edges, comp)) & ~comp
            # each event out of comp has its final set already, itself
            # included, so the spread drops every event it then holds
            while out:
                spread |= table[out.bit_length() - 1]
                out &= ~spread
            if single:
                table[v] = spread
            else:
                _scatter(table, comp, spread)  # comp's entries are still 0
    return ahead, back


def _connect(ahead: list[int], back: list[int], i: int, j: int) -> None:
    """Make the whole domain's reach and coreach sets exact once the edge
    i -> j joins, j outside ahead[i] before (Italiano's rule, module
    docstring): each v in back[i] gains ahead[j], and each x in ahead[j]
    gains back[i].  Only the v outside back[j] and the x outside ahead[i]
    change, and both masks are taken before any row is written."""
    gain_ahead, gain_back = ahead[j], back[i]
    sources, targets = gain_back & ~back[j], gain_ahead & ~ahead[i]
    _scatter(ahead, sources, gain_ahead)
    _scatter(back, targets, gain_back)


def _memo_spread(memo: dict[int, dict[int, int]], rows: list[int], members: int, v: int) -> int:
    """``_spread`` from v inside members, memoised in memo."""
    known = memo.get(members)
    if known is None:
        known = memo[members] = {}
    found = known.get(v)
    if found is None:
        found = known[v] = _spread(rows, members, 1 << v)
    return found


def _grow(known: dict[int, int], rows: list[int], members: int, a: int, b: int) -> None:
    """Make the spreads inside members in known exact once rows hold the
    edge a -> b: each one holding a but not b gains b's, which the edge
    leaves as it was.  When a already reaches b inside members nothing
    changes: a spread holding a is closed under reach, so it holds b."""
    if known.get(a, 0) >> b & 1:
        return
    ahead = known.get(b)
    for v, spread in known.items():
        if spread >> a & 1 and not spread >> b & 1:
            if ahead is None:
                ahead = _spread(rows, members, 1 << b)
            known[v] = spread | ahead
    if ahead is not None:
        known[b] = ahead


def probe(s: Structure, x: str, y: str, kind: str) -> CscWitness | None:
    """Witness that adding the single pair x prec y (kind "prec") or
    x weak y (kind "weak") breaks acyclicity; None when it does not.

    A one-shot ``Prober``: build one yourself to probe many pairs of the
    same structure.  When s itself is not acyclic, the witness is s's
    own, since it stays forbidden in every extension.  An unknown label
    or kind, or two equal labels, raise ValueError before s is decided.
    """
    i, j = s.domain.position(x), s.domain.position(y)
    _check_probe(len(s.domain), i, 1 << j, kind)
    mask = Prober(s).run(i, j, kind)
    return _witness(s, mask) if mask else None


@dataclass(frozen=True)
class LegalExtensions:
    """Which single-pair additions between x and y keep the structure acyclic."""

    prec_ok: bool
    weak_ok: bool


def legal_extensions(s: Structure, x: str, y: str) -> LegalExtensions:
    """Input that is not acyclic raises ``NotAcyclicError``, once the
    two labels are known to be distinct labels of s."""
    if x == y:
        raise ValueError("legality probes need two distinct elements")
    i, j = s.domain.position(x), s.domain.position(y)
    _refuse_unless_acyclic(s, "legality probes need a quasi-stratified acyclic structure")
    prober = Prober(s)
    return LegalExtensions(
        prec_ok=not prober.run(i, j, "prec"),
        weak_ok=not prober.run(i, j, "weak"),
    )


class _ClosureFacts:
    """Pairs known to lie in the closure of a structure that only grows
    (module docstring): ``prec`` and ``prec_cols`` hold P, transitively
    closed, as row and column masks, and ``weak_into`` holds W.P= by
    columns: weak_into[v] has each a with a W b and b P= v for some b.
    ``implies`` is the one query: asked of a candidate's reverse pair of
    the other kind, it says that adding the candidate breaks
    acyclicity."""

    def __init__(self, n: int) -> None:
        self.prec, self.prec_cols, self.weak_into = [0] * n, [0] * n, [0] * n

    def learn(self, i: int, j: int, kind: str) -> None:
        """Record that the closure holds the pair i kind j."""
        prec, weak_into = self.prec, self.weak_into
        if kind == "weak":
            _scatter(weak_into, prec[j] | 1 << j, 1 << i)
        elif not prec[i] >> j & 1:
            heads, tails = self.prec_cols[i] | 1 << i, prec[j] | 1 << j
            _scatter(prec, heads, tails)
            # each event of tails gains heads, the events P= below i, so
            # its W.P= column gains i's; one loop for both tables, as two
            # scatters cost gen about 2%
            prec_cols, gained = self.prec_cols, weak_into[i]
            while tails:
                b = tails.bit_length() - 1
                prec_cols[b] |= heads
                weak_into[b] |= gained
                tails ^= 1 << b

    def implies(self, i: int, j: int, kind: str) -> bool:
        """True when the facts put the pair i kind j itself in the
        closure: i P j, or for a weak pair also i P= a W b P= j for some
        a and b."""
        ahead = self.prec[i]
        if ahead >> j & 1:
            return True
        return kind == "weak" and bool(self.weak_into[j] & (ahead | 1 << i))


def _shuffle(rng: random.Random, items: list) -> None:
    """``rng.shuffle(items)`` written out, without a Python frame per
    element: Fisher-Yates from the top, each swap index drawn below
    top + 1 by rejection from ``getrandbits`` of that bound's bit
    length, the draws ``random.Random.shuffle`` makes on CPython 3.11.
    The bounds are taken in runs of one bit length."""
    getrandbits = rng.getrandbits
    size = len(items)
    while size > 1:
        width = size.bit_length()
        floor = 1 << (width - 1)  # the least bound of this bit length
        for top in range(size - 1, floor - 2, -1):
            k = getrandbits(width)
            while k > top:
                k = getrandbits(width)
            items[top], items[k] = items[k], items[top]
        size = floor - 1


def random_qsa_structure(
    labels: Iterable[str], seed: int, density: float = 0.35
) -> Structure:
    """Random acyclic structure, deterministic per seed.

    Candidate pairs are visited in a seeded shuffle; each is kept with
    the given probability when the structure stays acyclic, so the
    result is acyclic by construction.  One ``Prober`` decides each
    candidate and grows by the pairs its probes accept, except for two
    kinds of candidate that the pairs learned so far decide (module
    docstring).  One whose reverse pair of the other kind they put in
    the closure breaks acyclicity without a probe.  One they put in the
    closure itself is kept without a probe and without growing the
    prober, which holds a basis with the saturations of the result.
    Raises ValueError beyond ``GENERATION_BOUND`` and for a density
    outside [0, 1], NaN included.
    """
    label_tuple = tuple(labels)
    n = len(label_tuple)
    if n > GENERATION_BOUND:
        raise ValueError(f"domain size {n} exceeds generation bound {GENERATION_BOUND}")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    rng = random.Random(seed)
    # candidate k is (which, i, j) in the order "prec" then "weak", i,
    # then j != i; a shuffle depends only on the length, so shuffling
    # the indices draws what shuffling the tuples would
    candidates = list(range(2 * n * (n - 1)))
    _shuffle(rng, candidates)
    # one draw per candidate, in shuffled order; the loop draws nothing
    draw = rng.random
    drawn = [k for k in candidates if draw() < density]
    empty = new_structure(label_tuple)
    prober, facts = Prober(empty), _ClosureFacts(n)
    rows = {"prec": [0] * n, "weak": [0] * n}
    # per-candidate constants and bound methods, taken once
    pairs, kinds = n * (n - 1), (("prec", "weak"), ("weak", "prec"))
    implies, learn, extend = facts.implies, facts.learn, prober.extend
    for k in drawn:
        kind, pair = divmod(k, pairs)
        i, j = divmod(pair, n - 1)
        j += j >= i
        which, other = kinds[kind]
        # when the closure holds the reverse pair of the other kind, no
        # saturation holds this one
        if implies(j, i, other):
            continue
        # a pair in the closure removes no saturation: neither the
        # prober nor the facts need it
        if not implies(i, j, which):
            if extend(i, j, which):
                # no saturation holds the pair, so each holds its reverse:
                # j weak i for i prec j, j prec i for i weak j
                learn(j, i, other)
                continue
            learn(i, j, which)
        rows[which][i] |= 1 << j
    domain = empty.domain
    return Structure(
        domain, BinRel(domain, tuple(rows["prec"])), BinRel(domain, tuple(rows["weak"]))
    )
