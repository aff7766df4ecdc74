"""A lower bound on ``close``: the least structure holding s that obeys
five laws of every saturation, computed on row masks with no library
helper, so that it checks ``close`` without sharing its code.

P and W stand for the precedence and weak precedence relations, and
products compose left to right: x P.W z when x P y and y W z for some
y.  The laws are

    (1) P is transitive;
    (2) P lies inside W;
    (3) P.W and W.P lie inside W;
    (4) the interval law: P.W.P lies inside P;
    (5) the quasi-stratified law: x P y, z P t, y W z and z W x give
        y P t.

Laws 1-3 are the ones ``closure.law_closure`` applies; laws 4 and 5 it
does not.

Why the bound lies inside close(s), for an acyclic s.  close(s) is the
intersection of the saturations of s (``closure`` module docstring).
Each law says that some pairs present give another pair.  When a law
holds in every saturation, it holds in that intersection: its premises
lie in every saturation, so its conclusion does too.  close(s) holds s,
so it holds the least structure that holds s and obeys all five laws,
which ``law_bound`` computes by applying them until nothing changes.

So each law must hold in every saturation.  A saturation is a maximal
structure: its P is a quasi-stratified order <, and for distinct x and
y, x W y holds exactly when y < x does not (qsm:2 and qsm:3); W is
irreflexive.

- Law 1: < is a partial order.
- Law 2: x < y rules out y < x, and x != y, so x W y.
- Law 3: let x < y and y W z.  If z < x, then z < y by law 1, against
  y W z; if z = x, then x < y against y W x.  So x W z, and W.P lies
  inside W by the mirror argument.
- Law 4: a quasi-stratified order is an interval order (``qso`` module
  docstring), so x < y and z < t give x < t or z < y.  y W z rules out
  z < y, so x < t.
- Law 5: for x < y and z < t a quasi-stratified order has one of the
  five resolutions of the ``qso`` module docstring: (a) x < t and
  z < y, (b) x < z and x < t, (c) z < x and z < y, (d) t < y and
  z < y, (e) y < t and x < t.  y W z rules out z < y, and with it (a),
  (c) and (d); z W x rules out x < z, and with it (b).  Only (e) is
  left, and it gives y < t.
"""


def _gather(table, mask):
    """The union of ``table[i]`` over the positions i of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


def _columns(rows):
    """The predecessors of each position: the rows written as one bit
    string, the last row first, read back every n-th character."""
    n = len(rows)
    text = "".join(format(row, "b").zfill(n) for row in reversed(rows))
    return [int(text[n - 1 - j :: n], 2) for j in range(n)]


def law_bound(prec, weak):
    """The precedence and weak rows of the least structure holding the
    rows prec and weak that obeys the five laws (module docstring)."""
    p, w = list(prec), list(weak)
    while True:
        for k in range(len(p)):  # law 1, by Warshall
            bit, row = 1 << k, p[k]
            if row:
                p = [r | row if r & bit else r for r in p]
        right = [_gather(p, b) for b in w]  # W.P
        w = [a | b | c for a, b, c in zip(p, w, right)]  # laws 2 and 3: P, W.P
        w = [b | _gather(w, a) for a, b in zip(p, w)]  # law 3: P.W
        # law 4: P.W.P adds to P what P.(W.P) adds for the W before laws
        # 2 and 3, as P is transitive
        grown = [a | _gather(right, a) for a in p]
        cols_p, cols_w = _columns(grown), _columns(w)
        # law 5: y P t for the t after a z with y W z and z W x, x P y
        grown = [a | _gather(grown, w[y] & _gather(cols_w, cols_p[y])) for y, a in enumerate(grown)]
        # laws 1-3 hold for p and w, so they are a fixpoint when 4 and 5 add nothing
        if grown == p:
            return p, w
        p = grown
