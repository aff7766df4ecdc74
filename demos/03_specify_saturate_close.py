"""From a loose specification to all its executions and back to its closure.

Four transactions: a precedes c, b precedes d, a is not later than b,
and c is not later than d.  The structure is acyclic, so it specifies a
set of quasi-stratified executions; saturating lists all of them, and
intersecting them yields the closure, which makes the implied
relationship a-before-d explicit.
"""

from qstrat import (
    close,
    close_oracle,
    format_seq,
    interval_realization,
    new_structure,
    order_to_seq,
    qsm_to_qso,
    saturations,
)

spec = new_structure("abcd", [("a", "c"), ("b", "d")], [("a", "b"), ("c", "d")])
print("specification prec:", sorted(spec.prec.label_pairs))
print("specification weak:", sorted(spec.weak.label_pairs))
print()

sats = saturations(spec)
print(f"{len(sats)} maximal extensions (executions):")
for m in sats:
    order = qsm_to_qso(m)
    intervals = interval_realization(order.prec)
    cells = " ".join(f"{x}[{b},{e}]" for x, (b, e) in sorted(intervals.items()))
    print(f"  {format_seq(order_to_seq(order)):<18} intervals: {cells}")
print()

report = close(spec)
print("closure added prec:", sorted(report.added_prec))
print("closure added weak:", sorted(report.added_weak))
assert report.closed == close_oracle(spec)
print("one closure step equals the intersection of all saturations: ok")
