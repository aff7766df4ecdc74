"""Tour of the order classes on four events.

Builds the four-order hierarchy (total, stratified, interval, partial)
plus a quasi-stratified example sitting strictly between the stratified
and interval classes, and shows the constructive characterisations:
strata for stratified orders and integer intervals for interval orders.
"""

from qstrat import (
    interval_realization,
    is_interval_order,
    is_partial_order,
    is_qs_order,
    is_stratified_order,
    is_total_order,
    new_poset,
    stratified_partition,
)

examples = {
    "total chain": new_poset(
        "1234", [("1", "2"), ("2", "3"), ("3", "4"), ("1", "3"), ("2", "4"), ("1", "4")]
    ),
    "stratified, not total": new_poset(
        "1234", [("2", "3"), ("3", "4"), ("1", "3"), ("2", "4"), ("1", "4")]
    ),
    "quasi-stratified, not stratified": new_poset(
        "abcd", [("a", "c"), ("a", "d"), ("c", "d"), ("b", "d")]
    ),
    "interval, not quasi-stratified": new_poset("abcd", [("a", "c"), ("b", "d"), ("a", "d")]),
    "partial, not interval (2+2)": new_poset("1234", [("1", "3"), ("2", "4")]),
}

for name, poset in examples.items():
    print(f"== {name}")
    print(
        "   total={} stratified={} quasi-stratified={} interval={} partial={}".format(
            is_total_order(poset.prec),
            is_stratified_order(poset.prec),
            is_qs_order(poset.prec),
            is_interval_order(poset.prec),
            is_partial_order(poset.prec),
        )
    )
    strata = stratified_partition(poset)
    if strata is not None:
        print("   strata:", " | ".join("{" + ",".join(sorted(s)) + "}" for s in strata))
    intervals = interval_realization(poset.prec)
    if intervals is not None:
        cells = "  ".join(f"{x}:[{b},{e}]" for x, (b, e) in sorted(intervals.items()))
        print("   intervals:", cells)
    print()
