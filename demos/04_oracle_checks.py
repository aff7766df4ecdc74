"""Cross-checking the fast algorithms against brute force.

Every nontrivial decision in the library has an independent oracle:
the polynomial acyclicity check against the subset scan, the axiomatic
order recognition against exhaustive enumeration, and the one-step
closure against the intersection of all saturations.
"""

import random

from qstrat import (
    close,
    close_oracle,
    enumerate_posets,
    enumerate_qs_orders,
    is_qs_order,
    is_qsa,
    is_qsa_naive,
    new_structure,
    random_qsa_structure,
)

rng = random.Random(0)

print("polynomial acyclicity vs subset scan, 2000 random structures:")
agreements = 0
for _ in range(2000):
    n = rng.randint(2, 6)
    labels = "abcdef"[:n]
    slots = [(x, y) for x in labels for y in labels if x != y]
    density = rng.uniform(0.05, 0.5)
    s = new_structure(
        labels,
        [p for p in slots if rng.random() < density],
        [p for p in slots if rng.random() < density],
    )
    assert is_qsa(s) == is_qsa_naive(s)
    agreements += 1
print(f"  {agreements} agreements, 0 disagreements")

print("axioms vs enumeration over all labelled posets up to four events:")
for n in range(1, 5):
    posets = enumerate_posets("abcd"[:n])
    recognized = {p.prec for p in posets if is_qs_order(p.prec)}
    generated = {q.prec for q in enumerate_qs_orders("abcd"[:n])}
    assert recognized == generated
    print(f"  n={n}: {len(posets)} posets, {len(generated)} quasi-stratified")

print("one-step closure vs saturation intersection, 300 random acyclic structures:")
for i in range(300):
    n = 1 + i % 5
    s = random_qsa_structure("abcde"[:n], seed=i, density=0.35)
    assert close(s).closed == close_oracle(s)
print("  all equal")
