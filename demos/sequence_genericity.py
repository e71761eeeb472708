"""Bi-infinite sequences: annihilators, genericity, and why translate
families collapse.

A sequence is *generic* when no nonzero finitely supported vector pairs
to zero against all of its translates; a family is *strongly generic*
when the translates of all members plus the weighted sequences (i*a_i)
are jointly independent.  This script walks the exact decision
procedures and then demonstrates the cutoff identity that makes any two
one-sided geometric sequences with distinct ratios dependent.
"""

from fractions import Fraction

from affwhit import (
    FinVector,
    FiniteSupport,
    Geometric,
    Recurrence,
    is_generic,
    is_strongly_generic_set,
    member_strong_genericity,
    minimal_annihilator,
    pairing,
    reconstruct,
    size,
    window_rank_check,
)

F = Fraction


def fmt(values):
    return "[" + ", ".join(str(v) for v in values) + "]"


def show(title):
    print()
    print(title)
    print("-" * len(title))


show("Recurrent sequences and their minimal annihilators")
fib = Recurrence(FinVector({0: -1, 1: -1, 2: 1}), [0, 1])
print("two-sided Fibonacci entries on [-6, 6]:",
      fmt(fib.entry(i) for i in range(-6, 7)))
v = minimal_annihilator(fib)
print("minimal annihilator:", v, "  size:", size(fib))
print("pairings <v^(n), fib> for n in [-4, 4]:",
      fmt(pairing(v.translate(n), fib) for n in range(-4, 5)))
rebuilt = reconstruct(v, [0, 1])
print("reconstruct(v, [0, 1]) agrees on [-10, 10]:",
      all(rebuilt.entry(i) == fib.entry(i) for i in range(-10, 11)))

const = Recurrence(FinVector({0: -1, 1: 1}), [1])
print("constant sequence verdict:", is_generic(const).kind,
      "witness:", is_generic(const).witness)

show("Nonzero finite support is always generic")
delta = FiniteSupport({1: 1})
print("delta-at-1 verdict:", is_generic(delta).kind)
print("but as a one-element family it is NOT strongly generic:")
print(" ", member_strong_genericity(delta).reason)
print("delta_0 + delta_1 IS strongly generic on its own:",
      member_strong_genericity(FiniteSupport({0: 1, 1: 1})).kind)

show("One-sided geometric sequences and the cutoff identity")
a, b = Geometric(2), Geometric(3)
print("a(2) on [-2, 5]:", fmt(a.entry(i) for i in range(-2, 6)))
print("each geometric member alone is strongly generic:",
      member_strong_genericity(a).kind)
print()
print("the cutoff at zero leaves a residue:  j*a^(-1) - a^(0) = -j*delta_1")
for j, s in ((2, a), (3, b)):
    row = fmt(j * s.entry(i - 1) - s.entry(i) for i in range(-3, 5))
    print(f"  ratio {j}: combination on [-3, 4] = {row}")
print("the residues are proportional to the SAME delta, so they cancel")
print("across two ratios:  3*(2a^(-1) - a^(0)) - 2*(3b^(-1) - b^(0)) =")
combo = [
    3 * (2 * a.entry(i - 1) - a.entry(i)) - 2 * (3 * b.entry(i - 1) - b.entry(i))
    for i in range(-6, 7)
]
print("  ", fmt(combo), " (identically zero)")

show("Consequence: families of geometrics are never strongly generic")
family = [Geometric(2), Geometric(3), Geometric(F(5, 2))]
verdict = is_strongly_generic_set(family)
print("verdict:", verdict.kind)
print("reason:", verdict.reason)
info = window_rank_check(family, 6, 20, True)
print(f"window evidence (S=6, W=20, weighted rows): rank {info.rank} of "
      f"{info.count} rows -> {'full rank' if info.full_rank else 'dependent'}")
print("12 shifted copies of the four-translate relation per independent")
print("pair account for all 42 - 18 = 24 missing ranks.")

show("A single geometric, by contrast, passes every window test")
info = window_rank_check([Geometric(2)], 2, 10, True)
print(f"rank {info.rank} of {info.count} rows: full rank = {info.full_rank}")
