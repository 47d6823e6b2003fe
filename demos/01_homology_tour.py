"""A tour of the homology engine on the shipped extensions.

For each demo algebra extension I <= A we print the cyclic homology of the
ideal, of the ambient algebra and of the relative complex, plus Hochschild
and bar dimensions, all in exact rational arithmetic.  The punchline is the
excision pattern: dim HC_n(I) = dim HC_n(A,I) in every degree.
"""

from excisionlab import Variant, homology
from excisionlab.chains import render_chain
from excisionlab.fileio import demo_corpus

for demo in demo_corpus():
    print("=" * 64)
    print(f"extension: {demo.name}  (dim A = {demo.algebra.dimension}, "
          f"dim I = {demo.ideal.dimension})")
    print(demo.notes)
    print()
    header = f"{'degree':>6} | {'HC(I)':>6} {'HC(A)':>6} {'HC(A,I)':>8} | {'HH(A)':>6} {'bar(I)':>7}"
    print(header)
    print("-" * len(header))
    for degree in range(4):
        hc_i = homology(demo.split, Variant("hc", "I"), degree)
        hc_a = homology(demo.split, Variant("hc", "A"), degree)
        hc_rel = homology(demo.split, Variant("hc", "relative"), degree)
        hh_a = homology(demo.split, Variant("hh", "A"), degree)
        bar_i = homology(demo.split, Variant("bar", "I"), degree)
        print(f"{degree:>6} | {hc_i.dimension:>6} {hc_a.dimension:>6} "
              f"{hc_rel.dimension:>8} | {hh_a.dimension:>6} {bar_i.dimension:>7}")
    print()
    reps = homology(demo.split, Variant("hc", "I"), 0).representatives
    print("degree-0 cyclic classes of the ideal (commutators quotiented away):")
    for rep in reps:
        print("   ", render_chain(rep))
    print()
