"""One filtration descent at a time, with receipts.

We pick a cycle of the relative complex of the direct-sum extension whose
slots are not yet all inside the ideal, solve for a local left unit fixing
its initial slots, and apply the descent move.  Each step comes with the
exact identity

    input - output = b(homotopy)        (for cycles)

which we re-check by explicit boundary expansion, and each step lowers the
filtration level until the whole chain lives in the ideal's tensor space.
"""

from excisionlab import (
    boundary_b,
    descent_step,
    filtration_level,
    is_ideal_chain,
    pure_tensor,
    verify_certificate,
)
from excisionlab.chains import render_chain
from excisionlab.fileio import demo_by_name
from excisionlab.linalg import SparseVector
from excisionlab.units import find_local_left_unit

demo = demo_by_name("direct-sum")
split = demo.split

# a strict cycle: the idempotent P of the line and the matrix units E11, E21
cycle = pure_tensor(split, (2, 0, 4)) - pure_tensor(split, (0, 4, 2))
print("start:  ", render_chain(cycle))
print("b(start) =", render_chain(boundary_b(cycle)))
assert boundary_b(cycle).is_zero()
print("filtration level:", filtration_level(cycle))
print()

current = cycle
step = 0
while not is_ideal_chain(current):
    step += 1
    heads = sorted({tup[0] for tup in current.terms})
    # units and targets are split coordinates: f_i is the i-th unit vector
    targets = [SparseVector.unit(split.dimension, i) for i in heads]
    unit = find_local_left_unit(split, targets)
    print(f"step {step}: unit fixing the initial slots:",
          [str(v) for v in split.from_split(unit).to_list()])
    cert = descent_step(current, unit)
    assert verify_certificate(cert) is None
    assert boundary_b(cert.homotopy) == current - cert.output
    print(f"  output:   {render_chain(cert.output)}")
    print(f"  homotopy: {render_chain(cert.homotopy)}")
    print(f"  level {filtration_level(current)} -> {filtration_level(cert.output)}")
    current = cert.output
    print()

print("after", step, "steps the representative lies in the ideal's complex:",
      render_chain(current))
print("(zero is a perfectly good representative: this class dies in homology)")
