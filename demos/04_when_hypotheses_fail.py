"""What happens without local units: the pipeline refuses, with a witness.

The line spanned by E12 inside the upper-triangular matrices is a two-sided
ideal, but it is nilpotent: x*E12 = 0 for every x in the line, so no element
can act as a left unit.  Asking for a unit returns a NoLocalUnit value whose
witness names the target that cannot be fixed, and the inverse pipeline
raises instead of producing an unverifiable answer.
"""

from excisionlab import (
    boundary_b,
    canonicalize_cyclic,
    inverse_excision_class,
    pure_tensor,
    validate_ideal,
)
from excisionlab.algebra import Ideal, make_split_basis
from excisionlab.chains import render_chain
from excisionlab.fileio import demo_by_name
from excisionlab.linalg import SparseVector
from excisionlab.units import NoLocalUnit, NoLocalUnitError, find_local_left_unit

t2 = demo_by_name("t2-corner")
line = Ideal(t2.algebra, [SparseVector.from_list([0, 1, 0])])
assert validate_ideal(line) is None
print("span{E12} is a two-sided ideal of the upper-triangular matrices")

# the split lists E12 first, so in split coordinates the ideal's one basis
# element is the first unit vector
split = make_split_basis(line)
result = find_local_left_unit(split, [SparseVector.unit(split.dimension, 0)])
assert isinstance(result, NoLocalUnit)
print("unit solve:", result.detail)
print("witness target (nothing fixes it):",
      [str(v) for v in split.from_split(result.witness_target).to_list()])
print()

cycle = pure_tensor(split, (0, 1)) + pure_tensor(split, (0, 2))
assert canonicalize_cyclic(boundary_b(cycle)).is_zero()
print("a genuine relative cyclic cycle exists:", render_chain(cycle))
try:
    inverse_excision_class([canonicalize_cyclic(cycle)])
except NoLocalUnitError as exc:
    print("pipeline refused:", exc)
else:
    raise AssertionError("the pipeline should have refused")
