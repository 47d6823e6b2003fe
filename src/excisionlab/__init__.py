"""Exact cyclic and Hochschild homology of finite-dimensional associative
algebras over Q, with a certified inverse of the excision map for extensions
with local left units.

All arithmetic is exact rational; every homology equality the library claims
comes with an explicit higher-degree witness chain that can be re-verified
independently.
"""

from .algebra import (
    Algebra,
    AssociativityFailure,
    Ideal,
    NotTwoSided,
    SplitBasis,
    make_split_basis,
    opposite_algebra,
    validate_algebra,
    validate_ideal,
)
from .chains import (
    Chain,
    ComplexInvariantError,
    DegreeLimitError,
    HomologyReport,
    Variant,
    basis_tuples,
    boundary_b,
    boundary_matrix,
    canonicalize_cyclic,
    cyclic_t,
    filtration_level,
    homology,
    is_ideal_chain,
    pure_tensor,
    relative_membership,
    tensor_prepend,
)
from .excision import (
    BoundaryCertificate,
    CertificateSearchError,
    DescentCertificate,
    InverseInvariantError,
    InverseResult,
    IsomorphismReport,
    Mismatch,
    UnitActionError,
    closed_formula,
    descent_output,
    descent_step,
    inverse_excision,
    inverse_excision_class,
    isomorphism_witness,
    rho,
    rotate_to_ideal_initial,
    verify_certificate,
)
from .fileio import (
    DemoExtension,
    ParseError,
    RunReport,
    demo_by_name,
    demo_corpus,
    load_algebra,
    load_certificate,
    load_chain,
    save_algebra,
    save_certificate,
    save_chain,
)
from .linalg import (
    SparseMatrix,
    SparseVector,
    Unsolvable,
    kernel_basis,
    parse_scalar,
    solve,
)
from .units import (
    NoLocalUnit,
    NoLocalUnitError,
    UnitInvariantError,
    UnitSchedule,
    build_unit_schedule,
    find_local_left_unit,
)

__version__ = "0.1.0"
