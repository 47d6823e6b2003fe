"""Sparse chain groups, the Hochschild/bar differentials, the cyclic operator,
coinvariants with canonical representatives, the ideal filtration, and homology.

A degree-n chain lives in the (n+1)-fold tensor power of the algebra and is
stored as a sparse map from index tuples over a split basis to rational
coefficients.  Sign conventions:

    b (f0 ⊗ ... ⊗ fn)  =  sum_{i<n} (-1)^i f0 ⊗ ... ⊗ fi·f(i+1) ⊗ ... ⊗ fn
                          + (-1)^n fn·f0 ⊗ f1 ⊗ ... ⊗ f(n-1)
    b'                 =  b without the wrap-around term
    t (f0 ⊗ ... ⊗ fn)  =  (-1)^n fn ⊗ f0 ⊗ ... ⊗ f(n-1)

Coinvariants under t are represented by the lexicographically smallest signed
rotation of each tuple; a tuple equal to one of its own rotations with sign -1
represents the zero class and is dropped (we are over Q).

Every product of basis elements is read from the split basis's one product
table, `SplitBasis.product_table`: (i, j) -> ((k, c), ...).  The
differential and the descent and closed formula of `excision` all walk it,
and every sum goes through `linalg._accumulate`.  Coefficients are stored
as `linalg` stores every scalar, an `int` where integral and a `Fraction`
otherwise, and the signs are the ints ±1, so on an integer algebra every
chain, table row and boundary matrix is summed in `int` arithmetic.
`boundary_matrix` assembles each differential once per space of tuples;
the ∂∂ = 0 check, homology and the inverse solve of `excision` all read
that one matrix.  When the ideal is the whole algebra, the spaces I,
relative and A coincide and share one memoised complex (`_memoised`);
otherwise the relative complex takes its all-ideal columns from ∂^I, the
differential of its subcomplex C(I).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import wraps
from itertools import product as iter_product

from .linalg import (
    SparseMatrix,
    _Sparse,
    _accumulate,
    _eliminate,
    _exact,
    echelon,
    format_scalar,
    kernel_basis,
)

DEFAULT_MAX_DEGREE = 4
MAX_DEGREE_ENV = "EXCISIONLAB_MAX_DEGREE"


class DegreeLimitError(RuntimeError):
    """Requested degree exceeds the configured resource cap."""


class ComplexInvariantError(RuntimeError):
    """A chain complex contradicts its own bookkeeping: a boundary leaves
    the chain space, or ∂∂ is not zero.  Either is a bug, never a property
    of the input."""


def resolve_max_degree(explicit=None):
    if explicit is not None:
        return int(explicit)
    env = os.environ.get(MAX_DEGREE_ENV)
    if env is not None:
        return int(env)
    return DEFAULT_MAX_DEGREE


def _memoised(build):
    """Memoise `build(context, *args)` in `context.chain_cache` under (name,
    *args), for as long as the split lives; callers must not mutate it.

    One value per space of tuples: when the ideal is the whole algebra, the
    spaces I, relative and A have the same tuples, so a `Variant` of any of
    them is looked up or built under its I key and stored under both keys.
    A hit costs one lookup as before."""
    @wraps(build)
    def memo(context, *args):
        key = (build.__name__, *args)
        cache = context.chain_cache
        if key not in cache:
            variant = args[0]
            if (type(variant) is Variant and variant.space != "I"
                    and context.ideal_count == context.dimension):
                cache[key] = memo(context, Variant(variant.op, "I"), *args[1:])
            else:
                cache[key] = build(context, *args)
        return cache[key]
    return memo


class Chain(_Sparse):
    """Element of the (degree+1)-fold tensor power over a split basis.

    `terms` maps tuples of split-basis indices to nonzero coefficients, each
    in the one exact form of `linalg._exact`.
    Chains are treated as immutable; all arithmetic returns new objects.
    A cyclic class is the chain of its canonical form (`canonicalize_cyclic`).
    """

    __slots__ = ("degree", "context", "terms")

    def __init__(self, degree, context, terms=None):
        self.degree = int(degree)
        if self.degree < 0:
            raise ValueError("chain degree must be non-negative")
        self.context = context
        width = self.degree + 1
        dim = context.dimension
        clean = {}
        if terms:
            for tup, coeff in terms.items():
                if len(tup) != width:
                    raise ValueError(
                        f"tuple {tup} has {len(tup)} slots, expected {width}"
                    )
                for index in tup:
                    if not 0 <= index < dim:
                        raise ValueError(f"slot index {index} out of range")
                coeff = _exact(coeff)
                if coeff:
                    clean[tuple(tup)] = coeff
        self.terms = clean

    def _values(self):
        return self.terms

    def _like(self, terms):
        return Chain(self.degree, self.context, terms)

    def _require_same_space(self, other):
        if self.context is not other.context and self.context != other.context:
            raise ValueError("chains live over different split bases")
        if self.degree != other.degree:
            raise ValueError("chains have different degrees")

    def __eq__(self, other):
        return (
            isinstance(other, Chain)
            and self.degree == other.degree
            and self.terms == other.terms
            and (self.context is other.context or self.context == other.context)
        )

    def __repr__(self):
        return f"Chain(degree={self.degree}, {render_chain(self)})"


def render_chain(chain):
    """Human-readable exact form of a chain over its split labels."""
    if not chain.terms:
        return "0"
    bits = []
    for tup, coeff in chain.items():
        word = "⊗".join(chain.context.split_label(i) for i in tup)
        bits.append(f"({format_scalar(coeff)})·{word}")
    return " + ".join(bits)


def pure_tensor(context, indices):
    return Chain(len(indices) - 1, context, {tuple(indices): 1})


def tuple_boundary_terms(context, tup, wrap=True):
    """Differential of a single basis tuple as a {tuple: coeff} dict.

    With wrap=True this is b, without it b'.  Products expand through the
    split-basis structure constants, so output tuples stay on the standard
    tensor basis.  The signs are the ints ±1 and the constants come from
    the split's product table, so each coefficient is an exact `int` when
    the constants are integers and a `Fraction` otherwise.
    """
    table = context.product_table
    n = len(tup) - 1
    out = {}
    sign = 1
    for i in range(n):
        head, tail = tup[:i], tup[i + 2 :]
        for k, c in table[tup[i], tup[i + 1]]:
            _accumulate(out, head + (k,) + tail, sign * c)
        sign = -sign
    if wrap:
        # sign is now (-1)^n
        middle = tup[1:n]
        for k, c in table[tup[n], tup[0]]:
            _accumulate(out, (k,) + middle, sign * c)
    return out


def boundary_b(chain, wrap=True):
    """Hochschild differential b, or with wrap=False the bar differential b'
    (no wrap-around term); defined for degree >= 1."""
    if chain.degree < 1:
        raise ValueError("the differential needs degree >= 1")
    out = {}
    for tup, coeff in chain.terms.items():
        for t, c in tuple_boundary_terms(chain.context, tup, wrap).items():
            _accumulate(out, t, coeff * c)
    return Chain(chain.degree - 1, chain.context, out)


def cyclic_t(chain):
    """Signed cyclic rotation; the identity in degree 0."""
    n = chain.degree
    sign = 1 if n % 2 == 0 else -1
    out = {}
    for tup, coeff in chain.terms.items():
        _accumulate(out, tup[-1:] + tup[:-1], sign * coeff)
    return Chain(n, chain.context, out)


def _rotation(tup, k):
    if k == 0:
        return tup
    return tup[-k:] + tup[:-k]


def canonical_rotation(tup):
    """(canonical tuple, sign) for the class of `tup` modulo signed rotation.

    Returns None when a self-rotation carries sign -1, which forces the class
    to vanish over Q.
    """
    n = len(tup) - 1
    best = None
    best_sign = None
    obstructed = False
    for k in range(n + 1):
        cand = _rotation(tup, k)
        sign = 1 if (n * k) % 2 == 0 else -1
        if best is None or cand < best:
            best = cand
            best_sign = sign
        elif cand == best and sign != best_sign:
            obstructed = True
    if obstructed:
        return None
    return best, best_sign


def canonicalize_cyclic(chain):
    """Canonical representative of the class of `chain` modulo im(1 - t):
    two chains are in one class exactly when these are equal."""
    out = {}
    for tup, coeff in chain.terms.items():
        rotated = canonical_rotation(tup)
        if rotated is None:
            continue
        best, sign = rotated
        _accumulate(out, best, sign * coeff)
    return Chain(chain.degree, chain.context, out)


def tensor_prepend(vector, chain):
    """The chain  vector ⊗ chain  in degree one higher.

    `vector` is in split coordinates.
    """
    entries = vector.entries.items()
    out = {}
    for tup, coeff in chain.terms.items():
        for i, ci in entries:
            _accumulate(out, (i,) + tup, coeff * ci)
    return Chain(chain.degree + 1, chain.context, out)


def is_ideal_chain(chain):
    """True when every stored slot lies in the ideal part of the basis."""
    context = chain.context
    return all(
        context.is_ideal_index(i) for tup in chain.terms for i in tup
    )


def relative_membership(chain):
    """True iff every stored tuple has at least one ideal slot."""
    context = chain.context
    for tup in chain.terms:
        if not any(context.is_ideal_index(i) for i in tup):
            return False
    return True


def filtration_level(chain):
    """Minimal p with chain ∈ F_p: counts leading ideal slots per tuple."""
    level = 0
    context = chain.context
    n = chain.degree
    for tup in chain.terms:
        leading = 0
        for i in tup:
            if context.is_ideal_index(i):
                leading += 1
            else:
                break
        level = max(level, max(0, n + 1 - leading))
    return level


# space name -> (membership test of a chain, how a chain outside fails it),
# from the smallest space to the whole tensor power
SPACES = {
    "I": (is_ideal_chain, "a slot lies outside the ideal"),
    "relative": (relative_membership, "a tuple has no ideal slot"),
    "A": (lambda chain: True, None),
}
VARIANT_OPS = ("hh", "hc", "bar")
VARIANT_SPACES = tuple(SPACES)


@dataclass(frozen=True)
class Variant:
    """Which complex: Hochschild b, cyclic b on coinvariants, or bar b'."""

    op: str
    space: str

    def __post_init__(self):
        if self.op not in VARIANT_OPS:
            raise ValueError(f"unknown op {self.op!r}")
        if self.space not in VARIANT_SPACES:
            raise ValueError(f"unknown space {self.space!r}")


def _necklaces(letters, length):
    """Canonical necklaces over range(letters) in lexicographic order, each
    with its period (Fredricksen–Kessler–Maiorana, in Duval's form).

    Every prenecklace is visited once, in lexicographic order; it is a
    necklace exactly when the length of its Lyndon prefix `w` divides
    `length`, and then it is `w` repeated and has period len(w).
    """
    if letters == 0:
        return
    word = [-1]
    while word:
        word[-1] += 1
        period = len(word)
        if length % period == 0:
            yield tuple(word * (length // period)), period
        while len(word) < length:
            word.append(word[-period])
        while word and word[-1] == letters - 1:
            word.pop()


@_memoised
def basis_tuples(context, variant, degree):
    """Deterministic (lexicographic) basis of the requested chain group,
    memoised: do not mutate the returned list."""
    ideal_count = context.ideal_count
    letters = ideal_count if variant.space == "I" else context.dimension
    relative = variant.space == "relative"
    if variant.op == "hc":
        # The canonical tuples are the necklaces.  A necklace equals its
        # rotations by multiples of its period p, with sign (-1)^(degree·p),
        # so its class dies over Q exactly when degree and p are odd (then
        # p < degree + 1, which is even).  A necklace starts with its least
        # letter, so the relative ones come first.
        tuples = []
        for word, period in _necklaces(letters, degree + 1):
            if relative and word[0] >= ideal_count:
                break
            if degree % 2 and period % 2:
                continue
            tuples.append(word)
    else:
        tuples = list(iter_product(range(letters), repeat=degree + 1))
        if relative:
            tuples = [t for t in tuples if any(i < ideal_count for i in t)]
    return tuples


def _rotation_index(rows):
    """Every rotation of every canonical row tuple -> (row, sign) such that
    the rotation is congruent to sign · (row tuple) modulo im(1 - t)."""
    index = {}
    for r, tup in enumerate(rows):
        n = len(tup) - 1
        for k in range(n + 1):
            # rotating back by n + 1 - k costs (-1)^(n(n+1-k)) = (-1)^(nk)
            sign = 1 if (n * k) % 2 == 0 else -1
            index.setdefault(_rotation(tup, k), (r, sign))
    return index


@_memoised
def boundary_matrix(context, variant, degree):
    """The differential from degree to degree-1, assembled once.

    Returns (matrix, column tuples, row tuples); columns and rows are the
    deterministic bases produced by `basis_tuples`.  Each column is the
    `tuple_boundary_terms` of its tuple, folded onto the rows through an
    index whose signs are the ints ±1 (every rotation of a row tuple, for
    `hc`) and summed by row, in `int` where the constants allow it.  The
    relative complex copies its all-ideal columns from ∂^I
    (`_ideal_columns`) and assembles only the mixed ones; either way the
    entries are stored column by column, in the same order.  The triple is
    memoised on the split basis `context` and shared by every caller: do
    not mutate the matrix or the lists.
    """
    if degree < 1:
        raise ValueError("the boundary matrix needs degree >= 1")
    cols = basis_tuples(context, variant, degree)
    rows = basis_tuples(context, variant, degree - 1)
    cyclic = variant.op == "hc"
    if cyclic:
        row_index = _rotation_index(rows)
    else:
        row_index = {t: (r, 1) for r, t in enumerate(rows)}
    wrap = variant.op != "bar"
    ideal_count = context.ideal_count
    ideal_columns = None
    if variant.space == "relative" and 0 < ideal_count < context.dimension:
        ideal_columns = _ideal_columns(context, variant.op, degree, row_index)
    entries = {}
    for c, tup in enumerate(cols):
        if ideal_columns is not None and max(tup) < ideal_count:
            for r, v in next(ideal_columns):
                entries[(r, c)] = v
            continue
        out = {}
        for t, v in tuple_boundary_terms(context, tup, wrap=wrap).items():
            hit = row_index.get(t)
            if hit is None:
                if cyclic and canonical_rotation(t) is None:
                    continue  # a sign-obstructed class, zero over Q
                raise ComplexInvariantError(
                    f"boundary term {t} of {tup} lies outside the "
                    f"{variant.op}/{variant.space} chain space"
                )
            r, sign = hit
            _accumulate(out, r, sign * v)
        for r, v in out.items():
            entries[(r, c)] = _exact(v)
    return SparseMatrix._assembled(len(rows), len(cols), entries), cols, rows


def _ideal_columns(context, op, degree, row_index):
    """The columns of ∂^I (`boundary_matrix` of the I space) in order, each
    a list of (relative row, value) in its stored order, for the all-ideal
    columns of the relative complex.

    Those columns are the I basis in the same lexicographic order, and ∂
    maps an all-ideal tuple onto all-ideal rows: every I row is a row of
    the relative complex (for `hc` a canonical necklace, which the rotation
    index maps to itself with sign 1).  Their boundary terms were checked
    against the I space when ∂^I was assembled."""
    matrix, cols, rows = boundary_matrix(context, Variant(op, "I"), degree)
    lift = [row_index[t][0] for t in rows]
    columns = [[] for _ in cols]
    for (r, c), v in matrix.entries.items():
        columns[c].append((lift[r], v))
    return iter(columns)


@dataclass
class HomologyReport:
    """Dimension and deterministic representative cycles of one homology group."""

    variant: Variant
    degree: int
    dimension: int
    space_dimension: int
    representatives: list

    def __repr__(self):
        return (
            f"HomologyReport({self.variant.op}/{self.variant.space}, "
            f"degree={self.degree}, dim={self.dimension})"
        )


@_memoised
def _homology_basis(context, variant, degree):
    """The kernel vectors ({column: value}) of ∂_degree that represent its
    homology, once ∂_degree ∘ ∂_(degree+1) = 0 is checked on the assembled
    matrices.  The kernel vector v_f is 1 at free column f and 0 at the
    other free columns; it is kept unless some boundary, projected onto the
    free columns, has its last nonzero entry at f, and those last entries
    are the pivots of the projected boundary columns eliminated in reversed
    column order."""
    up = boundary_matrix(context, variant, degree + 1)[0]
    free = list(range(up.rows))
    if degree > 0:
        record = echelon(boundary_matrix(context, variant, degree)[0])
        free = record.free_columns()
        down_cols = {}
        for (r, k), v in record.entries.items():
            down_cols.setdefault(k, []).append((r, v))
        product = {}
        for (k, c), v in up.entries.items():
            for r, d in down_cols.get(k, ()):
                _accumulate(product, (r, c), v * d)
        if product:
            raise ComplexInvariantError(
                f"∂{degree}∘∂{degree + 1} is not zero on the "
                f"{variant.op}/{variant.space} complex"
            )
    last = len(free) - 1
    position = {f: last - k for k, f in enumerate(free)}
    rows = [{} for _ in range(up.cols)]
    for (r, c), v in up.entries.items():
        k = position.get(r)
        if k is not None:
            rows[c][k] = v
    boundary = {free[last - k] for k in _eliminate(rows, len(free))[0]}
    chosen = [f for f in free if f not in boundary]
    if degree == 0:
        return [{f: 1} for f in chosen]
    return [v.entries for v in kernel_basis(record, chosen)]


def homology(context, variant, degree, max_degree=None):
    """Homology of the requested complex in one degree.

    Representatives are chosen deterministically: the kernel basis vectors
    of ∂_degree, in order, that are independent modulo the boundaries and
    the vectors kept before them (`_homology_basis`, memoised).  A complex
    with ∂∂ ≠ 0 raises ComplexInvariantError.
    """
    cap = resolve_max_degree(max_degree)
    if degree < 0:
        raise ValueError("degree must be non-negative")
    if degree > cap:
        raise DegreeLimitError(
            f"degree {degree} exceeds the configured maximum {cap}; the tensor "
            f"space grows as dim^(degree+1) — raise the cap explicitly or via "
            f"{MAX_DEGREE_ENV} if you really want this"
        )
    tuples = basis_tuples(context, variant, degree)
    representatives = [
        Chain(degree, context, {tuples[i]: v for i, v in cycle.items()})
        for cycle in _homology_basis(context, variant, degree)
    ]
    return HomologyReport(
        variant=variant,
        degree=degree,
        dimension=len(representatives),
        space_dimension=len(tuples),
        representatives=representatives,
    )
