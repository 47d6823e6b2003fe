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
represents the zero class and is dropped (we are over Q).  Every rotation
and its sign come from one rule, `_signed_rotations`.

Every product of basis elements is read from the split basis's one product
table, `SplitBasis.product_table`: (i, j) -> ((k, c), ...).  The
differential walks it in one place, `_add_boundary`, which sums each face
inline onto its tuple or, for `boundary_matrix`, straight onto its row; the
descent and closed formula of `excision` walk it too, and every other sum
goes through `linalg._accumulate`.  Coefficients are stored
as `linalg` stores every scalar, an `int` where integral and a `Fraction`
otherwise, and the signs are the ints ±1, so on an integer algebra every
chain, table row and boundary matrix is summed in `int` arithmetic.
`boundary_matrix` assembles each differential once per space of tuples,
and the inverse solve of `excision` reads it; homology assembles, checks
(∂∂ = 0) and eliminates only the weight-0 block, below.  When the ideal is
the whole algebra, the spaces I, relative and A coincide and share one
memoised complex (`_memoised`); otherwise the relative complex takes its
all-ideal columns from ∂^I, the differential of its subcomplex C(I).

A grading element is an ideal basis element x with x·f_i − f_i·x = w_i f_i
for every i (`_gradings`).  ad x is a derivation, so f_i·f_j has weight
w_i + w_j, a complement element weighs 0 (w_i f_i = [x, f_i] lies in I),
and b, b' and t keep a tuple's weight, the sum over its slots: a complex
is the direct sum of its blocks of one weight under every x.  A block on
which some x weighs w ≠ 0 is acyclic:
  - hh: h(a0⊗…⊗an) = Σ_i (-1)^(i+1) a0⊗…⊗ai⊗x⊗a(i+1)⊗…⊗an keeps each
    space and bh + hb = w·id, with no unit (the Cartan homotopy of ad x;
    Loday, Cyclic Homology, §4.1; Goodwillie, Topology 24 (1985)).
  - hc over B = I or A: on the unitalization B₊ = B ⊕ Q·1, 1 of weight 0,
    h gives HH_w = 0, so Connes' SBI sequence of the unital B₊, which
    keeps weight, gives HC_w(B₊) = 0 degree by degree.  Over Q the
    inclusion C^λ(B) ⊂ C^λ(B₊) keeps weight and is injective in homology,
    onto HC(B) in HC(B₊) = HC(Q) ⊕ HC(B) (Loday, §1.4 and §2.2).  A
    relative tuple of weight w ≠ 0 has an ideal slot: that block is A's.
b' has no such h, so `bar` is never restricted.  Each matrix is block
diagonal up to order, so its unique RREF is that of each block, and the
weight-0 block alone gives the full dimensions and representatives.

The weight-0 tuples are walked, not filtered (`_walk`): each letter gets
one integer key that packs its weights, and the lexicographic walk (a
product walk for hh, the Ruskey–Savage–Wang necklace generator for hc)
enters a prefix only when the letters still to come can bring its key sum
to 0.  With every key 0 the same walk lists a whole chain group
(`basis_tuples`).  `HomologyReport.space_dimension` counts the whole group
in closed form (`_tuple_count`), so homology lists only the weight-0 block.
"""

from __future__ import annotations

import math
import operator
import os
from collections import namedtuple
from dataclasses import dataclass
from functools import wraps

from .linalg import (
    InvariantError,
    SparseMatrix,
    SparseVector,
    _Sparse,
    _accumulate,
    _exact,
    _pivot_columns,
    echelon,
    format_scalar,
    kernel_basis,
)

DEFAULT_MAX_DEGREE = 4
MAX_DEGREE_ENV = "EXCISIONLAB_MAX_DEGREE"


class DegreeLimitError(RuntimeError):
    """Requested degree exceeds the configured resource cap."""


def resolve_max_degree(explicit=None):
    if explicit is not None:
        return operator.index(explicit)
    env = os.environ.get(MAX_DEGREE_ENV)
    if env is None:
        return DEFAULT_MAX_DEGREE
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"{MAX_DEGREE_ENV} must be an integer, not {env!r}") from None


def _check_degree(degree, max_degree=None):
    """Refuse a negative degree, and one above the cap `resolve_max_degree`
    gives, before anything of that degree is assembled."""
    cap = resolve_max_degree(max_degree)
    if operator.index(degree) < 0:
        raise ValueError("degree must be non-negative")
    if degree > cap:
        raise DegreeLimitError(
            f"degree {degree} exceeds the configured maximum {cap}; the tensor "
            f"space grows as dim^(degree+1) — raise the cap explicitly or via "
            f"{MAX_DEGREE_ENV} if you really want this"
        )


def _memoised(build):
    """Memoise `build(context, *args)` in `context.chain_cache` under (name,
    *args), for as long as the split lives; callers must not mutate it.

    One value per space of tuples: when the ideal is the whole algebra, the
    spaces I, relative and A have the same tuples, so a `Variant` of any of
    them is looked up or built under its I key and stored under both keys.
    A hit costs one dictionary lookup."""
    @wraps(build)
    def memo(context, *args):
        key = (build.__name__, *args)
        cache = context.chain_cache
        value = cache.get(key)  # no memoised value is None
        if value is None:
            variant = args[0] if args else None
            if (type(variant) is Variant and variant.space != "I"
                    and context.ideal_count == context.dimension):
                value = memo(context, Variant(variant.op, "I"), *args[1:])
            else:
                value = build(context, *args)
            cache[key] = value
        return value
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
        self.degree = operator.index(degree)
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
                if type(coeff) is not int:
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


def _add_boundary(out, context, tup, scale, wrap, index=None, variant=None):
    """Add `scale` · b(tup) into the dict `out`, or `scale` · b'(tup) with
    wrap=False: the one face walk of the differential.

    Products expand through the split's product table, so the faces stay on
    the standard tensor basis, and a product that vanishes makes no face.
    Without `index` each face is keyed by its tuple.  With it (face ->
    (row, sign) of `variant`'s row basis) each face is added at its row,
    times its sign; a face that `index` lacks is skipped if its class is
    sign-obstructed (zero over Q) in `hc` and otherwise raises
    InvariantError.  Sums inline and drops zeros, as
    `linalg._accumulate` does."""
    table = context.product_table
    n = len(tup) - 1
    sign = scale
    # face i multiplies slots i and i + 1, and the wrap-around face i = n
    # slots n and 0, so every face's sign is (-1)^i
    for i in range(n + 1 if wrap else n):
        products = table[tup[i], tup[i + 1] if i < n else tup[0]]
        if products:
            head, tail = (tup[:i], tup[i + 2 :]) if i < n else ((), tup[1:n])
            for k, c in products:
                key, value = head + (k,) + tail, sign * c
                if index is not None:
                    hit = index.get(key)
                    if hit is None:
                        if variant.op == "hc" and canonical_rotation(key) is None:
                            continue  # a sign-obstructed class, zero over Q
                        raise InvariantError(
                            f"boundary term {key} of {tup} lies outside the "
                            f"{variant.op}/{variant.space} chain space"
                        )
                    key, row_sign = hit
                    value = row_sign * value
                total = out.get(key, 0) + value
                if total:
                    out[key] = total
                else:
                    out.pop(key, None)
        sign = -sign


def tuple_boundary_terms(context, tup, wrap=True):
    """Differential of a single basis tuple as a {tuple: coeff} dict, defined
    for degree >= 1 (two or more slots).

    With wrap=True this is b, without it b' (`_add_boundary`).  The signs
    are the ints ±1 and the constants come from the split's product table,
    so each coefficient is an exact `int` when the constants are integers
    and a `Fraction` otherwise.
    """
    if len(tup) < 2:
        raise ValueError("the differential needs degree >= 1")
    out = {}
    _add_boundary(out, context, tup, 1, wrap)
    return out


def boundary_b(chain, wrap=True):
    """Hochschild differential b, or with wrap=False the bar differential b'
    (no wrap-around term); defined for degree >= 1."""
    if chain.degree < 1:
        raise ValueError("the differential needs degree >= 1")
    out = {}
    for tup, coeff in chain.terms.items():
        _add_boundary(out, chain.context, tup, coeff, wrap)
    return Chain(chain.degree - 1, chain.context, out)


def _signed_rotations(tup):
    """[(tup rotated by k slots, (-1)^(n·k)) for k = 0..n], n = len(tup) - 1:
    t^k of the tuple.  The one rotation rule; `cyclic_t`, `canonical_rotation`,
    `_rotation_index` and `excision.rotate_to_ideal_initial` read it."""
    n = len(tup) - 1
    return [(tup[-k:] + tup[:-k], -1 if n * k % 2 else 1) for k in range(n + 1)]


def cyclic_t(chain):
    """Signed cyclic rotation; the identity in degree 0."""
    out = {}
    for tup, coeff in chain.terms.items():
        # t is the rotation by one slot, modulo the n + 1 slots
        rotated, sign = _signed_rotations(tup)[1 % len(tup)]
        _accumulate(out, rotated, sign * coeff)
    return Chain(chain.degree, chain.context, out)


def canonical_rotation(tup):
    """(canonical tuple, sign) for the class of `tup` modulo signed rotation:
    the first smallest rotation.

    Returns None when a rotation equal to it carries the opposite sign, which
    forces the class to vanish over Q.
    """
    best = None
    for cand, sign in _signed_rotations(tup):
        if best is None or cand < best:
            best, best_sign = cand, sign
        elif cand == best and sign != best_sign:
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


class Variant(namedtuple("Variant", "op space")):
    """Which complex: Hochschild b, cyclic b on coinvariants, or bar b'.

    A pair (op, space), so a memo key holding one hashes and compares it in
    C."""

    __slots__ = ()

    def __new__(cls, op, space):
        if op not in VARIANT_OPS:
            raise ValueError(f"unknown op {op!r}")
        if space not in VARIANT_SPACES:
            raise ValueError(f"unknown space {space!r}")
        return tuple.__new__(cls, (op, space))


def _walk(context, variant, degree, key):
    """The basis tuples of `variant`'s chain group in `degree` whose letters'
    integer keys sum to 0, in lexicographic order: a depth-first walk that
    enters a prefix only when the letters still to come can bring its sum
    to 0, so nothing is filtered afterwards.  With every key 0 it is the
    whole chain group.

    `hh` and `bar` walk every word.  `hc` walks the necklaces, the least
    rotations, by the recursive lexicographic generator of Ruskey, Savage
    and Wang ("Generating necklaces", J. Algorithms 13 (1992) 414-430):
    `gen(t, p)` extends a prenecklace of length t and period p by a letter
    equal to the one p back (the period stays p) or larger (it becomes
    t + 1), and a full prenecklace is a necklace exactly when p divides its
    length.  A necklace equals its rotations by multiples of p, with sign
    (-1)^(degree·p), so its class dies over Q exactly when degree and p
    are odd; such words are dropped.
    """
    width = operator.index(degree) + 1
    ideal_count = context.ideal_count
    letters = ideal_count if variant.space == "I" else context.dimension
    relative = variant.space == "relative"
    # need[r]: the prefix sums that r more letters can bring to 0
    need, distinct = [{0}], set(key[:letters])
    for _ in range(width - 1):
        need.append({s - k for s in need[-1] for k in distinct})
    # ends[s]: the letters that close a word summing to s, in order
    ends = {}
    for j in range(letters):
        ends.setdefault(-key[j], []).append(j)
    out, word = [], [0] * width
    last = width - 1
    odd = degree % 2

    def words(t, s, ideal):
        # word[:t] sums to s; `ideal` when it has an ideal letter (or
        # none is needed)
        if t == last:
            prefix = tuple(word[:t])
            out.extend([prefix + (j,) for j in ends.get(s, ())
                        if ideal or j < ideal_count])
            return
        rest = need[last - t]
        for j in range(letters):
            if s + key[j] in rest:
                word[t] = j
                words(t + 1, s + key[j], ideal or j < ideal_count)

    def necklaces(t, p, s):
        # word[:t] is a prenecklace of period p summing to s
        j = word[t - p]
        if t == last:
            prefix = tuple(word[:t])
            keep = width % p == 0 and not (odd and p % 2)
            out.extend([prefix + (k,) for k in ends.get(s, ())
                        if k > j or k == j and keep])
            return
        rest = need[last - t]
        if s + key[j] in rest:
            word[t] = j
            necklaces(t + 1, p, s + key[j])
        for j in range(j + 1, letters):
            if s + key[j] in rest:
                word[t] = j
                necklaces(t + 1, t + 1, s + key[j])

    if variant.op != "hc":
        words(0, 0, not relative)
        return out
    # a necklace starts with its least letter: relative ones with an ideal one
    for j in range(ideal_count if relative else letters):
        if key[j] in need[last]:
            word[0] = j
            if width == 1:
                out.append((j,))
            else:
                necklaces(1, 1, key[j])
    return out


@_memoised
def basis_tuples(context, variant, degree):
    """Deterministic (lexicographic) basis of the requested chain group,
    memoised: do not mutate the returned list."""
    return _walk(context, variant, degree, [0] * context.dimension)


@_memoised
def _tuple_count(context, variant, degree):
    """len(basis_tuples(context, variant, degree)) in closed form, memoised.

    `hh` and `bar` have letters^width words, less the complement-only ones
    for `relative`.  `hc` has one necklace per Lyndon word of each length p
    dividing the width (the word repeated), less the sign-obstructed ones of
    odd p at odd degree, and less the complement-only ones for `relative`.
    There are L(k, p) Lyndon words of length p over k letters, by Möbius
    inversion of k^p = Σ_(d | p) d·L(k, d)."""
    width = operator.index(degree) + 1
    ideal_count = context.ideal_count
    letters = ideal_count if variant.space == "I" else context.dimension
    complement = context.dimension - ideal_count if variant.space == "relative" else 0
    if variant.op != "hc":
        return letters ** width - complement ** width
    count = 0
    for k, sign in ((letters, 1), (complement, -1)):
        lyndon = {}
        for p in range(1, width + 1):
            if width % p == 0:
                lyndon[p] = (k ** p - sum(d * lyndon[d] for d in lyndon if p % d == 0)) // p
                if not (degree % 2 and p % 2):
                    count += sign * lyndon[p]
    return count


@_memoised
def _gradings(context):
    """The weights [w_0, …] of the split basis under each grading element,
    memoised: the ideal basis elements f_e, not central, with
    f_e·f_i − f_i·f_e = w_i f_i for every i (module docstring)."""
    basis = [SparseVector.unit(context.dimension, i) for i in range(context.dimension)]
    gradings = []
    for x in basis[:context.ideal_count]:
        brackets = [(context.mul(x, f) - context.mul(f, x)).entries for f in basis]
        if all(b.keys() <= {i} for i, b in enumerate(brackets)):
            weights = [b.get(i, 0) for i, b in enumerate(brackets)]
            if any(weights):
                gradings.append(weights)
    return gradings


@_memoised
def _weight_zero_tuples(context, variant, degree):
    """The tuples of `basis_tuples` of weight 0 under every grading element
    (the sum of their slots' weights), in the same order; all of them for
    `bar` (module docstring).  `_walk` finds them without visiting the
    others, on one integer key per letter: a digit per grading, its weights
    scaled to integers, in a base over twice what a tuple's weights can
    sum to, so a tuple's keys sum to 0 exactly when every digit does."""
    if variant.op == "bar" or not _gradings(context):
        return basis_tuples(context, variant, degree)
    width, key = operator.index(degree) + 1, [0] * context.dimension
    for weights in _gradings(context):
        scale = math.lcm(*(w.denominator for w in weights))
        digits = [int(w * scale) for w in weights]
        base = 2 * width * max(map(abs, digits)) + 1
        key = [k * base + d for k, d in zip(key, digits)]
    return _walk(context, variant, degree, key)


def _rotation_index(rows):
    """Every rotation of every canonical row tuple -> (row, sign) such that
    the rotation is congruent to sign · (row tuple) modulo im(1 - t)."""
    index = {}
    for r, tup in enumerate(rows):
        # t^k(row) = sign · (rotation k), and sign = ±1 is its own inverse
        for rotated, sign in _signed_rotations(tup):
            index.setdefault(rotated, (r, sign))
    return index


@_memoised
def boundary_matrix(context, variant, degree):
    """The differential from degree to degree-1, assembled once.

    Returns (matrix, column tuples, row tuples); columns and rows are the
    deterministic bases produced by `basis_tuples`.  Each column is b (b'
    for `bar`) of its tuple, whose faces `_add_boundary` sums straight onto
    the rows through an index whose signs are the ints ±1 (every rotation
    of a row tuple, for `hc`), in `int` where the constants allow it.  The
    relative complex copies its all-ideal columns from ∂^I
    (`_ideal_columns`) and assembles only the mixed ones; either way the
    entries are stored column by column, in the same order.  The triple is
    memoised on the split basis `context` and shared by every caller: do
    not mutate the matrix or the lists.
    """
    return _assemble(context, variant, degree, basis_tuples, boundary_matrix)


@_memoised
def _weight_zero_matrix(context, variant, degree):
    """`boundary_matrix` on the weight-0 tuples (`_weight_zero_tuples`),
    memoised apart from it; the full triple itself where nothing is
    restricted."""
    if variant.op == "bar" or not _gradings(context):
        return boundary_matrix(context, variant, degree)
    return _assemble(context, variant, degree, _weight_zero_tuples, _weight_zero_matrix)


def _assemble(context, variant, degree, tuples, matrix):
    """(matrix, columns, rows) of ∂_degree on the bases `tuples` gives, with
    the relative all-ideal columns copied from `matrix` of the I space."""
    if operator.index(degree) < 1:
        raise ValueError("the boundary matrix needs degree >= 1")
    cols = tuples(context, variant, degree)
    rows = tuples(context, variant, degree - 1)
    if variant.op == "hc":
        row_index = _rotation_index(rows)
    else:
        row_index = {t: (r, 1) for r, t in enumerate(rows)}
    wrap = variant.op != "bar"
    ideal_count = context.ideal_count
    ideal_columns = None
    if variant.space == "relative" and 0 < ideal_count < context.dimension:
        ideal_columns = _ideal_columns(
            matrix(context, Variant(variant.op, "I"), degree), row_index)
    entries = {}
    for c, tup in enumerate(cols):
        if ideal_columns is not None and max(tup) < ideal_count:
            for r, v in next(ideal_columns):
                entries[(r, c)] = v
            continue
        out = {}
        _add_boundary(out, context, tup, 1, wrap, row_index, variant)
        for r, v in out.items():
            entries[(r, c)] = v if type(v) is int else _exact(v)
    return SparseMatrix._assembled(len(rows), len(cols), entries), cols, rows


def _ideal_columns(ideal_complex, row_index):
    """The columns of ∂^I, the triple `ideal_complex`, in order, each a list
    of (relative row, value) in its stored order, for the all-ideal columns
    of the relative complex.

    Those columns are the I basis in the same lexicographic order, and ∂
    maps an all-ideal tuple onto all-ideal rows: every I row is a row of
    the relative complex (for `hc` a canonical necklace, which the rotation
    index maps to itself with sign 1).  Their boundary terms were checked
    against the I space when ∂^I was assembled."""
    matrix, cols, rows = ideal_complex
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
    """The kernel vectors ({tuple: value}) of ∂_degree on the weight-0
    tuples that represent its homology, once ∂_degree ∘ ∂_(degree+1) = 0
    is checked on the assembled matrices, one column of ∂_(degree+1) at a
    time (`_assemble` stores each column's entries together).  The kernel
    vector v_f is 1 at free column f and 0 at the other free columns; it is
    kept unless some boundary, projected onto the free columns, has its
    last nonzero entry at f.  Those last entries are the pivot columns of the projected
    boundaries with the free columns in reversed order, and only they are
    computed (`_pivot_columns`), not the reduced rows."""
    up, _, tuples = _weight_zero_matrix(context, variant, degree + 1)
    free = list(range(up.rows))
    if degree > 0:
        down = _weight_zero_matrix(context, variant, degree)[0]
        record = echelon(down)
        free = record.free_columns()
        down_cols = {}
        for (r, k), v in down.entries.items():
            down_cols.setdefault(k, []).append((r, v))
        product, column = {}, 0
        for (k, c), v in up.entries.items():
            if c != column:
                if product:
                    break
                column = c
            for r, d in down_cols.get(k, ()):
                _accumulate(product, r, v * d)
        if product:
            raise InvariantError(
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
    boundary = {free[last - k] for k in _pivot_columns(rows, len(free))}
    chosen = [f for f in free if f not in boundary]
    if degree == 0:
        return [{tuples[f]: 1} for f in chosen]
    return [{tuples[i]: v for i, v in vector.entries.items()}
            for vector in kernel_basis(record, chosen)]


def homology(context, variant, degree, max_degree=None):
    """Homology of the requested complex in one degree.

    Representatives are chosen deterministically: the kernel basis vectors
    of ∂_degree, in order, that are independent modulo the boundaries and
    the vectors kept before them (`_homology_basis`, memoised, on the
    weight-0 block).  A complex with ∂∂ ≠ 0 there raises InvariantError.
    `space_dimension` is the dimension of the whole chain group, every
    weight included, counted in closed form (`_tuple_count`, memoised)
    without listing its tuples.
    """
    _check_degree(degree, max_degree)
    representatives = [Chain(degree, context, cycle)
                       for cycle in _homology_basis(context, variant, degree)]
    return HomologyReport(
        variant=variant,
        degree=degree,
        dimension=len(representatives),
        space_dimension=_tuple_count(context, variant, degree),
        representatives=representatives,
    )
