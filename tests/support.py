"""Shared test fixtures that are plain data: the symbolic word algebra used
for golden-formula checks, random chains, cycle extraction, and a boundary
witness found by a linear solve."""

from fractions import Fraction
from itertools import product as iter_product

from excisionlab.algebra import Algebra, Ideal, SplitBasis, make_split_basis
from excisionlab.chains import (
    Chain, Variant, basis_tuples, boundary_b, boundary_matrix,
    canonicalize_cyclic, tuple_boundary_terms,
)
from excisionlab.linalg import (
    SparseMatrix, SparseVector, Unsolvable, invert, kernel_basis, solve,
)

WORD_CAP = 3  # longest product the inverse formula ever forms


def stored_exactly(values):
    """True when every value has the library's one stored form: an `int`
    where it is integral, a `Fraction` with denominator other than 1
    otherwise."""
    return all(type(v) is int or (type(v) is Fraction and v.denominator != 1)
               for v in values)


class WordAlgebra:
    """Free algebra on the symbols f0..fn, e1..en, truncated above length 3.

    Products are concatenation (zero when too long), which is associative, so
    formula output can be compared symbol-for-symbol: distinct sign words
    stay distinct basis tuples.  The ideal is spanned by every word touching
    f0 or one of the e's; it is two-sided because concatenation preserves
    factors.
    """

    def __init__(self, n):
        self.n = n
        symbols = [f"f{i}" for i in range(n + 1)]
        symbols += [f"e{i}" for i in range(1, n + 1)]
        self.symbols = symbols

        def in_ideal(word):
            return any(s == 0 or s > n for s in word)

        words = []
        for length in range(1, WORD_CAP + 1):
            words.extend(iter_product(range(len(symbols)), repeat=length))
        ordered = [w for w in words if in_ideal(w)] + [
            w for w in words if not in_ideal(w)
        ]
        self.word_index = {w: i for i, w in enumerate(ordered)}
        dim = len(ordered)
        constants = {}
        for i, w1 in enumerate(ordered):
            for j, w2 in enumerate(ordered):
                joined = w1 + w2
                if len(joined) <= WORD_CAP:
                    constants[(i, j)] = SparseVector(
                        dim, {self.word_index[joined]: 1}
                    )
        labels = ["*".join(symbols[s] for s in w) for w in ordered]
        self.algebra = Algebra(dim, labels, constants)
        ideal_count = sum(1 for w in ordered if in_ideal(w))
        self.ideal = Ideal(
            self.algebra,
            [self.algebra.basis_vector(i) for i in range(ideal_count)],
        )
        self.split = make_split_basis(self.ideal)

    def f(self, i):
        return self.word_index[(i,)]

    def e(self, i):
        return self.word_index[(self.n + i,)]

    def word(self, *letters):
        """Index of a word given mixed letters like "f0", "e2"."""
        key = []
        for letter in letters:
            kind, num = letter[0], int(letter[1:])
            key.append(num if kind == "f" else self.n + num)
        return self.word_index[tuple(key)]

    def generator_tensor(self):
        """The symbolic pure tensor f0 ⊗ f1 ⊗ ... ⊗ fn."""
        return Chain(
            self.n, self.split, {tuple(self.f(i) for i in range(self.n + 1)): 1}
        )

    def unit_schedule(self):
        from excisionlab.units import UnitSchedule

        return UnitSchedule(
            [self.algebra.basis_vector(self.e(i)) for i in range(1, self.n + 1)]
        )


def split_vectors(split, indices):
    """The split basis elements f_i, i in `indices`, as split-coordinate
    vectors: the ideal basis for `range(split.ideal_count)`."""
    return [SparseVector.unit(split.dimension, i) for i in indices]


def random_chain(split, degree, rng, nterms=3, force_ideal_slot=False,
                 force_prefix=None):
    """Random sparse chain with small integer coefficients.

    force_ideal_slot plants one ideal index per tuple (relative chains);
    force_prefix=k makes the first k slots ideal (filtration chains).
    """
    dim = split.dimension
    ideal_count = split.ideal_count
    terms = {}
    for _ in range(nterms):
        tup = [rng.randrange(dim) for _ in range(degree + 1)]
        if force_prefix:
            for q in range(min(force_prefix, degree + 1)):
                tup[q] = rng.randrange(ideal_count)
        elif force_ideal_slot and ideal_count:
            tup[rng.randrange(degree + 1)] = rng.randrange(ideal_count)
        coeff = 0
        while coeff == 0:
            coeff = rng.randint(-3, 3)
        key = tuple(tup)
        terms[key] = terms.get(key, 0) + coeff
    return Chain(degree, split, {t: Fraction(c) for t, c in terms.items() if c})


def filtered_cycle_basis(split, degree, p):
    """Spanning cycles of ker(b) inside the filtration step F_p of the
    relative complex: basis tuples have their first degree+1-p slots ideal."""
    ideal_count = split.ideal_count
    dim = split.dimension
    leading = degree + 1 - p
    columns = []
    for tup in iter_product(range(dim), repeat=degree + 1):
        if all(i < ideal_count for i in tup[:leading]):
            columns.append(tup)
    rows = list(iter_product(range(dim), repeat=degree))
    row_index = {t: r for r, t in enumerate(rows)}
    entries = {}
    for c, tup in enumerate(columns):
        for t, v in tuple_boundary_terms(split, tup, wrap=True).items():
            entries[(row_index[t], c)] = v
    matrix = SparseMatrix(len(rows), len(columns), entries)
    cycles = []
    for vec in kernel_basis(matrix):
        cycles.append(
            Chain(degree, split, {columns[i]: v for i, v in vec.entries.items()})
        )
    return cycles


def cyclic_boundary_witness(target, space):
    """A degree-(n+1) chain η of the `space` cyclic complex with b(η) ≡
    target modulo the rotation, found by one exact solve against the
    assembled boundary matrix; None when no such η exists."""
    context, n = target.context, target.degree
    matrix, cols, rows = boundary_matrix(context, Variant("hc", space), n + 1)
    row_index = {t: r for r, t in enumerate(rows)}
    terms = canonicalize_cyclic(target).terms
    solution = solve(matrix, SparseVector(
        len(rows), {row_index[t]: c for t, c in terms.items()}))
    if isinstance(solution, Unsolvable):
        return None
    return Chain(n + 1, context, {cols[c]: v for c, v in solution.entries.items()})


def mixed_boundary(split, degree, last=False):
    """b(η) for η the first (or, with `last`, the last) three relative
    cyclic tuples of degree `degree` + 1 with a complement slot, weighted
    1, 2, 3: added to a cycle, a cycle whose inverse takes the solve."""
    mixed = [t for t in basis_tuples(split, Variant("hc", "relative"), degree + 1)
             if max(t) >= split.ideal_count]
    picked = mixed[-3:] if last else mixed[:3]
    return boundary_b(Chain(degree + 1, split,
                            {t: k + 1 for k, t in enumerate(picked)}))


def upper_triangular_split():
    """Upper-triangular 3x3 matrices over the matrix units E11, E12, E13,
    E22, E23, E33, split by the first-row ideal span{E11, E12, E13}."""
    units = [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
    index = {u: i for i, u in enumerate(units)}
    constants = {
        (i, j): SparseVector(6, {index[(a, d)]: 1})
        for i, (a, b) in enumerate(units)
        for j, (c, d) in enumerate(units)
        if b == c
    }
    algebra = Algebra(6, [f"E{a}{b}" for a, b in units], constants)
    return make_split_basis(Ideal(algebra, [algebra.basis_vector(i) for i in range(3)]))


def fresh_split(demo):
    """A new split of `demo` with its ordered basis: nothing memoised yet."""
    return SplitBasis(demo.ideal, demo.split.ordered_basis, demo.split.ideal_count)


def halved_ideal_split(demo):
    """`demo` with its ideal basis scaled by 1/2: an idempotent e of the ideal
    becomes e/2 with (e/2)(e/2) = (1/2)(e/2), so some constants are 1/2."""
    count = demo.split.ideal_count
    basis = [v.scaled(Fraction(1, 2)) if i < count else v
             for i, v in enumerate(demo.split.ordered_basis)]
    return SplitBasis(demo.ideal, basis, count)


def rebased_split(demo, offset):
    """`demo` in the algebra basis given by the columns of P = 1 + (ones
    `offset` above the diagonal), with ideal basis vector j replaced by the
    sum of vectors j and j + 1.  The homology is that of `demo`, but the
    products gain terms and the boundary matrices fuse into larger blocks."""
    old, dim = demo.algebra, demo.algebra.dimension
    columns = [
        SparseVector(dim, {k: 1, **({k - offset: 1} if k >= offset else {})})
        for k in range(dim)
    ]
    back = invert(SparseMatrix.from_columns(columns, rows=dim))
    constants = {}
    for i in range(dim):
        for j in range(dim):
            product = back.matvec(old.mul(columns[i], columns[j]))
            if not product.is_zero():
                constants[(i, j)] = product
    algebra = Algebra(dim, [f"f{k}" for k in range(dim)], constants)
    ideal = [back.matvec(v) for v in demo.ideal.basis_vectors]
    mixed = [v + ideal[j + 1] if j + 1 < len(ideal) else v for j, v in enumerate(ideal)]
    return make_split_basis(Ideal(algebra, mixed))


def full_matrix_split():
    """The full 3x3 matrices over the nine matrix units, split by the whole
    algebra: the only two-sided ideals of a matrix algebra are 0 and all."""
    units = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]
    index = {u: i for i, u in enumerate(units)}
    constants = {
        (i, j): SparseVector(9, {index[(a, d)]: 1})
        for i, (a, b) in enumerate(units)
        for j, (c, d) in enumerate(units)
        if b == c
    }
    algebra = Algebra(9, [f"E{a}{b}" for a, b in units], constants)
    return make_split_basis(Ideal(algebra, [algebra.basis_vector(i) for i in range(9)]))


def dual_number_split():
    """Upper-triangular 2x2 matrices over the dual numbers Q[x]/(x²), on the
    basis E11, E11x, E12, E12x, E22, E22x, split by the first-row ideal
    span{E11, E11x, E12, E12x}.  E11 is a left unit of the ideal, which has
    no right unit; unlike the shipped corpus, HH_n(I) is nonzero at n = 1–3,
    so the closed formula meets nonzero classes here."""
    units = [(a, b, p) for a, b in ((1, 1), (1, 2), (2, 2)) for p in (0, 1)]
    index = {u: i for i, u in enumerate(units)}
    constants = {
        (i, j): SparseVector(6, {index[(a, d, p + q)]: 1})
        for i, (a, b, p) in enumerate(units)
        for j, (c, d, q) in enumerate(units)
        if b == c and p + q < 2
    }
    labels = [f"E{a}{b}" + ("x" if p else "") for a, b, p in units]
    algebra = Algebra(6, labels, constants)
    return make_split_basis(Ideal(algebra, [algebra.basis_vector(i) for i in range(4)]))
