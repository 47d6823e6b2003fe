"""Dense brute-force homology dimensions, kept independent of the library's
sparse engine: its own products of split basis elements, its own tuple
differential, its own canonical-rotation logic, dense row storage, and
fraction-free integer elimination for ranks.

Only the algebra's structure constants are shared with the library: products
of the split basis vectors come from `Algebra.mul` on parent coordinates and
are brought to split coordinates by a dense inverse of the basis matrix
computed here, never from the split's product table that the library's
differential walks.  `sign_word_closed_formula` expands the paper's
inverse formula word by word with the same products, as the reference for
the library's fold over the slots.  The exceptions are
`incremental_span_homology`, the library's former choice of homology
representatives, kept as the reference for the projection that replaced it:
it reads the library's matrices and kernels, but grows its span by its own
sparse integer reduction (`_enlarges`), not the library's; and
`stacked_inverse`, the library's former inverse solve, kept as the reference
for the mixed-row solve that replaced it: it reads the library's matrices
and `solve`, but poses the whole stacked system; and `filtered_tuples`,
the library's former enumeration of the chain groups and their weight-0
tuples, kept as the reference for the pruned walk that replaced it: it
reads the library's grading weights, each checked against a brute-force
search elsewhere, but lists the necklaces by its own iterative walk and
weighs every tuple in exact arithmetic.
"""

from fractions import Fraction
from itertools import product as iter_product
from math import gcd, lcm

_GROWTH_LIMIT = 10**18


def _tuple_boundary(mult, tup, wrap):
    out = {}
    n = len(tup) - 1
    sign = 1
    for i in range(n):
        for k, ck in mult(tup[i], tup[i + 1]).items():
            key = tup[:i] + (k,) + tup[i + 2 :]
            out[key] = out.get(key, 0) + sign * ck
        sign = -sign
    if wrap:
        wrap_sign = 1 if n % 2 == 0 else -1
        for k, ck in mult(tup[n], tup[0]).items():
            key = (k,) + tup[1:n]
            out[key] = out.get(key, 0) + wrap_sign * ck
    return {k: v for k, v in out.items() if v}


def _canonical(tup):
    n = len(tup) - 1
    candidates = []
    for k in range(n + 1):
        rotated = tup[-k:] + tup[:-k] if k else tup
        sign = 1 if (n * k) % 2 == 0 else -1
        candidates.append((rotated, sign))
    best = min(r for r, _ in candidates)
    signs = {s for r, s in candidates if r == best}
    if len(signs) == 2:
        return None
    return best, signs.pop()


def _basis(dim, ideal_count, space, cyclic, degree):
    alphabet = range(ideal_count if space == "I" else dim)
    out = []
    for tup in iter_product(alphabet, repeat=degree + 1):
        if space == "relative" and not any(i < ideal_count for i in tup):
            continue
        if cyclic and _canonical(tup) != (tup, 1):
            continue
        out.append(tup)
    return out


def _dense_boundary(mult, dim, ideal_count, space, op, degree):
    cyclic = op == "hc"
    wrap = op != "bar"
    cols = _basis(dim, ideal_count, space, cyclic, degree)
    rows = _basis(dim, ideal_count, space, cyclic, degree - 1)
    row_index = {t: r for r, t in enumerate(rows)}
    dense = [[Fraction(0)] * len(cols) for _ in rows]
    for c, tup in enumerate(cols):
        terms = _tuple_boundary(mult, tup, wrap)
        if cyclic:
            folded = {}
            for t, v in terms.items():
                canonical = _canonical(t)
                if canonical is None:
                    continue
                best, sign = canonical
                folded[best] = folded.get(best, 0) + sign * v
            terms = {k: v for k, v in folded.items() if v}
        for t, v in terms.items():
            dense[row_index[t]][c] += v
    return dense, len(cols)


def _int_rows(dense):
    rows = []
    for row in dense:
        scale = 1
        for v in row:
            if v:
                scale = lcm(scale, Fraction(v).denominator)
        ints = [int(v * scale) for v in row]
        if any(ints):
            rows.append(ints)
    return rows


def _reduce_row(row):
    g = 0
    for v in row:
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return [v // g for v in row]
    return row


def int_rank(rows):
    """Fraction-free elimination over Z; exact and deterministic."""
    rows = [r[:] for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        pv = pr[col]
        for i in range(rank + 1, len(rows)):
            ri = rows[i]
            v = ri[col]
            if not v:
                continue
            g = gcd(pv, v)
            a, b = pv // g, v // g
            big = False
            for j in range(col, ncols):
                x, y = ri[j], pr[j]
                if x or y:
                    ri[j] = a * x - b * y
                    if abs(ri[j]) > _GROWTH_LIMIT:
                        big = True
            if big:
                rows[i] = _reduce_row(ri)
        rank += 1
        if rank == len(rows):
            break
    return rank


def _dense_inverse(rows):
    """Inverse of a nonsingular square matrix of exact scalars, by
    Gauss-Jordan on [rows | identity] in `Fraction`s, so `/` stays exact."""
    n = len(rows)
    work = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if work[i][col])
        work[col], work[pivot] = work[pivot], work[col]
        scale = work[col][col]
        work[col] = [v / scale for v in work[col]]
        for i in range(n):
            if i != col and work[i][col]:
                factor = work[i][col]
                work[i] = [v - factor * p for v, p in zip(work[i], work[col])]
    return [row[n:] for row in work]


def _split_coordinates(split):
    """vector -> {k: c}: parent coordinates to the split coordinates, by a
    dense inverse of the basis matrix computed here, memoised per vector."""
    dim = split.dimension
    basis = [vector.to_list() for vector in split.ordered_basis]
    inverse = _dense_inverse([[basis[c][r] for c in range(dim)] for r in range(dim)])
    memo = {}

    def convert(vector):
        key = tuple((r, v.numerator, v.denominator) for r, v in vector.entries.items())
        if key not in memo:
            values = vector.to_list()
            coords = [sum(inverse[k][r] * values[r] for r in range(dim)) for k in range(dim)]
            memo[key] = {k: c for k, c in enumerate(coords) if c}
        return memo[key]

    return convert


def split_products(split):
    """mult(i, j) -> {k: c}: the split coordinates of f_i·f_j for the split
    basis vectors f_i, multiplied by `Algebra.mul` in parent coordinates and
    changed to split coordinates by `_split_coordinates`."""
    convert = _split_coordinates(split)
    memo = {}

    def mult(i, j):
        if (i, j) not in memo:
            basis = split.ordered_basis
            memo[i, j] = convert(split.parent.mul(basis[i], basis[j]))
        return memo[i, j]

    return mult


def sign_word_closed_formula(split, schedule):
    """chain -> {tuple: coeff}: the closed inverse formula expanded word by
    word, as the paper writes it.  For each pure tensor f0 ⊗ … ⊗ fn and
    each sign word s in {+,−}^n the slots are multiplied out with
    `Algebra.mul` on parent coordinates, the schedule's split-coordinate
    units converted by `from_split`: slot i is e_i for + and f_i·e_i
    for −, times f_(i−1) from the left when s_(i−1) is +, and f0 (times f_n
    when s_n is +) closes the word, with sign (−1)^(number of −).  Each
    slot goes to split coordinates by `_split_coordinates` and the tensor
    is expanded.  The expansion of each basis tuple is memoised, and the
    formula is linear in the chain."""
    mul = split.parent.mul
    convert = _split_coordinates(split)
    units = [split.from_split(u) for u in schedule.units]
    expansions = {}

    def expand(tup):
        n = len(tup) - 1
        f = [split.ordered_basis[i] for i in tup]
        out = {}
        for signs in iter_product((1, -1), repeat=n):
            slots, pending = [], None
            for i in range(1, n + 1):
                if signs[i - 1] > 0:
                    slot, next_pending = units[i - 1], f[i]
                else:
                    slot, next_pending = mul(f[i], units[i - 1]), None
                slots.append(slot if pending is None else mul(pending, slot))
                pending = next_pending
            slots.append(f[0] if pending is None else mul(pending, f[0]))
            sign = 1 if signs.count(-1) % 2 == 0 else -1
            for combo in iter_product(*[convert(slot).items() for slot in slots]):
                c = sign
                for _, v in combo:
                    c *= v
                key = tuple(k for k, _ in combo)
                out[key] = out.get(key, 0) + c
        return out

    def evaluate(chain):
        out = {}
        for tup, coeff in chain.terms.items():
            if tup not in expansions:
                expansions[tup] = expand(tup)
            for key, c in expansions[tup].items():
                out[key] = out.get(key, 0) + coeff * c
        return {k: Fraction(v) for k, v in out.items() if v}

    return evaluate


def homology_dimension(split, op, space, degree):
    """dim H_degree of the requested complex, by dense recomputation."""
    mult = split_products(split)
    dim = split.dimension
    ideal_count = split.ideal_count
    cyclic = op == "hc"
    n_basis = len(_basis(dim, ideal_count, space, cyclic, degree))
    if degree == 0:
        rank_down = 0
    else:
        dense, _ = _dense_boundary(mult, dim, ideal_count, space, op, degree)
        rank_down = int_rank(_int_rows(dense))
    dense_up, _ = _dense_boundary(mult, dim, ideal_count, space, op, degree + 1)
    rank_up = int_rank(_int_rows(dense_up))
    return n_basis - rank_down - rank_up


def image_columns(matrix):
    """A basis of the image of the `SparseMatrix` `matrix`: its columns at
    the pivot columns of its `Echelon` record."""
    from excisionlab.linalg import SparseVector, echelon

    columns = {c: {} for c in echelon(matrix).pivots}
    for (r, c), v in matrix.entries.items():
        column = columns.get(c)
        if column is not None:
            column[r] = v
    return [SparseVector(matrix.rows, column) for column in columns.values()]


def _enlarges(span, vector):
    """Reduce the rational `vector` ({index: value}) over Z against `span`
    (leading index -> integer row dict), each step made primitive by
    `_reduce_row`; keep what is left under its leading index and return
    True, or return False when nothing is left."""
    scale = lcm(*(Fraction(v).denominator for v in vector.values()))
    row = {j: int(v * scale) for j, v in vector.items()}
    while row:
        lead = min(row)
        pivot = span.get(lead)
        if pivot is None:
            span[lead] = row
            return True
        g = gcd(pivot[lead], row[lead])
        a, b = pivot[lead] // g, row[lead] // g
        del row[lead]
        if a != 1:
            for j in row:
                row[j] *= a
        for j, v in pivot.items():
            if j != lead:
                nv = row.get(j, 0) - b * v
                if nv:
                    row[j] = nv
                else:
                    del row[j]
        values = list(row.values())
        reduced = _reduce_row(values)
        if reduced is not values:
            row = dict(zip(row, reduced))
    return False


def incremental_span_homology(split, variant, degree):
    """(dimension, representatives as {tuple: value} dicts) by growing a
    span: every column of ∂_(degree+1) goes in first, and those that
    enlarge it count the rank of the boundaries; then each kernel basis
    vector of ∂_degree in order, and a kernel vector is a representative
    when it enlarges the span (`_enlarges`).  It reads the library's
    matrices and kernels, each checked against a dense reference
    elsewhere, and shares nothing with `chains.homology` itself.
    """
    from excisionlab.chains import basis_tuples, boundary_matrix
    from excisionlab.linalg import SparseVector, kernel_basis

    tuples = basis_tuples(split, variant, degree)
    if degree == 0:
        cycles = [SparseVector.unit(len(tuples), i) for i in range(len(tuples))]
    else:
        cycles = kernel_basis(boundary_matrix(split, variant, degree)[0])
    up = boundary_matrix(split, variant, degree + 1)[0]
    columns = [{} for _ in range(up.cols)]
    for (r, c), v in up.entries.items():
        columns[c][r] = v
    span = {}
    rank = sum(_enlarges(span, column) for column in columns)
    representatives = [
        {tuples[i]: v for i, v in vector.entries.items()}
        for vector in cycles
        if _enlarges(span, vector.entries)
    ]
    return len(cycles) - rank, representatives


def stacked_inverse(chain):
    """(ψ, η) for a relative cyclic cycle `chain` of degree n, from one
    solve of the stacked system

        [ ρ     | −∂^rel_(n+1) ]  [ψ]   [φ]
        [ ∂^I_n |  0           ]  [η] = [0]

    over the columns of C_n(I) and then of the relative degree n + 1, with
    φ the canonical form of `chain` on the relative rows: ψ an ideal cyclic
    cycle with ρ(ψ) − b(η) ≡ φ, free variables zeroed.  None when the
    system is inconsistent."""
    from excisionlab.chains import (
        Chain, Variant, basis_tuples, boundary_matrix, canonicalize_cyclic,
    )
    from excisionlab.linalg import SparseMatrix, SparseVector, Unsolvable, solve

    split, n = chain.context, chain.degree
    cols_ideal = basis_tuples(split, Variant("hc", "I"), n)
    up, cols_up, rows_rel = boundary_matrix(split, Variant("hc", "relative"), n + 1)
    rel_index = {t: r for r, t in enumerate(rows_rel)}
    offset = len(cols_ideal)
    entries = {(rel_index[t], c): 1 for c, t in enumerate(cols_ideal)}
    for (r, c), v in up.entries.items():
        entries[(r, offset + c)] = -v
    rows = len(rows_rel)
    if n >= 1:
        down = boundary_matrix(split, Variant("hc", "I"), n)[0]
        for (r, c), v in down.entries.items():
            entries[(rows + r, c)] = v
        rows += down.rows
    system = SparseMatrix(rows, offset + up.cols, entries)
    rhs = SparseVector(rows, {rel_index[t]: v
                              for t, v in canonicalize_cyclic(chain).terms.items()})
    solution = solve(system, rhs)
    if isinstance(solution, Unsolvable):
        return None
    psi = {cols_ideal[c]: v for c, v in solution.entries.items() if c < offset}
    eta = {cols_up[c - offset]: v for c, v in solution.entries.items() if c >= offset}
    return Chain(n, split, psi), Chain(n + 1, split, eta)


def _necklaces(letters, length):
    """Canonical necklaces over range(letters) in lexicographic order, each
    with its period (Fredricksen–Kessler–Maiorana, in Duval's form): every
    prenecklace is visited once, and it is a necklace exactly when the
    length of its Lyndon prefix `w` divides `length`; then it is `w`
    repeated and has period len(w)."""
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


def filtered_tuples(split, variant, degree, weighted=True):
    """The basis tuples of a chain group in lexicographic order, listed
    whole and then filtered: the relative tuples with an ideal slot, the
    `hc` necklaces without the sign-obstructed ones (odd degree and odd
    period), and with `weighted`, for `hh` and `hc`, the tuples of weight 0
    under every grading of `chains._gradings`."""
    from excisionlab.chains import _gradings

    width = degree + 1
    ideal_count = split.ideal_count
    letters = ideal_count if variant.space == "I" else split.dimension
    if variant.op == "hc":
        words = (word for word, period in _necklaces(letters, width)
                 if not (degree % 2 and period % 2))
    else:
        words = iter_product(range(letters), repeat=width)
    relative = variant.space == "relative"
    gradings = _gradings(split) if weighted and variant.op != "bar" else []
    return [t for t in words
            if (not relative or min(t) < ideal_count)
            and all(sum(weights[i] for i in t) == 0 for weights in gradings)]
