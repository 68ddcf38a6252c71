"""Reference implementations that the tests check the library against.

None of these is library API: each one is either a second, independent
route to a value the library computes (``b`` reads the rational pairing
matrix, where the library's form checks read the integer one) or a
helper the tests need and the commands do not (the ``Fraction`` views of
a group's integer fields, its element list, the sum and order of elements,
a map's image of one element).  Elements are coefficient tuples, as in
the library.
"""

import itertools
from fractions import Fraction
from math import isqrt, prod

from latglue.discforms import induced_map
from latglue.exact import (
    bilinear,
    det,
    freeze,
    gram_of_rows,
    hnf,
    identity,
    mat_mul,
    mat_vec,
    right_kernel,
    snf,
    solve_int,
    transpose,
)
from latglue.isometries import Isometry, _isometries, vectors_of_norm
from latglue.lattices import IntegerLattice, LatticeError, Sublattice, closure


def rational_pairings(group):
    """The pairing matrix Q / e of the generators in Fractions: q and b before reduction."""
    return freeze(tuple(Fraction(x, group.exponent) for x in row) for row in group.int_gram)


def rational_lifts(group):
    """The generator lifts nums[i] / dens[i] of a lattice-backed group, in Fractions."""
    nums, dens = group.cleared_lifts
    return freeze(tuple(Fraction(x, den) for x in num) for num, den in zip(nums, dens))


def all_elements(group) -> list:
    """Every element of a discriminant group, in lexicographic coefficient order."""
    return list(itertools.product(*(range(d) for d in group.orders)))


def add(group, x, y) -> tuple:
    """x + y in the group: the coefficient-wise sum, reduced by ``group.element``."""
    return group.element(tuple(a + c for a, c in zip(group.element(x), group.element(y))))


def element_order(group, x) -> int:
    """The least k >= 1 with k x = 0, by adding x to itself."""
    x = group.element(x)
    k, multiple = 1, x
    while any(multiple):
        k, multiple = k + 1, add(group, multiple, x)
    return k


def apply_map(f, x):
    """f(x) for a map between discriminant groups, read off its matrix."""
    return f.codomain.element(mat_vec(f.matrix, f.domain.element(x)))


def b(group, x, y) -> Fraction:
    """The bilinear form b(x, y) in [0, 1), read off the Fraction pairing matrix mod 1."""
    gram = rational_pairings(group)
    total = sum(xi * gram[i][j] * yj for i, xi in enumerate(group.element(x))
                for j, yj in enumerate(group.element(y)))
    return Fraction(total) % 1


def form_error_by_fractions(orders, pair_gram):
    """The message the rational checks of a cyclic order chain and pairing matrix raise, or None.

    These are the ``Fraction`` checks ``DiscriminantGroup`` ran before it
    validated in integers, in the same order.
    """
    k, pair_gram = len(orders), freeze(pair_gram)
    if any(d <= 1 for d in orders):
        return "cyclic factor orders must exceed 1"
    if any(orders[i + 1] % orders[i] for i in range(k - 1)):
        return "orders must form a divisibility chain d1 | d2 | ..."
    if len(pair_gram) != k or any(len(row) != k for row in pair_gram):
        return "pairing matrix shape must match the generator count"
    if pair_gram != transpose(pair_gram):
        return "pairing matrix must be symmetric"
    for i, d in enumerate(orders):
        if any((d * Fraction(pair_gram[i][j])).denominator != 1 for j in range(k)):
            return "bilinear values are not well-defined modulo Z"
        value = d * d * Fraction(pair_gram[i][i])
        if value.denominator != 1 or value.numerator % 2:
            return "quadratic values are not well-defined modulo 2Z"
    return None


def isotropic_generators_by_product(group) -> dict:
    """``DiscriminantGroup.isotropic_generators`` from one ``bilinear`` call per element.

    The same growth, but the isotropic elements are found by evaluating
    x Q x^T on every tuple of ``itertools.product`` in turn.
    """
    orders, e, gram = group.orders, group.exponent, group.int_gram
    zero = (0,) * len(orders)

    def step(x, y):
        return tuple((a + b) % d for a, b, d in zip(x, y, orders))

    cyclic = {}
    for c in itertools.product(*(range(d) for d in orders)):
        if any(c) and bilinear(c, gram, c) % (2 * e) == 0:
            cyclic.setdefault(frozenset(closure([zero], [c], step)), c)
    trivial = frozenset([zero])
    found = {trivial: ()}
    frontier = [trivial]
    while frontier:
        span = frontier.pop()
        gens = found[span]
        for line, g in cyclic.items():
            if line <= span or any(bilinear(g, gram, h) % e for h in gens):
                continue
            joined = frozenset(closure(span, [g], step))
            if joined not in found:
                found[joined] = gens + (g,)
                frontier.append(joined)
    buckets = {}
    for span in sorted(found, key=sorted):
        buckets.setdefault(len(span), []).append(found[span])
    return buckets


def extends_by_induced_map(matrix, h) -> bool:
    """The extension test on the whole induced map: every generator of H maps into H."""
    bar = induced_map(matrix, h.parent)
    return all(apply_map(bar, g) in h.element_coeffs() for g in h.generators)


def is_isometry_by_pairings(lattice: IntegerLattice, matrix) -> bool:
    """M^T G M == G entry by entry, column i of M paired with column j by ``bilinear``.

    An explicit n x n shape guard comes first; the library reads ``gram_of_rows`` instead.
    """
    n = lattice.rank
    if len(matrix) != n or any(len(row) != n for row in matrix):
        return False
    cols = list(zip(*matrix))
    return all(bilinear(cols[i], lattice.gram, cols[j]) == lattice.gram[i][j]
               for i in range(n) for j in range(n))


def isometry_between(a: IntegerLattice, b: IntegerLattice):
    """Matrix M with M^T * gram_a * M = gram_b, or None (positive definite lattices).

    Columns give the a-coordinates of the image of b's basis, i.e. an
    isometry from b onto a.  The Gram identity is checked here again, not
    taken from the backtracking's pairing filter.
    """
    if a.rank != b.rank or a.determinant() != b.determinant():
        return None
    sa = a.signature()
    if sa != b.signature():
        return None
    if sa[1] != 0:
        raise LatticeError("isometry testing needs positive definite lattices")
    matrix = next(_isometries(a, b), None)
    assert matrix is None or gram_of_rows(transpose(matrix), a.gram) == b.gram
    return matrix


def isometries_plain(a: IntegerLattice, b: IntegerLattice) -> list:
    """Every M with M^T * gram_a * M = gram_b, sorted, by plain backtracking.

    Column i runs over the a-vectors of norm b.gram[i][i], and each one is
    tested against every column chosen before it: no forward checking and
    no pairing of M with -M, so every isometry is found on its own.
    """
    n = b.rank
    candidates = [[(v, mat_vec(a.gram, v)) for v in vectors_of_norm(a, b.gram[i][i])]
                  for i in range(n)]
    images, paired, found = [], [], []

    def backtrack(i: int):
        if i == n:
            found.append(transpose(images))
            return
        target = b.gram[i]
        for v, gv in candidates[i]:
            if all(sum(x * y for x, y in zip(gw, v)) == target[j] for j, gw in enumerate(paired)):
                images.append(v)
                paired.append(gv)
                backtrack(i + 1)
                images.pop()
                paired.pop()

    backtrack(0)
    return sorted(found)


def snf_by_closures(a):
    """``exact.snf`` as first written: four helper closures and a list of pivot candidates.

    The same steps in the same order (the least (|x|, i, j) pivot, rows then
    columns cleared, the divisibility fix), so (D, U, V) must be identical,
    not just equivalent: census digests depend on U and V through the
    coefficient order of the subgroups.
    """
    d = [list(row) for row in a]
    nrows = len(d)
    ncols = len(d[0]) if d else 0
    u = [list(row) for row in identity(nrows)]
    v = [list(row) for row in identity(ncols)]

    def row_op(i, j, q):  # row i -= q * row j
        d[i] = [x - q * y for x, y in zip(d[i], d[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col i -= q * col j
        for row in d:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    k = 0
    while k < min(nrows, ncols):
        # Find a pivot of least absolute value in the remaining block.
        entries = [(abs(d[i][j]), i, j) for i in range(k, nrows)
                   for j in range(k, ncols) if d[i][j] != 0]
        if not entries:
            break
        _, pi, pj = min(entries)
        swap_rows(k, pi)
        swap_cols(k, pj)
        dirty = False
        for i in range(k + 1, nrows):
            if d[i][k] != 0:
                row_op(i, k, d[i][k] // d[k][k])
                dirty = dirty or d[i][k] != 0
        for j in range(k + 1, ncols):
            if d[k][j] != 0:
                col_op(j, k, d[k][j] // d[k][k])
                dirty = dirty or d[k][j] != 0
        if dirty:
            continue
        # Enforce divisibility: d[k][k] must divide everything below-right.
        bad = next(((i, j) for i in range(k + 1, nrows) for j in range(k + 1, ncols)
                    if d[i][j] % d[k][k] != 0), None)
        if bad is not None:
            row_op(k, bad[0], -1)
            continue
        if d[k][k] < 0:
            d[k] = [-x for x in d[k]]
            u[k] = [-x for x in u[k]]
        k += 1
    return freeze(d), freeze(u), freeze(v)


def kernel_by_smith(a):
    """``right_kernel`` through a Smith form U a V = D: the columns of V past the rank, in HNF."""
    ncols = len(a[0]) if a else 0
    if not a:
        return identity(ncols)
    d, _u, v = snf(a)
    rank = sum(1 for i in range(min(len(d), ncols)) if d[i][i] != 0)
    cols = [tuple(v[i][j] for i in range(ncols)) for j in range(rank, ncols)]
    return tuple(row for row in hnf(cols) if any(row))


def adjugate(a):
    """Integer adjugate by cofactors, a . adjugate(a) == det(a) . I (once ``exact.adjugate``)."""
    return tuple(
        tuple((-1) ** (i + j) * det([r[:i] + r[i + 1:] for k, r in enumerate(a) if k != j])
              for j in range(len(a)))
        for i in range(len(a))
    )


def node_bound_by_cofactors(lattice: IntegerLattice, norm: int) -> int:
    """The short-vector node bound as the set-up once computed it: on the basis
    sorted by ascending diagonal, prod_{j>=1} (2*isqrt(norm*det(minor_j) // det) + 1),
    where minor_j drops row and column j and every determinant is ``exact.det``."""
    gram = lattice.gram
    order = sorted(range(lattice.rank), key=lambda i: gram[i][i])
    g = [[gram[i][j] for j in order] for i in order]
    minors = [det([[x for c, x in enumerate(row) if c != j] for r, row in enumerate(g) if r != j])
              for j in range(1, len(g))]
    return prod(2 * isqrt(norm * minor // det(g)) + 1 for minor in minors)


def group_side_cases(group, symmetry, m: int) -> dict:
    """The order-m cases read off the group: {L: (orbit size, T basis, elements)}.

    An order-m element g whose fixed lattice ker(g - 1) has rank 1 fixes a
    line ZL and no vector of T = L^perp, so T = ker(1 + g + ... + g^(m-1)).
    The fixed lines fall into ``symmetry`` orbits; L is the largest member of
    its orbit, and ``elements`` are the order-m g with ker(g - 1) = ZL, in
    sort order.  No norm enters, and every kernel is read off a Smith form.
    """
    eye = identity(group.lattice.rank)
    by_line = {}
    for g in group.elements:
        shifted = tuple(tuple(x - e for x, e in zip(row, unit)) for row, unit in zip(g.matrix, eye))
        fixed = kernel_by_smith(shifted)
        if g.order == m and len(fixed) == 1:
            by_line.setdefault(fixed[0], []).append(g)
    cases = {}
    for line in by_line:
        orbit = {h.apply(line) for h in symmetry.elements}
        rep = max(orbit)
        power = total = eye
        for _ in range(m - 1):
            power = mat_mul(by_line[rep][0].matrix, power)
            total = tuple(tuple(map(sum, zip(a, b))) for a, b in zip(total, power))
        cases[rep] = (len(orbit), kernel_by_smith(total), by_line[rep])
    return cases


def invariant_lattice(lattice: IntegerLattice, generators) -> Sublattice:
    """Fixed sublattice of the isometries (Isometry values or matrices) given.

    The integer kernel of the stacked (g - 1) maps, hence primitive; for no
    generators it is the whole lattice.
    """
    if not generators:
        return lattice.full()
    eye = identity(lattice.rank)
    stacked = []
    for g in generators:
        m = g.matrix if isinstance(g, Isometry) else freeze(g)
        stacked.extend(tuple(x - e for x, e in zip(row, eye_row)) for row, eye_row in zip(m, eye))
    return Sublattice(lattice, right_kernel(stacked))


def coinvariant_lattice(lattice: IntegerLattice, generators) -> Sublattice:
    """Orthogonal complement of ``invariant_lattice``; primitive by construction."""
    fixed = invariant_lattice(lattice, generators)
    if fixed.rank == lattice.rank:
        return Sublattice(lattice, ())
    return fixed.orthogonal_complement()


def saturation(sub: Sublattice) -> Sublattice:
    """Primitive closure (Q-span intersect the ambient lattice), as the kernel of the kernel."""
    if not sub.basis:
        return sub
    ker = right_kernel(sub.basis)
    # full rank: the saturation is Z^n, whose HNF basis is the identity
    return Sublattice(sub.ambient, right_kernel(ker) if ker else identity(sub.ambient.rank))


def in_span(sub: Sublattice, v) -> bool:
    """True iff the integer vector v is an integer combination of ``sub.basis``."""
    if not sub.basis:
        return not any(v)
    return solve_int(transpose(sub.basis), v) is not None


def binary_form_exists(k: int) -> bool:
    """Is k = 4ac - b^2 solvable with a reduced positive form (-a < b <= a <= c)?

    A search over a <= sqrt(k/3), the bound every reduced form meets.
    """
    a = 1
    while 3 * a * a <= k:
        for b in range(-a + 1, a + 1):
            rem = k + b * b
            if rem % (4 * a) == 0 and rem // (4 * a) >= a:
                return True
        a += 1
    return False


def reduced_binary_form(gram) -> tuple[int, int, int]:
    """Gauss-reduced (a, b, c) of a positive definite binary form (Conway-Sloane, SPLAG ch. 15).

    The form is a x^2 + b xy + c y^2 read off a 2x2 Gram matrix; reduction
    reaches the unique representative with -a < b <= a <= c (and b >= 0
    when a == c).  An even lattice has an order-3 isometry exactly when
    a == b == c, the reference for ``admits_order3``.
    """
    a, b, c = gram[0][0], 2 * gram[0][1], gram[1][1]
    if a <= 0 or 4 * a * c - b * b <= 0:
        raise LatticeError("form is not positive definite")
    while True:
        if b > a or b <= -a:
            # x -> x + t*y brings b into (-a, a] without changing a
            r = b % (2 * a)
            if r > a:
                r -= 2 * a
            t = (r - b) // (2 * a)
            a, b, c = a, r, c + b * t + a * t * t
            continue
        if c < a:
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            b = -b
            continue
        return a, b, c
