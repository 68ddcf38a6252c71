"""Reference implementations that the tests check the library against.

None of these is library API: each one is either a second, independent
route to a value the library computes (``b`` reads the rational pairing
matrix, where the library's form checks read the integer one) or a
helper the tests need and the commands do not.
"""

from fractions import Fraction

from latglue.exact import (
    freeze,
    gram_of_rows,
    identity,
    mat_vec,
    right_kernel,
    solve_int,
    transpose,
)
from latglue.isometries import Isometry, _isometries, vectors_of_norm
from latglue.lattices import IntegerLattice, LatticeError, Sublattice


def b(group, x, y) -> Fraction:
    """The bilinear form b(x, y) in [0, 1), read off the Fraction ``pair_gram`` mod 1."""
    gram = group.pair_gram
    total = sum(
        xi * gram[i][j] * yj for i, xi in enumerate(x.coeffs) for j, yj in enumerate(y.coeffs)
    )
    return Fraction(total) % 1


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
