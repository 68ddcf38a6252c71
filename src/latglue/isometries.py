"""Orthogonal groups of small definite lattices, orbits, fixed lattices.

The orthogonal group of a positive definite lattice is enumerated by
matching basis vectors to candidate images of the right norm and pairwise
pairings (all short-vector lists are computed exactly).  This is only
meant for the small ranks the toolkit works at and is guarded accordingly.

Matrices act on column coordinate vectors; the columns of an isometry
matrix are the images of the basis vectors.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor

from .exact import (
    IntMatrix,
    IntVector,
    floor_sqrt_frac,
    frac_inverse,
    freeze,
    gram_of_rows,
    identity,
    mat_mul,
    mat_vec,
    transpose,
)
from .lattices import IntegerLattice, LatticeError, Sublattice, closure

RANK_GUARD = 4
CANDIDATE_GUARD = 10_000


def is_isometry_matrix(lattice: IntegerLattice, matrix) -> bool:
    return gram_of_rows(transpose(freeze(matrix)), lattice.gram) == lattice.gram


def matrix_order(matrix, limit: int = 10_000) -> int:
    n = len(matrix)
    eye = identity(n)
    power = freeze(matrix)
    for k in range(1, limit + 1):
        if power == eye:
            return k
        power = mat_mul(power, matrix)
    raise LatticeError("matrix order exceeds the search limit")


@dataclass(frozen=True)
class Isometry:
    """Gram-preserving basis change, with its multiplicative order."""

    lattice: IntegerLattice
    matrix: IntMatrix
    order: int = field(init=False)

    def __post_init__(self):
        matrix = freeze(self.matrix)
        object.__setattr__(self, "matrix", matrix)
        if not is_isometry_matrix(self.lattice, matrix):
            raise LatticeError("matrix does not preserve the Gram matrix")
        object.__setattr__(self, "order", matrix_order(matrix))

    def apply(self, v: IntVector) -> IntVector:
        return mat_vec(self.matrix, v)

    def compose(self, other: "Isometry") -> "Isometry":
        return Isometry(self.lattice, mat_mul(self.matrix, other.matrix))

    def inverse(self) -> "Isometry":
        # matrix^(order-1) is the inverse
        inv = identity(len(self.matrix))
        for _ in range(self.order - 1):
            inv = mat_mul(inv, self.matrix)
        return Isometry(self.lattice, inv)


def vectors_of_norm(lattice: IntegerLattice, norm: int) -> tuple[IntVector, ...]:
    """All lattice vectors of the exact given norm, lexicographically sorted.

    Fincke-Pohst style enumeration from the rational Cholesky decomposition
    Q(x) = sum_i q_i (x_i + sum_{j>i} u_ij x_j)^2 with exact bounds.
    """
    if norm < 0:
        return ()
    s_plus, s_minus = lattice.signature()
    if s_minus != 0:
        raise LatticeError("short-vector enumeration needs a positive definite lattice")
    if norm == 0:
        return ((0,) * lattice.rank,)
    n = lattice.rank
    q = [[Fraction(x) for x in row] for row in lattice.gram]
    # Fincke-Pohst preprocessing: afterwards
    #   Q(x) = sum_i q[i][i] * (x_i + sum_{j>i} q[i][j] x_j)^2 .
    for i in range(n):
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, n):
            for col in range(k, n):
                q[k][col] = q[k][col] - q[k][i] * q[i][col]

    results: list[IntVector] = []
    x = [0] * n

    def descend(i: int, remaining: Fraction):
        shift = sum((q[i][j] * x[j] for j in range(i + 1, n)), Fraction(0))
        bound = floor_sqrt_frac(remaining / q[i][i])
        lo = ceil(-bound - 1 - shift)
        hi = floor(bound + 1 - shift)
        for xi in range(lo, hi + 1):
            value = q[i][i] * (xi + shift) * (xi + shift)
            if value > remaining:
                continue
            x[i] = xi
            if i == 0:
                if value == remaining:
                    results.append(tuple(x))
            else:
                descend(i - 1, remaining - value)
        x[i] = 0

    descend(n - 1, Fraction(norm))
    return tuple(sorted(results))


def vectors_of_norm_boxed(lattice: IntegerLattice, norm: int) -> tuple[IntVector, ...]:
    """Independent oracle: full scan of the dual-bound coordinate box."""
    if norm < 0:
        return ()
    s_plus, s_minus = lattice.signature()
    if s_minus != 0:
        raise LatticeError("short-vector enumeration needs a positive definite lattice")
    if norm == 0:
        return ((0,) * lattice.rank,)
    inv = frac_inverse(lattice.gram)
    bounds = [floor_sqrt_frac(norm * inv[i][i]) for i in range(lattice.rank)]
    hits = []
    for v in itertools.product(*(range(-b, b + 1) for b in bounds)):
        if lattice.norm(v) == norm:
            hits.append(v)
    return tuple(sorted(hits))


@dataclass(frozen=True)
class IsometryGroup:
    """Complete list of isometries of a definite lattice."""

    lattice: IntegerLattice
    elements: tuple[Isometry, ...]

    def order(self) -> int:
        return len(self.elements)

    def to_json(self) -> str:
        return json.dumps(
            {
                "gram": [list(row) for row in self.lattice.gram],
                "elements": [[list(row) for row in g.matrix] for g in self.elements],
            }
        )

    def element_orders(self) -> tuple[int, ...]:
        return tuple(sorted({g.order for g in self.elements}))

    def has_element_of_order(self, k: int) -> bool:
        return any(g.order == k for g in self.elements)

    def subgroup_where(self, predicate) -> "IsometryGroup":
        kept = tuple(g for g in self.elements if predicate(g))
        return IsometryGroup(self.lattice, kept)


def _isometries(a: IntegerLattice, b: IntegerLattice):
    """Every matrix M with M^T * gram_a * M = gram_b, in backtracking order.

    Column i of M is an a-vector of norm b.gram[i][i]; a candidate is kept
    only if it pairs with the columns chosen before as b's basis does.
    """
    n = b.rank
    candidates = []
    for i in range(n):
        cands = vectors_of_norm(a, b.gram[i][i])
        if len(cands) > CANDIDATE_GUARD:
            raise LatticeError("too many candidate images for basis vectors")
        candidates.append(cands)
    images: list[IntVector] = []

    def backtrack(i: int):
        if i == n:
            yield transpose(images)
            return
        for v in candidates[i]:
            if all(a.pairing(v, images[j]) == b.gram[i][j] for j in range(i)):
                images.append(v)
                yield from backtrack(i + 1)
                images.pop()

    for matrix in backtrack(0):
        # The pairing filter already forces the full Gram identity; keep the
        # explicit check as a safety net for degenerate candidate sets.
        if gram_of_rows(transpose(matrix), a.gram) == b.gram:
            yield matrix


def orthogonal_group(lattice: IntegerLattice) -> IsometryGroup:
    """O(L) for a positive definite lattice of small rank, by backtracking."""
    n = lattice.rank
    if n > RANK_GUARD:
        raise LatticeError(f"orthogonal group enumeration is guarded to rank <= {RANK_GUARD}")
    if lattice.signature() != (n, 0):
        raise LatticeError("group enumeration needs a positive definite lattice")
    elements = tuple(Isometry(lattice, m) for m in sorted(_isometries(lattice, lattice)))
    return IsometryGroup(lattice, elements)


def isometry_between(a: IntegerLattice, b: IntegerLattice):
    """Matrix M with M^T * gram_a * M = gram_b, or None.

    Columns give the a-coordinates of the image of b's basis, i.e. an
    isometry from b onto a.
    """
    if a.rank != b.rank or a.determinant() != b.determinant():
        return None
    sa = a.signature()
    if sa != b.signature():
        return None
    if sa[1] != 0:
        raise LatticeError("isometry testing needs positive definite lattices")
    return next(_isometries(a, b), None)


@dataclass(frozen=True)
class Orbit:
    representative: IntVector
    members: tuple[IntVector, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def orbits(group: IsometryGroup, vectors) -> tuple[Orbit, ...]:
    """Partition vectors into group orbits.

    Each orbit is closed under the group even if the input was not; the
    representative is the lexicographically smallest member and orbits are
    sorted by representative.
    """
    remaining = set(tuple(v) for v in vectors)
    result = []
    while remaining:
        orbit = closure([min(remaining)], group.elements, lambda v, g: g.apply(v))
        members = tuple(sorted(orbit))
        result.append(Orbit(members[0], members))
        remaining -= orbit
    return tuple(sorted(result, key=lambda o: o.representative))


def orbit_witness(group: IsometryGroup, source: IntVector, target: IntVector):
    """A group element g with g(source) = target, or None."""
    for g in group.elements:
        if g.apply(source) == tuple(target):
            return g
    return None


def invariant_lattice(lattice: IntegerLattice, generators) -> Sublattice:
    """Fixed sublattice of the group generated by the given isometries.

    Computed as the saturated kernel of the stacked (g - 1) maps; for an
    empty generator list this is the whole lattice.
    """
    mats = [g.matrix if isinstance(g, Isometry) else freeze(g) for g in generators]
    n = lattice.rank
    if not mats:
        return lattice.full()
    stacked = []
    eye = identity(n)
    for m in mats:
        for i in range(n):
            stacked.append(tuple(m[i][j] - eye[i][j] for j in range(n)))
    from .exact import right_kernel

    kernel = right_kernel(freeze(stacked))
    return Sublattice(lattice, kernel)


def coinvariant_lattice(lattice: IntegerLattice, generators) -> Sublattice:
    """Orthogonal complement of the invariant lattice; primitive by construction."""
    inv = invariant_lattice(lattice, generators)
    if inv.rank == 0:
        return lattice.full()
    if inv.rank == lattice.rank:
        return Sublattice(lattice, ())
    return inv.orthogonal_complement()


def group_generated_by(lattice: IntegerLattice, generators) -> tuple[IntMatrix, ...]:
    """Closure of a generator list under multiplication (finite groups only)."""
    gens = [freeze(g.matrix if isinstance(g, Isometry) else g) for g in generators]
    return tuple(sorted(closure([identity(lattice.rank)], gens, mat_mul, limit=100_000)))


def torsion_exponent_check(lattice: IntegerLattice, generators) -> bool:
    """Quotient by (invariant + coinvariant) must be killed by the group order."""
    inv = invariant_lattice(lattice, generators)
    coinv = coinvariant_lattice(lattice, generators)
    order = len(group_generated_by(lattice, generators))
    rows = inv.basis + coinv.basis
    if len(rows) != lattice.rank:
        return False
    sub = Sublattice(lattice, rows)
    return all(
        sub.contains(tuple(order * int(i == j) for j in range(lattice.rank)))
        for i in range(lattice.rank)
    )


def reduced_binary_form(gram: IntMatrix) -> tuple[int, int, int]:
    """Gauss-reduced (a, b, c) of a positive definite binary form.

    The form is a x^2 + b xy + c y^2 read off a 2x2 Gram matrix; reduction
    reaches the unique representative with -a < b <= a <= c (and b >= 0
    when a == c).
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


def admits_order3(lattice: IntegerLattice) -> bool:
    """Rank-2 even positive definite lattice with an order-3 isometry.

    Two independent routes must agree: a brute-force order-3 element in
    O(T), and the normal-form criterion that the Gauss-reduced form is
    (2a, a, 2a)-shaped, i.e. has equal coefficients.
    """
    if lattice.rank != 2 or not lattice.is_even:
        raise LatticeError("order-3 criterion applies to even rank-2 lattices")
    group = orthogonal_group(lattice)
    brute = group.has_element_of_order(3)
    a, b, c = reduced_binary_form(lattice.gram)
    normal_form = a == b == c
    if brute != normal_form:
        raise LatticeError(
            f"internal inconsistency: brute-force {brute} vs normal form {normal_form} "
            f"on reduced form {(a, b, c)}"
        )
    return brute
