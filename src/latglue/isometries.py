"""Orthogonal groups of small definite lattices, and orbits.

Short vectors come from an all-integer Fincke-Pohst enumeration (Fincke &
Pohst 1985; Cohen, *A Course in Computational Algebraic Number Theory*,
2.7).  One set-up per lattice sorts the basis by ascending diagonal and
reads the fraction-free (Bareiss) LDL^T of ``exact.ldl_rows``, so that
M*Q(x) = sum_i c_i * t_i^2 with integers M, c_i and t_i = sum_{j>=i}
u_ij * x_j.  The descent then uses ``isqrt`` and floor division only,
solves its last level in closed form, and is refused up front
(``NODE_GUARD``) when its node bound is too large.

The orthogonal group of a positive definite lattice is enumerated by
matching basis vectors to candidate images of the right norm, forward
checked against the pairings, with -M found together with M.  This is
only meant for the small ranks the toolkit works at and is guarded
accordingly.  The pairing filter proves the Gram identity, so the elements
are built without checking it again, and each element's ``order`` is
computed on first use.  ``orthogonal_group`` remembers the last lattice it
was asked about, so the reports on one lattice share one search; the
short-vector set-up of the last lattice, with each norm it enumerated, is
kept the same way.  Orbits are read off the group in one pass.

>>> a2 = IntegerLattice(((2, 1), (1, 2)))
>>> orthogonal_group(a2).order(), len(vectors_of_norm(a2, 2))
(12, 6)

Matrices act on column coordinate vectors; the columns of an isometry
matrix are the images of the basis vectors.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm, prod
from operator import attrgetter, mul

from .exact import (
    IntMatrix,
    IntVector,
    det,
    freeze,
    gram_of_rows,
    identity,
    ldl_rows,
    mat_mul,
    mat_vec,
    transpose,
    vec_content,
)
from .lattices import Frozen, IntegerLattice, LatticeError, closure

RANK_GUARD = 4
CANDIDATE_GUARD = 10_000
# Largest node bound a short-vector enumeration may start with: the bound
# counts level-1 nodes (each finishes level 0 in closed form), from the dual
# basis lengths; a larger one is refused with LatticeError instead of run.
NODE_GUARD = 1_000_000


def _decimal(n: int) -> str:
    """``str(n)``, or a power of ten below n > 0 when n is past Python's int-digit limit."""
    try:
        return str(n)
    except ValueError:
        return f"more than 10^{(n.bit_length() - 1) * 30102 // 100000}"  # log10(2) > 0.30102


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


class Isometry(Frozen):
    """Gram-preserving basis change; its multiplicative ``order`` is computed on first use."""

    _key = attrgetter("lattice", "matrix")

    def __init__(self, lattice: IntegerLattice, matrix: IntMatrix):
        matrix = freeze(matrix)
        if not is_isometry_matrix(lattice, matrix):
            raise LatticeError("matrix does not preserve the Gram matrix")
        self._set(lattice=lattice, matrix=matrix)

    @classmethod
    def _unchecked(cls, lattice: IntegerLattice, matrix: IntMatrix) -> "Isometry":
        """An isometry whose frozen ``matrix`` the caller has proved Gram-preserving."""
        iso = object.__new__(cls)
        iso._set(lattice=lattice, matrix=matrix)
        return iso

    @cached_property
    def order(self) -> int:
        return matrix_order(self.matrix)

    def apply(self, v: IntVector) -> IntVector:
        return mat_vec(self.matrix, v)


def _bareiss_rows(gram, task: str = "short-vector enumeration") -> list[list[int]]:
    """``ldl_rows`` of a Gram matrix whose leading minors must all be positive.

    Otherwise, i.e. unless the form is positive definite (Sylvester), raises
    LatticeError "<task> needs a positive definite lattice".
    """
    rows = ldl_rows(gram)
    if any(row[0] <= 0 for row in rows):
        raise LatticeError(f"{task} needs a positive definite lattice")
    return rows


class _ShortVectors:
    """Integer Fincke-Pohst enumeration for one positive definite lattice.

    The set-up runs once: the basis is sorted by ascending diagonal (so the
    outer levels take the long basis vectors), and the Bareiss rows, divided
    by their contents, give M*Q(x) = sum_i c_i * t_i^2 with integers M, c_i
    and t_i = d_i * x_i + sum_{j>i} u_ij * x_j (``pivots`` d_i, ``tails``
    u_ij, ``coeffs`` c_i, ``scale`` M).  After that ``_vectors`` works in
    ints only: ``isqrt`` and floor division per level, a closed-form last
    level.  ``vectors`` checks NODE_GUARD on every call and keeps each
    norm's result in ``by_norm``, so a lattice enumerates a norm once.
    """

    def __init__(self, lattice: IntegerLattice):
        gram = lattice.gram
        n = lattice.rank
        order = sorted(range(n), key=lambda i: gram[i][i])
        # slot[i]: the position of original basis vector i in the sorted basis
        self.slot = sorted(range(n), key=order.__getitem__)
        g = [[gram[i][j] for j in order] for i in order]
        raw = _bareiss_rows(g)
        minors = [1] + [row[0] for row in raw]
        self.pivots, self.tails, nums, dens = [], [], [], []
        for k, row in enumerate(raw):
            content = vec_content(row)
            self.pivots.append(row[0] // content)
            self.tails.append([x // content for x in row[1:]])
            num, den = content * content, minors[k] * minors[k + 1]
            common = gcd(num, den)
            nums.append(num // common)
            dens.append(den // common)
        self.scale = lcm(*dens)
        self.coeffs = [num * (self.scale // den) for num, den in zip(nums, dens)]
        self.det = minors[-1]
        # adj(G)_jj for the levels j >= 1, i.e. the determinants of the minors
        self.cofactors = [
            det([[x for c, x in enumerate(row) if c != j] for r, row in enumerate(g) if r != j])
            for j in range(1, n)
        ]
        self.by_norm: dict[int, tuple[IntVector, ...]] = {}

    def node_bound(self, norm: int) -> int:
        """Level-1 nodes of ``vectors(norm)``: prod_{j>=1} (2*isqrt(norm*adj_jj // det) + 1)."""
        return prod(2 * isqrt(norm * c // self.det) + 1 for c in self.cofactors)

    def vectors(self, norm: int) -> tuple[IntVector, ...]:
        """All vectors of the given norm >= 0, sorted, in the lattice's own basis."""
        if norm == 0:
            return ((0,) * len(self.slot),)
        bound = self.node_bound(norm)
        if bound > NODE_GUARD:
            raise LatticeError(
                f"short-vector enumeration of norm {norm} may visit {_decimal(bound)} nodes "
                f"(limit {NODE_GUARD})"
            )
        if norm not in self.by_norm:
            self.by_norm[norm] = self._vectors(norm)
        return self.by_norm[norm]

    def _vectors(self, norm: int) -> tuple[IntVector, ...]:
        """The Fincke-Pohst descent behind ``vectors``, for a norm > 0 within NODE_GUARD."""
        n = len(self.slot)
        pivots, tails, coeffs = self.pivots, self.tails, self.coeffs
        y = [0] * n
        found: list[IntVector] = []

        def descend(i: int, rem: int):
            d, c = pivots[i], coeffs[i]
            shift = sum(map(mul, tails[i], y[i + 1:]))
            if i == 0:
                # c*t^2 == rem with t = d*y_0 + shift, solved in closed form
                if rem % c:
                    return
                t = isqrt(rem // c)
                if t * t * c != rem:
                    return
                for root in {t, -t}:
                    if (root - shift) % d == 0:
                        y[0] = (root - shift) // d
                        found.append(tuple(y))
                return
            t = isqrt(rem // c)
            for yi in range(-((t + shift) // d), (t - shift) // d + 1):
                y[i] = yi
                u = d * yi + shift
                descend(i - 1, rem - c * u * u)
            y[i] = 0

        descend(n - 1, self.scale * norm)
        return tuple(sorted(tuple(v[k] for k in self.slot) for v in found))


@lru_cache(maxsize=1)
def _short_vectors(lattice: IntegerLattice) -> _ShortVectors:
    """The short-vector set-up of the last lattice, for ``_isometries`` and ``vectors_of_norm``.

    An indefinite lattice is refused afresh on every call (``lru_cache``
    does not keep exceptions); ``vectors`` checks NODE_GUARD per call and
    then reads the set-up's per-norm dict, which never holds an error.
    """
    return _ShortVectors(lattice)


def vectors_of_norm(lattice: IntegerLattice, norm: int) -> tuple[IntVector, ...]:
    """All lattice vectors of the exact given norm, lexicographically sorted.

    A negative norm has no vectors; otherwise the lattice must be positive
    definite (a leading minor <= 0 raises LatticeError), and an enumeration
    whose node bound exceeds NODE_GUARD raises LatticeError instead of
    running.
    """
    if norm < 0:
        return ()
    return _short_vectors(lattice).vectors(norm)


class IsometryGroup(Frozen):
    """Complete list of isometries of a definite lattice."""

    _key = attrgetter("lattice", "elements")

    def __init__(self, lattice: IntegerLattice, elements: tuple[Isometry, ...]):
        self._set(lattice=lattice, elements=elements)

    def order(self) -> int:
        return len(self.elements)

    def has_element_of_order(self, k: int) -> bool:
        return any(g.order == k for g in self.elements)

    def subgroup_where(self, predicate) -> "IsometryGroup":
        """The elements satisfying ``predicate``, which must cut out a subgroup.

        Nothing checks closure here, but ``orbits`` reads an orbit off the
        elements in one pass and is only right when they form a group.
        """
        kept = tuple(g for g in self.elements if predicate(g))
        return IsometryGroup(self.lattice, kept)


def _isometries(a: IntegerLattice, b: IntegerLattice):
    """Every matrix M with M^T * gram_a * M = gram_b, each exactly once.

    Column i of M is an a-vector of norm b.gram[i][i], carrying gram_a * v.
    When column i takes v, each later column j keeps the candidates w with
    (gram_a * v) . w == b.gram[i][j] (forward checking); a branch ends once
    a list is empty.  -M is an isometry with M and v != -v, so column 0
    only takes the v > -v (first nonzero entry positive), and each hit is
    yielded with its negative.
    """
    n = b.rank
    short = _short_vectors(a)
    by_norm = {}
    for norm in sorted({b.gram[i][i] for i in range(n)}):
        cands = short.vectors(norm)
        if len(cands) > CANDIDATE_GUARD:
            raise LatticeError("too many candidate images for basis vectors")
        by_norm[norm] = [(v, mat_vec(a.gram, v)) for v in cands]
    first = [c for c in by_norm[b.gram[0][0]] if c[0] > tuple(-x for x in c[0])]
    images = [None] * n

    def backtrack(i: int, lists):
        if i == n:
            yield transpose(images)
            yield transpose([tuple(-x for x in v) for v in images])
            return
        target = b.gram[i]
        for v, gv in lists[0]:
            images[i] = v
            later = []
            for j, cands in enumerate(lists[1:], i + 1):
                later.append([c for c in cands if sum(map(mul, gv, c[0])) == target[j]])
                if not later[-1]:
                    break
            else:
                yield from backtrack(i + 1, later)

    yield from backtrack(0, [first] + [by_norm[b.gram[i][i]] for i in range(1, n)])


@lru_cache(maxsize=1)
def orthogonal_group(lattice: IntegerLattice) -> IsometryGroup:
    """O(L) for a positive definite lattice of small rank, by backtracking.

    The last lattice's group is remembered, so ``lattice-info`` and orbit
    reports on one lattice run one search; a guard error is raised afresh on
    every call.  ``_isometries`` yields only Gram-preserving matrices, so the
    elements skip Isometry's check.
    """
    n = lattice.rank
    if n > RANK_GUARD:
        raise LatticeError(f"orthogonal group enumeration is guarded to rank <= {RANK_GUARD}")
    _bareiss_rows(lattice.gram, "group enumeration")
    matrices = sorted(_isometries(lattice, lattice))
    return IsometryGroup(lattice, tuple(Isometry._unchecked(lattice, m) for m in matrices))


class Orbit(Frozen):
    _key = attrgetter("representative", "members")

    def __init__(self, representative: IntVector, members: tuple[IntVector, ...]):
        self._set(representative=representative, members=members)

    @property
    def size(self) -> int:
        return len(self.members)


def orbits(group: IsometryGroup, vectors) -> tuple[Orbit, ...]:
    """Partition vectors into group orbits.

    ``group.elements`` is a group, so the orbit of v is {g(v) : g in G}:
    one pass over the elements per orbit, from the smallest vector left.
    Each orbit is closed under the group even if the input was not; the
    representative is the lexicographically smallest member and orbits are
    sorted by representative.
    """
    remaining = set(tuple(v) for v in vectors)
    result = []
    while remaining:
        start = min(remaining)
        orbit = {g.apply(start) for g in group.elements}
        if start not in orbit:
            raise LatticeError("orbits need a group: its elements miss the identity")
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


def group_generated_by(lattice: IntegerLattice, generators) -> tuple[IntMatrix, ...]:
    """Closure of a generator list under multiplication (finite groups only)."""
    gens = [freeze(g.matrix if isinstance(g, Isometry) else g) for g in generators]
    return tuple(sorted(closure([identity(lattice.rank)], gens, mat_mul, limit=100_000)))


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
