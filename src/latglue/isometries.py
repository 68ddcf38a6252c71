"""Orthogonal groups of small definite lattices, and orbits.

Short vectors come from an all-integer Fincke-Pohst enumeration (Fincke &
Pohst 1985; Cohen, *A Course in Computational Algebraic Number Theory*,
2.7).  One set-up per lattice sorts the basis by ascending diagonal and
reads the fraction-free (Bareiss) LDL^T of ``exact.ldl_rows`` on it, so that
M*Q(x) = sum_i c_i * t_i^2 with integers M, c_i and t_i = sum_{j>=i}
u_ij * x_j.  The descent then uses ``isqrt`` and floor division only,
solves its last level in closed form, and is refused up front
(``NODE_GUARD``) when its node bound is too large.  It walks one half-space
only (the nonzero coordinate of the outermost level positive) and adds the negatives at
the end, so each pair +-v is found once.

The orthogonal group of a positive definite lattice (checked on the
leading minors the lattice kept at construction) is enumerated by
matching basis vectors to candidate images of the right norm, forward
checked against the pairings, with -M found together with M.  The column
with the fewest candidates is searched first, and G*v is computed only for
the vectors a column takes, once per search.  This is
only meant for the small ranks the toolkit works at and is guarded
accordingly.  The pairing filter proves the Gram identity, so the elements
are built without checking it again, and each element's ``order`` is
computed on first use.  One module slot keeps the group of the last
search: the reports on one lattice share it, and its elements serve as
proven isometries of that lattice object (``proven_isometry``).  An
``lru_cache`` keeps the short-vector set-up of the last lattice, so a
lattice enumerates a norm once.  Orbits are read off the group in one pass.

>>> a2 = IntegerLattice(((2, 1), (1, 2)))
>>> orthogonal_group(a2).order(), len(vectors_of_norm(a2, 2))
(12, 6)

Matrices act on column coordinate vectors; the columns of an isometry
matrix are the images of the basis vectors.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm, prod
from numbers import Real
from operator import attrgetter, mul, neg

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
    """M^T G M == G for the Gram G, by ``gram_of_rows`` on the columns of M; False unless n x n."""
    gram = lattice.gram
    if len(matrix) != len(gram) or any(len(row) != len(gram) for row in matrix):
        return False
    return gram_of_rows(transpose(matrix), gram) == gram


def matrix_order(matrix) -> int:
    eye = identity(len(matrix))
    power = freeze(matrix)
    for k in range(1, 10_001):
        if power == eye:
            return k
        power = mat_mul(power, matrix)
    raise LatticeError("matrix order exceeds the search limit")


class Isometry(Frozen):
    """Gram-preserving integer basis change with int entries; ``order`` is computed on first use."""

    _key = attrgetter("lattice", "matrix")

    def __init__(self, lattice: IntegerLattice, matrix: IntMatrix):
        matrix = freeze(matrix)
        if any(not isinstance(x, Real) or x % 1 for row in matrix for x in row):
            raise LatticeError("matrix entries must be integers")
        matrix = freeze(map(int, row) for row in matrix)  # integral floats and Fractions too
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


def _require_definite(lattice: IntegerLattice, task: str) -> None:
    """Raise LatticeError "<task> needs a positive definite lattice" unless the
    leading minors the lattice kept are all positive (Sylvester)."""
    if min(lattice._minors) <= 0:
        raise LatticeError(f"{task} needs a positive definite lattice")


class _ShortVectors:
    """Integer Fincke-Pohst enumeration for one positive definite lattice.

    The set-up runs once: the basis is sorted by ascending diagonal (so the
    outer levels take the long basis vectors), and the Bareiss rows, divided
    by their contents, give M*Q(x) = sum_i c_i * t_i^2 with integers M, c_i
    and t_i = d_i * x_i + sum_{j>i} u_ij * x_j (``pivots`` d_i, ``tails``
    u_ij, ``weights`` c_i, ``scale`` M).  After that ``_vectors`` works in
    ints only: one descent for a set of norms, ``isqrt`` and floor division
    per level pruned on the largest norm, and a closed-form last level per
    norm.  While every coordinate above level i is 0 it takes y_i >= 0 only
    (and +t only at the closed-form level), so it finds one of each pair +-v
    and appends the negatives before sorting.  ``vectors`` checks NODE_GUARD
    per norm on every call and keeps each norm's result in ``by_norm`` (norm
    0 from the start), so a lattice enumerates a norm once.
    """

    def __init__(self, lattice: IntegerLattice):
        _require_definite(lattice, "short-vector enumeration")
        gram = lattice.gram
        n = lattice.rank
        order = sorted(range(n), key=lambda i: gram[i][i])
        # slot[i]: the position of original basis vector i in the sorted basis
        self.slot = sorted(range(n), key=order.__getitem__)
        g = [[gram[i][j] for j in order] for i in order]
        raw = ldl_rows(g)
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
        self.weights = [num * (self.scale // den) for num, den in zip(nums, dens)]
        self.det = minors[-1]
        # adj(G)_jj for the levels j >= 1, i.e. the determinants of the minors
        self.cofactors = [
            det([[x for c, x in enumerate(row) if c != j] for r, row in enumerate(g) if r != j])
            for j in range(1, n)
        ]
        self.by_norm: dict[int, tuple[IntVector, ...]] = {0: ((0,) * n,)}

    def node_bound(self, norm: int) -> int:
        """Level-1 nodes for ``norm``: prod_{j>=1} (2*isqrt(norm*adj_jj // det) + 1)."""
        return prod(2 * isqrt(norm * c // self.det) + 1 for c in self.cofactors)

    def vectors(self, norms) -> dict[int, tuple[IntVector, ...]]:
        """The sorted vectors of each given norm >= 0, in the lattice's own basis, by norm.

        NODE_GUARD is checked per norm, ascending, before the norms not kept
        yet are enumerated in one descent.
        """
        norms = sorted(set(norms))
        for norm in norms:
            bound = self.node_bound(norm)
            if bound > NODE_GUARD:
                raise LatticeError(
                    f"short-vector enumeration of norm {norm} may visit {_decimal(bound)} nodes "
                    f"(limit {NODE_GUARD})"
                )
        new = [norm for norm in norms if norm not in self.by_norm]
        if new:
            self._vectors(new)
        return {norm: self.by_norm[norm] for norm in norms}

    def _vectors(self, norms: list[int]) -> None:
        """The Fincke-Pohst descent behind ``vectors``: ascending norms > 0 into ``by_norm``."""
        n = len(self.slot)
        pivots, tails, weights = self.pivots, self.tails, self.weights
        budget = self.scale * norms[-1]
        # norm N has rem - slack of its own budget left where the largest has rem
        wanted = [(budget - self.scale * norm, []) for norm in norms]
        y = [0] * n

        def descend(i: int, rem: int, top: bool):
            # top: every y_j with j > i is 0, so shift is 0 and y_i >= 0 suffices
            d, c = pivots[i], weights[i]
            shift = sum(map(mul, tails[i], y[i + 1:]))
            if i == 0:
                # c*t^2 == rem - slack with t = d*y_0 + shift, solved in closed form
                for slack, found in wanted:
                    left = rem - slack
                    if left < 0 or left % c:
                        continue
                    t = isqrt(left // c)
                    if t * t * c != left:
                        continue
                    for root in (t,) if top else {t, -t}:
                        if (root - shift) % d == 0:
                            y[0] = (root - shift) // d
                            found.append(tuple(y))
                return
            t = isqrt(rem // c)
            for yi in range(0 if top else -((t + shift) // d), (t - shift) // d + 1):
                y[i] = yi
                u = d * yi + shift
                descend(i - 1, rem - c * u * u, top and not yi)
            y[i] = 0

        descend(n - 1, budget, True)
        slot = self.slot
        for norm, (_, found) in zip(norms, wanted):
            found += [tuple(map(neg, v)) for v in found]
            self.by_norm[norm] = tuple(sorted([tuple([v[k] for k in slot]) for v in found]))


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
    return _short_vectors(lattice).vectors((norm,))[norm]


class IsometryGroup(Frozen):
    """Complete list of isometries of a definite lattice."""

    _key = attrgetter("lattice", "elements")

    def __init__(self, lattice: IntegerLattice, elements: tuple[Isometry, ...]):
        self._set(lattice=lattice, elements=elements)

    def order(self) -> int:
        return len(self.elements)

    def has_element_of_order(self, k: int) -> bool:
        return any(g.order == k for g in self.elements)


def _isometries(a: IntegerLattice, b: IntegerLattice):
    """Every matrix M with M^T * gram_a * M = gram_b, each exactly once.

    Column i of M is an a-vector of norm b.gram[i][i], from one descent for
    all diagonal norms (NODE_GUARD before it, CANDIDATE_GUARD after it).
    The columns are searched in order of candidate count, fewest first, ties
    by index.  When column i takes v, each column j searched later keeps the
    candidates w with (gram_a * v) . w == b.gram[i][j] (forward checking);
    a branch ends once a list is empty.  gram_a * v is computed once per
    vector a column takes, in a dict local to the call, and never for the
    last column searched.  -M is an isometry with M and v != -v, so the
    first column searched only takes the v > -v (first nonzero entry
    positive), and each hit is yielded with its negative.
    """
    n = b.rank
    by_norm = _short_vectors(a).vectors(b.gram[i][i] for i in range(n))
    cands = [by_norm[b.gram[i][i]] for i in range(n)]
    if any(len(vectors) > CANDIDATE_GUARD for vectors in cands):
        raise LatticeError("too many candidate images for basis vectors")
    cols = sorted(range(n), key=lambda i: (len(cands[i]), i))
    first = [v for v in cands[cols[0]] if v > tuple(map(neg, v))]
    images = [None] * n
    pairing = {}

    def backtrack(k: int, lists):
        if k == n:
            yield transpose(images)
            yield transpose([tuple(map(neg, v)) for v in images])
            return
        i, rest = cols[k], cols[k + 1:]
        target = b.gram[i]
        for v in lists[0]:
            images[i] = v
            later = []
            if rest:
                gv = pairing.get(v)
                if gv is None:
                    gv = pairing[v] = mat_vec(a.gram, v)
            for j, ws in zip(rest, lists[1:]):
                later.append([w for w in ws if sum(map(mul, gv, w)) == target[j]])
                if not later[-1]:
                    break
            else:
                yield from backtrack(k + 1, later)

    yield from backtrack(0, [first] + [cands[j] for j in cols[1:]])


_searched: IsometryGroup | None = None  # the group of the last search


def orthogonal_group(lattice: IntegerLattice) -> IsometryGroup:
    """O(L) for a positive definite lattice of small rank, by backtracking.

    The module slot ``_searched`` keeps the last search's group, read once
    per call, so reports on one lattice (or an equal one) run one search; a
    guard error is raised afresh on every call and leaves the slot as it was.
    Definiteness is read off the leading minors.  ``_isometries`` yields only
    Gram-preserving matrices, so the elements, sorted by matrix, skip Isometry's check.
    """
    global _searched
    group = _searched
    if group is None or group.lattice != lattice:
        if lattice.rank > RANK_GUARD:
            raise LatticeError(f"orthogonal group enumeration is guarded to rank <= {RANK_GUARD}")
        _require_definite(lattice, "group enumeration")
        group = _searched = IsometryGroup(lattice, tuple(
            Isometry._unchecked(lattice, m) for m in sorted(_isometries(lattice, lattice))))
    return group


def proven_isometry(lattice: IntegerLattice, matrix) -> IntMatrix | None:
    """The element of the kept search on this very lattice object equal to ``matrix``, or None.

    The search's pairing filter proved M^T G M == G for each of them, and a
    lattice is immutable.  The slot is read once per call.  Lists and string
    entries are a miss, and None proves nothing: ``is_isometry_matrix`` checks.
    """
    group = _searched
    if group is None or group.lattice is not lattice:
        return None
    try:
        kept = group.elements[bisect_left(group.elements, matrix, key=attrgetter("matrix"))].matrix
    except (TypeError, IndexError):  # not comparable with int tuples, or past the last one
        return None
    return kept if kept == matrix else None


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
    sorted by representative.  A vector whose length is not the rank
    raises LatticeError.
    """
    remaining = set()
    for v in vectors:
        group.lattice._check_length(v)
        remaining.add(tuple(v))
    result = []
    while remaining:
        start = min(remaining)
        orbit = {tuple([sum(map(mul, row, start)) for row in g.matrix]) for g in group.elements}
        if start not in orbit:
            raise LatticeError("orbits need a group: its elements miss the identity")
        members = tuple(sorted(orbit))
        result.append(Orbit(members[0], members))
        remaining -= orbit
    return tuple(sorted(result, key=lambda o: o.representative))


def orbit_witness(group: IsometryGroup, source: IntVector, target: IntVector):
    """A group element g with g(source) = target, or None; LatticeError on a wrong length."""
    group.lattice._check_length(source)
    group.lattice._check_length(target)
    for g in group.elements:
        if g.apply(source) == tuple(target):
            return g
    return None


def group_generated_by(lattice: IntegerLattice, generators) -> tuple[IntMatrix, ...]:
    """Closure of a generator list under multiplication (finite groups only)."""
    gens = [freeze(g.matrix if isinstance(g, Isometry) else g) for g in generators]
    return tuple(sorted(closure([identity(lattice.rank)], gens, mat_mul, limit=100_000)))


def admits_order3(lattice: IntegerLattice) -> bool:
    """Rank-2 even positive definite lattice with an order-3 isometry, read off O(T)."""
    if lattice.rank != 2 or not lattice.is_even:
        raise LatticeError("order-3 criterion applies to even rank-2 lattices")
    return orthogonal_group(lattice).has_element_of_order(3)
