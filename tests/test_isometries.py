import itertools
import random
from math import gcd, isqrt, prod

import pytest

from latglue import isometries
from latglue.classify import case_symmetry_group, full_isometry_group
from latglue.exact import (
    IntVector,
    gram_of_rows,
    identity,
    mat_mul,
    transpose,
)
from latglue.isometries import (
    Isometry,
    IsometryGroup,
    Orbit,
    admits_order3,
    is_isometry_matrix,
    matrix_order,
    orbit_witness,
    orbits,
    orthogonal_group,
    reduced_binary_form,
    vectors_of_norm,
)
from latglue.lattices import IntegerLattice, LatticeError, closure
from latglue.report import lattice_info_report, orbit_report

from oracles import (
    coinvariant_lattice,
    in_span,
    invariant_lattice,
    isometries_plain,
    isometry_between,
    saturation,
)
from test_exact import inverse_by_fractions

S_GRAM = ((6, 3, 0), (3, 6, 0), (0, 0, 6))


@pytest.fixture(scope="module")
def invariant():
    return IntegerLattice(S_GRAM)


@pytest.fixture(scope="module")
def full_group(invariant):
    return orthogonal_group(invariant)


def random_definite_lattice(rng, max_rank=3):
    while True:
        n = rng.randint(1, max_rank)
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            gram[i][i] = 2 * rng.randint(1, 5)
            for j in range(i + 1, n):
                gram[i][j] = gram[j][i] = rng.randint(-2, 2)
        try:
            lattice = IntegerLattice(tuple(map(tuple, gram)))
        except LatticeError:
            continue
        if lattice.signature()[1] == 0:
            return lattice


def dual_bounds(lattice, norm):
    """floor(sqrt(norm * (G^-1)_ii)): the largest |x_i| of a vector of this norm."""
    inv = inverse_by_fractions(lattice.gram)
    return [isqrt(norm * inv[i][i].numerator // inv[i][i].denominator)
            for i in range(lattice.rank)]


def vectors_of_norm_boxed(lattice: IntegerLattice, norm: int) -> tuple[IntVector, ...]:
    """Independent oracle: full scan of the dual-bound coordinate box."""
    if norm < 0:
        return ()
    s_plus, s_minus = lattice.signature()
    if s_minus != 0:
        raise LatticeError("short-vector enumeration needs a positive definite lattice")
    if norm == 0:
        return ((0,) * lattice.rank,)
    hits = []
    for v in itertools.product(*(range(-b, b + 1) for b in dual_bounds(lattice, norm))):
        if lattice.norm(v) == norm:
            hits.append(v)
    return tuple(sorted(hits))


def test_vectors_of_norm_examples(invariant):
    six = vectors_of_norm(invariant, 6)
    assert len(six) == 6 + 2
    assert set(six) == {
        (0, 0, 1), (0, 0, -1), (1, 0, 0), (-1, 0, 0),
        (0, 1, 0), (0, -1, 0), (1, -1, 0), (-1, 1, 0),
    }
    eighteen = vectors_of_norm(invariant, 18)
    assert set(eighteen) == {
        (1, 1, 0), (-1, -1, 0), (2, -1, 0), (-2, 1, 0), (1, -2, 0), (-1, 2, 0),
    }
    assert len(vectors_of_norm(invariant, 24)) == 20
    assert vectors_of_norm(invariant, 0) == ((0, 0, 0),)
    assert vectors_of_norm(invariant, 7) == ()
    assert vectors_of_norm(invariant, -6) == ()


def test_vectors_of_norm_rejects_indefinite():
    message = "needs a positive definite lattice"
    hyperbolic = IntegerLattice(((0, 1), (1, 0)))
    with pytest.raises(LatticeError, match=message):
        vectors_of_norm(hyperbolic, 2)
    # negative definite: the first pivot is already negative
    with pytest.raises(LatticeError, match=message):
        vectors_of_norm(IntegerLattice(((-2, 1), (1, -2))), 2)
    # indefinite with a positive first pivot: the second one is -9/2
    with pytest.raises(LatticeError, match=message):
        vectors_of_norm(IntegerLattice(((2, 1), (1, -4))), 2)
    with pytest.raises(LatticeError, match=message):
        vectors_of_norm(IntegerLattice(((2, 0, 0), (0, 2, 0), (0, 0, -2))), 4)
    # norm 0 still checks definiteness; a negative norm has no vectors at all
    with pytest.raises(LatticeError, match=message):
        vectors_of_norm(hyperbolic, 0)
    assert vectors_of_norm(hyperbolic, -2) == ()
    assert vectors_of_norm(IntegerLattice(((2,),)), 0) == ((0,),)


def sheared(rng, lattice):
    """The same lattice on a basis changed by up to three shears b_i += k*b_j."""
    n = lattice.rank
    basis = [list(row) for row in identity(n)]
    for _ in range(rng.randint(0, 3) if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        basis[i] = [a + k * b for a, b in zip(basis[i], basis[j])]
    return IntegerLattice(gram_of_rows(basis, lattice.gram))


def box_size(lattice, norm):
    """Points the oracle scans; capped in the test so its full scan stays cheap."""
    return prod(2 * b + 1 for b in dual_bounds(lattice, norm))


# Bareiss rows with content > 1 ((4, 2), (6, 3, 0), (9, -3, 6), ...), pivots
# d_i > 1 after dividing by the content, and negative off-diagonals, so the
# floor/ceil ends of each level and the closed-form last level are exercised.
EDGE_GRAMS = (
    ((4, 2), (2, 4)),
    ((4, 2), (2, 5)),
    ((4, -2), (-2, 7)),
    ((6, -3), (-3, 6)),
    S_GRAM,
    ((9, -3, 6), (-3, 9, -3), (6, -3, 12)),
    ((6, 4, -2), (4, 6, 2), (-2, 2, 8)),
    ((4, 2, 2, -2), (2, 4, 1, -1), (2, 1, 5, 0), (-2, -1, 0, 6)),
    ((3,),),
)


def test_vectors_of_norm_against_box_oracle():
    assert all(gcd(*gram[0]) > 1 for gram in EDGE_GRAMS[:-1])
    cases = [(IntegerLattice(g), norm) for g in EDGE_GRAMS for norm in range(0, 61, 3)]
    rng = random.Random(17)
    while len(cases) < 600:
        lattice = sheared(rng, random_definite_lattice(rng, max_rank=4))
        norm = rng.randint(0, 60)
        if box_size(lattice, norm) <= 6000:
            cases.append((lattice, norm))
    assert {lattice.rank for lattice, _ in cases} == {1, 2, 3, 4}
    hits = 0
    for lattice, norm in cases:
        found = vectors_of_norm(lattice, norm)
        assert found == vectors_of_norm_boxed(lattice, norm), (lattice.gram, norm)
        hits += len(found) > 1
    assert hits > 150


def sum_of_four_squares_count(n):
    """Vectors x in Z^4 with x.x = n: Jacobi's 8 * (sum of the divisors d of n with 4 not | d)."""
    return 8 * sum(d for d in range(1, n + 1) if n % d == 0 and d % 4)


def test_node_guard(monkeypatch):
    big = 10**21
    # the long basis vector is enumerated first (outer level): 4 vectors at once
    lopsided = IntegerLattice(((big, 1), (1, 2)))
    assert vectors_of_norm(lopsided, big) == ((-1, 0), (-1, 1), (1, -1), (1, 0))
    assert orthogonal_group(lopsided).order() == 4
    # equal diagonals: sorting cannot help, and the bound refuses the search
    level = IntegerLattice(((big, big - 1), (big - 1, big)))
    with pytest.raises(LatticeError, match=r"may visit \d+ nodes \(limit 1000000\)"):
        vectors_of_norm(level, big)
    # the bound for 2*I_4 at norm 200 is (2*isqrt(200*8 // 16) + 1)**3 = 9261
    two_i4 = IntegerLattice(tuple(tuple(2 * int(i == j) for j in range(4)) for i in range(4)))
    monkeypatch.setattr(isometries, "NODE_GUARD", 9260)
    with pytest.raises(LatticeError, match="may visit 9261 nodes"):
        vectors_of_norm(two_i4, 200)
    monkeypatch.setattr(isometries, "NODE_GUARD", 9261)
    assert len(vectors_of_norm(two_i4, 200)) == sum_of_four_squares_count(100)
    # the norm is kept after that call, but a lowered guard still refuses it
    monkeypatch.setattr(isometries, "NODE_GUARD", 9260)
    with pytest.raises(LatticeError, match="may visit 9261 nodes"):
        vectors_of_norm(two_i4, 200)


A2 = ((2, -1), (-1, 2))
# the simple roots e1-e2, e2-e3, e3-e4, e3+e4 of D4 in Z^4
D4 = ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))


def test_isometries_match_plain_oracle():
    """_isometries pairs M with -M and forward-checks; the oracle does neither."""
    rng = random.Random(41)
    bases = [IntegerLattice(g) for g in (((2,),), A2, D4, S_GRAM)]
    bases += [sheared(rng, IntegerLattice(g)) for g in (A2, D4, S_GRAM)]
    while len(bases) < 36:
        bases.append(sheared(rng, random_definite_lattice(rng, max_rank=4)))
    assert {a.rank for a in bases} == {1, 2, 3, 4}
    pairs = [(a, a) for a in bases] + [(a, sheared(rng, a)) for a in bases]
    # not isometric: 2*I_2 has orthogonal norm-2 vectors and A2 has none, and
    # the random partners of the same rank differ in determinant
    pairs.append((IntegerLattice(A2), IntegerLattice(((2, 0), (0, 2)))))
    for a in bases[:20]:
        while True:
            b = random_definite_lattice(rng, max_rank=4)
            if b.rank == a.rank and b.determinant() != a.determinant():
                pairs.append((a, b))
                break
    found = empty = 0
    for a, b in pairs:
        matrices = list(isometries._isometries(a, b))
        assert len(set(matrices)) == len(matrices), (a.gram, b.gram)
        assert sorted(matrices) == isometries_plain(a, b), (a.gram, b.gram)
        found += len(matrices)
        empty += not matrices and a.determinant() != b.determinant()
    assert orthogonal_group(IntegerLattice(D4)).order() == 1152  # the Weyl group of F4
    assert found > 4000 and empty >= 15


def test_orthogonal_group_order(invariant, full_group):
    assert full_group.order() == 24
    assert orthogonal_group(IntegerLattice(((2, 1), (1, 2)))).order() == 12
    assert orthogonal_group(IntegerLattice(((2,),))).order() == 2


def test_group_is_closed(full_group):
    mats = {g.matrix for g in full_group.elements}
    assert identity(3) in mats
    for g in full_group.elements:
        assert any(mat_mul(g.matrix, h) == identity(3) for h in mats)
        for h in full_group.elements:
            assert mat_mul(g.matrix, h.matrix) in mats


def test_every_element_is_an_isometry(invariant, full_group):
    for g in full_group.elements:
        assert mat_mul(mat_mul(transpose(g.matrix), invariant.gram), g.matrix) == invariant.gram


def test_element_orders(full_group):
    assert not full_group.has_element_of_order(4)
    assert full_group.has_element_of_order(6)
    assert full_group.has_element_of_order(1)
    assert {g.order for g in full_group.elements} == {1, 2, 3, 6}


def test_group_elements_against_isometry_oracle(invariant):
    """orthogonal_group builds its elements unchecked; re-check each one here."""
    rng = random.Random(37)
    groups = [full_isometry_group(), case_symmetry_group()]
    while len(groups) < 34:
        groups.append(orthogonal_group(sheared(rng, random_definite_lattice(rng, max_rank=4))))
    assert {group.lattice.rank for group in groups} == {1, 2, 3, 4}
    checked = 0
    for group in groups:
        lattice, size = group.lattice, group.order()
        assert len({g.matrix for g in group.elements}) == size
        for g in group.elements:
            assert is_isometry_matrix(lattice, g.matrix), (lattice.gram, g.matrix)
            assert g.order == matrix_order(g.matrix) and size % g.order == 0
            checked += 1
        # b_0 -> 2*b_0 quadruples the norm of b_0: the public constructor refuses it
        stretch = tuple(tuple(2 if i == j == 0 else int(i == j) for j in range(lattice.rank))
                        for i in range(lattice.rank))
        with pytest.raises(LatticeError, match="does not preserve the Gram matrix"):
            Isometry(lattice, stretch)
    assert checked > 200
    with pytest.raises(LatticeError, match="does not preserve the Gram matrix"):
        Isometry(invariant, ((1, 1, 0), (0, 1, 0), (0, 0, 1)))


def test_orthogonal_group_runs_once_per_lattice(monkeypatch):
    orthogonal_group.cache_clear()
    lattice = IntegerLattice(((4, 2, 1), (2, 6, 0), (1, 0, 8)))
    searches = []
    search = isometries._isometries

    def counted(a, b):
        searches.append(a.gram)
        return search(a, b)

    monkeypatch.setattr(isometries, "_isometries", counted)
    group = orthogonal_group(lattice)
    assert orthogonal_group(IntegerLattice(lattice.gram)) is group
    info = lattice_info_report(lattice)
    table = orbit_report(8, lattice)
    assert searches == [lattice.gram]
    assert info["isometry_group_order"] == table["group_order"] == group.order()
    # another lattice takes the single slot; the first one is searched again
    assert orthogonal_group(IntegerLattice(((2,),))).order() == 2
    assert orthogonal_group(lattice) == group and len(searches) == 3


def test_guard_errors_are_raised_on_every_call():
    orthogonal_group.cache_clear()
    lattice = IntegerLattice(((2, 1), (1, 2)))
    group = orthogonal_group(lattice)
    rank5 = IntegerLattice(tuple(tuple(2 * int(i == j) for j in range(5)) for i in range(5)))
    indefinite = IntegerLattice(((2, 1), (1, -4)))
    for bad, message in ((rank5, "guarded to rank <= 4"),
                         (indefinite, "needs a positive definite lattice")):
        for _ in range(2):
            with pytest.raises(LatticeError, match=message):
                orthogonal_group(bad)
    assert orthogonal_group(lattice) is group


def test_short_vector_setup_once_per_lattice_and_refusals_repeat(monkeypatch):
    orthogonal_group.cache_clear()
    isometries._short_vectors.cache_clear()
    setups = []

    class Counted(isometries._ShortVectors):
        def __init__(self, lattice):
            setups.append(lattice.gram)
            super().__init__(lattice)

    monkeypatch.setattr(isometries, "_ShortVectors", Counted)
    lattice = IntegerLattice(((4, 2, 1), (2, 6, 0), (1, 0, 8)))
    lattice_info_report(lattice)
    orbit_report(8, lattice)
    assert vectors_of_norm(IntegerLattice(lattice.gram), 4) == ((-1, 0, 0), (1, 0, 0))
    assert setups == [lattice.gram]
    # refusals are raised afresh on every call, around a working call
    big = 10**21
    level = IntegerLattice(((big, big - 1), (big - 1, big)))
    indefinite = IntegerLattice(((2, 1), (1, -4)))
    for _ in range(2):
        with pytest.raises(LatticeError, match="needs a positive definite lattice"):
            vectors_of_norm(indefinite, 2)
        with pytest.raises(LatticeError, match=r"may visit \d+ nodes"):
            vectors_of_norm(level, big)
        assert vectors_of_norm(level, 2) == ((-1, 1), (1, -1))
    # a refused lattice is tried again but does not evict the kept set-up
    assert setups == [lattice.gram, indefinite.gram, level.gram, indefinite.gram]


def test_orbit_report_reuses_the_searched_norms(monkeypatch):
    orthogonal_group.cache_clear()
    isometries._short_vectors.cache_clear()
    enumerated = []
    enumerate_norm = isometries._ShortVectors._vectors

    def counted(self, norm):
        enumerated.append(norm)
        return enumerate_norm(self, norm)

    monkeypatch.setattr(isometries._ShortVectors, "_vectors", counted)
    lattice = IntegerLattice(((4, 2, 1), (2, 6, 0), (1, 0, 8)))
    table = orbit_report(6, lattice)
    assert enumerated == [4, 6, 8]
    assert sum(o["size"] for o in table["orbits"]) == len(vectors_of_norm(lattice, 6))
    lattice_info_report(lattice)
    orbit_report(10, lattice)
    orbit_report(10, lattice)
    assert enumerated == [4, 6, 8, 10]


def test_orbit_stabilizer(invariant, full_group):
    for norm in (6, 18, 24):
        for orbit in orbits(full_group, vectors_of_norm(invariant, norm)):
            rep = orbit.representative
            stabilizer = sum(1 for g in full_group.elements if g.apply(rep) == rep)
            assert orbit.size * stabilizer == full_group.order()


def test_full_group_orbits_merge_printed_rows(invariant, full_group):
    """Under the whole orthogonal group e ~ e-f and e+f ~ 2e-f.

    The printed case split corresponds to the order-8 axis stabilizer; the
    honest full-group orbit structure is coarser and is asserted here.
    """
    six = orbits(full_group, vectors_of_norm(invariant, 6))
    assert sorted(o.size for o in six) == [2, 6]
    eighteen = orbits(full_group, vectors_of_norm(invariant, 18))
    assert [o.size for o in eighteen] == [6]
    twenty_four = orbits(full_group, vectors_of_norm(invariant, 24))
    assert sorted(o.size for o in twenty_four) == [2, 6, 12]
    witness = orbit_witness(full_group, (1, 0, 0), (1, -1, 0))
    assert witness is not None and witness.apply((1, 0, 0)) == (1, -1, 0)


def orbits_by_closure(group, vectors):
    """Oracle: the earlier orbit partition, a BFS using every element as a generator."""
    remaining = set(tuple(v) for v in vectors)
    result = []
    while remaining:
        orbit = closure([min(remaining)], group.elements, lambda v, g: g.apply(v))
        members = tuple(sorted(orbit))
        result.append(Orbit(members[0], members))
        remaining -= orbit
    return tuple(sorted(result, key=lambda o: o.representative))


def test_orbits_match_closure_oracle(invariant):
    rng = random.Random(29)
    groups = [case_symmetry_group(), orthogonal_group(invariant)]
    while len(groups) < 40:
        groups.append(orthogonal_group(sheared(rng, random_definite_lattice(rng, max_rank=4))))
    compared = 0
    for group in groups:
        lattice = group.lattice
        for norm in range(2, 25, 2):
            vectors = vectors_of_norm(lattice, norm)
            partial = rng.sample(vectors, len(vectors) // 3)
            for given in (vectors, partial):
                assert orbits(group, given) == orbits_by_closure(group, given)
                compared += len(given)
    assert compared > 2000


def test_orbits_need_the_identity(invariant):
    minus = tuple(tuple(-int(i == j) for j in range(3)) for i in range(3))
    with pytest.raises(LatticeError, match="identity"):
        orbits(IsometryGroup(invariant, (Isometry(invariant, minus),)), [(1, 0, 0)])


def test_orbits_close_input(invariant, full_group):
    partial = [(0, 0, 1)]
    result = orbits(full_group, partial)
    assert len(result) == 1 and result[0].members == ((0, 0, -1), (0, 0, 1))


def test_invariant_coinvariant(invariant):
    assert invariant_lattice(invariant, ()).rank == 3
    minus = tuple(tuple(-int(i == j) for j in range(3)) for i in range(3))
    assert invariant_lattice(invariant, (minus,)).rank == 0
    assert coinvariant_lattice(invariant, (minus,)).rank == 3
    assert coinvariant_lattice(invariant, ()).rank == 0

    phi = ((0, -1, 0), (-1, 0, 0), (0, 0, -1))
    fixed = invariant_lattice(invariant, (phi,))
    assert fixed.basis == ((1, -1, 0),)
    moving = coinvariant_lattice(invariant, (phi,))
    assert in_span(moving, (0, 0, 1)) and in_span(moving, (1, 1, 0))
    assert saturation(moving).basis == moving.basis


def test_average_and_difference_membership(invariant, full_group):
    """Averages land in the fixed part, differences in the moving part."""
    rng = random.Random(23)
    elements = list(full_group.elements)
    for _ in range(60):
        g = rng.choice(elements)
        mats = []
        current = identity(3)
        for _ in range(g.order):
            mats.append(current)
            current = mat_mul(current, g.matrix)
        fixed = invariant_lattice(invariant, (g.matrix,))
        moving = coinvariant_lattice(invariant, (g.matrix,))
        v = tuple(rng.randint(-3, 3) for _ in range(3))
        total = tuple(sum(m[i][j] * v[j] for m in mats for j in range(3)) for i in range(3))
        assert in_span(fixed, total)
        diff = tuple(v[i] - sum(g.matrix[i][j] * v[j] for j in range(3)) for i in range(3))
        assert in_span(moving, diff)


def test_admits_order3_examples():
    assert admits_order3(IntegerLattice(((6, 3), (3, 6))))
    assert not admits_order3(IntegerLattice(((6, 0), (0, 18))))
    assert admits_order3(IntegerLattice(((2, 1), (1, 2))))


def test_reduced_binary_form():
    assert reduced_binary_form(((6, 3), (3, 6))) == (6, 6, 6)
    assert reduced_binary_form(((6, 0), (0, 18))) == (6, 0, 18)
    assert reduced_binary_form(((18, 0), (0, 6))) == (6, 0, 18)
    assert reduced_binary_form(((72, 72), (72, 78))) == (6, 0, 72)
    with pytest.raises(LatticeError):
        reduced_binary_form(((0, 1), (1, 0)))


def test_isometry_order_and_validation(invariant):
    iso = Isometry(invariant, ((0, -1, 0), (-1, 0, 0), (0, 0, -1)))
    assert iso.order == 2
    rot = Isometry(invariant, ((-1, -1, 0), (1, 0, 0), (0, 0, 1)))
    assert rot.order == 3
    with pytest.raises(LatticeError):
        Isometry(invariant, ((1, 1, 0), (0, 1, 0), (0, 0, 1)))
    assert matrix_order(identity(3)) == 1


def test_isometry_between():
    a = IntegerLattice(((18, 0), (0, 6)))
    b = IntegerLattice(((6, 0), (0, 18)))
    m = isometry_between(a, b)
    assert m is not None
    assert mat_mul(mat_mul(transpose(m), a.gram), m) == b.gram
    assert isometry_between(a, IntegerLattice(((6, 3), (3, 6)))) is None
    for lattice in (a, IntegerLattice(S_GRAM), IntegerLattice(((2,),))):
        self_map = isometry_between(lattice, lattice)
        assert self_map in {g.matrix for g in orthogonal_group(lattice).elements}


def test_rank_guard():
    big = IntegerLattice(tuple(tuple(2 * int(i == j) for j in range(5)) for i in range(5)))
    with pytest.raises(LatticeError):
        orthogonal_group(big)


def test_group_needs_positive_definite():
    with pytest.raises(LatticeError):
        orthogonal_group(IntegerLattice(((-2,),)))
    with pytest.raises(LatticeError):
        orthogonal_group(IntegerLattice(((0, 1), (1, 0))))

