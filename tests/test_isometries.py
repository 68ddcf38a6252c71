import gc
import itertools
import random
import weakref
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from math import gcd, isqrt, prod

import pytest

from latglue import isometries
from latglue.classify import case_symmetry_group, full_isometry_group
from latglue.exact import (
    IntVector,
    freeze,
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
    vectors_of_norm,
)
from latglue.lattices import IntegerLattice, LatticeError, closure
from latglue.report import lattice_info_report, orbit_report

from oracles import (
    coinvariant_lattice,
    in_span,
    invariant_lattice,
    is_isometry_by_pairings,
    isometries_plain,
    isometry_between,
    node_bound_by_cofactors,
    reduced_binary_form,
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
    # a norm that is not an integer is refused before the sign and definiteness checks;
    # an integral Fraction is one, and reads as its int
    for norm in (2.0, 2.5, -2.0, "2", None, True, Fraction(5, 2)):
        for lattice in (IntegerLattice(((2,),)), hyperbolic):
            with pytest.raises(LatticeError, match="norm must be an integer"):
                vectors_of_norm(lattice, norm)
    assert vectors_of_norm(IntegerLattice(((2,),)), Fraction(2)) == ((-1,), (1,))
    with pytest.raises(LatticeError, match=message):
        vectors_of_norm(hyperbolic, Fraction(2))
    with pytest.raises(LatticeError, match="norm must be an integer"):
        orbit_report(2.5)


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


def test_node_bound_reads_the_kept_minor_as_the_cofactor_oracle_does():
    """The set-up takes adj(G)_{n-1,n-1} of the sorted Gram as the lattice's
    kept leading minor D_{n-1} and the other cofactors from ``gram``; the
    node bound equals the one that eliminated and took every cofactor
    itself, on 200 seeded lattices of rank 1-4 and the 10^21 Grams."""
    big = 10**21
    lattices = [IntegerLattice(g) for g in EDGE_GRAMS + (
        ((big, 1), (1, 2)), ((big, big - 1), (big - 1, big)), ((2, 1, 0), (1, 2, 0), (0, 0, big)),
        ((10, 1, 0), (1, 2, 0), (0, 0, 4)), ((8, 1, 0, 0), (1, 6, 1, 0), (0, 1, 4, 1), (0, 0, 1, 2)),
    )]
    rng = random.Random(41)
    while len(lattices) < 214:
        lattices.append(sheared(rng, random_definite_lattice(rng, max_rank=4)))
    seen = Counter()
    for lattice in lattices:
        diagonal = [lattice.gram[i][i] for i in range(lattice.rank)]
        seen[lattice.rank] += 1
        seen["tie"] += len(set(diagonal)) < len(diagonal)
        seen["descending"] += any(a > b for a, b in zip(diagonal, diagonal[1:]))
        setup = isometries._ShortVectors(lattice)
        for norm in (0, 1, 2, 7, 30, 1000, big):
            assert setup.node_bound(norm) == node_bound_by_cofactors(lattice, norm), (
                lattice.gram, norm)
    assert min(seen[rank] for rank in (1, 2, 3, 4)) >= 30, seen
    assert seen["tie"] >= 40 and seen["descending"] >= 80, seen


def test_one_descent_for_a_norm_set_matches_a_descent_per_norm():
    """Norm sets with 0 and repeats, on seeded lattices of rank 1-4: one
    descent pruned on the largest norm finds what a descent per norm and
    the box oracle find."""
    cases = [(IntegerLattice(g), (0, 3, 3, 12, 27, 27)) for g in EDGE_GRAMS]
    rng = random.Random(23)
    while len(cases) < 200:
        lattice = sheared(rng, random_definite_lattice(rng, max_rank=4))
        # diagonal norms, as O(L) asks for, have vectors; random ones may not
        diagonal = [lattice.gram[i][i] for i in range(lattice.rank)]
        norms = [0, rng.randint(1, 40), *rng.sample(diagonal, rng.randint(1, lattice.rank))]
        norms.append(rng.choice(norms))
        rng.shuffle(norms)
        if box_size(lattice, max(norms)) <= 6000:
            cases.append((lattice, tuple(norms)))
    assert {lattice.rank for lattice, _ in cases} == {1, 2, 3, 4}
    hits = shared = 0
    for lattice, norms in cases:
        by_norm = isometries._ShortVectors(lattice).vectors(norms)
        for norm in set(norms):
            alone = isometries._ShortVectors(lattice).vectors((norm,))[norm]
            assert by_norm[norm] == alone == vectors_of_norm_boxed(lattice, norm), (
                lattice.gram, norms, norm)
            hits += len(alone) > 1
        shared += sum(len(by_norm[norm]) > 1 for norm in set(norms)) > 1
    assert hits > 250 and shared > 80


def test_a_norm_set_is_refused_as_its_first_norm_past_the_node_guard(monkeypatch):
    """NODE_GUARD is checked per norm in ascending order, before the descent."""
    two_i4 = IntegerLattice(tuple(tuple(2 * int(i == j) for j in range(4)) for i in range(4)))
    monkeypatch.setattr(isometries, "NODE_GUARD", 9260)
    with pytest.raises(LatticeError) as alone:
        isometries._ShortVectors(two_i4).vectors((200,))
    assert str(alone.value) == "short-vector enumeration of norm 200 may visit 9261 nodes (limit 9260)"
    short = isometries._ShortVectors(two_i4)
    for norms in ((8, 200, 2, 8), (0, 200, 300), (300, 200)):
        with pytest.raises(LatticeError) as joint:
            short.vectors(norms)
        assert str(joint.value) == str(alone.value), norms
    assert list(short.by_norm) == [0]  # nothing was enumerated
    # O(L) asks for its diagonal norms 2 and 10^21 at once: refused as 10^21 alone
    monkeypatch.undo()
    big = 10**21
    lattice = IntegerLattice(((2, 1, 0), (1, 2, 0), (0, 0, big)))
    with pytest.raises(LatticeError) as alone:
        vectors_of_norm(lattice, big)
    with pytest.raises(LatticeError) as joint:
        orthogonal_group(IntegerLattice(lattice.gram))
    assert str(joint.value) == str(alone.value)
    assert str(alone.value).startswith(f"short-vector enumeration of norm {big} may visit ")
    level = IntegerLattice(((big, big - 1), (big - 1, big)))
    with pytest.raises(LatticeError) as refused:
        orthogonal_group(level)
    assert str(refused.value) == (
        f"short-vector enumeration of norm {big} may visit 44721359549 nodes (limit 1000000)")


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


def test_candidate_guard_comes_after_the_node_guard(monkeypatch):
    """O(L) checks NODE_GUARD for every diagonal norm before its one descent
    and CANDIDATE_GUARD after it, so a long basis vector past the node guard
    is named even when the 12 roots of A3 exceed a lowered candidate guard
    (an odd long norm has only the two vectors +-e4: A3 is even)."""
    a3 = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))

    def with_long(norm):
        return IntegerLattice(tuple(row + (0,) for row in a3) + ((0, 0, 0, norm),))

    monkeypatch.setattr(isometries, "CANDIDATE_GUARD", 11)
    with pytest.raises(LatticeError, match="^too many candidate images for basis vectors$"):
        orthogonal_group(with_long(101))
    with pytest.raises(LatticeError, match=r"^short-vector enumeration of norm 1000001 may "
                                           r"visit \d+ nodes \(limit 1000000\)$"):
        orthogonal_group(with_long(10**6 + 1))
    monkeypatch.setattr(isometries, "CANDIDATE_GUARD", 12)
    assert orthogonal_group(with_long(101)).order() == 96  # O(A3) x {+-1}


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


def test_isometry_check_matches_pairing_oracle():
    """Elements of O(L), one-entry changes of them, Fraction entries and wrong shapes."""
    rng = random.Random(211)
    verdicts = Counter()
    for _ in range(40):
        lattice = sheared(rng, random_definite_lattice(rng, max_rank=4))
        elements = [g.matrix for g in orthogonal_group(lattice).elements]
        for m in rng.sample(elements, min(5, len(elements))):
            rows = [list(row) for row in m]
            rows[rng.randrange(lattice.rank)][rng.randrange(lattice.rank)] += rng.choice((-1, 1, 2))
            halved = [list(map(Fraction, row)) for row in m]
            halved[0][0] += Fraction(1, 2)
            stretch = tuple(tuple(2 * x if c == 0 else x for c, x in enumerate(row)) for row in m)
            candidates = (
                m, freeze(rows), stretch, freeze(map(Fraction, row) for row in m), freeze(halved),
                m + m[:1], tuple(row + (0,) for row in m), m[:-1],
                m[:-1] + (m[-1][:-1],), m[:-1] + (m[-1] + (0,),),
            )
            for matrix in candidates:
                expected = is_isometry_by_pairings(lattice, matrix)
                assert is_isometry_matrix(lattice, matrix) == expected, (lattice.gram, matrix)
                verdicts[expected] += 1
    two = IntegerLattice(((2, 0), (0, 2)))
    for matrix in (((1, 0), (0, 1), (9, 9)), ((1, 0), (0,)), ((0, 1, 0), (1, 0, 0))):
        assert not is_isometry_by_pairings(two, matrix)
        assert not is_isometry_matrix(two, matrix)
    assert verdicts[True] >= 200 and verdicts[False] >= 1000


def test_orthogonal_group_runs_once_per_lattice(monkeypatch):
    lattice = IntegerLattice(((4, 2, 1), (2, 6, 0), (1, 0, 8)))
    searches = []
    search = isometries._isometries

    def counted(a, b):
        searches.append(a.gram)
        return search(a, b)

    monkeypatch.setattr(isometries, "_isometries", counted)
    group = orthogonal_group(lattice)
    info = lattice_info_report(lattice)
    table = orbit_report(8, lattice)
    assert searches == [lattice.gram]
    assert info["isometry_group_order"] == table["group_order"] == group.order()
    # an equal object runs a search of its own; another lattice's search leaves this one's kept
    equal = IntegerLattice(lattice.gram)
    assert orthogonal_group(equal) == group and orthogonal_group(equal) is not group
    assert orthogonal_group(IntegerLattice(((2,),))).order() == 2
    assert orthogonal_group(lattice) is group and len(searches) == 3


def test_guard_errors_are_raised_on_every_call():
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


A2 = ((2, 1), (1, 2))


def test_each_lattice_keeps_its_own_search(monkeypatch):
    """A search on another lattice leaves the first one's group and proven
    isometries; the lattice still equals, hashes and prints as a fresh one
    of its Gram, and refusals are not kept."""
    searches = []
    search = isometries._isometries

    def counted(a, b):
        searches.append(a.gram)
        return search(a, b)

    monkeypatch.setattr(isometries, "_isometries", counted)
    a, b = IntegerLattice(((4, 2, 1), (2, 6, 0), (1, 0, 8))), IntegerLattice(A2)
    group = orthogonal_group(a)
    orthogonal_group(b)
    assert all(isometries.proven_isometry(a, g.matrix) is g.matrix for g in group.elements)
    assert orthogonal_group(a) is group and searches == [a.gram, b.gram]
    fresh = IntegerLattice(a.gram)
    assert a == fresh and hash(a) == hash(fresh) and repr(a) == repr(fresh)
    assert isometries.proven_isometry(fresh, group.elements[0].matrix) is None
    big = 10**21
    level = IntegerLattice(((big, big - 1), (big - 1, big)))
    indefinite = IntegerLattice(((2, 1), (1, -4)))
    for _ in range(2):
        with pytest.raises(LatticeError, match=r"may visit \d+ nodes"):
            orthogonal_group(level)
        with pytest.raises(LatticeError, match="needs a positive definite lattice"):
            orthogonal_group(indefinite)
        with pytest.raises(LatticeError, match="needs a positive definite lattice"):
            vectors_of_norm(indefinite, 2)
    assert searches == [a.gram, b.gram, level.gram, level.gram]


def test_kept_matrices_outlive_the_group_and_a_dropped_lattice_is_freed(monkeypatch):
    """The lattice keeps the sorted matrices of O(L) and holds the group only
    weakly: a group no caller holds is freed, proven_isometry reads the kept
    matrices meanwhile, and the next call rebuilds an equal group without a
    search.  Nothing the search built refers back to the lattice, so dropping
    the lattice frees it at once, without the cyclic collector."""
    searches = []
    search = isometries._isometries

    def counted(a, b):
        searches.append(a.gram)
        return search(a, b)

    monkeypatch.setattr(isometries, "_isometries", counted)
    lattice = IntegerLattice(((4, 2, 1), (2, 6, 0), (1, 0, 8)))
    group = orthogonal_group(lattice)
    matrices = [g.matrix for g in group.elements]
    dropped = weakref.ref(group)
    del group
    assert dropped() is None
    assert all(isometries.proven_isometry(lattice, m) is m for m in matrices)
    group = orthogonal_group(lattice)
    assert group == IsometryGroup(lattice, tuple(Isometry(lattice, m) for m in matrices))
    assert all(g.matrix is m for g, m in zip(group.elements, matrices))
    assert orthogonal_group(lattice) is group and searches == [lattice.gram]
    enabled = gc.isenabled()
    gc.disable()
    try:
        kept = weakref.ref(lattice)
        del lattice, group
        assert kept() is None
    finally:
        if enabled:
            gc.enable()


def test_proven_isometry_returns_the_kept_matrix_or_none():
    lattice = IntegerLattice(A2)
    m = orthogonal_group(lattice).elements[3].matrix
    for equal in (m, tuple(tuple(float(x) for x in row) for row in m),
                  tuple(tuple(Fraction(x) for x in row) for row in m)):
        assert isometries.proven_isometry(lattice, equal) is m
    lists = [list(row) for row in m]
    string = ((str(m[0][0]), m[0][1]), m[1])
    for miss in (lists, string, m + ((0, 0),), m[:1], (), "ab", 5, None):
        assert isometries.proven_isometry(lattice, miss) is None
    assert isometries.proven_isometry(IntegerLattice(A2), m) is None  # another object


def test_short_vector_setup_once_per_lattice_and_refusals_repeat(monkeypatch):
    setups = []

    class Counted(isometries._ShortVectors):
        def __init__(self, lattice):
            setups.append(lattice.gram)
            super().__init__(lattice)

    monkeypatch.setattr(isometries, "_ShortVectors", Counted)
    lattice = IntegerLattice(((4, 2, 1), (2, 6, 0), (1, 0, 8)))
    lattice_info_report(lattice)
    orbit_report(8, lattice)
    assert vectors_of_norm(lattice, 4) == ((-1, 0, 0), (1, 0, 0))
    assert setups == [lattice.gram]
    # an equal object builds a set-up of its own
    assert vectors_of_norm(IntegerLattice(lattice.gram), 4) == ((-1, 0, 0), (1, 0, 0))
    assert setups == [lattice.gram, lattice.gram]
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
    # a refused lattice is tried again; the others keep their set-ups
    assert vectors_of_norm(lattice, 4) == ((-1, 0, 0), (1, 0, 0))
    assert setups == [lattice.gram, lattice.gram, indefinite.gram, level.gram, indefinite.gram]


def test_orbit_report_reuses_the_searched_norms(monkeypatch):
    """One descent per search: O(L) enumerates its three diagonal norms at
    once, and a norm is never enumerated twice on one lattice."""
    descents = []
    descend = isometries._ShortVectors._vectors

    def counted(self, norms):
        descents.append(tuple(norms))
        return descend(self, norms)

    monkeypatch.setattr(isometries._ShortVectors, "_vectors", counted)
    lattice = IntegerLattice(((4, 2, 1), (2, 6, 0), (1, 0, 8)))
    table = orbit_report(6, lattice)
    assert descents == [(4, 6, 8)]
    assert sum(o["size"] for o in table["orbits"]) == len(vectors_of_norm(lattice, 6))
    lattice_info_report(lattice)
    orbit_report(10, lattice)
    orbit_report(10, lattice)
    assert descents == [(4, 6, 8), (10,)]


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
    """Oracle: the earlier orbit partition, a BFS using every element as a generator.

    An orbit has at most |G| members, so a list of non-isometries, whose
    closure need not be finite, raises LatticeError instead of growing.
    """
    remaining = set(tuple(v) for v in vectors)
    result = []
    while remaining:
        orbit = closure([min(remaining)], group.elements, lambda v, g: g.apply(v),
                        limit=len(group.elements))
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


def test_orbits_refuse_a_vector_of_the_wrong_length():
    group = orthogonal_group(IntegerLattice(A2))
    with pytest.raises(LatticeError, match="^vector length 1 does not match rank 2$"):
        orbits(group, [(1,)])
    with pytest.raises(LatticeError, match="^vector length 3 does not match rank 2$"):
        orbits(group, [(1, 0), (1, 0, 5)])


def test_orbit_witness_refuses_a_vector_of_the_wrong_length():
    group = orthogonal_group(IntegerLattice(A2))
    with pytest.raises(LatticeError, match="^vector length 3 does not match rank 2$"):
        orbit_witness(group, (1, 0, 5), (1, 0))
    with pytest.raises(LatticeError, match="^vector length 1 does not match rank 2$"):
        orbit_witness(group, (1, 0), (1,))
    assert orbit_witness(group, (1, 0), (0, 1)).apply((1, 0)) == (0, 1)


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
    # a 3 x 2 matrix whose top 2 x 2 block is the identity is no isometry of a rank-2 lattice
    with pytest.raises(LatticeError, match="does not preserve the Gram matrix"):
        Isometry(IntegerLattice(((2, 0), (0, 2))), ((1, 0), (0, 1), (9, 9)))


def test_isometry_refuses_a_non_integral_matrix():
    """A rational rotation preserves 2 I_2 but does not map the lattice to itself.

    Entries that are not numbers at all get the same LatticeError, not a TypeError.
    """
    two = IntegerLattice(((2, 0), (0, 2)))
    rotation = ((Fraction(3, 5), Fraction(-4, 5)), (Fraction(4, 5), Fraction(3, 5)))
    assert is_isometry_matrix(two, rotation)
    non_integral = (rotation, ((0.5, 0), (0, 1)), ((1, Fraction(1, 2)), (0, 1)),
                    (("a", "b"), ("c", "d")), ((None, 0), (0, 1)), None)
    non_integral += tuple(((0, -1), (x, 0))
                          for x in ("1", float("inf"), float("nan"), 2.5, Fraction(5, 2)))
    # integral floats, Decimals and bools are not integers either (``exact.as_integer``)
    non_integral += (((0.0, -1.0), (1.0, 0.0)), ((0, -1), (True, 0)),
                     ((Decimal(0), Decimal("-1.0")), (Decimal(1), 0)))
    for matrix in non_integral:
        with pytest.raises(LatticeError, match="matrix entries must be integers"):
            Isometry(two, matrix)
    # integral Fractions are accepted and stored as ints, so ``apply`` returns ints
    quarter_turn = ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0)))
    iso = Isometry(two, quarter_turn)
    assert iso.order == 4 and all(type(x) is int for row in iso.matrix for x in row)
    image = iso.apply((1, 2))
    assert image == (-2, 1) and all(type(x) is int for x in image)
    # an entry 2 as 4/2 in an isometry of <2> + <-4>; as 2.0 it is refused
    pell = Isometry(IntegerLattice(((2, 0), (0, -4))), ((3, 4), (Fraction(4, 2), 3)))
    assert pell.matrix == ((3, 4), (2, 3)) and type(pell.matrix[1][0]) is int
    with pytest.raises(LatticeError, match="matrix entries must be integers"):
        Isometry(IntegerLattice(((2, 0), (0, -4))), ((3, 4), (2.0, 3)))


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


@pytest.mark.parametrize("call, message", [
    (lambda: admits_order3(IntegerLattice(((2,),))),
     "order-3 criterion applies to even rank-2 lattices"),
    (lambda: admits_order3(IntegerLattice(((1, 0), (0, 2)))),
     "order-3 criterion applies to even rank-2 lattices"),
    (lambda: matrix_order(((1, 1), (0, 1))), "matrix order exceeds the search limit"),
    (lambda: orbit_witness(orthogonal_group(IntegerLattice(((2, 1), (1, 2)))), (1, 0), (1, 1)),
     None),
], ids=["admits_order3-rank-1", "admits_order3-odd", "matrix_order-infinite",
        "orbit_witness-other-norm"])
def test_isometries_guards_raise_their_messages(call, message):
    """Each call raises LatticeError with exactly ``message``, or returns None when it is None
    (no element carries a norm-2 vector of A2 to a norm-6 one)."""
    if message is None:
        assert call() is None
        return
    with pytest.raises(LatticeError) as caught:
        call()
    assert str(caught.value) == message
