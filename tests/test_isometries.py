import random

import pytest

from latglue.exact import identity, mat_mul, transpose
from latglue.isometries import (
    Isometry,
    admits_order3,
    coinvariant_lattice,
    invariant_lattice,
    isometry_between,
    matrix_order,
    orbit_witness,
    orbits,
    orthogonal_group,
    reduced_binary_form,
    torsion_exponent_check,
    vectors_of_norm,
    vectors_of_norm_boxed,
)
from latglue.lattices import IntegerLattice, LatticeError

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
    with pytest.raises(LatticeError):
        vectors_of_norm(IntegerLattice(((0, 1), (1, 0))), 2)


def test_vectors_of_norm_against_box_oracle():
    rng = random.Random(17)
    for _ in range(150):
        lattice = random_definite_lattice(rng)
        norm = rng.randint(0, 24)
        assert vectors_of_norm(lattice, norm) == vectors_of_norm_boxed(lattice, norm)


def test_orthogonal_group_order(invariant, full_group):
    assert full_group.order() == 24
    assert orthogonal_group(IntegerLattice(((2, 1), (1, 2)))).order() == 12
    assert orthogonal_group(IntegerLattice(((2,),))).order() == 2


def test_group_is_closed(full_group):
    mats = {g.matrix for g in full_group.elements}
    assert identity(3) in mats
    for g in full_group.elements:
        assert g.inverse().matrix in mats
        for h in full_group.elements:
            assert g.compose(h).matrix in mats


def test_every_element_is_an_isometry(invariant, full_group):
    for g in full_group.elements:
        assert mat_mul(mat_mul(transpose(g.matrix), invariant.gram), g.matrix) == invariant.gram


def test_element_orders(full_group):
    assert not full_group.has_element_of_order(4)
    assert full_group.has_element_of_order(6)
    assert full_group.has_element_of_order(1)
    assert full_group.element_orders() == (1, 2, 3, 6)


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
    assert moving.contains((0, 0, 1)) and moving.contains((1, 1, 0))
    assert moving.saturation().basis == moving.basis


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
        assert fixed.contains(total) or fixed.rank == 0 and not any(total)
        diff = tuple(v[i] - sum(g.matrix[i][j] * v[j] for j in range(3)) for i in range(3))
        assert moving.contains(diff) or not any(diff)


def test_torsion_exponent(invariant):
    phi2 = ((0, -1, 0), (-1, 0, 0), (0, 0, -1))
    assert torsion_exponent_check(invariant, (phi2,))
    phi3 = ((-1, -1, 0), (1, 0, 0), (0, 0, 1))
    assert torsion_exponent_check(invariant, (phi3,))
    assert torsion_exponent_check(invariant, ())


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


def test_group_serialization():
    import json

    group = orthogonal_group(IntegerLattice(((2,),)))
    payload = json.loads(group.to_json())
    assert payload == {"gram": [[2]], "elements": [[[-1]], [[1]]]}
