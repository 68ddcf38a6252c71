import json
import random

import pytest
from fractions import Fraction

from latglue.exact import det, frac_inverse, freeze, mat_vec, transpose
from latglue.lattices import (
    IntegerLattice,
    LatticeError,
    Sublattice,
    closure,
    is_primitive_vector,
)

S_GRAM = ((6, 3, 0), (3, 6, 0), (0, 0, 6))
E, F, H = (1, 0, 0), (0, 1, 0), (0, 0, 1)


@pytest.fixture(scope="module")
def invariant():
    return IntegerLattice(S_GRAM)


def test_determinant_examples(invariant):
    assert invariant.determinant() == 162
    assert IntegerLattice(((2,),)).determinant() == 2
    assert IntegerLattice(((6, 3), (3, 6))).determinant() == 27


def test_determinant_is_computed_once(monkeypatch):
    from latglue import lattices

    calls = []
    monkeypatch.setattr(lattices, "det", lambda gram: calls.append(gram) or det(gram))
    lattice = IntegerLattice(S_GRAM)
    assert lattice.determinant() == lattice.determinant() == 162
    assert calls == [S_GRAM]
    # the kept value is no part of equality, hashing or the repr
    assert lattice == IntegerLattice(S_GRAM) and hash(lattice) == hash(IntegerLattice(S_GRAM))
    assert repr(lattice) == f"IntegerLattice(gram={S_GRAM!r})"


def test_signature_examples(invariant):
    assert invariant.signature() == (3, 0)
    assert IntegerLattice(((0, 1), (1, 0))).signature() == (1, 1)
    assert IntegerLattice(((-2,),)).signature() == (0, 1)


def test_signature_random_sum(invariant):
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 5)
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                gram[i][j] = gram[j][i] = rng.randint(-6, 6)
        frozen = tuple(map(tuple, gram))
        if det(frozen) == 0:
            continue
        s_plus, s_minus = IntegerLattice(frozen).signature()
        assert s_plus + s_minus == n


def test_degenerate_rejected():
    with pytest.raises(LatticeError):
        IntegerLattice(((0,),))
    with pytest.raises(LatticeError):
        IntegerLattice(((2, 1), (1, 2), (0, 0)))
    with pytest.raises(LatticeError):
        IntegerLattice(((1, 2), (3, 4)))  # not symmetric


def test_norms_and_pairings(invariant):
    assert invariant.norm((1, -1, 0)) == 6
    assert invariant.norm((1, 1, 0)) == 18
    assert invariant.norm((2, -1, 1)) == 24
    # every norm is in 6Z and every pairing in 3Z
    rng = random.Random(6)
    for _ in range(300):
        v = tuple(rng.randint(-4, 4) for _ in range(3))
        w = tuple(rng.randint(-4, 4) for _ in range(3))
        assert invariant.norm(v) % 6 == 0
        assert invariant.pairing(v, w) % 3 == 0


def test_pairing_rejects_wrong_lengths(invariant):
    # unchecked, the kernel's zip would read (1, 0, 0, 5) as e and return 6
    with pytest.raises(LatticeError, match="lengths 4, 4 do not match rank 3"):
        invariant.norm((1, 0, 0, 5))
    with pytest.raises(LatticeError, match="lengths 2, 2 do not match rank 3"):
        invariant.norm((1, 0))
    with pytest.raises(LatticeError, match="lengths 3, 2 do not match rank 3"):
        invariant.pairing(E, (1, 0))
    # unchecked, divisibility((1, 0)) returned 3 and contains((1, 0)) True
    with pytest.raises(LatticeError, match="length 2 does not match rank 3"):
        invariant.divisibility((1, 0))
    with pytest.raises(LatticeError, match="length 2 does not match rank 3"):
        invariant.divisibility((0, 0))
    with pytest.raises(LatticeError, match="length 2 does not match rank 3"):
        invariant.span((E,)).contains((1, 0))
    with pytest.raises(LatticeError, match="length 2 does not match rank 3"):
        invariant.span(()).contains((0, 0))
    with pytest.raises(LatticeError, match="length 4 does not match rank 3"):
        invariant.span((E,)).contains((1, 0, 0, 0))
    with pytest.raises(LatticeError, match="length 2 does not match rank 3"):
        invariant.full().coordinates_of((1, 0))
    with pytest.raises(LatticeError, match="length 5 does not match rank 3"):
        invariant.full().coordinates_of((1, 0, 0, 0, 0))


def test_module_doctest():
    import doctest

    import latglue.lattices

    result = doctest.testmod(latglue.lattices)
    assert result.failed == 0 and result.attempted >= 5


def pairing_by_fractions(lattice, v, w):
    """The double sum over Fraction coordinates: oracle for the exact kernel."""
    n = lattice.rank
    total = sum(Fraction(v[i]) * lattice.gram[i][j] * Fraction(w[j])
                for i in range(n) for j in range(n))
    return int(total) if total.denominator == 1 else total


def test_pairing_matches_fraction_oracle():
    rng = random.Random(12)
    lattices = []
    while len(lattices) < 20:
        n = rng.randint(1, 4)
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                gram[i][j] = gram[j][i] = rng.randint(-5, 5)
        if det(gram) != 0:
            lattices.append(IntegerLattice(freeze(gram)))
    assert sum(1 for lattice in lattices if min(lattice.signature()) > 0) >= 5
    result_types = set()
    for lattice in lattices:
        n = lattice.rank
        dual_t = transpose(frac_inverse(lattice.gram))
        vectors = [(0,) * n] + [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(4)]
        vectors += [mat_vec(dual_t, tuple(rng.randint(-3, 3) for _ in range(n)))
                    for _ in range(4)]
        for v in vectors:
            for w in vectors:
                want = pairing_by_fractions(lattice, v, w)
                got = lattice.pairing(v, w)
                assert got == want and type(got) is type(want)
                result_types.add(type(got))
    assert result_types == {int, Fraction}


def test_divisibility_examples(invariant):
    assert invariant.divisibility(H) == 6
    assert invariant.divisibility(E) == 3
    assert invariant.divisibility((1, -1, 0)) == 3
    with pytest.raises(LatticeError):
        invariant.divisibility((0, 0, 0))


def test_is_primitive_examples():
    assert not is_primitive_vector((0, 0, 3))
    assert is_primitive_vector((2, -1, 1))
    assert is_primitive_vector(E)
    with pytest.raises(LatticeError):
        is_primitive_vector((0, 0, 0))


def test_orthogonal_complement_examples(invariant):
    # sub = span(e): complement is spanned by {h, e-2f}
    compl = invariant.span((E,)).orthogonal_complement()
    assert compl.contains(H) and compl.contains((1, -2, 0))
    assert sorted(sorted(row) for row in compl.gram()) in (
        [[0, 6], [0, 18]],
        [[0, 18], [0, 6]],
    )
    assert det(compl.gram()) == 108

    compl = invariant.span(((1, 1, 0),)).orthogonal_complement()
    assert compl.contains((1, -1, 0)) and compl.contains(H)
    assert det(compl.gram()) == 36

    compl = invariant.span((H,)).orthogonal_complement()
    assert compl.contains(E) and compl.contains(F)
    assert compl.gram() == ((6, 3), (3, 6))


def test_complement_is_primitive(invariant):
    rng = random.Random(7)
    for _ in range(100):
        v = tuple(rng.randint(-3, 3) for _ in range(3))
        if not any(v):
            continue
        compl = invariant.span((v,)).orthogonal_complement()
        assert compl.saturation().basis == compl.basis
        assert compl.rank + invariant.span((v,)).saturation().rank == 3


def test_rank_additivity_rank_two(invariant):
    rng = random.Random(9)
    checked = 0
    while checked < 60:
        rows = tuple(tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(2))
        try:
            sub = invariant.span(rows)
        except LatticeError:
            continue
        if det(sub.gram()) == 0:
            continue  # complement additivity needs a non-degenerate sublattice
        compl = sub.orthogonal_complement()
        assert compl.rank + sub.saturation().rank == 3
        assert compl.saturation().basis == compl.basis
        checked += 1


def test_saturation_examples(invariant):
    assert invariant.span(((2, 0, 0),)).saturation().basis == ((1, 0, 0),)
    assert invariant.span(((1, 1, 0),)).saturation().basis == ((1, 1, 0),)
    assert invariant.span(((0, 0, 3),)).saturation().basis == ((0, 0, 1),)


def test_sublattice_index_examples(invariant):
    assert invariant.full().index() == 1
    compl_e = invariant.span((E,)).orthogonal_complement()
    assert Sublattice(invariant, (E,) + compl_e.basis).index() == 2
    compl_h = invariant.span((H,)).orthogonal_complement()
    assert Sublattice(invariant, (H,) + compl_h.basis).index() == 1


def test_index_squared_is_det_ratio(invariant):
    rng = random.Random(8)
    checked = 0
    while checked < 120:
        rows = tuple(tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3))
        if det(rows) == 0:
            continue
        sub = Sublattice(invariant, rows)
        index = sub.index()
        assert index * index * invariant.determinant() == abs(det(sub.gram()))
        checked += 1


def test_index_requires_full_rank(invariant):
    with pytest.raises(LatticeError):
        invariant.span((E,)).index()


def test_json_round_trip(invariant):
    assert IntegerLattice.from_json(invariant.to_json()) == invariant
    payload = json.loads(invariant.to_json())
    assert payload == {"gram": [list(row) for row in S_GRAM]}
    with pytest.raises(LatticeError):
        IntegerLattice.from_json('{"gram": [[1.5]]}')
    with pytest.raises(LatticeError):
        IntegerLattice.from_json('{"other": 3}')
    with pytest.raises(LatticeError):
        IntegerLattice.from_json("not json")
    with pytest.raises(LatticeError):
        IntegerLattice.from_json("[1, 2]")
    assert IntegerLattice.from_json("[[2]]") == IntegerLattice(((2,),))


def test_sublattice_membership(invariant):
    sub = invariant.span(((1, 1, 0), (0, 0, 1)))
    assert sub.contains((2, 2, 3))
    assert not sub.contains((1, 0, 0))
    coords = sub.coordinates_of((3, 3, -1))
    assert coords == (Fraction(3), Fraction(-1))
    with pytest.raises(LatticeError):
        sub.coordinates_of((1, 0, 0))


def test_closure_orbit_and_limit():
    def step(x, g):
        return (x + g) % 12

    assert closure([0], [8], step) == {0, 4, 8}
    assert closure([1, 2], [6], step, limit=4) == {1, 2, 7, 8}
    with pytest.raises(LatticeError):
        closure([0], [1], step, limit=5)
