import json
import random
from collections import Counter
from math import prod

import pytest
from fractions import Fraction

from latglue.exact import det, frac_inverse, freeze, identity, ldl_rows, mat_mul, mat_vec, transpose
from latglue.isometries import orbit_witness, orbits, orthogonal_group
from latglue.lattices import (
    IntegerLattice,
    LatticeError,
    Sublattice,
    closure,
)
from oracles import in_span, saturation
from test_exact import gauss_jordan

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
    """One ``ldl_rows`` per lattice, at construction: the determinant, the
    signature and O(L)'s definiteness check read the minors it kept."""
    from latglue import isometries, lattices

    calls = []
    for module in (lattices, isometries):  # isometries imports no ldl_rows; were it to, it is spied
        monkeypatch.setattr(module, "ldl_rows", lambda gram: calls.append(gram) or ldl_rows(gram),
                            raising=False)
    lattice = IntegerLattice(S_GRAM)
    assert calls == [S_GRAM]
    assert lattice.determinant() == lattice.determinant() == 162
    assert lattice.signature() == (3, 0)
    assert calls == [S_GRAM]
    for gram in (((0, 1), (1, 0)), ((-2, 1), (1, -2))):
        other = IntegerLattice(gram)
        with pytest.raises(LatticeError, match="^group enumeration needs a positive definite"):
            isometries.orthogonal_group(other)
        assert calls[1:] == [gram]
        del calls[1:]
    # the kept minors are no part of equality, hashing or the repr
    assert lattice == IntegerLattice(S_GRAM) and hash(lattice) == hash(IntegerLattice(S_GRAM))
    assert repr(lattice) == f"IntegerLattice(gram={S_GRAM!r})"


def test_one_elimination_per_lattice_the_short_vector_setup_included(monkeypatch):
    """The lattice eliminates its basis sorted by ascending diagonal once; the
    short-vector set-up, O(L), ``vectors_of_norm`` and the reports read that
    elimination, and the set-up's ``det`` calls are the max(n - 2, 0)
    node-bound cofactors other than the kept D_{n-1}."""
    from latglue import isometries, lattices, report

    calls, dets = [], []
    for module in (lattices, isometries):
        monkeypatch.setattr(module, "ldl_rows", lambda gram: calls.append(gram) or ldl_rows(gram),
                            raising=False)
    monkeypatch.setattr(isometries, "det", lambda a: dets.append(a) or det(a))
    lattice = IntegerLattice(((10, 1, 0), (1, 2, 0), (0, 0, 4)))
    assert calls == [((2, 0, 1), (0, 4, 0), (1, 0, 10))]
    assert lattice.determinant() == det(lattice.gram) == 76
    assert isometries.orthogonal_group(lattice).order() == 8
    assert isometries.vectors_of_norm(lattice, 2) == ((0, -1, 0), (0, 1, 0))
    report.lattice_info_report(lattice)
    report.orbit_report(4, lattice)
    report.orbit_report(12, lattice)
    assert calls == [((2, 0, 1), (0, 4, 0), (1, 0, 10))]
    # the set-up's one det: adj_11 of the sorted Gram, i.e. the Gram without basis vector 2
    assert dets == [[[10, 1], [1, 2]]]
    for gram in (((3,),), ((4, 2), (2, 5)), S_GRAM,
                 ((6, 0, 0, 1), (0, 4, 1, 0), (0, 1, 2, 0), (1, 0, 0, 8))):
        del calls[:], dets[:]
        isometries.vectors_of_norm(IntegerLattice(gram), 2)
        assert len(calls) == 1 and len(dets) == max(len(gram) - 2, 0), gram


def direct_sum(*grams):
    n = sum(len(g) for g in grams)
    out = [[0] * n for _ in range(n)]
    at = 0
    for g in grams:
        for i, row in enumerate(g):
            out[at + i][at:at + len(row)] = row
        at += len(g)
    return freeze(out)


U = ((0, 1), (1, 0))
A2_NEG = ((-2, 1), (1, -2))


def test_signature_examples(invariant):
    assert invariant.signature() == (3, 0)
    assert IntegerLattice(((0, 1), (1, 0))).signature() == (1, 1)
    assert IntegerLattice(((-2,),)).signature() == (0, 1)
    assert IntegerLattice(direct_sum(U, U, ((-2,),))).signature() == (2, 3)
    assert IntegerLattice(direct_sum(A2_NEG, U)).signature() == (1, 3)
    assert IntegerLattice(direct_sum(U, A2_NEG)).signature() == (1, 3)


def pivots_by_fractions(gram):
    """Oracle: the pivots of a rational LDL^T, whose product is the determinant.

    A zero pivot is dodged by a symmetric swap with a nonzero diagonal
    entry, or if the whole remaining diagonal vanishes by mixing in a row.
    """
    n = len(gram)
    m = [[Fraction(x) for x in row] for row in gram]
    pivots = []
    for k in range(n):
        if m[k][k] == 0:
            j = next((j for j in range(k + 1, n) if m[j][j] != 0), None)
            if j is not None:
                m[k], m[j] = m[j], m[k]
                for row in m:
                    row[k], row[j] = row[j], row[k]
            else:
                j = next(j for j in range(k + 1, n) if m[j][k] != 0)
                for c in range(n):
                    m[k][c] += m[j][c]
                for r in range(n):
                    m[r][k] += m[r][j]
        pivot = m[k][k]
        pivots.append(pivot)
        for r in range(k + 1, n):
            factor = m[r][k] / pivot
            if factor:
                for c in range(k + 1, n):
                    m[r][c] -= factor * m[k][c]
                m[r][k] = Fraction(0)
    return pivots


def signature_by_fractions(gram):
    """Oracle: the earlier signature, the pivot signs of a rational LDL^T."""
    pivots = pivots_by_fractions(gram)
    pos = sum(1 for pivot in pivots if pivot > 0)
    return pos, len(pivots) - pos


def test_sorted_elimination_keeps_the_determinant_and_the_signature():
    """The lattice eliminates its basis sorted by ascending diagonal, so a zero
    diagonal entry comes first and a descending diagonal is reordered; the
    determinant and the signature still equal the Fraction LDL^T's."""
    a2 = ((2, 1), (1, 2))
    for gram in (
        direct_sum(U, a2), direct_sum(a2, U), direct_sum(((4,),), A2_NEG),
        ((0, 0, 1), (0, 2, 0), (1, 0, 0)), ((2, 1), (1, 0)), ((10, 1, 0), (1, 2, 0), (0, 0, 4)),
        ((6, 1, 0), (1, 0, 2), (0, 2, -4)), ((3, 1, 0, 0), (1, 0, 1, 0), (0, 1, -2, 1), (0, 0, 1, 0)),
    ):
        lattice = IntegerLattice(gram)
        pivots = pivots_by_fractions(gram)
        assert lattice.determinant() == prod(pivots) == det(gram), gram
        assert lattice.signature() == signature_by_fractions(gram), gram


def bareiss_rows_unpivoted(gram):
    """Oracle: the earlier short-vector set-up, a Bareiss LDL^T that never pivots."""
    n = len(gram)
    a = [list(row) for row in gram]
    rows = []
    prev = 1
    for k in range(n):
        pivot = a[k][k]
        rows.append(a[k][k:])
        for i in range(k + 1, n):
            for j in range(i, n):
                a[i][j] = (pivot * a[i][j] - a[k][i] * a[k][j]) // prev
        prev = pivot
    return rows


def form_of_rows(rows):
    """The Gram matrix whose form is sum_k t_k^2 / (D_k * D_{k+1}), read off LDL^T rows."""
    n = len(rows)
    m = [[Fraction(0)] * n for _ in range(n)]
    prev = 1
    for k, row in enumerate(rows):
        u = [0] * k + list(row)
        for i in range(n):
            for j in range(n):
                m[i][j] += Fraction(u[i] * u[j], prev * row[0])
        prev = row[0]
    return m


def signature_by_descartes(charpoly, gram):
    """Oracle: s+ is the number of sign changes in the coefficients of the
    characteristic polynomial (Descartes' rule, exact here: a real symmetric
    matrix has only real eigenvalues, and a non-degenerate one none at 0)."""
    coeffs = [c for c in charpoly(gram) if c]
    pos = sum((a < 0) != (b < 0) for a, b in zip(coeffs, coeffs[1:]))
    return pos, len(gram) - pos


def signature_test_gram(rng, n, kind):
    """A symmetric n x n integer matrix; "sparse" has a mostly zero diagonal."""
    if kind == "definite":
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        sign = rng.choice((1, -1))
        return freeze((sign * x for x in row) for row in mat_mul(b, transpose(b)))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = rng.randint(-6, 6)
        if kind == "sparse" and rng.random() < 0.85:
            gram[i][i] = 0
    return freeze(gram)


def test_signature_random_sum():
    """Integer signature against the Fraction LDL^T (and sympy), and the rows of ``ldl_rows``.

    On every Gram the last pivot of ``ldl_rows`` is the determinant, and so
    is ``determinant()``, which reads it (also on fixed Grams whose leading
    entry is 0, dodged by a swap or by adding a row); on a positive definite
    Gram its rows are those of the unpivoted Bareiss set-up, and where a
    pivot had to move they still describe an integral form.
    """
    try:
        from sympy import ZZ
        from sympy.polys.matrices import DomainMatrix
    except ImportError:
        charpoly = None
    else:
        def charpoly(gram):
            return DomainMatrix.from_list([list(row) for row in gram], ZZ).charpoly()
    swap, add = ((0, 0, 1), (0, 2, 0), (1, 0, 0)), U
    for gram in (swap, add, direct_sum(U, ((2, 1), (1, 2)))):
        assert IntegerLattice(gram).determinant() == det(gram), gram
        assert IntegerLattice(gram).signature() == signature_by_fractions(gram), gram
    rng = random.Random(5)
    seen = Counter()
    while seen["gram"] < 1000:
        n = rng.randint(1, 8)
        gram = signature_test_gram(rng, n, rng.choice(("sparse", "sparse", "random", "definite")))
        if det(gram) == 0:
            continue
        seen["gram"] += 1
        seen["diagonal"] += n
        seen["zero diagonal"] += sum(1 for i in range(n) if gram[i][i] == 0)
        expected = signature_by_fractions(gram)
        lattice = IntegerLattice(gram)
        assert lattice.signature() == expected and lattice.determinant() == det(gram), gram
        if charpoly is not None:
            assert signature_by_descartes(charpoly, gram) == expected, gram
        rows = ldl_rows(gram)
        assert rows[-1][0] == det(gram), gram
        if expected[1] == 0:
            assert rows == bareiss_rows_unpivoted(gram), gram
            seen["positive definite"] += 1
        seen["indefinite"] += 0 < expected[1] < n
        # the leading minors D_k of the Gram itself: a zero one forces a pivot
        # move, and the rows then belong to an integral Gram of the same det
        minors = [det([row[:k] for row in gram[:k]]) for k in range(1, n + 1)]
        if 0 in minors:
            moved = form_of_rows(rows)
            assert all(x.denominator == 1 for row in moved for x in row), gram
            assert det([[int(x) for x in row] for row in moved]) == det(gram), gram
            seen["moved"] += 1
    assert seen["zero diagonal"] >= 0.4 * seen["diagonal"], seen
    assert seen["positive definite"] >= 100 and seen["indefinite"] >= 400, seen
    assert seen["moved"] >= 300, seen


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
    # unchecked, divisibility((1, 0)) returned 3
    with pytest.raises(LatticeError, match="length 2 does not match rank 3"):
        invariant.divisibility((1, 0))
    with pytest.raises(LatticeError, match="length 2 does not match rank 3"):
        invariant.divisibility((0, 0))
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


def test_orthogonal_complement_examples(invariant):
    # sub = span(e): complement is spanned by {h, e-2f}
    compl = invariant.span((E,)).orthogonal_complement()
    assert in_span(compl, H) and in_span(compl, (1, -2, 0))
    assert sorted(sorted(row) for row in compl.gram()) in (
        [[0, 6], [0, 18]],
        [[0, 18], [0, 6]],
    )
    assert det(compl.gram()) == 108

    compl = invariant.span(((1, 1, 0),)).orthogonal_complement()
    assert in_span(compl, (1, -1, 0)) and in_span(compl, H)
    assert det(compl.gram()) == 36

    compl = invariant.span((H,)).orthogonal_complement()
    assert in_span(compl, E) and in_span(compl, F)
    assert compl.gram() == ((6, 3), (3, 6))


def test_complement_is_primitive(invariant):
    rng = random.Random(7)
    for _ in range(100):
        v = tuple(rng.randint(-3, 3) for _ in range(3))
        if not any(v):
            continue
        compl = invariant.span((v,)).orthogonal_complement()
        assert saturation(compl).basis == compl.basis
        assert compl.rank + saturation(invariant.span((v,))).rank == 3


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
        assert compl.rank + saturation(sub).rank == 3
        assert saturation(compl).basis == compl.basis
        checked += 1


def test_saturation_examples(invariant):
    assert saturation(invariant.span(((2, 0, 0),))).basis == ((1, 0, 0),)
    assert saturation(invariant.span(((1, 1, 0),))).basis == ((1, 1, 0),)
    assert saturation(invariant.span(((0, 0, 3),))).basis == ((0, 0, 1),)


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


def test_sublattice_refuses_non_integer_generators(invariant):
    """A half-integral or float generator once gave index 0 and a Fraction Gram.

    An integral Fraction is an integer (``exact.as_integer``) and is stored as its int."""
    for entry in (Fraction(1, 2), 0.5, 1.0, True, "1", None):
        with pytest.raises(LatticeError, match="generator entries must be integers"):
            invariant.span(((entry, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert invariant.span(((2, 0, 0), (0, 1, 0), (0, 0, 1))).index() == 2
    sub = invariant.span(((Fraction(1), 0, 0), (0, 1, 0), (0, 0, 1)))
    assert sub.index() == 1 and all(type(x) is int for row in sub.basis for x in row)


def test_json_round_trip(invariant):
    text = json.dumps({"gram": [list(row) for row in S_GRAM]})
    assert IntegerLattice.from_json(text) == invariant
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
    assert in_span(sub, (2, 2, 3))
    assert not in_span(sub, (1, 0, 0))
    coords = sub.coordinates_of((3, 3, -1))
    assert coords == (Fraction(3), Fraction(-1))
    with pytest.raises(LatticeError):
        sub.coordinates_of((1, 0, 0))


def test_coordinates_of_refuses_floats(invariant):
    """Entries must be ints or Fractions, as the generators' must be ints."""
    sub = invariant.span(((1, 1, 0), (0, 0, 1)))
    for bad in ((0.5, 0.5, 0.0), (1, 1, 0.0), ("1", 1, 0)):
        with pytest.raises(LatticeError, match="vector entries must be integers or Fractions"):
            sub.coordinates_of(bad)
    assert sub.coordinates_of((Fraction(1, 2), Fraction(1, 2), 0)) == (Fraction(1, 2), 0)
    assert sub.coordinates_of((3, 3, -1)) == (3, -1)
    assert invariant.span(((1, 1, 0),)).coordinates_of((2, 2, 0)) == (2,)


def solve_by_fractions(basis, v):
    """Oracle: the earlier ``coordinates_of``, Gauss-Jordan on [B^T | v]; None off the span."""
    r = len(basis)
    rows = [[Fraction(b[i]) for b in basis] + [Fraction(x)] for i, x in enumerate(v)]
    pivots = gauss_jordan(rows, r)
    if any(row[-1] for row in rows[len(pivots):]):
        return None
    sol = [Fraction(0)] * r
    for idx, c in enumerate(pivots):
        sol[c] = rows[idx][-1]
    return tuple(sol)


def test_coordinates_of_against_gauss_jordan():
    """Seeded sublattices of every rank 0..n, integer, rational and off-span targets."""
    rng = random.Random(10)
    seen = Counter()
    for n in range(1, 6):
        ambient = IntegerLattice(identity(n))
        for r in range(n + 1):
            for _ in range(6):
                basis = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(r))
                try:
                    sub = Sublattice(ambient, basis)
                except LatticeError:
                    continue
                ints = [rng.randint(-5, 5) for _ in range(r)]
                fracs = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(r)]
                targets = {
                    "integer": tuple(sum((c * b[i] for c, b in zip(ints, basis)), 0)
                                     for i in range(n)),
                    "rational": tuple(sum((c * b[i] for c, b in zip(fracs, basis)), Fraction(0))
                                      for i in range(n)),
                    "random": tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                                    for _ in range(n)),
                }
                for kind, v in targets.items():
                    expected = solve_by_fractions(basis, v)
                    if expected is None:
                        seen["off span"] += 1
                        with pytest.raises(LatticeError, match="does not lie in the span"):
                            sub.coordinates_of(v)
                        continue
                    got = sub.coordinates_of(v)
                    assert got == expected and all(type(x) is Fraction for x in got), (basis, v)
                    seen[kind, r == 0] += 1
    assert seen["integer", True] == seen["rational", True] == 5 * 6
    assert min(seen["integer", False], seen["rational", False]) >= 80, seen
    assert seen["random", False] >= 25, seen
    assert seen["off span"] >= 80, seen


def test_closure_orbit_and_limit():
    def step(x, g):
        return (x + g) % 12

    assert closure([0], [8], step) == {0, 4, 8}
    assert closure([1, 2], [6], step, limit=4) == {1, 2, 7, 8}
    with pytest.raises(LatticeError):
        closure([0], [1], step, limit=5)


A2_LATTICE = IntegerLattice(((2, 1), (1, 2)))
EXACT_ENTRIES = "vector entries must be integers or Fractions"


@pytest.mark.parametrize("call, message", [
    (lambda: A2_LATTICE.pairing((0.5, 0), (1, 0)), EXACT_ENTRIES),
    (lambda: A2_LATTICE.pairing((1, 0), (1, "b")), EXACT_ENTRIES),
    (lambda: A2_LATTICE.norm(("a", 0)), EXACT_ENTRIES),
    (lambda: A2_LATTICE.divisibility((Fraction(1, 2), 0)), "vector entries must be integers"),
    (lambda: A2_LATTICE.divisibility((1.0, 0)), "vector entries must be integers"),
    (lambda: A2_LATTICE.full().coordinates_of((0.5, 0)), EXACT_ENTRIES),
    (lambda: orbits(orthogonal_group(A2_LATTICE), [("a", "b")]), EXACT_ENTRIES),
    (lambda: orbits(orthogonal_group(A2_LATTICE), [(0.5, 0)]), EXACT_ENTRIES),
    (lambda: orbit_witness(orthogonal_group(A2_LATTICE), (1, 0), (1.0, 0)), EXACT_ENTRIES),
    (lambda: orbit_witness(orthogonal_group(A2_LATTICE), (1.0, 0), (1, 0)), EXACT_ENTRIES),
], ids=["pairing-float", "pairing-str", "norm-str", "divisibility-fraction", "divisibility-float",
        "coordinates_of-float", "orbits-str", "orbits-float", "orbit_witness-target-float",
        "orbit_witness-source-float"])
def test_vector_inputs_need_int_or_fraction_entries(call, message):
    """Each reader of a lattice vector runs the one check of its length and entries:
    a float or a string is a LatticeError, and divisibility takes ints only."""
    with pytest.raises(LatticeError) as caught:
        call()
    assert str(caught.value) == message


def test_vector_inputs_keep_fraction_entries():
    half = (Fraction(1, 2), 0)
    assert A2_LATTICE.pairing(half, (1, 0)) == 1 and A2_LATTICE.norm(half) == Fraction(1, 2)
    group = orthogonal_group(A2_LATTICE)
    assert orbits(group, [half])[0].size == 6
    assert orbit_witness(group, half, (0, Fraction(1, 2))) is not None


@pytest.mark.parametrize("call, message", [
    (lambda: A2_LATTICE.norm(5), "vector must be a sequence, not int"),
    (lambda: A2_LATTICE.pairing((1, 0), 3), "vector must be a sequence, not int"),
    (lambda: A2_LATTICE.pairing((1, 0, 0), 3), "vector must be a sequence, not int"),
    (lambda: A2_LATTICE.divisibility(None), "vector must be a sequence, not NoneType"),
    (lambda: A2_LATTICE.full().coordinates_of(None), "vector must be a sequence, not NoneType"),
    (lambda: orbits(orthogonal_group(A2_LATTICE), [5]), "vector must be a sequence, not int"),
    (lambda: orbit_witness(orthogonal_group(A2_LATTICE), 1, (1, 0)),
     "vector must be a sequence, not int"),
    (lambda: A2_LATTICE.span([(1, 0), 5]), "generator must be a sequence, not int"),
], ids=["norm", "pairing", "pairing-long-first", "divisibility", "coordinates_of", "orbits", "orbit_witness", "span"])
def test_vector_inputs_without_a_length_are_refused(call, message):
    """A vector or generator row with no length is a one-line LatticeError, not a TypeError."""
    with pytest.raises(LatticeError) as caught:
        call()
    assert str(caught.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: IntegerLattice(((1.5,),)), "Gram entries must be integers"),
    (lambda: A2_LATTICE.span(((1,),)), "generator length must match ambient rank"),
], ids=["gram-float", "span-short-generator"])
def test_lattice_guards_raise_their_messages(call, message):
    with pytest.raises(LatticeError) as caught:
        call()
    assert str(caught.value) == message
