import random
from math import prod

import pytest
from fractions import Fraction

from latglue.exact import (
    det,
    frac_inverse,
    gram_of_rows,
    hnf,
    identity,
    mat_mul,
    mat_vec,
    right_kernel,
    smith_diagonal,
    snf,
    solve_int,
    solve_smith,
    transpose,
)

from oracles import kernel_by_smith, snf_by_closures


def random_matrix(rng, nrows, ncols, bound=9):
    return tuple(
        tuple(rng.randint(-bound, bound) for _ in range(ncols)) for _ in range(nrows)
    )


def test_det_examples():
    assert det(((6, 3, 0), (3, 6, 0), (0, 0, 6))) == 162
    assert det(((2,),)) == 2
    assert det(((6, 3), (3, 6))) == 27
    assert det(((0, 1), (1, 0))) == -1
    # the first pivot needs a row swap, which flips the sign
    assert det(((0, 2, 1), (3, 1, 0), (1, 0, 1))) == -7
    assert det(((1, 2, 3), (2, 4, 6), (0, 1, 1))) == 0
    assert det(((0, 0), (0, 0))) == 0
    assert det(()) == 1


def det_by_fractions(a):
    """Oracle: the earlier determinant, the pivots of a rational Gauss-Jordan signed by its swaps."""
    rows = [[Fraction(x) for x in row] for row in a]
    result = Fraction(1)
    for c in range(len(rows)):
        pr = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            result = -result
        pivot = rows[c][c]
        result *= pivot
        rows[c] = [x / pivot for x in rows[c]]
        for i in range(len(rows)):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return result


def gauss_jordan(rows, ncols):
    """Oracle: the earlier rational Gauss-Jordan on the first ``ncols`` columns, in place.

    ``rows`` is a list of lists of Fractions; columns past ``ncols`` are
    carried along.  Afterwards the pivot rows come first, each pivot is 1
    and the only nonzero entry of its column.  Returns the pivot columns.
    """
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pivot = rows[r][c]
        rows[r] = [x / pivot for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots


def inverse_by_fractions(a):
    """Oracle: the earlier ``frac_inverse``, Gauss-Jordan on [a | I]; None if a is singular."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    if len(gauss_jordan(m, n)) < n:
        return None
    return tuple(tuple(row[n:]) for row in m)


def det_test_matrix(rng, n, kind):
    bound = 10**21 if kind == "huge" else 9
    a = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
    if kind == "singular":
        # the last row becomes a combination of the others (the zero row for n = 1)
        coeffs = [rng.randint(-3, 3) for _ in a[:-1]]
        a[-1] = [sum(c * row[j] for c, row in zip(coeffs, a)) for j in range(n)]
    elif kind == "lead_zero":
        # no pivot in the first row: the first step must swap
        a[0][0] = 0
        if n > 2:
            a[1][0] = 0
    elif kind == "late_zero" and n > 1:
        # rows 0 and 1 agree up to a factor on the first two columns, so the
        # second Bareiss pivot is 0 and a later row must be swapped in
        a[0][0] = a[0][0] or 1
        k = rng.choice((-2, -1, 1, 3))
        a[1][0], a[1][1] = k * a[0][0], k * a[0][1]
    return tuple(map(tuple, a))


def test_gram_of_rows_is_the_two_products():
    """rows * gram * rows^T, also for no rows and for rows of length 0."""
    rng = random.Random(17)
    for _ in range(200):
        n, k = rng.randint(1, 4), rng.randint(0, 4)
        gram, rows = random_matrix(rng, n, n), random_matrix(rng, k, n)
        assert gram_of_rows(rows, gram) == mat_mul(mat_mul(rows, gram), transpose(rows))
    assert gram_of_rows([(), (), ()], ()) == ((0, 0, 0),) * 3
    assert gram_of_rows([], ((2,),)) == ()


def test_det_against_fraction_and_sympy_oracles():
    try:
        from sympy import Matrix
    except ImportError:
        Matrix = None
    rng = random.Random(41)
    kinds = ("random", "singular", "lead_zero", "late_zero", "huge")
    zeros = 0
    cases = [(n, kind) for n in range(1, 7) for kind in kinds] * 8
    for n, kind in cases:
        a = det_test_matrix(rng, n, kind)
        got = det(a)
        assert type(got) is int
        assert got == det_by_fractions(a), a
        if Matrix is not None:
            assert got == Matrix(a).det(), a
        zeros += got == 0
    assert len(cases) >= 200 and zeros >= 40


def test_frac_inverse_round_trip():
    g = ((6, 3, 0), (3, 6, 0), (0, 0, 6))
    assert mat_mul(g, frac_inverse(g)) == identity(3)
    assert frac_inverse(g) == inverse_by_fractions(g)
    swapped = ((0, 1), (1, 0))
    assert frac_inverse(swapped) == swapped
    assert frac_inverse(()) == ()
    with pytest.raises(ZeroDivisionError):
        frac_inverse(((1, 2), (2, 4)))


def test_frac_inverse_against_gauss_jordan():
    """Integer and non-integral Fraction matrices, singular ones included."""
    rng = random.Random(43)
    singular = fractional = 0
    for n in range(1, 6):
        for _ in range(30):
            kind = rng.choice(("random", "singular", "lead_zero"))
            a = det_test_matrix(rng, n, kind)
            if rng.random() < 0.5:
                a = tuple(tuple(Fraction(x, rng.randint(1, 12)) for x in row) for row in a)
                fractional += any(x.denominator != 1 for row in a for x in row)
            expected = inverse_by_fractions(a)
            if expected is None:
                singular += 1
                with pytest.raises(ZeroDivisionError):
                    frac_inverse(a)
                continue
            got = frac_inverse(a)
            assert got == expected, a
            assert all(type(x) is Fraction for row in got for x in row)
            assert mat_mul(a, got) == identity(n)
    assert singular >= 20 and fractional >= 50


def test_hnf_shape_and_transform():
    rng = random.Random(11)
    for _ in range(250):
        a = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        h = hnf(a)
        assert len(h) == len(a)
        # the same row lattice: each row of either is an integer combination of the other's
        for rows, others in ((a, h), (h, a)):
            for row in rows:
                assert solve_int(transpose(others), row) is not None, (a, row)
        # positive pivots, staircase shape, reduced entries above pivots
        pivot_cols = []
        seen_zero_row = False
        for row in h:
            nonzero = [j for j, x in enumerate(row) if x]
            if not nonzero:
                seen_zero_row = True
                continue
            assert not seen_zero_row
            j = nonzero[0]
            assert row[j] > 0
            assert not pivot_cols or j > pivot_cols[-1]
            pivot_cols.append(j)
        for rank_index, j in enumerate(pivot_cols):
            for above in range(rank_index):
                assert 0 <= h[above][j] < h[rank_index][j]


def test_snf_divisibility_chain():
    rng = random.Random(12)
    for _ in range(250):
        a = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        d, u, v = snf(a)
        assert mat_mul(mat_mul(u, a), v) == d
        assert abs(det(u)) == 1 and abs(det(v)) == 1
        diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
        assert all(x >= 0 for x in diag)
        nonzero = [x for x in diag if x]
        assert diag[: len(nonzero)] == nonzero
        for first, second in zip(nonzero, nonzero[1:]):
            assert second % first == 0


def test_snf_matches_the_closure_oracle():
    """(D, U, V) equal the oracle's entry for entry, not just up to unimodular change."""
    rng = random.Random(24)
    shapes = [(r, c) for r in range(1, 6) for c in range(1, 7)]
    zero_lines = huge = 0
    for k in range(3000):
        nrows, ncols = shapes[k % len(shapes)]
        a = [list(row) for row in random_matrix(rng, nrows, ncols, bound=30)]
        if k % 5 == 1:
            a[rng.randrange(nrows)] = [0] * ncols
        if k % 5 == 2:
            j = rng.randrange(ncols)
            for row in a:
                row[j] = 0
        if k % 7 == 3:
            a[rng.randrange(nrows)][rng.randrange(ncols)] += 10**21
        zero_lines += any(not any(row) for row in a) or any(not any(col) for col in zip(*a))
        huge += any(abs(x) > 10**20 for row in a for x in row)
        smith = snf(a)
        assert smith == snf_by_closures(a), a
        assert smith_diagonal(a) == tuple(smith[0][i][i] for i in range(min(nrows, ncols))), a
    assert snf(()) == snf_by_closures(()) and smith_diagonal(()) == ()
    assert zero_lines > 1000 and huge > 400


def test_snf_and_hnf_against_sympy():
    """Independent oracle: sympy's invariant factors and |det| (tests only)."""
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import Matrix

    rng = random.Random(7)
    shapes = [(n, n) for n in range(1, 5)] * 6 + [(2, 3), (3, 2), (4, 2), (2, 4)] * 3
    singular = 0
    for nrows, ncols in shapes:
        a = random_matrix(rng, nrows, ncols, bound=6)
        if nrows == ncols > 1 and rng.random() < 0.3:
            # singular: the last row becomes a combination of the first and the second-last
            a = a[:-1] + (tuple(x + 2 * y for x, y in zip(a[0], a[-2])),)
        d, _u, _v = snf(a)
        factors = [int(x) for x in normalforms.invariant_factors(Matrix(a))]
        assert [d[i][i] for i in range(min(nrows, ncols))] == factors
        if nrows == ncols and det(a) != 0:
            h = hnf(a)
            assert prod(next(x for x in row if x) for row in h) == abs(det(a))
        else:
            singular += nrows == ncols
    assert singular >= 3


def test_kernel_and_solve():
    rng = random.Random(13)
    for _ in range(250):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        a = random_matrix(rng, nrows, ncols, 6)
        for row in right_kernel(a):
            assert mat_vec(a, row) == (0,) * nrows
        smith = snf(a)  # one Smith form serves every right-hand side
        for _ in range(3):
            x0 = tuple(rng.randint(-5, 5) for _ in range(ncols))
            target = mat_vec(a, x0)
            for x in (solve_int(a, target), solve_smith(smith, target)):
                assert x is not None and mat_vec(a, x) == target


def test_right_kernel_matches_the_smith_oracle():
    """One Hermite form of [a^T | I] gives the kernel the Smith route gives, row for row."""
    rng = random.Random(27)
    deficient = nontrivial = 0
    for k in range(400):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        a = [list(row) for row in random_matrix(rng, nrows, ncols)]
        if nrows > 1 and k % 2 == 0:  # the last row a combination of the others
            c = [rng.randint(-2, 2) for _ in range(nrows - 1)]
            a[-1] = [sum(ci * row[j] for ci, row in zip(c, a)) for j in range(ncols)]
        deficient += sum(1 for x in smith_diagonal(a) if x) < min(nrows, ncols)
        kernel = right_kernel(a)
        assert kernel == kernel_by_smith(a), a
        nontrivial += bool(kernel)
    assert deficient >= 80 and nontrivial >= 180
    for a in ((), ((),), ((), ())):
        assert right_kernel(a) == kernel_by_smith(a) == ()


def test_solve_reports_unsolvable():
    assert solve_int(((2, 0), (0, 2)), (1, 0)) is None
    assert solve_smith(snf(((2, 0), (0, 2))), (1, 0)) is None
    assert solve_int(((1, 1),), (5,)) is not None


def test_solve_rejects_a_right_hand_side_of_the_wrong_length():
    # one row, two entries: the extra entry must not be dropped
    with pytest.raises(ValueError, match="has 2 entries for 1 rows"):
        solve_int(((1, 0),), (1, 5))
    # no rows at all: the entries must not vanish into an empty solution
    with pytest.raises(ValueError, match="has 2 entries for 0 rows"):
        solve_int((), (1, 0))
    with pytest.raises(ValueError, match="has 1 entries for 2 rows"):
        solve_smith(snf(((2, 0), (0, 2))), (1,))


def test_saturation_of_rows():
    """The integer kernel of the integer kernel is the saturated row space, in HNF."""
    assert right_kernel(right_kernel(((2, 0, 0),))) == ((1, 0, 0),)
    assert right_kernel(right_kernel(((2, 2, 0), (0, 0, 3)))) == ((1, 1, 0), (0, 0, 1))

