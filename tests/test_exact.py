import random
from math import prod

import pytest
from fractions import Fraction

from latglue.exact import (
    det,
    floor_sqrt_frac,
    frac_inverse,
    hnf,
    identity,
    mat_mul,
    mat_vec,
    right_kernel,
    saturate_rows,
    snf,
    solve_int,
)


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
    assert det(((Fraction(1, 2), 0), (0, 1))) == Fraction(1, 2)


def test_frac_inverse_round_trip():
    g = ((6, 3, 0), (3, 6, 0), (0, 0, 6))
    assert mat_mul(g, frac_inverse(g)) == identity(3)
    swapped = ((0, 1), (1, 0))
    assert frac_inverse(swapped) == swapped
    with pytest.raises(ZeroDivisionError):
        frac_inverse(((1, 2), (2, 4)))


def test_hnf_shape_and_transform():
    rng = random.Random(11)
    for _ in range(250):
        a = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        h, u = hnf(a)
        assert mat_mul(u, a) == h
        assert abs(det(u)) == 1
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
            h, _ = hnf(a)
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
        x0 = tuple(rng.randint(-5, 5) for _ in range(ncols))
        target = mat_vec(a, x0)
        x = solve_int(a, target)
        assert x is not None and mat_vec(a, x) == target


def test_solve_reports_unsolvable():
    assert solve_int(((2, 0), (0, 2)), (1, 0)) is None
    assert solve_int(((1, 1),), (5,)) is not None


def test_saturation_of_rows():
    sat = saturate_rows(((2, 0, 0),))
    assert sat == ((1, 0, 0),)
    sat = saturate_rows(((2, 2, 0), (0, 0, 3)))
    assert sat == ((1, 1, 0), (0, 0, 1))


def test_floor_sqrt_frac():
    assert floor_sqrt_frac(Fraction(0)) == 0
    assert floor_sqrt_frac(Fraction(35, 4)) == 2
    assert floor_sqrt_frac(Fraction(36, 4)) == 3
    assert floor_sqrt_frac(Fraction(1, 3)) == 0
