"""Exact linear algebra over Z and Q.

Everything here works on tuples-of-tuples of Python ints; ``frac_inverse``,
the one rational inverse (``Sublattice.coordinates_of`` reads it), clears
denominators and reads ``snf`` (there is no adjugate), so there is one
integer elimination of each kind and no floating point: the Bareiss step
``_bareiss_step`` of ``det`` and ``ldl_rows``, ``hnf`` (H only, also behind
``right_kernel``) and the Smith loop ``_smith`` of ``snf`` and
``smith_diagonal``.  Lattice pairings and discriminant forms share one
v*G*w^T kernel, ``bilinear``.  Inputs pass ``as_integer``, ``as_vector`` or
``as_matrix``, which raise the caller's error, under one rule: an integer is
an int that is not a bool, or a Fraction with denominator 1, returned as a
plain int; floats, Decimals, bools, strings and None are refused.
Conventions are pinned so that every caller sees deterministic output:

* Hermite normal form is row-style with positive pivots and entries above
  a pivot reduced into [0, pivot).
* Smith normal form has nonnegative diagonal d1 | d2 | ... .
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]
FracMatrix = tuple[tuple[Fraction, ...], ...]
FracVector = tuple[Fraction, ...]


def freeze(rows) -> tuple:
    return tuple(map(tuple, rows))


def identity(n: int) -> IntMatrix:
    return tuple([tuple([1 if i == j else 0 for j in range(n)]) for i in range(n)])


def transpose(a):
    return tuple(zip(*a)) if a else ()


def mat_mul(a, b):
    bt = list(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) for col in bt]) for row in a])


def mat_vec(a, v):
    return tuple([sum(map(mul, row, v)) for row in a])


def bilinear(v, gram, w):
    """v*gram*w^T (int on integer inputs), skipping zero entries of v; no length check."""
    return sum(vi * sum(map(mul, row, w)) for vi, row in zip(v, gram) if vi)


def gram_of_rows(rows, gram):
    """Pairing matrix rows * gram * rows^T; k rows of length 0 give the k x k zero matrix."""
    return tuple([tuple([sum(map(mul, u, w)) for w in rows]) for u in mat_mul(rows, gram)])


def det(a) -> int:
    """Exact determinant of a square integer matrix by fraction-free (Bareiss) elimination.

    Only ints occur (``_bareiss_step``); a zero pivot is swapped with a
    nonzero entry below it, flipping the sign.
    """
    m = [list(row) for row in a]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        prev = _bareiss_step(m, k, prev)
    return sign * prev


def ldl_rows(gram) -> list[list[int]]:
    """Fraction-free (Bareiss) LDL^T of a nonsingular symmetric integer matrix (Cohen, 2.2).

    Row k is row k of the matrix after k elimination steps, from the
    diagonal on; its first entry D_{k+1} is the leading principal minor of
    size k + 1, and Q(x) = sum_k t_k^2 / (D_k * D_{k+1}) with D_0 = 1 and
    t_k = sum_{j>=k} row_k[j - k] * x_j.  A zero pivot k is dodged by a
    change of basis: a swap with a later nonzero diagonal entry, else adding
    a later row and column j (the pivot becomes 2 * a[k][j]); positive
    definite input is never moved.  A singular matrix raises ZeroDivisionError.
    """
    n = len(gram)
    a = [list(row) for row in gram]
    prev = 1
    for k in range(n):
        if not a[k][k]:
            j = next((j for j in range(k + 1, n) if a[j][j]), None)
            if j is not None:
                a[k], a[j] = a[j], a[k]
                for row in a:
                    row[k], row[j] = row[j], row[k]
            else:
                j = next((j for j in range(k + 1, n) if a[k][j]), None)
                if j is None:
                    raise ZeroDivisionError("matrix is singular")
                a[k] = [x + y for x, y in zip(a[k], a[j])]
                for row in a:
                    row[k] += row[j]
        prev = _bareiss_step(a, k, prev)
    return [row[k:] for k, row in enumerate(a)]


def _bareiss_step(a, k: int, prev: int) -> int:
    """Fraction-free step k on the square list rows a, in place; returns the pivot a[k][k].

    Each entry below and right of the pivot becomes the (k+1)-minor
    (pivot * a[i][j] - a[i][k] * a[k][j]) // prev, an exact division.
    """
    pivot, top = a[k][k], a[k]
    for row in a[k + 1:]:
        f = row[k]
        for j in range(k + 1, len(top)):
            row[j] = (pivot * row[j] - f * top[j]) // prev
    return pivot


def frac_inverse(a) -> FracMatrix:
    """Inverse of a nonsingular square matrix of ints or Fractions, as Fractions.

    With a = b/e for the integer matrix b and e the lcm of the denominators,
    and U b V = D by ``snf``, a^-1 = e V D^-1 U = e V (d_n D^-1) U / d_n
    (Cohen, 2.4); a singular matrix (d_n = 0) raises ZeroDivisionError.
    """
    e = lcm_denominator(a)
    d, u, v = snf([[x.numerator * (e // x.denominator) for x in row] for row in a])
    last = d[-1][-1] if d else 1  # d_1 | ... | d_n, so a zero on D makes d_n zero
    if not last:
        raise ZeroDivisionError("matrix is singular")
    scaled = [[x * (last // d[k][k]) for x in row] for k, row in enumerate(u)]
    return freeze((Fraction(e * x, last) for x in row) for row in mat_mul(v, scaled))


def hnf(a) -> IntMatrix:
    """Row-style Hermite normal form H of a, with the row lattice of a.

    H has as many rows as a: pivots positive, entries above each pivot
    reduced into [0, pivot), zero rows at the bottom.
    """
    rows = [list(row) for row in a]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(ncols):
        if pivot_row == nrows:
            break
        # Euclidean reduction: shrink the column below pivot_row to one entry.
        while True:
            nonzero = [i for i in range(pivot_row, nrows) if rows[i][col] != 0]
            if not nonzero:
                break
            i_min = min(nonzero, key=lambda i: abs(rows[i][col]))  # the first least
            rows[pivot_row], rows[i_min] = rows[i_min], rows[pivot_row]
            if len(nonzero) == 1:
                break
            for i in range(pivot_row + 1, nrows):
                if rows[i][col] != 0:
                    q = rows[i][col] // rows[pivot_row][col]
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[pivot_row])]
        if rows[pivot_row][col] == 0:
            continue
        if rows[pivot_row][col] < 0:
            rows[pivot_row] = [-x for x in rows[pivot_row]]
        p = rows[pivot_row][col]
        for i in range(pivot_row):
            q = rows[i][col] // p
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[pivot_row])]
        pivot_row += 1
    return freeze(rows)


def snf(a) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form.

    Returns (D, U, V) with U*a*V = D, U and V unimodular, and D diagonal
    with nonnegative entries satisfying d1 | d2 | ... .
    """
    d = [list(row) for row in a]
    u = [list(row) for row in identity(len(d))]
    v = [list(row) for row in identity(len(d[0]) if d else 0)]
    _smith(d, u, v)
    return freeze(d), freeze(u), freeze(v)


def smith_diagonal(a) -> IntVector:
    """The diagonal d1 | d2 | ... of ``snf(a)[0]``, without building U or V."""
    d = [list(row) for row in a]
    _smith(d, [[] for _ in d], [])
    return tuple([d[i][i] for i in range(min(len(d), len(d[0])) if d else 0)])


def _smith(d, u, v) -> None:
    """The Smith pivot loop on the list rows d, in place.

    Row steps are applied to the rows of u and column steps to the rows of
    v: ``snf`` passes identities, ``smith_diagonal`` empty rows and no rows.
    Each step moves the first entry of least absolute value (in row-major
    order) of the block that is left to its corner, then clears its row and
    column by division with remainder.
    """
    nrows = len(d)
    ncols = len(d[0]) if d else 0
    k = 0
    while k < min(nrows, ncols):
        least = 0
        for i in range(k, nrows):
            row = d[i]
            for j in range(k, ncols):
                x = abs(row[j])
                if x and (x < least or not least):
                    least, pi, pj = x, i, j
                    if x == 1:  # nothing is less: the first 1 ends the scan
                        break
            if least == 1:
                break
        if not least:
            break
        if pi != k:
            d[k], d[pi] = d[pi], d[k]
            u[k], u[pi] = u[pi], u[k]
        if pj != k:
            for row in d:
                row[k], row[pj] = row[pj], row[k]
            for row in v:
                row[k], row[pj] = row[pj], row[k]
        top, utop = d[k], u[k]
        p = top[k]
        dirty = False
        for i in range(k + 1, nrows):
            if d[i][k]:  # row i -= q * row k
                q = d[i][k] // p
                d[i] = [x - q * y for x, y in zip(d[i], top)]
                u[i] = [x - q * y for x, y in zip(u[i], utop)]
                dirty = dirty or d[i][k] != 0
        for j in range(k + 1, ncols):
            if top[j]:  # column j -= q * column k
                q = top[j] // p
                for row in d:
                    row[j] -= q * row[k]
                for row in v:
                    row[j] -= q * row[k]
                dirty = dirty or top[j] != 0
        if dirty:
            continue
        # Enforce divisibility: d[k][k] must divide everything below-right.
        bad = next((i for i in range(k + 1, nrows)
                    if any(d[i][j] % p for j in range(k + 1, ncols))), None)
        if bad is not None:
            d[k] = [x + y for x, y in zip(top, d[bad])]
            u[k] = [x + y for x, y in zip(utop, u[bad])]
            continue
        if p < 0:
            d[k] = [-x for x in top]
            u[k] = [-x for x in utop]
        k += 1


def right_kernel(a) -> IntMatrix:
    """Basis (as rows, in Hermite normal form) of the integer solutions x of a*x = 0.

    It is the I part of the rows of hnf([a^T | I]) whose a^T part is zero
    (Cohen, 2.4): a row [0 | x] of that lattice combines only rows with a pivot past a^T.
    """
    if not a:
        return ()
    m = len(a)
    stacked = [col + unit for col, unit in zip(transpose(a), identity(len(a[0])))]
    return tuple(row[m:] for row in hnf(stacked) if not any(row[:m]))


def solve_int(a, t) -> IntVector | None:
    """One integer solution x of a*x = t (columns unknowns), or None."""
    return solve_smith(snf(a), t)


def solve_smith(smith, t) -> IntVector | None:
    """``solve_int`` for a matrix given by its Smith form (D, U, V) = snf(a).

    With U a V = D the system becomes D w = U t, solved entry by entry, and
    x = V w; one Smith form serves any number of right-hand sides.
    """
    d, u, v = smith
    nrows, ncols = len(d), len(v)
    if len(t) != nrows:
        raise ValueError(f"right-hand side has {len(t)} entries for {nrows} rows")
    ut = mat_vec(u, t)
    w = [0] * ncols
    for i in range(nrows):
        di = d[i][i] if i < min(nrows, ncols) else 0
        if di == 0:
            if ut[i] != 0:
                return None
        else:
            if ut[i] % di != 0:
                return None
            w[i] = ut[i] // di
    return mat_vec(v, tuple(w))


def as_integer(x, error, message: str) -> int:
    """x as a plain int if it is an integer (see above), else ``error(message)``."""
    if isinstance(x, int) and type(x) is not bool or isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    raise error(message)


def as_sequence(v, error, message: str | None = None, what: str | None = None):
    """v, uncopied, if a tuple or list (tested first: the hot paths) or sized, indexed and no
    str or dict (no set), else error ``message`` or "<what> must be a sequence, not <type>"."""
    if (t := type(v)) is tuple or t is list or hasattr(t, "__len__") \
            and hasattr(t, "__getitem__") and not isinstance(v, (str, dict)):
        return v
    raise error(message if what is None else f"{what} must be a sequence, not {type(v).__name__}")


def as_vector(v, error, message: str, what: str | None = None, fractions=False, rank=None) -> tuple:
    """The ``as_sequence`` v as a tuple of ``as_integer`` entries, and of Fractions if
    ``fractions``; its length is checked against ``rank`` (if given) before any entry."""
    n = len(as_sequence(v, error, message, what))
    if rank is not None and n != rank:
        raise error(f"vector length {n} does not match rank {rank}")
    for x in v:  # a loop of type tests, as ``orbits`` reads every vector here
        if type(x) is not int and not (fractions and type(x) is Fraction):
            return tuple([x if fractions and isinstance(x, Fraction)
                          else as_integer(x, error, message) for x in v])
    return tuple(v)


def as_matrix(rows, error, message: str, what: str | None = None, fractions=False) -> tuple:
    """The ``as_sequence`` rows, each an ``as_vector``; ragged rows are the caller's check."""
    rows = as_sequence(rows, error, message, what)
    return tuple([as_vector(row, error, message, what, fractions) for row in rows])


def lcm_denominator(rows) -> int:
    """lcm of the denominators of the entries of int/Fraction rows (1 if there are none)."""
    return lcm(*(x.denominator for row in rows for x in row))
