"""Integer lattices with a distinguished basis.

A lattice is a free Z-module carrying a non-degenerate symmetric bilinear
form, stored as its exact integer Gram matrix on a fixed basis.  Vectors
are plain tuples of ints holding coordinates in that basis; dual vectors
are tuples of Fractions.  Everything is an immutable value and every
computation is exact.

>>> L = IntegerLattice(((6, 3, 0), (3, 6, 0), (0, 0, 6)))
>>> L.determinant()
162
>>> L.signature()
(3, 0)
>>> L.norm((1, -1, 0))
6
>>> L.divisibility((0, 0, 1))
6
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd

from .exact import (
    FracVector,
    IntMatrix,
    IntVector,
    bilinear,
    det,
    freeze,
    gram_of_rows,
    hnf,
    identity,
    mat_mul,
    mat_vec,
    row_reduce,
    saturate_rows,
    solve_int,
    transpose,
    vec_content,
)


class LatticeError(ValueError):
    """Raised for inputs violating a lattice precondition."""


def closure(start, gens, step, limit=None) -> set:
    """Smallest superset of ``start`` closed under x -> step(x, g) for g in gens.

    Raises LatticeError as soon as more than ``limit`` elements are reached.
    """
    seen = set(start)
    frontier = list(seen)
    while frontier:
        current = frontier.pop()
        for g in gens:
            nxt = step(current, g)
            if nxt not in seen:
                seen.add(nxt)
                if limit is not None and len(seen) > limit:
                    raise LatticeError(f"closure exceeds {limit} elements")
                frontier.append(nxt)
    return seen


def is_primitive_vector(v) -> bool:
    """True iff the gcd of the coordinates is 1."""
    if not any(v):
        raise LatticeError("the zero vector is neither primitive nor imprimitive")
    return vec_content(v) == 1


class Frozen:
    """Base of the immutable values: ``__init__`` sets each attribute once."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class IntegerLattice(Frozen):
    """Even or odd non-degenerate lattice given by its Gram matrix.

    Equality and the hash (kept from construction) read ``gram`` only.
    """

    def __init__(self, gram: IntMatrix):
        gram = freeze(gram)
        n = len(gram)
        if n == 0 or any(len(row) != n for row in gram):
            raise LatticeError("Gram matrix must be square and nonempty")
        if any(not isinstance(x, int) for row in gram for x in row):
            raise LatticeError("Gram entries must be integers")
        if gram != transpose(gram):
            raise LatticeError("Gram matrix must be symmetric")
        # det(gram), computed once to reject degenerate Grams
        d = det(gram)
        if d == 0:
            raise LatticeError("degenerate Gram matrix")
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "_det", d)
        object.__setattr__(self, "_hash", hash((gram,)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.gram == other.gram

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"IntegerLattice(gram={self.gram!r})"

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def determinant(self) -> int:
        return self._det

    def signature(self) -> tuple[int, int]:
        """(s+, s-) counted exactly via the pivots of rational LDL^T.

        A zero pivot is dodged by a symmetric swap with a nonzero diagonal
        entry, or if the whole remaining diagonal vanishes by mixing in a
        row (then the new diagonal entry is twice an off-diagonal one).
        """
        n = self.rank
        m = [[Fraction(x) for x in row] for row in self.gram]
        pos = neg = 0
        for k in range(n):
            if m[k][k] == 0:
                j = next((j for j in range(k + 1, n) if m[j][j] != 0), None)
                if j is not None:
                    m[k], m[j] = m[j], m[k]
                    for row in m:
                        row[k], row[j] = row[j], row[k]
                else:
                    j = next((j for j in range(k + 1, n) if m[j][k] != 0), None)
                    if j is None:
                        raise LatticeError("degenerate block in signature computation")
                    for c in range(n):
                        m[k][c] += m[j][c]
                    for r in range(n):
                        m[r][k] += m[r][j]
            pivot = m[k][k]
            if pivot > 0:
                pos += 1
            else:
                neg += 1
            # Schur complement on indices > k; symmetry is preserved.
            for r in range(k + 1, n):
                factor = m[r][k] / pivot
                if factor:
                    for c in range(k + 1, n):
                        m[r][c] -= factor * m[k][c]
                    m[r][k] = Fraction(0)
        return pos, neg

    # -- bilinear form ------------------------------------------------

    def pairing(self, v, w) -> int | Fraction:
        if len(v) != self.rank or len(w) != self.rank:
            raise LatticeError(f"vector lengths {len(v)}, {len(w)} do not match rank {self.rank}")
        total = bilinear(v, self.gram, w)
        return int(total) if total.denominator == 1 else total

    def norm(self, v) -> int | Fraction:
        return self.pairing(v, v)

    def _check_length(self, v) -> None:
        if len(v) != self.rank:
            raise LatticeError(f"vector length {len(v)} does not match rank {self.rank}")

    def divisibility(self, v: IntVector) -> int:
        """div(v) = gcd of all pairings of v with lattice vectors."""
        self._check_length(v)
        if not any(v):
            raise LatticeError("divisibility of the zero vector is undefined")
        g = 0
        for x in mat_vec(self.gram, v):
            g = gcd(g, x)
        return g

    # -- sublattices --------------------------------------------------

    def span(self, generators) -> "Sublattice":
        return Sublattice(self, freeze(generators))

    def full(self) -> "Sublattice":
        return Sublattice(self, identity(self.rank))

    # -- serialization ------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({"gram": [list(row) for row in self.gram]})

    @classmethod
    def from_json(cls, text: str) -> "IntegerLattice":
        """Parse a Gram matrix given as ``[[...]]`` or ``{"gram": [[...]]}``."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise LatticeError(f"invalid JSON: {exc}") from exc
        if isinstance(data, dict):
            data = data.get("gram")
        if not isinstance(data, list):
            raise LatticeError('expected a JSON array or {"gram": [[...]]}')
        for row in data:
            if not isinstance(row, list) or any(
                isinstance(x, bool) or not isinstance(x, int) for x in row
            ):
                raise LatticeError("Gram entries must be exact integers")
        return cls(freeze(data))


class Sublattice(Frozen):
    """Sublattice of an ambient lattice, rows of ``basis`` in ambient coordinates."""

    def __init__(self, ambient: IntegerLattice, basis: IntMatrix):
        basis = freeze(basis)
        if basis and any(len(row) != ambient.rank for row in basis):
            raise LatticeError("generator length must match ambient rank")
        h, _ = hnf(basis) if basis else ((), ())
        if sum(1 for row in h if any(row)) != len(basis):
            raise LatticeError("generators must be linearly independent")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", basis)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def gram(self) -> IntMatrix:
        return freeze(gram_of_rows(self.basis, self.ambient.gram))

    def lattice(self) -> IntegerLattice:
        return IntegerLattice(self.gram())

    def contains(self, v: IntVector) -> bool:
        self.ambient._check_length(v)
        if not self.basis:
            return not any(v)
        cols = transpose(self.basis)
        return solve_int(cols, v) is not None

    def coordinates_of(self, v) -> FracVector:
        """Coordinates of an ambient (rational) vector in the sublattice basis.

        The vector must lie in the Q-span of the sublattice.
        """
        self.ambient._check_length(v)
        ncols = self.rank
        rows = [[Fraction(self.basis[j][i]) for j in range(ncols)] + [Fraction(v[i])]
                for i in range(self.ambient.rank)]
        pivots = row_reduce(rows, ncols)
        for i in range(len(pivots), len(rows)):
            if rows[i][-1] != 0:
                raise LatticeError("vector does not lie in the span of the sublattice")
        sol = [Fraction(0)] * ncols
        for idx, c in enumerate(pivots):
            sol[c] = rows[idx][-1]
        return tuple(sol)

    def saturation(self) -> "Sublattice":
        """Primitive closure (span over Q intersected with the ambient lattice)."""
        if not self.basis:
            return self
        return Sublattice(self.ambient, saturate_rows(self.basis))

    def orthogonal_complement(self) -> "Sublattice":
        """Primitive sublattice of all ambient vectors pairing to 0 with this one.

        The result is returned on its canonical HNF basis.
        """
        if not self.basis:
            return self.ambient.full()
        conditions = mat_mul(self.basis, self.ambient.gram)
        from .exact import right_kernel

        kernel = right_kernel(conditions)
        return Sublattice(self.ambient, kernel)

    def index(self) -> int:
        """Index in the ambient lattice (full-rank sublattices only).

        Computed as the integer square root of det(sub)/det(ambient); a
        non-square ratio means the inputs were inconsistent.
        """
        if self.rank != self.ambient.rank:
            raise LatticeError("index is defined for full-rank sublattices only")
        ratio = Fraction(det(self.gram()), self.ambient.determinant())
        if ratio.denominator != 1 or ratio < 0:
            raise LatticeError("determinant ratio is not a positive integer")
        from math import isqrt

        n = int(ratio)
        root = isqrt(n)
        if root * root != n:
            raise LatticeError(f"determinant ratio {n} is not a perfect square")
        return root

