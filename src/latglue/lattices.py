"""Integer lattices with a distinguished basis.

A lattice is a free Z-module carrying a non-degenerate symmetric bilinear
form, stored as its exact integer Gram matrix on a fixed basis.  Vectors
are plain tuples of ints holding coordinates in that basis; dual vectors
are tuples of Fractions.  Everything is an immutable value and every
computation is exact.  A lattice keeps the one Bareiss LDL^T (``ldl_rows``)
of its basis sorted by ascending diagonal; ``determinant``, ``signature``,
and the definiteness check and short-vector set-up of ``isometries`` read it.

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
from functools import cached_property
from math import gcd
from operator import attrgetter

from .exact import (
    FracVector,
    IntMatrix,
    IntVector,
    as_matrix,
    as_sequence,
    as_vector,
    bilinear,
    det,
    frac_inverse,
    freeze,
    gram_of_rows,
    hnf,
    identity,
    ldl_rows,
    mat_mul,
    mat_vec,
    right_kernel,
    transpose,
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


class Frozen:
    """Base of the immutable values.

    ``__init__`` validates its arguments and stores the fields once with
    ``_set``; assignment and deletion raise afterwards.  A compared class
    declares ``_key = operator.attrgetter(...)`` over the fields equality
    reads: two values of the same class are equal, and hash equally,
    exactly when their keys are.  With ``_key = None`` a value is equal
    only to itself and hashes by identity.
    """

    _key = None

    def _set(self, **fields):
        self.__dict__.update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return self is other if key is None else key(self) == key(other)

    def __hash__(self):
        key = self._key
        return object.__hash__(self) if key is None else hash(key(self))


class IntegerLattice(Frozen):
    """Even or odd non-degenerate lattice given by its Gram matrix.

    ``_ldl`` is (order, rows), computed once: the basis sorted by ascending
    diagonal (ties by index) and ``ldl_rows`` on it, whose first entries are
    the leading minors D_1, ..., D_n.  D_n is the determinant, as the sort and
    the zero-pivot dodges are unimodular congruences.  ``isometries``
    keeps the short-vector set-up and the matrices of O(L) in the private
    dict ``_memo``, and the group built on them only as a weak reference.
    Equality, the hash (``Frozen``'s) and the repr read ``gram`` only.
    """

    _key = attrgetter("gram")

    def __init__(self, gram: IntMatrix):
        gram = as_matrix(gram, LatticeError, "Gram entries must be integers")
        n = len(gram)
        if n == 0 or any(len(row) != n for row in gram):
            raise LatticeError("Gram matrix must be square and nonempty")
        if gram != transpose(gram):
            raise LatticeError("Gram matrix must be symmetric")
        order = tuple(sorted(range(n), key=lambda i: gram[i][i]))
        try:
            rows = ldl_rows(tuple([tuple([gram[i][j] for j in order]) for i in order]))
        except ZeroDivisionError:
            raise LatticeError("degenerate Gram matrix") from None
        self._set(gram=gram, _ldl=(order, freeze(rows)), _memo={})

    def __repr__(self):
        return f"IntegerLattice(gram={self.gram!r})"

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def determinant(self) -> int:
        return self._ldl[1][-1][0]

    def signature(self) -> tuple[int, int]:
        """(s+, s-) counted exactly from the leading minors kept at construction.

        The pivots of LDL^T are D_{k+1} / D_k, so s- is the number of sign
        changes in 1, D_1, ..., D_n (Jacobi); the sort and the dodges of
        zero minors in ``ldl_rows`` are congruences, which keep the signature.
        """
        minors = (1, *[row[0] for row in self._ldl[1]])
        neg = sum((a < 0) != (b < 0) for a, b in zip(minors, minors[1:]))
        return self.rank - neg, neg

    # -- bilinear form ------------------------------------------------

    def pairing(self, v, w) -> int | Fraction:
        nv, nw = (len(as_sequence(x, LatticeError, what="vector")) for x in (v, w))
        if nv != self.rank or nw != self.rank:
            raise LatticeError(f"vector lengths {nv}, {nw} do not match rank {self.rank}")
        total = bilinear(self._vector(v), self.gram, self._vector(w))
        return int(total) if total.denominator == 1 else total

    def norm(self, v) -> int | Fraction:
        return self.pairing(v, v)

    def _vector(self, v, fractions=True, message="vector entries must be integers or Fractions"):
        """v by ``exact.as_vector`` (LatticeError ``message``), of length ``rank``."""
        return as_vector(v, LatticeError, message, "vector", fractions, self.rank)

    def divisibility(self, v: IntVector) -> int:
        """div(v) = gcd of all pairings of v with lattice vectors."""
        v = self._vector(v, False, "vector entries must be integers")
        if not any(v):
            raise LatticeError("divisibility of the zero vector is undefined")
        return gcd(*mat_vec(self.gram, v))

    # -- sublattices --------------------------------------------------

    def span(self, generators) -> "Sublattice":
        return Sublattice(self, generators)

    def full(self) -> "Sublattice":
        return Sublattice(self, identity(self.rank))

    # -- parsing ------------------------------------------------------

    @classmethod
    def from_json(cls, text: str) -> "IntegerLattice":
        """Parse a Gram matrix given as ``[[...]]`` or ``{"gram": [[...]]}``."""
        try:
            data = json.loads(text)
        except (TypeError, ValueError, RecursionError) as exc:  # not text, too deep, or too long
            raise LatticeError(f"invalid JSON: {exc}") from None
        if isinstance(data, dict):
            data = data.get("gram")
        if not isinstance(data, list):
            raise LatticeError('expected a JSON array or {"gram": [[...]]}')
        return cls(as_matrix(data, LatticeError, "Gram entries must be exact integers"))


class Sublattice(Frozen):
    """Sublattice of an ambient lattice, rows of ``basis`` in ambient coordinates."""

    def __init__(self, ambient: IntegerLattice, basis: IntMatrix):
        basis = as_matrix(basis, LatticeError, "generator entries must be integers", "generator")
        if any(len(row) != ambient.rank for row in basis):
            raise LatticeError("generator length must match ambient rank")
        h = hnf(basis)
        if sum(1 for row in h if any(row)) != len(basis):
            raise LatticeError("generators must be linearly independent")
        self._set(ambient=ambient, basis=basis)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def gram(self) -> IntMatrix:
        return freeze(gram_of_rows(self.basis, self.ambient.gram))

    def lattice(self) -> IntegerLattice:
        return IntegerLattice(self.gram())

    @cached_property
    def _inverse_gram(self):
        """(BB^T)^-1 (``frac_inverse``) for the basis B, computed on first use."""
        return frac_inverse(mat_mul(self.basis, transpose(self.basis)))

    def coordinates_of(self, v) -> FracVector:
        """Coordinates x = (BB^T)^-1 B v of an ambient v of ints and Fractions on the basis B.

        B^T x = v is checked, so a v off the Q-span raises LatticeError.
        """
        v = self.ambient._vector(v)
        basis = self.basis
        x = mat_vec(self._inverse_gram, mat_vec(basis, v))
        if any(sum(xk * row[i] for xk, row in zip(x, basis)) != vi for i, vi in enumerate(v)):
            raise LatticeError("vector does not lie in the span of the sublattice")
        return x

    def orthogonal_complement(self) -> "Sublattice":
        """Primitive sublattice of all ambient vectors pairing to 0 with this one.

        The result is returned on its canonical HNF basis.
        """
        if not self.basis:
            return self.ambient.full()
        conditions = mat_mul(self.basis, self.ambient.gram)
        return Sublattice(self.ambient, right_kernel(conditions))

    def index(self) -> int:
        """Index in the ambient lattice (full-rank sublattices only): |det(basis)|."""
        if self.rank != self.ambient.rank:
            raise LatticeError("index is defined for full-rank sublattices only")
        return abs(det(self.basis))
