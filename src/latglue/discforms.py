"""Discriminant groups, finite quadratic forms, and overlattice gluing.

For an even non-degenerate lattice L the quotient A_L = L^dual / L is a
finite abelian group carrying a quadratic form q with values in Q/2Z and
the associated bilinear form b with values in Q/Z.  Finite-index even
overlattices of L correspond to the isotropic subgroups of A_L, and an
isometry of L extends to an overlattice exactly when its induced action
fixes the matching subgroup.  This module implements that dictionary plus
homomorphisms between such groups (gluing morphisms and their relatives),
entirely in exact arithmetic.

An element of a group is its coefficient tuple on the cyclic generators,
reduced modulo their orders; values of q are reduced into [0, 2).

>>> A = discriminant_group(IntegerLattice(((8,),)))
>>> A.orders
(8,)
>>> A.q((1,))
Fraction(1, 8)
>>> [h.order() for h in enumerate_isotropic_subgroups(A, 2)]
[2]
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, lcm, prod
from operator import attrgetter

from .exact import (
    IntMatrix,
    IntVector,
    as_integer,
    as_matrix,
    as_sequence,
    as_vector,
    bilinear,
    freeze,
    gram_of_rows,
    hnf,
    identity,
    lcm_denominator,
    mat_mul,
    mat_vec,
    snf,
    solve_smith,
    transpose,
)
from .isometries import is_isometry_matrix, proven_isometry
from .lattices import Frozen, IntegerLattice, LatticeError, Sublattice, closure

_identity_basis = cache(lambda n: freeze(map(Fraction, row) for row in identity(n)))


class GlueError(ValueError):
    """Raised when a gluing/extension precondition fails."""


class DiscriminantGroup(Frozen):
    """Finite abelian group with a Q/2Z-valued quadratic form, stored in integers.

    ``orders`` are the cyclic factor orders d1 | d2 | ... (all > 1).  With
    ``exponent`` e (the largest order, 1 for the trivial group) ``int_gram``
    Q is e times the pairing matrix of the generators, so
    q(x) = (x Q x^T mod 2e) / e and b(x, y) = (x Q y^T mod e) / e, with
    x Q y^T by ``exact.bilinear`` on coefficient tuples.  Lattice-backed
    groups also store their generator lifts (source-lattice coordinates) as
    ``cleared_lifts`` = (nums, dens), lift i = nums[i] / dens[i] over the
    lcm of its own denominators, and the integer k x n quotient map
    ``classes``: a dual vector v has integral pairings G v with the source
    basis and the class ``classes`` * G v (reduced modulo the orders).

    The constructor clears a rational pairing matrix (diagonal mod 2Z is q,
    off-diagonal mod Z is b) and rational lifts into these integers once,
    and ``discriminant_group`` fills them from a Smith form; both run the
    same integer checks.  Built on first read: ``isotropic_generators``,
    ``classes_gram`` and ``element_table``.

    Equality and the hash (``Frozen``'s) read ``orders``, ``int_gram``, the
    integer lifts and ``source``, which fix the rational pairings and lifts
    one to one, so two groups that differ in ``classes`` are equal.
    """

    _key = attrgetter("orders", "int_gram", "_cleared", "source")

    def __init__(self, orders, pairings, lifts=None, source: IntegerLattice | None = None,
                 classes=None):
        orders = as_vector(orders, GlueError, "cyclic factor orders must be integers")
        msg = "pairing and lift entries must be integers or Fractions"
        pairings = as_matrix(pairings, GlueError, msg, fractions=True)
        lifts = None if lifts is None else as_matrix(lifts, GlueError, msg, fractions=True)
        # the scale clearing every pairing is the exponent, unless a check is to fail
        scale = lcm(orders[-1] if orders else 1, lcm_denominator(pairings))
        dens = tuple(lcm_denominator([lift]) for lift in lifts or ())
        self._store(orders, freeze(tuple(x.numerator * (scale // x.denominator) for x in row)
                                   for row in pairings), scale,
                    None if lifts is None else (
                        freeze(tuple(x.numerator * (den // x.denominator) for x in lift)
                               for lift, den in zip(lifts, dens)), dens),
                    source, classes if classes is None else
                    as_matrix(classes, GlueError, "class map entries must be integers"))

    def _store(self, orders, gram, scale, cleared, source, classes):
        """Check and set the fields, from ``gram`` = ``scale`` * pairings (e | scale)."""
        k = len(orders)
        if any(d <= 1 for d in orders):
            raise GlueError("cyclic factor orders must exceed 1")
        if any(orders[i + 1] % orders[i] for i in range(k - 1)):
            raise GlueError("orders must form a divisibility chain d1 | d2 | ...")
        if len(gram) != k or any(len(row) != k for row in gram):
            raise GlueError("pairing matrix shape must match the generator count")
        if gram != transpose(gram):
            raise GlueError("pairing matrix must be symmetric")
        for i, d in enumerate(orders):
            if any(d * x % scale for x in gram[i]):
                raise GlueError("bilinear values are not well-defined modulo Z")
            if d * d * gram[i][i] % (2 * scale):
                raise GlueError("quadratic values are not well-defined modulo 2Z")
        exponent = orders[-1] if k else 1
        self._set(orders=orders, exponent=exponent, _cleared=cleared, source=source,
                  int_gram=freeze(tuple(x // (scale // exponent) for x in row) for row in gram),
                  classes=classes)

    # -- structure ------------------------------------------------------

    @property
    def ngens(self) -> int:
        return len(self.orders)

    def order(self) -> int:
        return prod(self.orders)

    def element(self, coeffs) -> tuple[int, ...]:
        """``coeffs`` reduced mod the orders; its length is checked before its entries are read."""
        k, msg = len(self.orders), "coefficients must be integers"
        if (n := len(as_sequence(coeffs, GlueError, msg))) != k:
            raise GlueError(f"coefficient length {n} does not match {k} generators")
        return tuple(c % d for c, d in zip(as_vector(coeffs, GlueError, msg), self.orders))

    # -- the forms --------------------------------------------------------

    def q(self, x) -> Fraction:
        """Quadratic form value in [0, 2) of the coefficient tuple ``x``."""
        x, e = self.element(x), self.exponent
        return Fraction(bilinear(x, self.int_gram, x) % (2 * e), e)

    # -- lattice-backed extras -------------------------------------------

    @property
    def cleared_lifts(self) -> tuple[tuple[IntVector, ...], tuple[int, ...]]:
        """(nums, dens) of the lifts, in integers; one group's lifts need not share dens."""
        if self._cleared is None:
            raise GlueError("group has no lattice lifts")
        return self._cleared

    @cached_property
    def classes_gram(self) -> IntMatrix:
        """classes * G: the class of a vector v is read off as (classes * G) v."""
        if self.source is None or self.classes is None:
            raise GlueError("group has no source lattice")
        return mat_mul(self.classes, self.source.gram)

    @cached_property
    def isotropic_generators(self) -> dict[int, list[tuple]]:
        """Every isotropic subgroup, as the generators that grew it, bucketed by order.

        Subgroups are grown from the trivial one by adjoining an isotropic
        element b-orthogonal to the generators chosen so far, one cyclic
        subgroup at a time.  This reaches every isotropic H (its elements
        are isotropic and pairwise orthogonal) and nothing else, because
        q(x + y) = q(x) + q(y) + 2 b(x, y).  ``lattices.closure`` grows the
        spans, deduplicated, each keeping the coefficient tuples first
        adjoined to reach it (one for a cyclic subgroup, none in the span of
        those before).  Each bucket is sorted by the subgroups' sorted elements.
        """
        orders, e, gram = self.orders, self.exponent, self.int_gram
        zero = (0,) * len(orders)
        cyclic: dict[frozenset, tuple] = {}
        for c in _isotropic_coeffs(orders, gram, e)[1:]:  # [0] is zero
            cyclic.setdefault(_span(orders, [zero], [c]), c)
        found: dict[frozenset, tuple] = {frozenset([zero]): ()}

        def grow(span, line_g):
            line, g = line_g
            if line <= span or any(bilinear(g, gram, h) % e for h in found[span]):
                return span
            joined = _span(orders, span, [g])
            found.setdefault(joined, found[span] + (g,))
            return joined

        closure(list(found), list(cyclic.items()), grow)
        buckets: dict[int, list[tuple]] = {}
        for span in sorted(found, key=sorted):
            buckets.setdefault(len(span), []).append(found[span])
        return buckets

    @cached_property
    def element_table(self) -> tuple[tuple[int, int, tuple], ...]:
        """(order, x Q x^T mod 2e, x) for every element x, in lexicographic order."""
        orders, e = self.orders, self.exponent
        return tuple((_order(c, orders), bilinear(c, self.int_gram, c) % (2 * e), c)
                     for c in itertools.product(*(range(d) for d in orders)))

    def element_from_dual_vector(self, v) -> tuple[int, ...]:
        """Class of a dual vector given by rational source-lattice coordinates."""
        if self.source is None or self.classes is None:
            raise GlueError("group has no source lattice")
        v = as_vector(v, GlueError, "vector entries must be integers or Fractions", "vector",
                      True, self.source.rank)
        pairings = mat_vec(self.source.gram, v)
        if any(p.denominator != 1 for p in pairings):
            raise GlueError("vector is not in the dual lattice")
        return self.element(mat_vec(self.classes, pairings))


def _order(coeffs, orders) -> int:
    """Order of the element with these coefficients: the lcm of d_i / gcd(c_i, d_i)."""
    return lcm(*(d // gcd(c, d) for c, d in zip(coeffs, orders)))


def _reduce(matrix, orders) -> IntMatrix:
    """``matrix`` with row i reduced modulo orders[i], as ints."""
    return freeze(tuple(int(x) % d for x in row) for d, row in zip(orders, matrix))


def _isotropic_coeffs(orders, gram, e) -> list[tuple]:
    """Coefficient tuples x with x Q x^T = 0 mod 2e, in lexicographic order.

    x Q x^T is carried down the coordinates: fixing x_i adds
    x_i (2 w_i + x_i Q_ii), for w the pairing row x Q of the prefix.
    """
    if not orders:
        return [()]
    level = [((), 0, (0,) * len(orders))]
    for i, (d, row) in enumerate(zip(orders[:-1], gram)):
        level = [(x + (c,), value + c * (2 * w[i] + c * row[i]),
                  tuple(a + c * b for a, b in zip(w, row)))
                 for x, value, w in level for c in range(d)]
    last = gram[-1][-1]
    return [x + (c,) for x, value, w in level for c in range(orders[-1])
            if (value + c * (2 * w[-1] + c * last)) % (2 * e) == 0]


def bare_group(orders) -> DiscriminantGroup:
    """Group structure only (zero pairing data), as in ``with_generators``' rebasing map."""
    orders = as_vector(orders, GlueError, "cyclic factor orders must be integers")
    return DiscriminantGroup(orders, ((0,) * len(orders),) * len(orders))


def discriminant_group(lattice: IntegerLattice) -> DiscriminantGroup:
    """A_L = L^dual / L for an even non-degenerate lattice.

    The cyclic decomposition comes from the Smith normal form U G V = D of
    the Gram matrix G.  U carries the pairings G Z^n of L onto D Z^n, so the
    rows of U with d_i > 1 are the quotient map ``classes``, and the i-th
    canonical generator lifts to G^-1 U^-1 e_i = V e_i / d_i, in lowest
    terms as V is unimodular.  Q_ij = e (V e_i) G (V e_j) / (d_i d_j) divides exactly.
    """
    if not lattice.is_even:
        raise LatticeError("discriminant quadratic form needs an even lattice")
    d, u, v = snf(lattice.gram)
    keep = [i for i in range(lattice.rank) if d[i][i] > 1]
    orders = tuple(d[i][i] for i in keep)
    e = orders[-1] if orders else 1
    cols = tuple(tuple(row[i] for row in v) for i in keep)
    pairs = gram_of_rows(cols, lattice.gram)  # integer pairings of the V e_i
    group = DiscriminantGroup.__new__(DiscriminantGroup)  # the fields are integral already
    group._store(orders, tuple(tuple(e * x // (a * b) for x, b in zip(row, orders))
                               for row, a in zip(pairs, orders)),
                 e, (cols, orders), lattice, tuple(u[i] for i in keep))
    return group


def with_generators(group: DiscriminantGroup, lifts) -> DiscriminantGroup:
    """Rebase a lattice-backed group onto a prescribed generating set.

    The given rational lift vectors must generate the whole group; their
    orders must again form a divisibility chain.
    """
    if group.source is None:
        raise GlueError("can only rebase a lattice-backed group")
    lifts = as_sequence(lifts, GlueError, what="lifts")  # each one read by element_from_dual_vector
    elems = [group.element_from_dual_vector(v) for v in lifts]
    orders = tuple(_order(c, group.orders) for c in elems)
    if prod(orders) != group.order():
        raise GlueError("given vectors do not freely generate the group")
    # new coefficients -> canonical ones: as |domain| == |group|, injective
    # means bijective; invert it on the canonical generators and compose
    # with the canonical quotient map
    onto = FiniteAbelianMap(bare_group(orders), group, transpose(elems))
    if not onto.is_injective():
        raise GlueError("given vectors do not generate the group")
    inverse = transpose([onto.solve(unit) for unit in identity(group.ngens)])
    return DiscriminantGroup(
        orders, gram_of_rows(lifts, group.source.gram), lifts, group.source,
        mat_mul(inverse, group.classes),
    )


class DiscElement:
    """Never built: kept, like ``exact.solve_int``, as ``perfbench/tracer.py`` counts __add__."""

    def __add__(self, other):
        return NotImplemented


def span_elements(parent: DiscriminantGroup, generators) -> frozenset:
    """Coefficient tuples of the subgroup the given coefficient tuples generate."""
    return _span(parent.orders, [(0,) * parent.ngens], [parent.element(g) for g in generators])


def _span(orders, start, gens) -> frozenset:
    """Closure of the coefficient tuples ``start`` under adding ``gens`` modulo ``orders``."""
    return frozenset(closure(start, gens, lambda x, y: tuple(
        (a + b) % d for a, b, d in zip(x, y, orders))))


class IsotropicSubgroup(Frozen):
    """Subgroup of a discriminant group on which q vanishes identically.

    Isotropy is verified on every element of the generated subgroup, not
    just the generators (q is quadratic, not linear), in integers:
    q(x) = 0 exactly when x Q x^T is divisible by 2e.
    """

    _key = attrgetter("parent", "generators")

    def __init__(self, parent: DiscriminantGroup, generators):
        generators = as_sequence(generators, GlueError, what="generators")
        generators = tuple(map(parent.element, generators))
        span = span_elements(parent, generators)
        for coeffs in span:
            if bilinear(coeffs, parent.int_gram, coeffs) % (2 * parent.exponent):
                value = parent.q(coeffs)
                raise GlueError(f"subgroup is not isotropic: q({coeffs}) = {value}")
        self._set(parent=parent, generators=generators, _coeffs=span)

    def element_coeffs(self) -> frozenset:
        return self._coeffs

    def order(self) -> int:
        return len(self.element_coeffs())


def enumerate_isotropic_subgroups(group: DiscriminantGroup, order: int) -> list[IsotropicSubgroup]:
    """All isotropic subgroups of the given order, sorted by their elements.

    The group grows all its isotropic subgroups in one pass, on the first
    call (``DiscriminantGroup.isotropic_generators``); each call then builds
    those of the given order on the generators that grew them.  An order
    that does not divide |A_L| gives nothing; one that is not an integer
    (``exact.as_integer``) is GlueError.
    """
    order = as_integer(order, GlueError, "subgroup order must be an integer")
    return [IsotropicSubgroup(group, gens) for gens in group.isotropic_generators.get(order, ())]


def overlattice_with_basis(h: IsotropicSubgroup):
    """Overlattice pi^{-1}(H) of the source lattice of H's parent group.

    Returns (lattice, basis) where ``basis`` rows are rational coordinates
    of the new basis in the source-lattice basis, in canonical HNF form.
    H = 0 gives the source lattice itself (if even) and the identity basis (once per rank).
    """
    group = h.parent
    if group.source is None:
        raise GlueError("overlattices need a lattice-backed group")
    lattice = group.source
    n = lattice.rank
    nums, dens = group.cleared_lifts
    gens = [gen for gen in h.generators if any(gen)]
    if not gens:
        if not lattice.is_even:
            raise GlueError("overlattice of an isotropic subgroup must be even")
        return lattice, _identity_basis(n)
    # L and the generator lifts, all over the common denominator of the lifts
    denom = lcm(*dens)
    lifts_t = transpose([tuple(denom // den * x for x in num)
                         for num, den in zip(nums, dens)])
    cleared = [tuple(denom * x for x in row) for row in identity(n)]  # so hh has n rows
    cleared += [mat_vec(lifts_t, coeffs) for coeffs in gens]
    hh = [row for row in hnf(cleared) if any(row)]
    # the Gram of the cleared rows is denom^2 times the overlattice Gram
    scaled = gram_of_rows(hh, lattice.gram)
    square = denom * denom
    if any(x % square for row in scaled for x in row):
        raise GlueError("overlattice pairing is not integral")
    result = IntegerLattice(freeze(tuple(x // square for x in row) for row in scaled))
    if not result.is_even:
        raise GlueError("overlattice of an isotropic subgroup must be even")
    basis = freeze(tuple(Fraction(x, denom) for x in row) for row in hh)
    return result, basis


def overlattice_from_isotropic(h: IsotropicSubgroup) -> IntegerLattice:
    return overlattice_with_basis(h)[0]


def glue_subgroup(sub: Sublattice) -> IsotropicSubgroup:
    """Image of the ambient lattice in A_T for a full-rank sublattice T.

    This is the subgroup H with ambient = pi^{-1}(H); the ambient lattice
    being even makes H isotropic.  Its generators are the classes of the
    ambient basis vectors, zero ones included.
    """
    ambient = sub.ambient
    if sub.rank != ambient.rank:
        raise GlueError("glue subgroup needs a full-rank sublattice")
    group = discriminant_group(sub.lattice())
    # column i of B G holds the pairings of the i-th ambient basis vector
    # with the rows of the basis B of T
    images = mat_mul(group.classes, mat_mul(sub.basis, ambient.gram))
    return IsotropicSubgroup(group, transpose(images))


class FiniteAbelianMap(Frozen):
    """Homomorphism between discriminant groups.

    ``matrix`` columns are the images of the domain generators, written in
    the codomain generators and reduced modulo the codomain orders; the
    order of column j must divide d_j, which makes the map well-defined.

    The image is (M Z^k + D Z^l) / D Z^l for M = ``matrix`` and D the
    diagonal of the codomain orders, so the Smith form of [M | D] has
    |codomain| / |image| = d_1 * ... * d_l (Cohen, GTM 138, section 2.4).
    That one Smith form, computed on first use, decides ``is_injective``
    (|image| == |domain|) and solves M x = t mod D for every ``solve``.
    """

    _key = attrgetter("domain", "codomain", "matrix")

    def __init__(self, domain: DiscriminantGroup, codomain: DiscriminantGroup, matrix):
        matrix = as_matrix(matrix, GlueError, "map matrix entries must be integers")
        if len(matrix) != codomain.ngens or any(len(row) != domain.ngens for row in matrix):
            raise GlueError("map matrix shape mismatch")
        reduced = _reduce(matrix, codomain.orders)
        for j, d in enumerate(domain.orders):
            k = _order([row[j] for row in reduced], codomain.orders)
            if d % k:
                raise GlueError(
                    f"map is not well-defined: generator {j} of order {d} "
                    f"maps to an element of order {k}"
                )
        self._set(domain=domain, codomain=codomain, matrix=reduced)

    @cached_property
    def _smith(self):
        """snf([M | D]): the map's matrix next to the codomain's relations."""
        orders = self.codomain.orders
        return snf(tuple(row + tuple(d * x for x in unit)
                         for row, d, unit in zip(self.matrix, orders, identity(len(orders)))))

    def is_injective(self) -> bool:
        d = self._smith[0]
        return self.codomain.order() == self.domain.order() * prod(d[i][i] for i in range(len(d)))

    def solve(self, target) -> tuple[int, ...] | None:
        """One preimage of the coefficient tuple ``target`` under the map, or None."""
        target = self.codomain.element(target)
        if not self.codomain.ngens:  # 0 x k: the Smith form has no room for the unknowns
            return (0,) * self.domain.ngens
        sol = solve_smith(self._smith, target)
        return None if sol is None else self.domain.element(sol[:self.domain.ngens])


def _induced_matrix(matrix, group: DiscriminantGroup, used) -> IntMatrix:
    """Unreduced integer matrix of the map a source-lattice isometry induces.

    Column i is the class of M lift_i, read off its pairings:
    (classes G) M nums_i / den_i, an exact division for an isometry M.
    Only the columns in ``used`` are computed (the others are 0).  M is
    checked in any case: M as given is looked up among the matrices of
    O(L) the source lattice object kept (``proven_isometry``), then read by
    ``exact.as_matrix``, and only a miss gets M^T G M == G.
    """
    if group.source is None or group.classes is None:
        raise GlueError("induced maps need a lattice-backed group")
    nums, dens = group.cleared_lifts
    refused = "matrix is not an isometry of the source lattice"
    kept = proven_isometry(group.source, matrix)
    m = as_matrix(matrix, GlueError, refused)
    if kept is None and not is_isometry_matrix(group.source, m):
        raise GlueError(refused)
    rows = [[0] * len(nums) for _ in nums]
    for i in used:
        for row, x in zip(rows, mat_vec(group.classes_gram, mat_vec(m, nums[i]))):
            row[i], rest = divmod(x, dens[i])
            if rest:
                raise GlueError("induced map is not integral: the lifts and classes disagree")
    return rows


def induced_map(matrix, group: DiscriminantGroup) -> FiniteAbelianMap:
    """Action of a source-lattice isometry on a lattice-backed group."""
    return FiniteAbelianMap(group, group, _induced_matrix(matrix, group, range(group.ngens)))


def extends_to_overlattice(matrix, h: IsotropicSubgroup) -> bool:
    """Extension criterion: the induced map must fix the glue subgroup setwise.

    M is checked to be an isometry on every call (``_induced_matrix``); then
    only the generators of H are mapped, through the induced columns they
    use (none for the trivial subgroup).
    M is invertible over Z, so its induced map is an automorphism of A_L
    and the image of H is a subgroup of order |H|; once the generators'
    images lie in H, that image is H.
    """
    group = h.parent
    used = {i for g in h.generators for i, c in enumerate(g) if c}
    images = _induced_matrix(matrix, group, used)
    coeffs = h.element_coeffs()
    return all(
        tuple(x % d for x, d in zip(mat_vec(images, g), group.orders)) in coeffs
        for g in h.generators
    )


def _forms_match(gamma: FiniteAbelianMap, sign: int) -> bool:
    """q(gamma(x)) == sign * q(x) and b likewise, for every x and y.

    Checked on the generators (q) and on generator pairs (b) only: since
    q(kx) = k^2 q(x) and q(x + y) = q(x) + q(y) + 2 b(x, y), these values
    fix both forms on the whole group.  In integers, with exponents e, f and
    matrices Q, P of domain and codomain and y_i the image of generator i,
    (y_i P y_j) e - sign Q[i][j] f must vanish mod 2ef if i == j (q), else mod ef (b).
    """
    dom, cod = gamma.domain, gamma.codomain
    e, f, q, p = dom.exponent, cod.exponent, dom.int_gram, cod.int_gram
    images = [tuple(row[i] for row in gamma.matrix) for i in range(dom.ngens)]
    for i, row in enumerate(gram_of_rows(images, p)):
        for j in range(i, len(row)):
            if (row[j] * e - sign * q[i][j] * f) % ((2 if i == j else 1) * e * f):
                return False
    return True


def is_anti_isometry(gamma: FiniteAbelianMap) -> bool:
    """q_domain(x) == -q_codomain(gamma(x)) for every x (gamma must be injective)."""
    if not gamma.is_injective():
        raise GlueError("gluing morphism is not injective")
    return _forms_match(gamma, -1)


def glue_extension_check(
    phi_bar: FiniteAbelianMap, psi_bar: FiniteAbelianMap, gamma: FiniteAbelianMap
) -> bool:
    """phi_bar . gamma == gamma . psi_bar on every element.

    ``phi_bar`` acts on gamma's codomain, ``psi_bar`` on gamma's domain.
    Both sides are homomorphisms, so comparing the images of the generators
    decides it: Phi Gamma == Gamma Psi, rows reduced modulo the codomain orders.
    """
    if phi_bar.domain != gamma.codomain or phi_bar.codomain != gamma.codomain:
        raise GlueError("phi_bar does not act on the gluing codomain")
    if psi_bar.domain != gamma.domain or psi_bar.codomain != gamma.domain:
        raise GlueError("psi_bar does not act on the gluing domain")
    orders = gamma.codomain.orders
    return (_reduce(mat_mul(phi_bar.matrix, gamma.matrix), orders)
            == _reduce(mat_mul(gamma.matrix, psi_bar.matrix), orders))


def solve_psi_bar(phi_bar: FiniteAbelianMap, gamma: FiniteAbelianMap) -> FiniteAbelianMap:
    """The unique psi_bar with gamma . psi_bar == phi_bar . gamma.

    Needs gamma injective and the image of phi_bar . gamma inside the image
    of gamma; column i of psi_bar solves gamma x = column i of Phi Gamma.
    """
    if phi_bar.domain != gamma.codomain or phi_bar.codomain != gamma.codomain:
        raise GlueError("phi_bar does not act on the gluing codomain")
    if not gamma.is_injective():
        raise GlueError("gluing morphism is not injective")
    cols = []
    for column in transpose(mat_mul(phi_bar.matrix, gamma.matrix)):
        pre = gamma.solve(column)
        if pre is None:
            raise GlueError(
                "not extendable along this gluing: generator image leaves the glue image"
            )
        cols.append(pre)
    return FiniteAbelianMap(gamma.domain, gamma.domain, transpose(cols))


def preserves_form(auto: FiniteAbelianMap) -> bool:
    """True iff the endomorphism preserves q and b (an O(A_L) membership test)."""
    if auto.domain != auto.codomain:
        raise GlueError("form preservation needs an endomorphism")
    return auto.is_injective() and _forms_match(auto, 1)


def pullback_form(
    codomain: DiscriminantGroup, matrix, domain_orders
) -> DiscriminantGroup:
    """Abstract group with q defined as minus the pullback along a gluing.

    ``matrix`` columns give the images of the abstract generators inside
    ``codomain``, with or without a lattice behind it, checked as a map gamma
    (``FiniteAbelianMap``); the anti-isometry law q_dom = -q_cod(gamma .) then
    determines the pairing matrix of the abstract group.
    """
    gamma = FiniteAbelianMap(bare_group(domain_orders), codomain, matrix)
    # Q / e is the Gram of the lifts, so the image lifts pair as
    # C Q C^T / e, for C the reduced image columns as rows
    cols = [tuple(row[j] for row in gamma.matrix) for j in range(gamma.domain.ngens)]
    e = codomain.exponent
    return DiscriminantGroup(gamma.domain.orders, tuple(
        tuple(Fraction(-x, e) for x in row) for row in gram_of_rows(cols, codomain.int_gram)))


def forms_isometric(a: DiscriminantGroup, b: DiscriminantGroup):
    """Group automorphism matrix carrying form a to form b, or None.

    Backtracking over generator images; feasible for the small groups this
    artifact works with.  Equal orders mean one exponent e, so the forms
    compare as integers: q as x Q x^T mod 2e and b as x Q y^T mod e.  The
    order and q of every element of b are tabulated once per group
    (``DiscriminantGroup.element_table``).
    """
    return _forms_backtrack(a, b, []) if a.orders == b.orders else None


def _forms_backtrack(a: DiscriminantGroup, b: DiscriminantGroup, chosen: list):
    """``forms_isometric`` with the images ``chosen`` of a's first generators fixed."""
    i, e, qa, qb = len(chosen), a.exponent, a.int_gram, b.int_gram
    if i == a.ngens:
        matrix = transpose(chosen)
        return matrix if FiniteAbelianMap(a, b, matrix).is_injective() else None
    want = (a.orders[i], qa[i][i] % (2 * e))
    for order, q, c in b.element_table:
        if (order, q) == want and all(
            (bilinear(c, qb, h) - qa[i][j]) % e == 0 for j, h in enumerate(chosen)
        ):
            chosen.append(c)
            result = _forms_backtrack(a, b, chosen)
            if result is not None:
                return result
            chosen.pop()
    return None
