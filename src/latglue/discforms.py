"""Discriminant groups, finite quadratic forms, and overlattice gluing.

For an even non-degenerate lattice L the quotient A_L = L^dual / L is a
finite abelian group carrying a quadratic form q with values in Q/2Z and
the associated bilinear form b with values in Q/Z.  Finite-index even
overlattices of L correspond to the isotropic subgroups of A_L, and an
isometry of L extends to an overlattice exactly when its induced action
fixes the matching subgroup.  This module implements that dictionary plus
homomorphisms between such groups (gluing morphisms and their relatives),
entirely in exact arithmetic.

Values of q are reduced into [0, 2), values of b into [0, 1).
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod

from .exact import (
    IntMatrix,
    IntVector,
    bilinear,
    frac_inverse,
    freeze,
    gram_of_rows,
    hnf,
    identity,
    lcm_denominator,
    mat_mul,
    mat_vec,
    snf,
    solve_int,
    transpose,
)
from .lattices import Frozen, IntegerLattice, LatticeError, Sublattice, closure


class GlueError(ValueError):
    """Raised when a gluing/extension precondition fails."""


def _reduce_mod(x: Fraction, modulus: int) -> Fraction:
    return x - (x / modulus).__floor__() * modulus


class DiscriminantGroup(Frozen):
    """Finite abelian group with a Q/2Z-valued quadratic form.

    ``orders`` are the cyclic factor orders d1 | d2 | ... (all > 1);
    ``pair_gram`` is the rational matrix of pairings of the generators,
    whose diagonal read mod 2Z gives q and whose off-diagonal entries read
    mod Z give b.  Lattice-backed groups also carry rational ``lifts`` of
    the generators (coordinates in the source lattice basis) and the
    integer k x n matrix ``classes``, the quotient map: a dual vector v has
    integral pairings G v with the source basis, and its class has the
    coefficients ``classes`` * G v (reduced modulo the orders).

    The forms are evaluated in integers: with ``exponent`` e (the largest
    order, 1 for the trivial group) the matrix ``int_gram`` Q = e * pair_gram
    is integral, because d_i * pair_gram[i][j] is.  Then
    q(x) = (x Q x^T mod 2e) / e and b(x, y) = (x Q y^T mod e) / e, where
    x Q y^T is ``exact.bilinear`` on the coefficient tuples.

    Computed once per group, on first use: the isotropic subgroups of every
    order (``isotropic_spans``) and the integer data of the induced maps
    and overlattices (``cleared_lifts``, ``classes_gram``).

    Equality and the hash read ``orders``, ``pair_gram``, ``lifts`` and
    ``source`` only, so two groups that differ in ``classes`` are equal.
    """

    def __init__(self, orders, pair_gram, lifts=None, source: IntegerLattice | None = None,
                 classes=None):
        orders = tuple(int(d) for d in orders)
        pair_gram = freeze(pair_gram)
        k = len(orders)
        if any(d <= 1 for d in orders):
            raise GlueError("cyclic factor orders must exceed 1")
        if any(orders[i + 1] % orders[i] for i in range(k - 1)):
            raise GlueError("orders must form a divisibility chain d1 | d2 | ...")
        if len(pair_gram) != k or any(len(row) != k for row in pair_gram):
            raise GlueError("pairing matrix shape must match the generator count")
        if pair_gram != transpose(pair_gram):
            raise GlueError("pairing matrix must be symmetric")
        for i, d in enumerate(orders):
            if any((d * pair_gram[i][j]).denominator != 1 for j in range(k)):
                raise GlueError("bilinear values are not well-defined modulo Z")
            if (d * d * pair_gram[i][i]).denominator != 1 or (
                d * d * pair_gram[i][i]
            ).numerator % 2:
                raise GlueError("quadratic values are not well-defined modulo 2Z")
        exponent = orders[-1] if k else 1
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "pair_gram", pair_gram)
        object.__setattr__(self, "lifts", None if lifts is None else freeze(lifts))
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "classes", None if classes is None else freeze(classes))
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "int_gram", freeze(
            tuple(int(exponent * x) for x in row) for row in pair_gram
        ))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.orders, self.pair_gram, self.lifts, self.source) == (
            other.orders, other.pair_gram, other.lifts, other.source)

    def __hash__(self):
        return hash((self.orders, self.pair_gram, self.lifts, self.source))

    # -- structure ------------------------------------------------------

    @property
    def ngens(self) -> int:
        return len(self.orders)

    def order(self) -> int:
        return prod(self.orders)

    def zero(self) -> "DiscElement":
        return DiscElement(self, (0,) * self.ngens)

    def element(self, coeffs) -> "DiscElement":
        return DiscElement(self, tuple(int(c) % d for c, d in zip(coeffs, self.orders)))

    def generator(self, i: int) -> "DiscElement":
        return self.element(tuple(1 if j == i else 0 for j in range(self.ngens)))

    def elements(self):
        """All elements, in lexicographic coefficient order."""
        for coeffs in itertools.product(*(range(d) for d in self.orders)):
            yield DiscElement(self, coeffs)

    # -- the forms --------------------------------------------------------

    def q(self, x: "DiscElement") -> Fraction:
        """Quadratic form value in [0, 2)."""
        if x.parent is not self and x.parent != self:
            raise GlueError("elements belong to different groups")
        e = self.exponent
        return Fraction(bilinear(x.coeffs, self.int_gram, x.coeffs) % (2 * e), e)

    def b(self, x: "DiscElement", y: "DiscElement") -> Fraction:
        """Bilinear form value in [0, 1)."""
        for z in (x, y):
            if z.parent is not self and z.parent != self:
                raise GlueError("elements belong to different groups")
        e = self.exponent
        return Fraction(bilinear(x.coeffs, self.int_gram, y.coeffs) % e, e)

    # -- lattice-backed extras -------------------------------------------

    def lift(self, x: "DiscElement") -> tuple[Fraction, ...]:
        if self.lifts is None:
            raise GlueError("group has no lattice lifts")
        if not self.lifts:  # the trivial group has no generator lifts to add up
            return (0,) * self.source.rank
        return mat_vec(transpose(self.lifts), x.coeffs)

    @cached_property
    def cleared_lifts(self) -> tuple[tuple[IntVector, ...], tuple[int, ...]]:
        """(numerators, denominators) of the lifts, all integers.

        Lift i is ``nums[i] / dens[i]``, over the lcm of its own
        denominators; the lifts of one group (rebased ones especially, see
        ``with_generators``) need not share a denominator.
        """
        if self.lifts is None:
            raise GlueError("group has no lattice lifts")
        dens = tuple(lcm_denominator([lift]) for lift in self.lifts)
        nums = tuple(
            tuple(int(x * den) for x in lift) for lift, den in zip(self.lifts, dens)
        )
        return nums, dens

    @cached_property
    def classes_gram(self) -> IntMatrix:
        """classes * G: the class of a vector v is read off as (classes * G) v."""
        if self.source is None or self.classes is None:
            raise GlueError("group has no source lattice")
        return mat_mul(self.classes, self.source.gram)

    @cached_property
    def isotropic_spans(self) -> dict[int, list[frozenset]]:
        """Every isotropic subgroup, as a coefficient set, bucketed by order.

        Subgroups are grown from the trivial one by adjoining an isotropic
        element b-orthogonal to the generators chosen so far, one cyclic
        subgroup at a time.  This reaches every isotropic H (its elements
        are isotropic and pairwise orthogonal) and nothing else, because
        q(x + y) = q(x) + q(y) + 2 b(x, y).  Spans are deduplicated; each
        bucket is sorted by the subgroups' sorted elements.
        """
        orders, e, gram = self.orders, self.exponent, self.int_gram
        zero = self.zero().coeffs

        def add(x, y):
            return tuple((a + b) % d for a, b, d in zip(x, y, orders))

        cyclic: dict[frozenset, tuple] = {}
        for c in itertools.product(*(range(d) for d in orders)):
            if any(c) and bilinear(c, gram, c) % (2 * e) == 0:
                cyclic.setdefault(frozenset(closure([zero], [c], add)), c)
        trivial = frozenset([zero])
        found: dict[frozenset, tuple] = {trivial: ()}
        frontier = [trivial]
        while frontier:
            span = frontier.pop()
            gens = found[span]
            for line, g in cyclic.items():
                if line <= span or any(bilinear(g, gram, h) % e for h in gens):
                    continue
                joined = frozenset(closure(span, [g], add))
                if joined not in found:
                    found[joined] = gens + (g,)
                    frontier.append(joined)
        buckets: dict[int, list[frozenset]] = {}
        for span in sorted(found, key=sorted):
            buckets.setdefault(len(span), []).append(span)
        return buckets

    def element_from_dual_vector(self, v) -> "DiscElement":
        """Class of a dual vector given by rational source-lattice coordinates."""
        if self.source is None or self.classes is None:
            raise GlueError("group has no source lattice")
        if len(v) != self.source.rank:
            raise GlueError(f"vector length {len(v)} does not match rank {self.source.rank}")
        pairings = mat_vec(self.source.gram, v)
        if any(p.denominator != 1 for p in pairings):
            raise GlueError("vector is not in the dual lattice")
        return self.element(mat_vec(self.classes, pairings))


def bare_group(orders) -> DiscriminantGroup:
    """Group structure only (zero pairing data), for deserialized maps."""
    k = len(orders)
    zero = tuple(tuple(Fraction(0) for _ in range(k)) for _ in range(k))
    return DiscriminantGroup(tuple(orders), zero)


def discriminant_group(lattice: IntegerLattice) -> DiscriminantGroup:
    """A_L = L^dual / L for an even non-degenerate lattice.

    The cyclic decomposition comes from the Smith normal form U G V = D of
    the Gram matrix G.  U carries the pairings G Z^n of L onto D Z^n, so the
    rows of U with d_i > 1 are the quotient map ``classes``, and the i-th
    canonical generator lifts to G^-1 U^-1 e_i = V e_i / d_i.
    """
    if not lattice.is_even:
        raise LatticeError("discriminant quadratic form needs an even lattice")
    d, u, v = snf(lattice.gram)
    keep = [i for i in range(lattice.rank) if d[i][i] > 1]
    orders = tuple(d[i][i] for i in keep)
    cols = [tuple(row[i] for row in v) for i in keep]
    pairs = gram_of_rows(cols, lattice.gram)  # integer pairings of the V e_i
    return DiscriminantGroup(
        orders,
        tuple(tuple(Fraction(x, a * b) for x, b in zip(row, orders))
              for row, a in zip(pairs, orders)),
        tuple(tuple(Fraction(x, a) for x in col) for col, a in zip(cols, orders)),
        lattice, tuple(u[i] for i in keep),
    )


def with_generators(group: DiscriminantGroup, lifts) -> DiscriminantGroup:
    """Rebase a lattice-backed group onto a prescribed generating set.

    The given rational lift vectors must generate the whole group; their
    orders must again form a divisibility chain.
    """
    if group.source is None:
        raise GlueError("can only rebase a lattice-backed group")
    lattice = group.source
    lifts_t = freeze(tuple(Fraction(x) for x in v) for v in lifts)
    elems = [group.element_from_dual_vector(v) for v in lifts_t]
    orders = tuple(e.order() for e in elems)
    if prod(orders) != group.order():
        raise GlueError("given vectors do not freely generate the group")
    if len(span_elements(group, elems)) != group.order():
        raise GlueError("given vectors do not generate the group")
    # new coefficients -> canonical ones is a bijection; invert it on the
    # canonical generators and compose with the canonical quotient map
    onto = FiniteAbelianMap(bare_group(orders), group, transpose([e.coeffs for e in elems]))
    inverse = transpose([onto.solve(group.generator(i)).coeffs for i in range(group.ngens)])
    return DiscriminantGroup(
        orders, gram_of_rows(lifts_t, lattice.gram), lifts_t, lattice,
        mat_mul(inverse, group.classes),
    )


class DiscElement(Frozen):
    """Element of a DiscriminantGroup in canonical coefficients."""

    def __init__(self, parent: DiscriminantGroup, coeffs: tuple[int, ...]):
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "coeffs", coeffs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.parent, self.coeffs) == (other.parent, other.coeffs)

    def __hash__(self):
        return hash((self.parent, self.coeffs))

    def __add__(self, other: "DiscElement") -> "DiscElement":
        if self.parent is not other.parent and self.parent != other.parent:
            raise GlueError("elements belong to different groups")
        return self.parent.element(
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "DiscElement":
        return self.parent.element(tuple(-a for a in self.coeffs))

    def __sub__(self, other: "DiscElement") -> "DiscElement":
        return self + (-other)

    def __rmul__(self, k: int) -> "DiscElement":
        return self.parent.element(tuple(k * a for a in self.coeffs))

    def order(self) -> int:
        result = 1
        for c, d in zip(self.coeffs, self.parent.orders):
            if c:
                result = lcm(result, d // gcd(c, d))
        return result

    def is_zero(self) -> bool:
        return not any(self.coeffs)


def span_elements(parent: DiscriminantGroup, generators) -> frozenset:
    """Coefficient tuples of the subgroup generated by the given elements."""
    orders = parent.orders
    gens = [parent.element(g.coeffs if isinstance(g, DiscElement) else g).coeffs
            for g in generators]

    def add(x, y):
        return tuple((a + b) % d for a, b, d in zip(x, y, orders))

    return frozenset(closure([parent.zero().coeffs], gens, add))


class IsotropicSubgroup(Frozen):
    """Subgroup of a discriminant group on which q vanishes identically.

    Isotropy is verified on every element of the generated subgroup, not
    just the generators (q is quadratic, not linear), in integers:
    q(x) = 0 exactly when x Q x^T is divisible by 2e.
    """

    def __init__(self, parent: DiscriminantGroup, generators):
        generators = tuple(generators)
        span = span_elements(parent, generators)
        for coeffs in span:
            if bilinear(coeffs, parent.int_gram, coeffs) % (2 * parent.exponent):
                value = parent.q(parent.element(coeffs))
                raise GlueError(
                    f"subgroup is not isotropic: q({coeffs}) = {value}"
                )
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "_coeffs", span)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.parent, self.generators) == (other.parent, other.generators)

    def __hash__(self):
        return hash((self.parent, self.generators))

    def element_coeffs(self) -> frozenset:
        return self._coeffs

    def elements(self) -> list[DiscElement]:
        return [self.parent.element(c) for c in sorted(self.element_coeffs())]

    def order(self) -> int:
        return len(self.element_coeffs())


def _generating_set(group: DiscriminantGroup, subgroup: frozenset) -> tuple[DiscElement, ...]:
    gens: list[DiscElement] = []
    span = {group.zero().coeffs}
    for coeffs in sorted(subgroup, key=lambda c: (group.element(c).order(), c)):
        if coeffs in span:
            continue
        gens.append(group.element(coeffs))
        span = set(span_elements(group, gens))
        if len(span) == len(subgroup):
            break
    return tuple(gens)


def enumerate_isotropic_subgroups(group: DiscriminantGroup, order: int) -> list[IsotropicSubgroup]:
    """All isotropic subgroups of the given order, sorted by their elements.

    The group grows all its isotropic subgroups in one pass, on the first
    call (``DiscriminantGroup.isotropic_spans``); each call then keeps those
    of the given order.  An order that does not divide |A_L| gives nothing.
    """
    return [
        IsotropicSubgroup(group, _generating_set(group, s))
        for s in group.isotropic_spans.get(order, ())
    ]


def overlattice_with_basis(h: IsotropicSubgroup):
    """Overlattice pi^{-1}(H) of the source lattice of H's parent group.

    Returns (lattice, basis) where ``basis`` rows are rational coordinates
    of the new basis in the source-lattice basis, in canonical HNF form.
    """
    group = h.parent
    if group.source is None:
        raise GlueError("overlattices need a lattice-backed group")
    lattice = group.source
    n = lattice.rank
    # L and the generator lifts, all over the common denominator of the lifts
    nums, dens = group.cleared_lifts
    denom = lcm(*dens)
    lifts_t = transpose([tuple(denom // den * x for x in num)
                         for num, den in zip(nums, dens)])
    cleared = [tuple(denom * x for x in row) for row in identity(n)]
    cleared += [mat_vec(lifts_t, gen.coeffs) for gen in h.generators if any(gen.coeffs)]
    hh = [row for row in hnf(cleared)[0] if any(row)]
    if len(hh) != n:
        raise GlueError("overlattice basis has wrong rank")
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
    being even makes H isotropic.
    """
    ambient = sub.ambient
    if sub.rank != ambient.rank:
        raise GlueError("glue subgroup needs a full-rank sublattice")
    group = discriminant_group(sub.lattice())
    # column i of B G holds the pairings of the i-th ambient basis vector
    # with the rows of the basis B of T
    images = mat_mul(group.classes, mat_mul(sub.basis, ambient.gram))
    subgroup = span_elements(group, transpose(images))
    return IsotropicSubgroup(group, _generating_set(group, subgroup))


class FiniteAbelianMap(Frozen):
    """Homomorphism between discriminant groups.

    ``matrix`` columns are the images of the domain generators, written in
    the codomain generators and reduced modulo the codomain orders.
    """

    def __init__(self, domain: DiscriminantGroup, codomain: DiscriminantGroup, matrix):
        if any(int(x) != x for row in matrix for x in row):
            raise GlueError("map matrix entries must be integers")
        reduced = freeze(
            tuple(int(x) % codomain.orders[i] for x in row)
            for i, row in enumerate(matrix)
        )
        if len(reduced) != codomain.ngens or any(
            len(row) != domain.ngens for row in reduced
        ):
            raise GlueError("map matrix shape mismatch")
        for j, d in enumerate(domain.orders):
            image = codomain.element(tuple(row[j] for row in reduced))
            if not (d * image).is_zero():
                raise GlueError(
                    f"map is not well-defined: generator {j} of order {d} "
                    f"maps to an element of order {image.order()}"
                )
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "matrix", reduced)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.domain, self.codomain, self.matrix) == (
            other.domain, other.codomain, other.matrix)

    def __hash__(self):
        return hash((self.domain, self.codomain, self.matrix))

    def apply(self, x: DiscElement) -> DiscElement:
        if x.parent != self.domain:
            raise GlueError("element is not in the domain")
        return self.codomain.element(mat_vec(self.matrix, x.coeffs))

    def __call__(self, x: DiscElement) -> DiscElement:
        return self.apply(x)

    def compose(self, inner: "FiniteAbelianMap") -> "FiniteAbelianMap":
        """self after inner."""
        if inner.codomain != self.domain:
            raise GlueError("maps do not compose")
        return FiniteAbelianMap(
            inner.domain, self.codomain, mat_mul(self.matrix, inner.matrix)
        )

    def image_coeffs(self) -> frozenset:
        """The image, as the subgroup spanned by the images of the generators."""
        return span_elements(self.codomain, transpose(self.matrix))

    def is_injective(self) -> bool:
        return len(self.image_coeffs()) == self.domain.order()

    def solve(self, target: DiscElement) -> DiscElement | None:
        """One preimage of ``target`` under the map, or None."""
        if target.parent != self.codomain:
            raise GlueError("target is not in the codomain")
        k_dom = self.domain.ngens
        rows = []
        for i in range(self.codomain.ngens):
            row = list(self.matrix[i])
            row.extend(
                self.codomain.orders[i] if j == i else 0
                for j in range(self.codomain.ngens)
            )
            rows.append(tuple(row))
        sol = solve_int(freeze(rows), target.coeffs)
        if sol is None:
            return None
        return self.domain.element(sol[:k_dom])

    def to_json(self) -> str:
        return json.dumps(
            {
                "orders_dom": list(self.domain.orders),
                "orders_cod": list(self.codomain.orders),
                "matrix": [list(row) for row in self.matrix],
            }
        )

    @classmethod
    def from_json(cls, text: str, domain=None, codomain=None) -> "FiniteAbelianMap":
        """Rebuild a map from the wire format.

        The wire format carries only the group orders; unless real groups
        are supplied, the endpoints are rebuilt with zero pairing data
        (composition and solving work, form values do not).
        """
        data = json.loads(text)
        orders_dom = tuple(int(d) for d in data["orders_dom"])
        orders_cod = tuple(int(d) for d in data["orders_cod"])
        if domain is None:
            domain = bare_group(orders_dom)
        if codomain is None:
            codomain = bare_group(orders_cod)
        if domain.orders != orders_dom or codomain.orders != orders_cod:
            raise GlueError("serialized orders do not match the given groups")
        return cls(domain, codomain, freeze(data["matrix"]))


def _induced_matrix(matrix, group: DiscriminantGroup) -> IntMatrix:
    """Unreduced integer matrix of the map a source-lattice isometry induces.

    Column i is the class of M lift_i, read off its pairings:
    (classes G) M nums_i / den_i, an exact division for an isometry M.
    """
    if group.source is None or group.classes is None:
        raise GlueError("induced maps need a lattice-backed group")
    nums, dens = group.cleared_lifts
    gram = group.source.gram
    if any(int(x) != x for row in matrix for x in row):
        raise GlueError("matrix is not an isometry of the source lattice")
    m = freeze(tuple(int(x) for x in row) for row in matrix)
    n = len(gram)
    if len(m) != n or any(len(row) != n for row in m) or (
        gram_of_rows(transpose(m), gram) != gram
    ):
        raise GlueError("matrix is not an isometry of the source lattice")
    through = mat_mul(group.classes_gram, m)
    cols = []
    for num, den in zip(nums, dens):
        col = []
        for x in mat_vec(through, num):
            quotient, rest = divmod(x, den)
            if rest:
                raise GlueError("induced map is not integral: the lifts and classes disagree")
            col.append(quotient)
        cols.append(col)
    return transpose(cols)


def induced_map(matrix, group: DiscriminantGroup) -> FiniteAbelianMap:
    """Action of a source-lattice isometry on a lattice-backed group."""
    return FiniteAbelianMap(group, group, _induced_matrix(matrix, group))


def extends_to_overlattice(matrix, h: IsotropicSubgroup) -> bool:
    """Extension criterion: the induced map must fix the glue subgroup setwise.

    Only the generators of H are mapped.  M is invertible over Z, so its
    induced map is an automorphism of A_L and the image of H is a subgroup
    of order |H|; once the generators' images lie in H, that image is H.
    """
    group = h.parent
    images = _induced_matrix(matrix, group)
    coeffs = h.element_coeffs()
    return all(
        tuple(x % d for x, d in zip(mat_vec(images, g.coeffs), group.orders)) in coeffs
        for g in h.generators
    )


def extend_to_overlattice(matrix, h: IsotropicSubgroup):
    """Extended isometry matrix on the canonical overlattice basis."""
    if not extends_to_overlattice(matrix, h):
        raise GlueError("isometry does not fix the glue subgroup")
    _lattice, basis = overlattice_with_basis(h)
    basis_t = transpose(basis)
    inv = frac_inverse(basis_t)
    extended = mat_mul(mat_mul(inv, matrix), basis_t)
    if any(x.denominator != 1 for row in extended for x in row):
        raise GlueError("extension is not integral")
    return freeze(tuple(int(x) for x in row) for row in extended)


def _forms_match(gamma: FiniteAbelianMap, sign: int) -> bool:
    """q(gamma(x)) == sign * q(x) and b likewise, for every x and y.

    Checked on the generators (q) and on generator pairs (b) only: since
    q(kx) = k^2 q(x) and q(x + y) = q(x) + q(y) + 2 b(x, y), these values
    fix both forms on the whole group.
    """
    dom, cod = gamma.domain, gamma.codomain
    gens = [dom.generator(i) for i in range(dom.ngens)]
    images = [gamma.apply(g) for g in gens]
    for i, (x, y) in enumerate(zip(gens, images)):
        if cod.q(y) != _reduce_mod(sign * dom.q(x), 2):
            return False
        for j in range(i + 1, len(gens)):
            if cod.b(y, images[j]) != _reduce_mod(sign * dom.b(x, gens[j]), 1):
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
    Both sides are homomorphisms, so comparing their matrices (the images
    of the generators) decides it.
    """
    if phi_bar.domain != gamma.codomain or phi_bar.codomain != gamma.codomain:
        raise GlueError("phi_bar does not act on the gluing codomain")
    if psi_bar.domain != gamma.domain or psi_bar.codomain != gamma.domain:
        raise GlueError("psi_bar does not act on the gluing domain")
    return phi_bar.compose(gamma).matrix == gamma.compose(psi_bar).matrix


def solve_psi_bar(phi_bar: FiniteAbelianMap, gamma: FiniteAbelianMap) -> FiniteAbelianMap:
    """The unique psi_bar with gamma . psi_bar == phi_bar . gamma.

    Needs gamma injective and the image of phi_bar . gamma inside the image
    of gamma.
    """
    if phi_bar.domain != gamma.codomain:
        raise GlueError("phi_bar does not act on the gluing codomain")
    if not gamma.is_injective():
        raise GlueError("gluing morphism is not injective")
    cols = []
    for i in range(gamma.domain.ngens):
        target = phi_bar.apply(gamma.apply(gamma.domain.generator(i)))
        pre = gamma.solve(target)
        if pre is None:
            raise GlueError(
                "not extendable along this gluing: generator image leaves the glue image"
            )
        cols.append(pre.coeffs)
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

    ``matrix`` columns give the images of the abstract generators inside the
    lattice-backed ``codomain``; the anti-isometry law q_dom = -q_cod(gamma .)
    then determines the pairing matrix of the abstract group.
    """
    if codomain.source is None:
        raise GlueError("pullback needs a lattice-backed codomain")
    image_lifts = [
        codomain.lift(codomain.element(tuple(row[j] for row in matrix)))
        for j in range(len(domain_orders))
    ]
    pair = gram_of_rows(image_lifts, codomain.source.gram)
    negated = tuple(tuple(-x for x in row) for row in pair)
    return DiscriminantGroup(tuple(domain_orders), negated)


def forms_isometric(a: DiscriminantGroup, b: DiscriminantGroup):
    """Group automorphism matrix carrying form a to form b, or None.

    Backtracking over generator images; feasible for the small groups this
    artifact works with.
    """
    if a.orders != b.orders:
        return None
    elems = list(b.elements())
    chosen: list[DiscElement] = []

    def candidates(i):
        gen = a.generator(i)
        want_q = a.q(gen)
        want_order = gen.order()
        for e in elems:
            if e.order() != want_order or b.q(e) != want_q:
                continue
            if any(
                b.b(e, chosen[j]) != a.b(gen, a.generator(j))
                for j in range(len(chosen))
            ):
                continue
            yield e

    def backtrack(i):
        if i == a.ngens:
            matrix = transpose([e.coeffs for e in chosen])
            candidate = FiniteAbelianMap(a, b, matrix)
            if candidate.is_injective():
                return matrix
            return None
        for e in candidates(i):
            chosen.append(e)
            result = backtrack(i + 1)
            if result is not None:
                return result
            chosen.pop()
        return None

    return backtrack(0)
