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
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

from .exact import (
    frac_inverse,
    freeze,
    gram_of_rows,
    hnf,
    int_inverse,
    lcm_denominator,
    mat_mul,
    mat_vec,
    snf,
    solve_int,
    transpose,
)
from .lattices import IntegerLattice, LatticeError, Sublattice, closure


class GlueError(ValueError):
    """Raised when a gluing/extension precondition fails."""


def _reduce_mod(x: Fraction, modulus: int) -> Fraction:
    return x - (x / modulus).__floor__() * modulus


@dataclass(frozen=True)
class DiscriminantGroup:
    """Finite abelian group with a Q/2Z-valued quadratic form.

    ``orders`` are the cyclic factor orders d1 | d2 | ... (all > 1);
    ``pair_gram`` is the rational matrix of pairings of the generators,
    whose diagonal read mod 2Z gives q and whose off-diagonal entries read
    mod Z give b.  Lattice-backed groups also carry rational ``lifts`` of
    the generators (coordinates in the source lattice basis).
    """

    orders: tuple[int, ...]
    pair_gram: tuple[tuple[Fraction, ...], ...]
    lifts: tuple[tuple[Fraction, ...], ...] | None = None
    source: IntegerLattice | None = None

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(int(d) for d in self.orders))
        object.__setattr__(self, "pair_gram", freeze(self.pair_gram))
        if self.lifts is not None:
            object.__setattr__(self, "lifts", freeze(self.lifts))
        k = len(self.orders)
        if any(d <= 1 for d in self.orders):
            raise GlueError("cyclic factor orders must exceed 1")
        if any(self.orders[i + 1] % self.orders[i] for i in range(k - 1)):
            raise GlueError("orders must form a divisibility chain d1 | d2 | ...")
        if len(self.pair_gram) != k or any(len(row) != k for row in self.pair_gram):
            raise GlueError("pairing matrix shape must match the generator count")
        if self.pair_gram != transpose(self.pair_gram):
            raise GlueError("pairing matrix must be symmetric")
        for i, d in enumerate(self.orders):
            if any((d * self.pair_gram[i][j]).denominator != 1 for j in range(k)):
                raise GlueError("bilinear values are not well-defined modulo Z")
            if (d * d * self.pair_gram[i][i]).denominator != 1 or (
                d * d * self.pair_gram[i][i]
            ).numerator % 2:
                raise GlueError("quadratic values are not well-defined modulo 2Z")

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
        total = Fraction(0)
        c = x.coeffs
        for i in range(self.ngens):
            for j in range(self.ngens):
                total += c[i] * c[j] * self.pair_gram[i][j]
        return _reduce_mod(total, 2)

    def b(self, x: "DiscElement", y: "DiscElement") -> Fraction:
        """Bilinear form value in [0, 1)."""
        if x.parent != self or y.parent != self:
            raise GlueError("elements belong to different groups")
        total = Fraction(0)
        for i in range(self.ngens):
            for j in range(self.ngens):
                total += x.coeffs[i] * y.coeffs[j] * self.pair_gram[i][j]
        return _reduce_mod(total, 1)

    # -- lattice-backed extras -------------------------------------------

    def lift(self, x: "DiscElement") -> tuple[Fraction, ...]:
        if self.lifts is None:
            raise GlueError("group has no lattice lifts")
        n = len(self.lifts[0])
        return tuple(
            sum((Fraction(x.coeffs[i]) * self.lifts[i][j] for i in range(self.ngens)),
                Fraction(0))
            for j in range(n)
        )

    def element_from_dual_vector(self, v) -> "DiscElement":
        """Class of a dual vector given by rational source-lattice coordinates."""
        if self.source is None or self.lifts is None:
            raise GlueError("group has no source lattice")
        vv = tuple(Fraction(x) for x in v)
        pairings = mat_vec(self.source.gram, vv)
        if any(p.denominator != 1 for p in pairings):
            raise GlueError("vector is not in the dual lattice")
        # Solve sum_i c_i * lifts_i = v modulo the source lattice, exactly:
        # clear denominators and solve the integer system [L^T | D*I] z = D*v.
        denom = lcm(lcm_denominator(self.lifts), lcm_denominator([vv]))
        n = len(vv)
        cols = []
        for i in range(self.ngens):
            cols.append([int(self.lifts[i][j] * denom) for j in range(n)])
        for j in range(n):
            cols.append([denom if jj == j else 0 for jj in range(n)])
        matrix = tuple(tuple(col[j] for col in cols) for j in range(n))
        target = tuple(int(x * denom) for x in vv)
        sol = solve_int(matrix, target)
        if sol is None:
            raise GlueError("vector class is not generated by the group generators")
        return self.element(sol[: self.ngens])


def bare_group(orders) -> DiscriminantGroup:
    """Group structure only (zero pairing data), for deserialized maps."""
    k = len(orders)
    zero = tuple(tuple(Fraction(0) for _ in range(k)) for _ in range(k))
    return DiscriminantGroup(tuple(orders), zero)


def discriminant_group(lattice: IntegerLattice) -> DiscriminantGroup:
    """A_L = L^dual / L for an even non-degenerate lattice.

    The cyclic decomposition comes from the Smith normal form of the Gram
    matrix; generator lifts are explicit rational vectors.
    """
    if not lattice.is_even:
        raise LatticeError("discriminant quadratic form needs an even lattice")
    d, u, _v = snf(lattice.gram)
    uinv = int_inverse(u)
    ginv = frac_inverse(lattice.gram)
    w = mat_mul(ginv, uinv)  # column i lifts the i-th canonical generator
    orders = []
    lifts = []
    n = lattice.rank
    for i in range(n):
        di = d[i][i]
        if di > 1:
            orders.append(di)
            lifts.append(tuple(w[j][i] for j in range(n)))
    lifts_t = freeze(lifts)
    pair = gram_of_rows(lifts_t, lattice.gram)
    return DiscriminantGroup(tuple(orders), pair, lifts_t, lattice)


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
    return DiscriminantGroup(orders, gram_of_rows(lifts_t, lattice.gram), lifts_t, lattice)


@dataclass(frozen=True)
class DiscElement:
    """Element of a DiscriminantGroup in canonical coefficients."""

    parent: DiscriminantGroup
    coeffs: tuple[int, ...]

    def __add__(self, other: "DiscElement") -> "DiscElement":
        if self.parent != other.parent:
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


@dataclass(frozen=True)
class IsotropicSubgroup:
    """Subgroup of a discriminant group on which q vanishes identically.

    Isotropy is verified on every element of the generated subgroup, not
    just the generators (q is quadratic, not linear).
    """

    parent: DiscriminantGroup
    generators: tuple[DiscElement, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        for coeffs in self.element_coeffs():
            value = self.parent.q(self.parent.element(coeffs))
            if value != 0:
                raise GlueError(
                    f"subgroup is not isotropic: q({coeffs}) = {value}"
                )

    def element_coeffs(self) -> frozenset:
        return span_elements(self.parent, self.generators)

    def elements(self) -> list[DiscElement]:
        return [self.parent.element(c) for c in sorted(self.element_coeffs())]

    def order(self) -> int:
        return len(self.element_coeffs())


def _all_subgroups_of_order(group: DiscriminantGroup, order: int) -> list[frozenset]:
    """All subgroups of exactly the given order, as coefficient-tuple sets.

    Breadth-first closure over joins with cyclic subgroups, tracking small
    generating sets; group orders in this artifact stay small (a few
    hundred elements), so this is cheap.
    """
    if order < 1 or group.order() % order:
        return []
    zero = group.zero().coeffs
    trivial = frozenset([zero])
    if order == 1:
        return [trivial]
    cyclic: dict[frozenset, tuple] = {}
    for elem in group.elements():
        if elem.is_zero():
            continue
        span = span_elements(group, [elem])
        if len(span) <= order and order % len(span) == 0 and span not in cyclic:
            cyclic[span] = elem.coeffs
    found: dict[frozenset, tuple] = {trivial: ()}
    frontier = [trivial]
    while frontier:
        current = frontier.pop()
        if len(current) == order:
            continue
        gens = found[current]
        for span, gen in cyclic.items():
            if span <= current:
                continue
            joined = span_elements(
                group, [group.element(c) for c in gens + (gen,)]
            )
            if len(joined) <= order and order % len(joined) == 0 and joined not in found:
                found[joined] = gens + (gen,)
                frontier.append(joined)
    return sorted((s for s in found if len(s) == order), key=sorted)


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
    """All isotropic subgroups of the given order, by exhaustive search."""
    result = []
    for subgroup in _all_subgroups_of_order(group, order):
        if all(group.q(group.element(c)) == 0 for c in subgroup):
            result.append(IsotropicSubgroup(group, _generating_set(group, subgroup)))
    return result


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
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for gen in h.generators:
        rows.append(list(group.lift(gen)))
    denom = lcm_denominator(rows)
    cleared = freeze(tuple(int(x * denom) for x in row) for row in rows)
    hh, _ = hnf(cleared)
    basis = freeze(
        tuple(Fraction(x, denom) for x in row) for row in hh if any(row)
    )
    if len(basis) != n:
        raise GlueError("overlattice basis has wrong rank")
    gram = gram_of_rows(basis, lattice.gram)
    if any(x.denominator != 1 for row in gram for x in row):
        raise GlueError("overlattice pairing is not integral")
    gram_int = freeze(tuple(int(x) for x in row) for row in gram)
    result = IntegerLattice(gram_int)
    if not result.is_even:
        raise GlueError("overlattice of an isotropic subgroup must be even")
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
    gens = []
    for i in range(ambient.rank):
        basis_vec = tuple(int(i == j) for j in range(ambient.rank))
        coords = sub.coordinates_of(basis_vec)
        gens.append(group.element_from_dual_vector(coords))
    subgroup = span_elements(group, gens)
    return IsotropicSubgroup(group, _generating_set(group, subgroup))


@dataclass(frozen=True)
class FiniteAbelianMap:
    """Homomorphism between discriminant groups.

    ``matrix`` columns are the images of the domain generators, written in
    the codomain generators and reduced modulo the codomain orders.
    """

    domain: DiscriminantGroup
    codomain: DiscriminantGroup
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        reduced = freeze(
            tuple(int(x) % self.codomain.orders[i] for x in row)
            for i, row in enumerate(self.matrix)
        )
        object.__setattr__(self, "matrix", reduced)
        if len(reduced) != self.codomain.ngens or any(
            len(row) != self.domain.ngens for row in reduced
        ):
            raise GlueError("map matrix shape mismatch")
        for j, d in enumerate(self.domain.orders):
            image = self.codomain.element(tuple(row[j] for row in reduced))
            if not (d * image).is_zero():
                raise GlueError(
                    f"map is not well-defined: generator {j} of order {d} "
                    f"maps to an element of order {image.order()}"
                )

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
        return frozenset(self.apply(x).coeffs for x in self.domain.elements())

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

    def fixes_subgroup(self, coeff_set: frozenset) -> bool:
        return frozenset(
            self.apply(self.domain.element(c)).coeffs for c in coeff_set
        ) == coeff_set

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


def induced_map(matrix, group: DiscriminantGroup) -> FiniteAbelianMap:
    """Action of a source-lattice isometry on a lattice-backed group."""
    if group.source is None:
        raise GlueError("induced maps need a lattice-backed group")
    gram = group.source.gram
    if gram_of_rows(transpose(matrix), gram) != gram:
        raise GlueError("matrix is not an isometry of the source lattice")
    cols = []
    for i in range(group.ngens):
        image_lift = mat_vec(matrix, group.lifts[i])
        cols.append(group.element_from_dual_vector(image_lift).coeffs)
    return FiniteAbelianMap(group, group, transpose(cols))


def extends_to_overlattice(matrix, h: IsotropicSubgroup) -> bool:
    """Extension criterion: the induced map must fix the glue subgroup setwise."""
    bar = induced_map(matrix, h.parent)
    return bar.fixes_subgroup(h.element_coeffs())


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


def is_anti_isometry(gamma: FiniteAbelianMap) -> bool:
    """q_domain(x) == -q_codomain(gamma(x)) for every x, by full enumeration."""
    if not gamma.is_injective():
        raise GlueError("gluing morphism is not injective")
    for x in gamma.domain.elements():
        lhs = gamma.domain.q(x)
        rhs = _reduce_mod(-gamma.codomain.q(gamma.apply(x)), 2)
        if lhs != rhs:
            return False
    return True


def glue_extension_check(
    phi_bar: FiniteAbelianMap, psi_bar: FiniteAbelianMap, gamma: FiniteAbelianMap
) -> bool:
    """phi_bar . gamma == gamma . psi_bar on every element.

    ``phi_bar`` acts on gamma's codomain, ``psi_bar`` on gamma's domain.
    """
    if phi_bar.domain != gamma.codomain or phi_bar.codomain != gamma.codomain:
        raise GlueError("phi_bar does not act on the gluing codomain")
    if psi_bar.domain != gamma.domain or psi_bar.codomain != gamma.domain:
        raise GlueError("psi_bar does not act on the gluing domain")
    for x in gamma.domain.elements():
        if phi_bar.apply(gamma.apply(x)) != gamma.apply(psi_bar.apply(x)):
            return False
    return True


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
    group = auto.domain
    if not auto.is_injective():
        return False
    elems = list(group.elements())
    for x in elems:
        if group.q(auto.apply(x)) != group.q(x):
            return False
    for i in range(group.ngens):
        for j in range(i, group.ngens):
            x, y = group.generator(i), group.generator(j)
            if group.b(auto.apply(x), auto.apply(y)) != group.b(x, y):
                return False
    return True


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
