"""Classification driver for polarized invariant-lattice data.

Starting from the fixed rank-3 invariant lattice with Gram matrix
[[6,3,0],[3,6,0],[0,0,6]], this module mechanically re-derives, in exact
arithmetic, which primitive polarizations L admit an isometry of order
m in {2, 3, 6} fixing L and acting with full order on the rank-2
complement T = L^perp: the admissible orders, the admissible norms
L^2 = 6n, the surviving (L, T) pairs, the extension of each isometry
across the finite-index glue, the induced data on the discriminant
groups, and the divisibility of L in the full ambient lattice.

Candidate polarizations are grouped under the subgroup of the orthogonal
group that stabilizes the coordinate-axis pair {+-e, +-f} (order 8),
which is the symmetry the printed case tables use; the full orthogonal
group of order 24 identifies more candidates (e with e-f, e+f with
2e-f), and those merges are computed too and surfaced in reports rather
than silently applied.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .discforms import (
    DiscriminantGroup,
    FiniteAbelianMap,
    GlueError,
    IsotropicSubgroup,
    discriminant_group,
    extends_to_overlattice,
    glue_extension_check,
    glue_subgroup,
    induced_map,
    preserves_form,
    pullback_form,
    solve_psi_bar,
    with_generators,
)
from .exact import (
    IntMatrix,
    IntVector,
    frac_inverse,
    freeze,
    gram_of_rows,
    mat_mul,
    transpose,
    vec_content,
)
from .isometries import (
    Isometry,
    IsometryGroup,
    Orbit,
    admits_order3,
    orbit_witness,
    orbits,
    orthogonal_group,
    vectors_of_norm,
)
from .lattices import Frozen, IntegerLattice, LatticeError, Sublattice


_VEC3 = (int, int, int)
_MAT3 = (_VEC3, _VEC3, _VEC3)
_FRAC3 = (Fraction, Fraction, Fraction)
# Shape of the golden data: a dict lists required keys, a tuple is a list of
# exactly that many entries, a one-entry list is a list of any length,
# Fraction is a string Fraction() parses, and object is anything.
GOLDEN_SHAPE = {
    "invariant_gram": _MAT3,
    "basis_names": (str, str, str),
    "symplectic_group_order": int,
    "printed_isometry_group_order": int,
    "printed_order_bound": int,
    "printed_admissible_m": [int],
    "isometry_generators_row_convention": {"rho1": _MAT3, "rho2": _MAT3, "rho3": _MAT3},
    "dual_generator_lifts": (_FRAC3, _FRAC3, _FRAC3),
    "coinvariant_discriminant_orders": _VEC3,
    "table1": [{"norm": int, "representative": _VEC3, "name": str, "members": [_VEC3]}],
    "table2": [{
        "label": str, "m": int, "L": _VEC3, "name": str, "t_generators": (_VEC3, _VEC3),
        "phi": _MAT3, "order": int, "gamma": _MAT3, "psi_bar": _MAT3, "divisibility": int,
        "t_gram": ((int, int), (int, int)),
    }],
    "claimed_glue_lift": _FRAC3,
    "allowlist": [{"id": str, "table": str, "row": int, "cell": str,
                   "printed": object, "computed": object, "note": str}],
    "notes": [str],
}


def check_shape(value, shape, where: str = "golden data") -> None:
    """Raise GlueError naming the first place where ``value`` does not fit ``shape``."""
    if shape is object:
        return
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            raise GlueError(f"{where} is not an object")
        for key, sub in shape.items():
            if key not in value:
                raise GlueError(f"{where} has no {key!r}")
            check_shape(value[key], sub, f"{where}.{key}")
    elif isinstance(shape, (list, tuple)):
        if not isinstance(value, list) or isinstance(shape, tuple) and len(value) != len(shape):
            size = f" of {len(shape)}" if isinstance(shape, tuple) else ""
            raise GlueError(f"{where} is not a list{size}")
        for i, entry in enumerate(value):
            check_shape(entry, shape[i] if isinstance(shape, tuple) else shape[0], f"{where}[{i}]")
    elif shape is Fraction:
        try:
            Fraction(value if isinstance(value, str) else None)
        except (TypeError, ValueError, ZeroDivisionError):
            raise GlueError(f"{where} is not a fraction string") from None
    elif not isinstance(value, shape) or isinstance(value, bool):
        raise GlueError(f"{where} is not of type {shape.__name__}")


@lru_cache(maxsize=1)
def printed_tables() -> dict:
    """The shipped transcription of the printed reference tables (golden data).

    Raises GlueError if the file is not UTF-8 JSON or does not fit GOLDEN_SHAPE.
    """
    path = os.path.join(os.path.dirname(__file__), "data", "printed_tables.json")
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise GlueError(f"golden data is not UTF-8: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GlueError(f"golden data is not valid JSON: {exc}") from None
    check_shape(data, GOLDEN_SHAPE)
    return data


def _parse_frac_vector(strings) -> tuple[Fraction, ...]:
    return tuple(Fraction(s) for s in strings)


@lru_cache(maxsize=1)
def invariant_lattice_fixed() -> IntegerLattice:
    return IntegerLattice(freeze(printed_tables()["invariant_gram"]))


@lru_cache(maxsize=1)
def invariant_discriminant() -> DiscriminantGroup:
    """A of the invariant lattice, on the pinned dual generators f1, f2, f3."""
    lattice = invariant_lattice_fixed()
    lifts = [_parse_frac_vector(v) for v in printed_tables()["dual_generator_lifts"]]
    return with_generators(discriminant_group(lattice), lifts)


@lru_cache(maxsize=1)
def full_isometry_group() -> IsometryGroup:
    return orthogonal_group(invariant_lattice_fixed())


@lru_cache(maxsize=1)
def case_symmetry_group() -> IsometryGroup:
    """Stabilizer of the axis pair {+-e, +-f} inside the full group (order 8)."""
    axis = {(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)}
    full = full_isometry_group()
    return full.subgroup_where(
        lambda g: g.apply((1, 0, 0)) in axis and g.apply((0, 1, 0)) in axis
    )


def vector_name(v: IntVector) -> str:
    """Human-readable combination of the basis letters, e.g. '2e-f+h'."""
    names = printed_tables()["basis_names"]
    parts = []
    for coeff, letter in zip(v, names):
        if coeff == 0:
            continue
        sign = "-" if coeff < 0 else ("+" if parts else "")
        mag = abs(coeff)
        parts.append(f"{sign}{'' if mag == 1 else mag}{letter}")
    return "".join(parts) if parts else "0"


def totient(n: int) -> int:
    count = 0
    for k in range(1, n + 1):
        if gcd(k, n) == 1:
            count += 1
    return count


def admissible_orders() -> frozenset[int]:
    """Orders of a non-trivial cyclic action on a rank-2 complement.

    The rank bound allows exactly totient(m) <= 2, i.e. m in {2,3,4,6};
    orders without an isometry of the invariant lattice are then dropped.
    """
    totient_ok = [m for m in range(2, 7) if totient(m) <= 2]
    group = full_isometry_group()
    return frozenset(m for m in totient_ok if group.has_element_of_order(m))


def _binary_form_exists(k: int) -> bool:
    """Is k = 4ac - b^2 solvable with a reduced positive form (-a < b <= a <= c)?"""
    a = 1
    while 3 * a * a <= k:
        for b in range(-a + 1, a + 1):
            rem = k + b * b
            if rem % (4 * a) == 0 and rem // (4 * a) >= a:
                return True
        a += 1
    return False


def admissible_n(m: int) -> frozenset[int]:
    """Norms L^2 = 6n compatible with an order-m action and the glue index."""
    if m == 2:
        hits = set()
        for n in range(1, 13):
            if 12 % n == 0 and _binary_form_exists(12 // n):
                hits.add(n)
        return frozenset(hits)
    if m == 3:
        return frozenset(n for n in (1, 9) if any(n * a * a == 9 for a in (1, 2, 3)))
    raise LatticeError("admissible norms are defined for m = 2 or 3")


ORDER3_BLOCK: IntMatrix = ((-1, -1), (1, 0))


class ClassificationCase(Frozen):
    """One surviving polarization class with its full extension data."""

    def __init__(
        self, m: int, name: str, polarization: IntVector, orbit_rep: IntVector,
        orbit_size: int, witness: IntMatrix, n: int, t_basis: IntMatrix, t_gram: IntMatrix,
        index: int, phi: IntMatrix, order: int, gamma: IntMatrix, psi_bar: IntMatrix,
        divisibility: int,
    ):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "polarization", polarization)
        object.__setattr__(self, "orbit_rep", orbit_rep)
        object.__setattr__(self, "orbit_size", orbit_size)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "t_basis", t_basis)
        object.__setattr__(self, "t_gram", t_gram)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "psi_bar", psi_bar)
        object.__setattr__(self, "divisibility", divisibility)


class ExcludedCandidate(Frozen):
    def __init__(self, m: int, name: str, representative: IntVector, norm: int, reason: str):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "representative", representative)
        object.__setattr__(self, "norm", norm)
        object.__setattr__(self, "reason", reason)


def _printed_gamma(m: int, name: str) -> IntMatrix:
    for row in printed_tables()["table2"]:
        if row["m"] == m and row["name"] == name:
            return freeze(row["gamma"])
    raise LatticeError(f"no printed gluing data for m={m}, L={name}")


def coinvariant_form(gamma_matrix: IntMatrix) -> DiscriminantGroup:
    """Quadratic form on the coinvariant discriminant group (orders 3,3,9).

    No Gram matrix for the coinvariant lattice is part of the input data;
    its form is defined here as minus the pullback of the invariant-side
    form along the given gluing matrix.
    """
    orders = tuple(printed_tables()["coinvariant_discriminant_orders"])
    return pullback_form(invariant_discriminant(), gamma_matrix, orders)


@lru_cache(maxsize=1)
def reference_coinvariant_form() -> DiscriminantGroup:
    """The pullback along the first printed gluing row, used as reference."""
    first = printed_tables()["table2"][0]
    return coinvariant_form(freeze(first["gamma"]))


def gluing_map(m: int, name: str) -> FiniteAbelianMap:
    """Printed gluing morphism as a map from the coinvariant group.

    The domain carries the pulled-back form, so the map is an anti-isometry
    onto its image by construction; injectivity and well-definedness are
    still verified.
    """
    matrix = _printed_gamma(m, name)
    domain = coinvariant_form(matrix)
    gamma = FiniteAbelianMap(domain, invariant_discriminant(), matrix)
    if not gamma.is_injective():
        raise GlueError(f"printed gluing for m={m}, L={name} is not injective")
    return gamma


def order_isometry_block(m: int, t_lattice: IntegerLattice) -> IntMatrix:
    """Order-m block acting on the complement basis (identity on L).

    For m = 2 this is -1; for m = 3 the fixed rotation matrix is used when
    it preserves the Gram matrix (it does for the one surviving case), and
    otherwise the smallest order-3 element of O(T) is taken.
    """
    if m == 2:
        return ((-1, 0), (0, -1))
    if m == 3:
        g = t_lattice.gram
        if gram_of_rows(transpose(ORDER3_BLOCK), g) == g:
            return ORDER3_BLOCK
        group = orthogonal_group(t_lattice)
        for elem in group.elements:
            if elem.order == 3:
                return elem.matrix
        raise LatticeError("complement admits no order-3 isometry")
    raise LatticeError("blocks are built for m = 2 or 3 only")


def extend_block_isometry(
    t_sub: Sublattice, polarization: IntVector, block: IntMatrix
) -> tuple[IntMatrix, IsotropicSubgroup | None]:
    """Extend block (on T) + identity (on L) across the glue to the ambient.

    Returns the integer matrix on the ambient basis.  For index > 1 the
    extension criterion (the induced map fixes the glue subgroup) is
    cross-checked against direct integrality of the conjugated matrix.
    """
    ambient = t_sub.ambient
    rows = t_sub.basis + (tuple(polarization),)
    full_sub = Sublattice(ambient, rows)
    k = t_sub.rank
    phi_t = tuple(
        tuple(
            (block[i][j] if i < k and j < k else int(i == j))
            for j in range(k + 1)
        )
        for i in range(k + 1)
    )
    # A vector with (T, L)-coordinates y has ambient coordinates R^T y,
    # so the ambient action is R^T . phi_t . (R^T)^-1.
    basis_t = transpose(rows)
    conj = mat_mul(mat_mul(basis_t, phi_t), frac_inverse(basis_t))
    integral = all(x.denominator == 1 for row in conj for x in row)

    glue = None
    if full_sub.index() > 1:
        glue = glue_subgroup(full_sub)
        fixes = extends_to_overlattice(phi_t, glue)
        if fixes != integral:
            raise LatticeError(
                "extension criterion disagrees with direct integrality"
            )
        if not fixes:
            raise GlueError(
                f"isometry does not extend: induced map moves the glue subgroup "
                f"of order {glue.order()}"
            )
    elif not integral:
        raise GlueError("block isometry does not extend over the trivial glue")
    matrix = freeze(tuple(int(x) for x in row) for row in conj)
    return matrix, glue


def ambient_divisibility(polarization: IntVector, gamma: FiniteAbelianMap) -> int:
    """Divisibility of L inside the full ambient lattice, via the gluing.

    Equals the gcd of the pairings of L with the invariant lattice together
    with lifts of the glued image of the coinvariant discriminant group.
    """
    lattice = invariant_lattice_fixed()
    group = gamma.codomain
    g = lattice.divisibility(polarization)
    for i in range(gamma.domain.ngens):
        image = gamma.apply(gamma.domain.generator(i))
        pairing = lattice.pairing(polarization, group.lift(image))
        if pairing.denominator != 1:
            raise GlueError("polarization does not pair integrally with the glue")
        g = gcd(g, pairing)
    return g


def _glue_data(m: int, name: str, phi: IntMatrix, polarization: IntVector) -> dict:
    """Gluing, solved psi_bar and ambient divisibility for an extension phi.

    The keys are the matching ClassificationCase fields.
    """
    gamma = gluing_map(m, name)
    phi_bar = induced_map(phi, invariant_discriminant())
    psi_bar = solve_psi_bar(phi_bar, gamma)
    if not glue_extension_check(phi_bar, psi_bar, gamma):
        raise GlueError(f"order-{m} psi_bar fails the gluing equation")
    if not preserves_form(psi_bar):
        raise GlueError(f"order-{m} psi_bar does not preserve the pulled-back form")
    return {
        "gamma": gamma.matrix,
        "psi_bar": psi_bar.matrix,
        "divisibility": ambient_divisibility(polarization, gamma),
    }


def build_extension(
    m: int, orbit: Orbit, t_sub: Sublattice, index: int
) -> ClassificationCase:
    """Fill in isometry, gluing, psi_bar and divisibility for one orbit."""
    lattice = invariant_lattice_fixed()
    polarization = max(orbit.members)
    name = vector_name(polarization)
    block = order_isometry_block(m, t_sub.lattice())
    phi_matrix, _glue = extend_block_isometry(t_sub, polarization, block)
    phi = Isometry(lattice, phi_matrix)
    if phi.apply(polarization) != polarization:
        raise LatticeError("extension does not fix the polarization")
    if phi.order != m:
        raise LatticeError(f"extension has order {phi.order}, expected {m}")
    glue = _glue_data(m, name, phi_matrix, polarization)
    witness = orbit_witness(case_symmetry_group(), orbit.representative, polarization)
    norm = lattice.norm(polarization)
    return ClassificationCase(
        m=m,
        name=name,
        polarization=polarization,
        orbit_rep=orbit.representative,
        orbit_size=orbit.size,
        witness=witness.matrix,
        n=norm // 6,
        t_basis=t_sub.basis,
        t_gram=t_sub.gram(),
        index=index,
        phi=phi_matrix,
        order=phi.order,
        **glue,
    )


def classify(m: int) -> tuple[tuple[ClassificationCase, ...], tuple[ExcludedCandidate, ...]]:
    """All surviving polarization classes for an order-m action.

    For m in {2, 3} this runs the full derivation; m = 6 is the closure of
    the other two (see order6_closure).
    """
    if m == 6:
        cases2, _ = classify(2)
        cases3, _ = classify(3)
        return order6_closure(cases2, cases3), ()
    if m not in (2, 3):
        raise LatticeError("classification is defined for m in {2, 3, 6}")
    lattice = invariant_lattice_fixed()
    sym = case_symmetry_group()
    cases: list[ClassificationCase] = []
    excluded: list[ExcludedCandidate] = []
    for n in sorted(admissible_n(m)):
        norm = 6 * n
        vectors = vectors_of_norm(lattice, norm)
        primitive = [v for v in vectors if vec_content(v) == 1]
        imprimitive = [v for v in vectors if vec_content(v) != 1]
        for orbit in orbits(sym, imprimitive):
            rep = max(orbit.members)
            excluded.append(
                ExcludedCandidate(m, vector_name(rep), rep, norm, "not primitive")
            )
        for orbit in orbits(sym, primitive):
            rep = max(orbit.members)
            t_sub = lattice.span((rep,)).orthogonal_complement()
            t_gram = t_sub.gram()
            t_det = t_gram[0][0] * t_gram[1][1] - t_gram[0][1] * t_gram[1][0]
            full_sub = Sublattice(lattice, t_sub.basis + (rep,))
            index = full_sub.index()
            if index not in (1, m):
                expected = 162 * m * m // norm
                excluded.append(
                    ExcludedCandidate(
                        m,
                        vector_name(rep),
                        rep,
                        norm,
                        f"det(T_X) = {t_det} != {expected} forced by glue index {m}"
                        f" (actual index {index})",
                    )
                )
                continue
            if m == 3 and not admits_order3(t_sub.lattice()):
                excluded.append(
                    ExcludedCandidate(
                        m,
                        vector_name(rep),
                        rep,
                        norm,
                        "complement admits no order-3 isometry",
                    )
                )
                continue
            cases.append(build_extension(m, orbit, t_sub, index))
    order_key = {"h": 0, "e-f": 1, "e": 2, "e+f": 3, "2e-f": 4}
    cases.sort(key=lambda c: (c.n, order_key.get(c.name, 99), c.polarization))
    return tuple(cases), tuple(excluded)


def order6_closure(
    cases2: tuple[ClassificationCase, ...], cases3: tuple[ClassificationCase, ...]
) -> tuple[ClassificationCase, ...]:
    """Order-6 cases: polarizations carrying both an order-2 and order-3 action.

    Matching is on (orbit of L, Gram of the complement); the order-6
    isometry is the product of the two commuting extensions.
    """
    lattice = invariant_lattice_fixed()
    result = []
    for c2 in cases2:
        for c3 in cases3:
            if c2.orbit_rep != c3.orbit_rep or c2.t_gram != c3.t_gram:
                continue
            product = mat_mul(c2.phi, c3.phi)
            if mat_mul(c3.phi, c2.phi) != product:
                raise LatticeError("order-2 and order-3 extensions do not commute")
            phi = Isometry(lattice, product)
            if phi.order != 6:
                raise LatticeError(f"product isometry has order {phi.order}")
            result.append(
                ClassificationCase(
                    m=6, name=c2.name, polarization=c2.polarization,
                    orbit_rep=c2.orbit_rep, orbit_size=c2.orbit_size, witness=c2.witness,
                    n=c2.n, t_basis=c2.t_basis, t_gram=c2.t_gram, index=c2.index,
                    phi=product, order=6,
                    **_glue_data(6, c2.name, product, c2.polarization),
                )
            )
    return tuple(result)


def order_bound_report() -> dict:
    """The arithmetic of the maximal extension order."""
    data = printed_tables()
    g0 = data["symplectic_group_order"]
    orders = sorted(admissible_orders())
    cases2, _ = classify(2)
    cases3, _ = classify(3)
    cases6 = order6_closure(cases2, cases3)
    return {
        "symplectic_group_order": g0,
        "admissible_orders": orders,
        "max_order": max(orders),
        "bound": g0 * max(orders),
        "case_counts": {"2": len(cases2), "3": len(cases3), "6": len(cases6)},
    }
