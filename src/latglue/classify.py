"""Classification driver for polarized invariant-lattice data.

Starting from the fixed rank-3 invariant lattice with Gram matrix
[[6,3,0],[3,6,0],[0,0,6]], this module mechanically re-derives, in exact
arithmetic, which primitive polarizations L admit an isometry of order
m in {2, 3, 6} fixing L and acting with full order on the rank-2
complement T = L^perp: the admissible orders, the admissible norms
L^2 = 6n, the surviving (L, T) pairs, each case's isometry (an element
of O(L_inv) of order m whose fixed lattice is ZL, checked against the
glue extension criterion; this table alone decides whether a candidate
is a case), the induced data on the discriminant groups, and the
divisibility of L in the full ambient lattice.  Each found case and
each excluded candidate is one frozen ``Row`` of exactly the printed keys.

Candidate polarizations are grouped under the subgroup of the orthogonal
group that stabilizes the coordinate-axis pair {+-e, +-f} (order 8),
which is the symmetry the printed case tables use; the full orthogonal
group of order 24 identifies more candidates (e with e-f, e+f with
2e-f), and those merges are computed too and surfaced in reports rather
than silently applied.

>>> sorted(admissible_n(2))
[1, 3, 4]
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
    det,
    freeze,
    gram_of_rows,
    mat_mul,
    mat_vec,
    right_kernel,
    solve_int,
    transpose,
)
from .isometries import (
    Isometry,
    IsometryGroup,
    Orbit,
    matrix_order,
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
    "printed_invariant_discriminant_orders": _VEC3,
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
    except (ValueError, RecursionError) as exc:  # too deep, or past the int-digit limit
        raise GlueError(f"golden data is not valid JSON: {exc}") from None
    check_shape(data, GOLDEN_SHAPE)
    return data


@lru_cache(maxsize=1)
def invariant_lattice_fixed() -> IntegerLattice:
    return IntegerLattice(freeze(printed_tables()["invariant_gram"]))


@lru_cache(maxsize=1)
def invariant_discriminant() -> DiscriminantGroup:
    """A of the invariant lattice, on the pinned dual generators f1, f2, f3."""
    lattice = invariant_lattice_fixed()
    lifts = [tuple(map(Fraction, v)) for v in printed_tables()["dual_generator_lifts"]]
    return with_generators(discriminant_group(lattice), lifts)


def full_isometry_group() -> IsometryGroup:
    return orthogonal_group(invariant_lattice_fixed())


@lru_cache(maxsize=1)
def case_symmetry_group() -> IsometryGroup:
    """Stabilizer of the axis pair {+-e, +-f} inside the full group (order 8)."""
    axis = {(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)}
    full = full_isometry_group()
    return IsometryGroup(full.lattice, tuple(
        g for g in full.elements if g.apply((1, 0, 0)) in axis and g.apply((0, 1, 0)) in axis
    ))


def vector_name(v: IntVector) -> str:
    """Human-readable combination of the basis letters, e.g. '2e-f+h'."""
    names = printed_tables()["basis_names"]
    text = "".join(f"{'-' if c < 0 else '+'}{'' if abs(c) == 1 else abs(c)}{letter}"
                   for c, letter in zip(v, names) if c)
    return text.removeprefix("+") or "0"


@lru_cache(maxsize=1)
def fixed_lattices() -> tuple[tuple[Isometry, IntMatrix], ...]:
    """Each element g of O(L_inv), in sort order, with the Hermite basis of ker(g - 1)."""
    return tuple((g, right_kernel(tuple(tuple(x - (i == j) for j, x in enumerate(row))
                                        for i, row in enumerate(g.matrix))))
                 for g in full_isometry_group().elements)


def admissible_orders() -> frozenset[int]:
    """Orders of the elements of O(L_inv) whose fixed lattice has rank 1.

    Such an element fixes a line ZL and no vector of T = L^perp, which is
    what an order-m action on the polarized lattice needs.
    """
    return frozenset(g.order for g, kernel in fixed_lattices() if len(kernel) == 1)


def admissible_n(m: int) -> frozenset[int]:
    """Norms L^2 = 6n compatible with an order-m action and the glue index."""
    if m == 2:
        # a positive form with 4ac - b^2 = k > 0 exists iff -k = 0, 1 mod 4; e.g. (1, k%2, ceil(k/4))
        return frozenset(n for n in range(1, 13) if 12 % n == 0 and 12 // n % 4 in (0, 3))
    if m == 3:
        return frozenset(n for n in (1, 9) if any(n * a * a == 9 for a in (1, 2, 3)))
    raise LatticeError("admissible norms are defined for m = 2 or 3")


class Row(Frozen):
    """A report row, its fields the printed keys in order: ``vars(row)`` is the row.

    A case has L, name, n, T_gram, T_basis, index, phi, order, gamma, psi_bar,
    div, orbit_rep, orbit_size, witness; an excluded candidate L, name, norm, reason.
    """

    def __init__(self, **fields):
        self._set(**fields)


@lru_cache(maxsize=None)
def _gluing(matrix: IntMatrix, orders: tuple[int, ...]) -> FiniteAbelianMap:
    """The map along ``matrix`` from its pulled-back group of the given orders.

    Cached on the matrix and the orders it was read with: each printed gluing,
    and the Smith form behind ``is_injective``, is built once per process.
    """
    codomain = invariant_discriminant()
    return FiniteAbelianMap(pullback_form(codomain, matrix, orders), codomain, matrix)


def gluing_map(m: int, name: str) -> FiniteAbelianMap:
    """Printed gluing morphism as a map from the coinvariant group.

    No Gram matrix for the coinvariant lattice is part of the input data:
    the domain, of the orders ``coinvariant_discriminant_orders``, carries
    minus the pullback of the invariant-side form along the printed matrix.
    So the map is an anti-isometry onto its image by construction;
    injectivity and well-definedness are still verified, on the row as it
    reads now.
    """
    data = printed_tables()
    row = next((r for r in data["table2"] if r["m"] == m and r["name"] == name), None)
    if row is None:
        raise LatticeError(f"no printed gluing data for m={m}, L={name}")
    gamma = _gluing(freeze(row["gamma"]), tuple(data["coinvariant_discriminant_orders"]))
    if not gamma.is_injective():
        raise GlueError(f"printed gluing for m={m}, L={name} is not injective")
    return gamma


def ambient_divisibility(polarization: IntVector, gamma: FiniteAbelianMap) -> int:
    """Divisibility of L inside the full ambient lattice, via the gluing.

    Equals the gcd of the pairings of L with the invariant lattice together
    with lifts of the glued image of the coinvariant discriminant group.
    Codomain lift i is nums_i / dens_i, so L pairs with it as the exact quotient
    (G L) . nums_i / dens_i; an image with coefficients c pairs as sum_i c_i that.
    """
    lattice = invariant_lattice_fixed()
    nums, dens = gamma.codomain.cleared_lifts
    cleared = mat_vec(nums, mat_vec(lattice.gram, polarization))
    if any(x % den for x, den in zip(cleared, dens)):
        raise GlueError("polarization does not pair integrally with the glue")
    pairings = [x // den for x, den in zip(cleared, dens)]
    return gcd(lattice.divisibility(polarization), *mat_vec(transpose(gamma.matrix), pairings))


def _glue_data(m: int, name: str, phi: IntMatrix, polarization: IntVector) -> dict:
    """Gluing, solved psi_bar and ambient divisibility for an extension phi.

    The keys are the matching fields of a case ``Row``.
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
        "div": ambient_divisibility(polarization, gamma),
    }


def build_extension(m: int, orbit: Orbit, sub: Sublattice) -> Row:
    """The case row of one orbit; ``sub`` is T + ZL on T's basis rows, then L.

    The isometry phi is the first element of O(L_inv), in its sort order, of
    order m whose fixed lattice is exactly ZL (``fixed_lattices``); GlueError
    if there is none.  For glue index ``sub.index()`` > 1, phi written on the
    rows of ``sub`` in integers (``solve_int``) must fix its glue subgroup
    (Nikulin's criterion), else LatticeError; GlueError if phi does not preserve ``sub``.
    """
    lattice = invariant_lattice_fixed()
    polarization = max(orbit.members)
    name = vector_name(polarization)
    t_basis = sub.basis[:-1]
    # L is primitive and the max of an orbit closed under -1: the Hermite basis of ZL
    phi = next((g for g, kernel in fixed_lattices()
                if g.order == m and kernel == (polarization,)), None)
    if phi is None:
        raise GlueError(f"no order-{m} isometry of the invariant lattice fixes exactly Z{name}")
    index = sub.index()
    if index > 1:
        columns = [solve_int(transpose(sub.basis), phi.apply(row)) for row in sub.basis]
        if None in columns:
            raise GlueError(f"the order-{m} isometry does not preserve the given T + Z{name}")
        if not extends_to_overlattice(transpose(columns), glue_subgroup(sub)):
            raise LatticeError("isometry of the invariant lattice fails the glue extension criterion")
    witness = orbit_witness(case_symmetry_group(), orbit.representative, polarization)
    return Row(
        L=polarization, name=name, n=lattice.norm(polarization) // 6,
        T_gram=freeze(gram_of_rows(t_basis, lattice.gram)), T_basis=t_basis, index=index,
        phi=phi.matrix, order=m, **_glue_data(m, name, phi.matrix, polarization),
        orbit_rep=orbit.representative, orbit_size=orbit.size, witness=witness.matrix,
    )


def classify(m: int) -> tuple[tuple[Row, ...], tuple[Row, ...]]:
    """The case rows and excluded-candidate rows for an order-m action.

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
    cases: list[Row] = []
    excluded: list[Row] = []
    for n in sorted(admissible_n(m)):
        norm = 6 * n
        vectors = vectors_of_norm(lattice, norm)
        primitive = [v for v in vectors if gcd(*v) == 1]
        imprimitive = [v for v in vectors if gcd(*v) != 1]

        def exclude(rep, reason):
            excluded.append(Row(L=rep, name=vector_name(rep), norm=norm, reason=reason))

        for orbit in orbits(sym, imprimitive):
            exclude(max(orbit.members), "not primitive")
        for orbit in orbits(sym, primitive):
            rep = max(orbit.members)
            t_sub = lattice.span((rep,)).orthogonal_complement()
            sub = Sublattice(lattice, t_sub.basis + (rep,))
            index = sub.index()
            if index not in (1, m):
                expected = lattice.determinant() * m * m // norm
                exclude(rep, f"det(T_X) = {det(t_sub.gram())} != {expected} forced by glue"
                             f" index {m} (actual index {index})")
                continue
            cases.append(build_extension(m, orbit, sub))
    cases.sort(key=lambda c: (c.n, c.L))
    return tuple(cases), tuple(excluded)


def order6_closure(cases2: tuple[Row, ...], cases3: tuple[Row, ...]) -> tuple[Row, ...]:
    """Order-6 case rows: polarizations carrying both an order-2 and order-3 action.

    Matching is on (orbit of L, Gram of the complement); the order-6
    isometry is the product of the two commuting extensions, which
    ``_glue_data`` (``induced_map``) checks against O(L_inv).  Each row is a
    copy of the order-2 row with phi, order and the glue data replaced.
    """
    result = []
    for c2 in cases2:
        for c3 in cases3:
            if c2.orbit_rep != c3.orbit_rep or c2.T_gram != c3.T_gram:
                continue
            product = mat_mul(c2.phi, c3.phi)
            if mat_mul(c3.phi, c2.phi) != product:
                raise LatticeError("order-2 and order-3 extensions do not commute")
            if (order := matrix_order(product)) != 6:
                raise LatticeError(f"product isometry has order {order}")
            glue = _glue_data(6, c2.name, product, c2.L)
            result.append(Row(**{**vars(c2), "phi": product, "order": 6, **glue}))
    return tuple(result)


def order_bound_report() -> dict:
    """g0 times the largest order m whose classification found a case (1 if none did)."""
    g0 = printed_tables()["symplectic_group_order"]
    cases2, _ = classify(2)
    cases3, _ = classify(3)
    counts = {"2": len(cases2), "3": len(cases3), "6": len(order6_closure(cases2, cases3))}
    max_order = max((int(m) for m, count in counts.items() if count), default=1)
    return {
        "symplectic_group_order": g0,
        "admissible_orders": sorted(admissible_orders()),
        "max_order": max_order,
        "bound": g0 * max_order,
        "case_counts": counts,
    }
