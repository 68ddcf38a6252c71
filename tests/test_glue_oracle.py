"""The integer glue path of ``classify`` against the ``Fraction`` formulas it replaced.

Each oracle below is the earlier rational computation, kept verbatim in
spirit: ``forms_match_by_fractions`` compares ``Fraction`` values of q and b
reduced mod 2 and mod 1; ``extend_by_fractions`` conjugates the block by the
Gauss-Jordan ``inverse_by_fractions`` (not ``frac_inverse``, which
``Sublattice.coordinates_of`` reads) and checks denominators,
which the glue extension criterion must match;
``ambient_divisibility_by_fractions`` pairs the polarization with
``Fraction`` lifts of the glued generators; and
``forms_isometric_by_fractions`` backtracks on ``Fraction`` form values.  The
integer versions must give the same verdicts, matrices and numbers.
"""

import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from latglue.classify import (
    ambient_divisibility,
    build_extension,
    case_symmetry_group,
    fixed_lattices,
    full_isometry_group,
    gluing_map,
    invariant_discriminant,
    invariant_lattice_fixed,
    printed_tables,
)
from latglue.discforms import (
    DiscriminantGroup,
    FiniteAbelianMap,
    GlueError,
    _forms_match,
    bare_group,
    extends_to_overlattice,
    forms_isometric,
    glue_subgroup,
    pullback_form,
)
from latglue.exact import det, freeze, identity, mat_mul, mat_vec, transpose
from latglue.isometries import Orbit, orbits, orthogonal_group, vectors_of_norm
from latglue.lattices import LatticeError, Sublattice

import oracles
from test_isotropic_oracle import (  # noqa: F401  (module-scoped fixtures)
    SMALL_ORDERS,
    groups,
    random_map,
    rebased,
)
from test_exact import inverse_by_fractions
from test_properties import fraction_lift


def reduce_mod(x, modulus):
    return x - (x / modulus).__floor__() * modulus


def forms_match_by_fractions(gamma, sign):
    dom, cod = gamma.domain, gamma.codomain
    gens = identity(dom.ngens)
    images = [oracles.apply_map(gamma, g) for g in gens]
    for i, (x, y) in enumerate(zip(gens, images)):
        if cod.q(y) != reduce_mod(sign * dom.q(x), 2):
            return False
        for j in range(i + 1, len(gens)):
            if oracles.b(cod, y, images[j]) != reduce_mod(sign * oracles.b(dom, x, gens[j]), 1):
                return False
    return True


def negated(group):
    return DiscriminantGroup(group.orders, tuple(tuple(-x for x in row)
                                                 for row in oracles.rational_pairings(group)))


def test_forms_match_matches_fraction_formula(groups):
    """Both signs, on seeded maps between groups of different exponents."""
    rng = random.Random(401)
    targets = [group for _lattice, group in groups if group.order() > 1]
    targets.append(invariant_discriminant())
    seen = Counter()
    for codomain in targets:
        for shape in (codomain.orders, rng.choice(SMALL_ORDERS), rng.choice(targets).orders):
            f = random_map(rng, bare_group(shape), codomain)
            # the pullback makes f an anti-isometry, its negation an isometry
            anti = pullback_form(codomain, f.matrix, shape)
            for domain in (anti, negated(anti), bare_group(shape)):
                other = random_map(rng, bare_group(shape), codomain)
                for matrix in (f.matrix, other.matrix):
                    gamma = FiniteAbelianMap(domain, codomain, matrix)
                    for sign in (1, -1):
                        expected = forms_match_by_fractions(gamma, sign)
                        assert _forms_match(gamma, sign) == expected
                        seen[sign, expected, domain.exponent != codomain.exponent] += 1
    for sign in (1, -1):
        for verdict in (True, False):
            assert seen[sign, verdict, True] >= 5, (sign, verdict)


def block_plus_one(block, k):
    """The block on T's k basis vectors, extended by 1 on L."""
    return tuple(tuple(block[i][j] if i < k and j < k else int(i == j) for j in range(k + 1))
                 for i in range(k + 1))


def extend_by_fractions(t_sub, polarization, block):
    """R^T . phi_t . (R^T)^-1 in Fractions, or None when it is not integral."""
    rows = t_sub.basis + (tuple(polarization),)
    basis_t = transpose(rows)
    conj = mat_mul(mat_mul(basis_t, block_plus_one(block, t_sub.rank)),
                   inverse_by_fractions(basis_t))
    if any(x.denominator != 1 for row in conj for x in row):
        return None
    return freeze(tuple(int(x) for x in row) for row in conj)


def test_extend_block_isometry_matches_fraction_formula():
    """Every O(T) element on every primitive orbit of norm <= 54.

    Nikulin's criterion (block + 1 fixes the glue subgroup of T + ZL) holds
    exactly when the conjugated block is integral, and then the extension
    is an element of O(L_inv) fixing L.
    """
    lattice = invariant_lattice_fixed()
    group = {g.matrix for g in full_isometry_group().elements}
    sym = case_symmetry_group()
    verdicts = Counter()
    for norm in range(2, 55, 2):
        primitive = [v for v in vectors_of_norm(lattice, norm) if gcd(*v) == 1]
        for orbit in orbits(sym, primitive):
            rep = max(orbit.members)
            t_sub = lattice.span((rep,)).orthogonal_complement()
            sub = Sublattice(lattice, t_sub.basis + (rep,))
            glue = glue_subgroup(sub)
            for g in orthogonal_group(t_sub.lattice()).elements:
                expected = extend_by_fractions(t_sub, rep, g.matrix)
                fixes = extends_to_overlattice(block_plus_one(g.matrix, t_sub.rank), glue)
                assert fixes == (expected is not None)
                if expected is not None:
                    assert expected in group and mat_vec(expected, rep) == rep
                verdicts[expected is not None, sub.index() > 1] += 1
    assert verdicts[True, False] >= 5
    assert verdicts[True, True] >= 20 and verdicts[False, True] >= 20
    # a unimodular R^T conjugates every block integrally
    assert verdicts[False, False] == 0


def test_fixed_lattice_is_zl_exactly_when_the_block_fixes_no_vector_of_t():
    """ker(g - 1) = ZL iff det(phi_t - 1) != 0 on T, for every g fixing L.

    Over every primitive L of norm <= 72, case or not, and every g of
    O(L_inv) with g L = L: the table ``build_extension`` reads against the
    conjugation adj(R^T) g R^T / det(R^T) onto the rows R of T + ZL and the
    determinant on T's block, the criterion it replaced.
    """
    lattice = invariant_lattice_fixed()
    verdicts = Counter()
    for norm in range(2, 73, 2):
        for v in vectors_of_norm(lattice, norm):
            if gcd(*v) != 1:
                continue
            rows = lattice.span((v,)).orthogonal_complement().basis + (v,)
            basis_t = transpose(rows)
            d, adj = det(basis_t), oracles.adjugate(basis_t)
            line = {(v,), (tuple(-x for x in v),)}
            for g, kernel in fixed_lattices():
                if g.apply(v) != v:
                    continue
                conj = mat_mul(mat_mul(adj, g.matrix), basis_t)
                assert all(x % d == 0 for row in conj for x in row)
                shifted = tuple(tuple(conj[i][j] // d - (i == j) for j in range(2)) for i in range(2))
                assert (kernel in line) == (det(shifted) != 0), (v, g.matrix)
                verdicts[kernel in line, g.order] += 1
    assert verdicts == {(False, 1): 170, (False, 2): 144, (True, 2): 14, (True, 3): 4, (True, 6): 4}


def test_extend_block_isometry_rejects_a_polarization_in_the_span_of_t():
    lattice = invariant_lattice_fixed()
    t_sub = lattice.span(((1, 0, 0),)).orthogonal_complement()
    inside = t_sub.basis[0]
    with pytest.raises(LatticeError, match="generators must be linearly independent"):
        build_extension(2, Orbit(inside, (inside,)), Sublattice(lattice, t_sub.basis + (inside,)))


def ambient_divisibility_by_fractions(polarization, gamma):
    lattice = invariant_lattice_fixed()
    group = gamma.codomain
    g = lattice.divisibility(polarization)
    for gen in identity(gamma.domain.ngens):
        image = oracles.apply_map(gamma, gen)
        pairing = lattice.pairing(polarization, fraction_lift(group, image))
        if pairing.denominator != 1:
            raise GlueError("polarization does not pair integrally with the glue")
        g = gcd(g, pairing)
    return g


def test_ambient_divisibility_matches_fraction_formula():
    """All seven rows, each with its own and with mutated polarizations."""
    rng = random.Random(403)
    values = Counter()
    for row in printed_tables()["table2"]:
        gamma = gluing_map(row["m"], row["name"])
        own = tuple(row["L"])
        assert ambient_divisibility(own, gamma) == row["divisibility"]
        mutated = [tuple(k * x for x in own) for k in (-1, 2, 3, 6)]
        mutated += [tuple(x + (i == j) for i, x in enumerate(own)) for j in range(3)]
        while len(mutated) < 20:
            v = tuple(rng.randint(-9, 9) for _ in range(3))
            if any(v):
                mutated.append(v)
        for polarization in [own] + mutated:
            value = ambient_divisibility(polarization, gamma)
            assert value == ambient_divisibility_by_fractions(polarization, gamma)
            values[value] += 1
    assert len(values) >= 4 and values[2] >= 7


def test_ambient_divisibility_refuses_lifts_that_are_not_dual_vectors():
    disc = invariant_discriminant()
    sevenths = tuple(tuple(x / 7 for x in lift) for lift in oracles.rational_lifts(disc))
    fake = type(disc)(disc.orders, oracles.rational_pairings(disc), sevenths, disc.source,
                      disc.classes)
    gamma = gluing_map(2, "h")
    bad = FiniteAbelianMap(gamma.domain, fake, gamma.matrix)
    for polarization in ((0, 0, 1), (1, 0, 0), (1, -1, 0)):
        for compute in (ambient_divisibility, ambient_divisibility_by_fractions):
            with pytest.raises(GlueError, match="does not pair integrally"):
                compute(polarization, bad)


def forms_isometric_by_fractions(a, b):
    if a.orders != b.orders:
        return None
    orders = {e: oracles.element_order(b, e) for e in oracles.all_elements(b)}
    gens = identity(a.ngens)
    chosen = []

    def candidates(i):
        gen = gens[i]
        want = (oracles.element_order(a, gen), a.q(gen))
        for e, order in orders.items():
            if (order, b.q(e)) != want:
                continue
            if any(oracles.b(b, e, chosen[j]) != oracles.b(a, gen, gens[j])
                   for j in range(len(chosen))):
                continue
            yield e

    def backtrack(i):
        if i == a.ngens:
            matrix = transpose(chosen)
            return matrix if FiniteAbelianMap(a, b, matrix).is_injective() else None
        for e in candidates(i):
            chosen.append(e)
            result = backtrack(i + 1)
            if result is not None:
                return result
            chosen.pop()
        return None

    return backtrack(0)


def scaled(group, unit):
    return DiscriminantGroup(group.orders, tuple(tuple(unit * x for x in row)
                                                 for row in oracles.rational_pairings(group)))


def test_forms_isometric_matches_fraction_search(groups, rebased):
    """Printed pullbacks, rebased groups, negated and unit-scaled forms."""
    rows = printed_tables()["table2"]
    reference = gluing_map(rows[0]["m"], rows[0]["name"]).domain
    pairs = [(gluing_map(row["m"], row["name"]).domain, reference) for row in rows]
    pairs += [(reference, negated(reference)), (reference, scaled(reference, 2))]
    originals = {group.source: group for _lattice, group in groups}
    for _lattice, group in rebased[::2]:
        original = originals[group.source]
        pairs += [(group, original), (original, negated(group)), (group, scaled(original, 5))]
    pairs.append((groups[0][1], groups[0][1]))  # the trivial group
    verdicts = Counter()
    for a, b in pairs:
        found = forms_isometric(a, b)
        assert found == forms_isometric_by_fractions(a, b)
        if found is not None:
            assert forms_match_by_fractions(FiniteAbelianMap(a, b, found), 1)
        verdicts[found is not None] += 1
    assert verdicts[True] >= 20 and verdicts[False] >= 10
    assert forms_isometric(bare_group((3,)), bare_group((9,))) is None


def test_forms_isometric_tells_apart_forms_of_one_group():
    """Z/3 with q = 2/3 and q = 4/3 are not isometric; each is with itself."""
    two, four = (DiscriminantGroup((3,), ((Fraction(k, 3),),)) for k in (2, 4))
    assert forms_isometric(two, four) is None and forms_isometric(four, two) is None
    assert forms_isometric(two, two) == ((1,),)
    assert forms_isometric(four, four) == ((1,),)
