import json
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

import latglue.classify as classify_module
from latglue.classify import (
    GOLDEN_SHAPE,
    admissible_n,
    admissible_orders,
    ambient_divisibility,
    build_extension,
    case_symmetry_group,
    check_shape,
    classify,
    full_isometry_group,
    gluing_map,
    invariant_discriminant,
    invariant_lattice_fixed,
    order6_closure,
    order_bound_report,
    printed_tables,
    vector_name,
)
from latglue.discforms import (
    GlueError,
    extends_to_overlattice,
    forms_isometric,
    glue_subgroup,
    is_anti_isometry,
)
from latglue.exact import freeze, mat_mul, transpose
from latglue.isometries import matrix_order, orbits
from latglue.lattices import LatticeError, Sublattice
from latglue.report import verify_cases_report

import oracles


def test_admissible_orders():
    assert admissible_orders() == frozenset({2, 3, 6})


def test_admissible_n():
    assert admissible_n(2) == frozenset({1, 3, 4})
    assert admissible_n(3) == frozenset({1, 9})
    with pytest.raises(LatticeError):
        admissible_n(5)


def test_admissible_n_congruence_matches_the_binary_form_search():
    """A positive form with 4ac - b^2 = k exists iff k > 0 and -k = 0, 1 mod 4."""
    for k in range(2001):
        assert oracles.binary_form_exists(k) == (k > 0 and k % 4 in (0, 3))
    assert admissible_n(2) == {n for n in range(1, 13)
                               if 12 % n == 0 and oracles.binary_form_exists(12 // n)}


def test_case_symmetry_group_order():
    assert case_symmetry_group().order() == 8
    assert full_isometry_group().order() == 24


def test_vector_name():
    assert vector_name((0, 0, 1)) == "h"
    assert vector_name((1, -1, 0)) == "e-f"
    assert vector_name((2, -1, 1)) == "2e-f+h"
    assert vector_name((0, 0, 0)) == "0"


def test_classify_two_gives_five_cases():
    cases, excluded = classify(2)
    assert len(cases) == 5
    assert [c.name for c in cases] == ["h", "e-f", "e", "e+f", "2e-f"]
    assert [c.index for c in cases] == [1, 2, 2, 2, 2]
    dets = [
        c.T_gram[0][0] * c.T_gram[1][1] - c.T_gram[0][1] * c.T_gram[1][0]
        for c in cases
    ]
    assert dets == [27, 108, 108, 36, 36]
    assert [c.n for c in cases] == [1, 1, 1, 3, 3]
    assert all(c.order == 2 for c in cases)


def test_classify_two_excludes_norm_24():
    _, excluded = classify(2)
    reasons = {e.name: e.reason for e in excluded}
    assert "det(T_X) = 432 != 27" in reasons["e+f+h"]
    assert "det(T_X) = 432 != 27" in reasons["2e-f+h"]
    assert reasons["2h"] == "not primitive"
    assert reasons["2e"] == "not primitive"
    assert reasons["2e-2f"] == "not primitive"
    assert {e.norm for e in excluded} == {24}


def test_classify_three_single_case():
    cases, excluded = classify(3)
    assert len(cases) == 1
    case = cases[0]
    assert case.name == "h"
    assert case.T_gram == ((6, 3), (3, 6))
    assert case.index == 1
    assert case.order == 3
    non_primitive = {e.name for e in excluded if e.reason == "not primitive"}
    assert non_primitive == {"3e", "3e-3f", "3h"}
    assert all(e.norm == 54 for e in excluded if e.reason == "not primitive")


def test_classify_six_closure():
    cases2, _ = classify(2)
    cases3, _ = classify(3)
    before = [dict(vars(c)) for c in cases2 + cases3]
    cases6 = order6_closure(cases2, cases3)
    assert [vars(c) for c in cases2 + cases3] == before
    assert len(cases6) == 1
    case = cases6[0]
    assert case.name == "h"
    assert case.order == 6
    assert case.phi == ((1, 1, 0), (-1, 0, 0), (0, 0, 1))
    assert case.div == 2
    assert order6_closure((), ()) == ()
    without_h = tuple(c for c in cases2 if c.name != "h")
    assert order6_closure(without_h, cases3) == ()


def test_classify_six_via_classify():
    cases6, excluded = classify(6)
    assert len(cases6) == 1 and excluded == ()


def test_phi_matches_printed_table():
    printed = {(row["m"], row["name"]): row for row in printed_tables()["table2"]}
    for m in (2, 3, 6):
        cases, _ = classify(m)
        for case in cases:
            row = printed[(m, case.name)]
            assert case.phi == freeze(row["phi"])
            assert case.order == row["order"]
            assert case.gamma == freeze(row["gamma"])


def test_t_gram_matches_printed_up_to_isometry():
    """The recomputed T_X Gram agrees with the printed one as a form, not as a matrix.

    The report's "T_X Gram" cell compares the printed generators' Gram with
    the printed Gram, so it never reads ``case.T_gram``.  A cell comparing
    matrices would be wrong: on e-f and e the computed [[18,0],[0,6]] is
    the printed [[6,0],[0,18]] with the basis swapped.  A cell on the
    reduced form changes the ``verify-table cases`` output, so it waits for
    a deliberate output change.
    """
    differ = []
    for row in printed_tables()["table2"]:
        case = next(c for c in classify(row["m"])[0] if c.name == row["name"])
        assert oracles.reduced_binary_form(case.T_gram) == oracles.reduced_binary_form(row["t_gram"])
        if case.T_gram != freeze(row["t_gram"]):
            differ.append((row["m"], row["name"], case.T_gram))
    assert differ == [(2, "e-f", ((18, 0), (0, 6))), (2, "e", ((18, 0), (0, 6)))]


def test_phi_fixes_polarization_and_gram():
    lattice = invariant_lattice_fixed()
    for m in (2, 3, 6):
        cases, _ = classify(m)
        for case in cases:
            phi = case.phi
            assert mat_mul(mat_mul(transpose(phi), lattice.gram), phi) == lattice.gram
            image = tuple(
                sum(phi[i][j] * case.L[j] for j in range(3)) for i in range(3)
            )
            assert image == case.L
            assert matrix_order(phi) == case.order


def test_psi_bar_matches_printed_with_one_erratum():
    printed = {(row["m"], row["name"]): row for row in printed_tables()["table2"]}
    mismatches = []
    for m in (2, 3, 6):
        cases, _ = classify(m)
        for case in cases:
            row = printed[(m, case.name)]
            if case.psi_bar != freeze(row["psi_bar"]):
                mismatches.append((m, case.name, case.psi_bar, freeze(row["psi_bar"])))
    assert mismatches == [
        (2, "2e-f",
         ((2, 0, 2), (0, 2, 0), (0, 0, 1)),
         ((1, 0, 2), (0, 2, 0), (0, 0, 1))),
    ]


def test_divisibilities():
    expected = {(2, "h"): 2, (2, "e"): 1, (2, "e-f"): 1, (2, "e+f"): 1,
                (2, "2e-f"): 1, (3, "h"): 2, (6, "h"): 2}
    for m in (2, 3, 6):
        cases, _ = classify(m)
        for case in cases:
            assert case.div == expected[(m, case.name)]


def test_ambient_divisibility_direct():
    assert ambient_divisibility((0, 0, 1), gluing_map(2, "h")) == 2
    assert ambient_divisibility((1, 0, 0), gluing_map(2, "e")) == 1
    assert ambient_divisibility((1, -1, 0), gluing_map(2, "e-f")) == 1


def test_gluings_are_injective_anti_isometries():
    for row in printed_tables()["table2"]:
        gamma = gluing_map(row["m"], row["name"])
        assert gamma.is_injective()
        assert is_anti_isometry(gamma)


def test_pullback_forms_mutually_isometric():
    rows = printed_tables()["table2"]
    reference = gluing_map(rows[0]["m"], rows[0]["name"]).domain
    assert reference.orders == (3, 3, 9)
    for row in rows[1:]:
        other = gluing_map(row["m"], row["name"]).domain
        assert forms_isometric(other, reference) is not None


def test_pullback_forms_not_all_equal_on_the_nose():
    """Different printed gluings induce isometric but distinct matrices."""
    rows = printed_tables()["table2"]
    reference = gluing_map(rows[0]["m"], rows[0]["name"]).domain
    second = gluing_map(rows[1]["m"], rows[1]["name"]).domain
    g3 = (0, 0, 1)
    assert reference.q(g3) != second.q(g3)


def test_case_identity_merges_under_full_group():
    """The printed split is strictly finer than full-group orbit identity."""
    from latglue.isometries import orbit_witness

    cases2, _ = classify(2)
    by_name = {c.name: c for c in cases2}
    full = full_isometry_group()
    witness = orbit_witness(full, by_name["e"].L, by_name["e-f"].L)
    assert witness is not None


def test_invariant_discriminant_pinned():
    disc = invariant_discriminant()
    assert disc.orders == (3, 3, 18)
    assert disc.order() == 162


def test_order_bound_report():
    report = order_bound_report()
    assert report["symplectic_group_order"] == 29160
    assert report["max_order"] == 6
    assert report["bound"] == 174960
    assert report["admissible_orders"] == [2, 3, 6]
    assert report["case_counts"] == {"2": 5, "3": 1, "6": 1}


def test_order_bound_reads_the_cases(monkeypatch):
    """With no order-6 case the bound drops to 29160 * 3, and the cell says so."""
    monkeypatch.setattr("latglue.classify.order6_closure", lambda cases2, cases3: ())
    report = order_bound_report()
    assert report["max_order"] == 3
    assert report["bound"] == 87480
    cells = {cell["cell"]: cell for cell in verify_cases_report()["cells"]}
    assert cells["order bound"]["status"] == "mismatch"
    assert cells["order bound"]["computed"] == 87480


def test_classify_rejects_bad_m():
    with pytest.raises(LatticeError):
        classify(5)


def _fixing_exactly(m, polarization):
    """Elements of O(L_inv) of order m whose fixed lattice is Z polarization, in sort order."""
    case = oracles.group_side_cases(full_isometry_group(), case_symmetry_group(), m).get(polarization)
    return case[2] if case else []


def _case_input(m, polarization):
    """The (m, orbit, T + ZL) arguments ``classify`` passes ``build_extension`` for L."""
    lattice = invariant_lattice_fixed()
    (orbit,) = orbits(case_symmetry_group(), [polarization])
    rep = max(orbit.members)
    t_sub = lattice.span((rep,)).orthogonal_complement()
    return m, orbit, Sublattice(lattice, t_sub.basis + (rep,))


def test_phi_is_the_first_element_fixing_exactly_l():
    """Pin the choice rule on the golden rows.

    Each m = 2 row has one order-2 element with fixed lattice ZL; the m = 3
    row has g and g^2 and prints the first.  The m = 6 row has two and prints
    phi_2 phi_3, the second, which ``order6_closure`` builds as the product.
    """
    counts = {2: 1, 3: 2, 6: 2}
    for row in printed_tables()["table2"]:
        m, printed = row["m"], freeze(row["phi"])
        found = _fixing_exactly(m, tuple(row["L"]))
        assert len(found) == counts[m], row["label"]
        assert found[0 if m < 6 else 1].matrix == printed
        if m == 3:
            assert found[1].matrix == mat_mul(printed, printed)
        if m < 6:
            assert build_extension(*_case_input(m, tuple(row["L"]))).phi == printed


def test_group_side_derivation_finds_the_classified_cases():
    """A case is an order-m element of O(L_inv) whose fixed lattice is ZL.

    Read from the group side alone (``oracles.group_side_cases``), the fixed
    lines give exactly the L, orbit sizes and T of ``classify(m)``; phi is
    the first element fixing exactly ZL for m = 2, 3 and the second,
    phi_2 phi_3, for m = 6.
    """
    for m, count in ((2, 5), (3, 1), (6, 1)):
        derived = oracles.group_side_cases(full_isometry_group(), case_symmetry_group(), m)
        cases = classify(m)[0]
        assert sorted(derived) == sorted(case.L for case in cases) and len(cases) == count
        for case in cases:
            size, t_basis, elements = derived[case.L]
            assert (size, t_basis) == (case.orbit_size, case.T_basis)
            assert case.phi == elements[0 if m < 6 else 1].matrix


def test_nikulin_check_runs_exactly_when_the_index_exceeds_one(monkeypatch):
    glue_calls = []

    def counted_glue_subgroup(sub):
        glue_calls.append(sub)
        return glue_subgroup(sub)

    monkeypatch.setattr(classify_module, "glue_subgroup", counted_glue_subgroup)
    cases = [(m, case) for m in (2, 3) for case in classify(m)[0]]
    checked = Counter()
    for m, case in cases:
        glue_calls.clear()
        assert vars(build_extension(*_case_input(m, case.L))) == vars(case)
        assert len(glue_calls) == (case.index > 1)
        checked[case.index > 1] += 1
    assert checked == {True: 4, False: 2}
    monkeypatch.setattr(classify_module, "extends_to_overlattice", lambda matrix, h: False)
    for m, case in cases:
        if case.index == 1:
            assert build_extension(*_case_input(m, case.L)).phi == case.phi
            continue
        with pytest.raises(LatticeError, match="glue extension criterion"):
            build_extension(*_case_input(m, case.L))


def test_nikulin_check_reads_the_coordinates_as_given(monkeypatch):
    """build_extension hands the Fraction coordinates of phi on T + ZL to
    ``extends_to_overlattice`` as they are; a non-integral one is GlueError, not truncated."""
    seen = []

    def recorded(matrix, h):
        seen.append(matrix)
        return extends_to_overlattice(matrix, h)

    monkeypatch.setattr(classify_module, "extends_to_overlattice", recorded)
    cases = [(m, case) for m in (2, 3) for case in classify(m)[0] if case.index > 1]
    assert len(cases) == 4
    for m, case in cases:
        seen.clear()
        assert vars(build_extension(*_case_input(m, case.L))) == vars(case)
        (matrix,) = seen
        assert all(type(x) is Fraction for row in matrix for x in row)
    exact = Sublattice.coordinates_of
    monkeypatch.setattr(Sublattice, "coordinates_of",
                        lambda sub, v: tuple(x + Fraction(1, 2) for x in exact(sub, v)))
    for m, case in cases:
        with pytest.raises(GlueError, match="^matrix is not an isometry of the source lattice$"):
            build_extension(*_case_input(m, case.L))


def test_no_order3_isometry_fixes_exactly_e():
    assert _fixing_exactly(3, (1, 0, 0)) == []
    with pytest.raises(GlueError, match="no order-3 isometry .* fixes exactly Ze$"):
        build_extension(*_case_input(3, (1, 0, 0)))


def test_index_one_only_on_the_h_orbit():
    from latglue.lattices import Sublattice

    lattice = invariant_lattice_fixed()
    for m in (2, 3):
        cases, _ = classify(m)
        for case in cases:
            sub = Sublattice(lattice, case.T_basis + (case.L,))
            assert sub.index() == case.index
            assert case.index in (1, m)
            if case.index == 1:
                assert case.n == 1
                assert case.L in ((0, 0, 1), (0, 0, -1))


def test_hexagonal_form_never_represents_two():
    """x^2 + xy + y^2 != 2: exhaustively for |x|,|y| <= 3, then by parity.

    Outside the box the value is odd unless both arguments are even, and
    two nonzero even arguments already give a value >= 4, so the box scan
    settles the claim for all integers.  Consequence checked on the driver
    side: every norm-18 vector of the fixed lattice has no h-component.
    """
    for x in range(-3, 4):
        for y in range(-3, 4):
            assert x * x + x * y + y * y != 2
    for x in range(-8, 9):
        for y in range(-8, 9):
            value = x * x + x * y + y * y
            if x % 2 or y % 2:
                assert value % 2 == 1
            elif x or y:
                assert value >= 4
    from latglue.isometries import vectors_of_norm

    for v in vectors_of_norm(invariant_lattice_fixed(), 18):
        assert v[2] == 0


def test_golden_shape_check_names_the_bad_field():
    check_shape(printed_tables(), GOLDEN_SHAPE)
    corruptions = (
        (lambda d: d["table2"][3]["gamma"].__setitem__(2, [1, 2]),
         r"golden data\.table2\[3\]\.gamma\[2\] is not a list of 3"),
        (lambda d: d["table1"][0].pop("members"), r"table1\[0\] has no 'members'"),
        (lambda d: d["dual_generator_lifts"][1].__setitem__(0, "1/0"),
         r"dual_generator_lifts\[1\]\[0\] is not a fraction string"),
        (lambda d: d.__setitem__("notes", "one note"), r"notes is not a list"),
        (lambda d: d.__setitem__("printed_order_bound", True), r"is not of type int"),
    )
    for corrupt, message in corruptions:
        data = json.loads(json.dumps(printed_tables()))
        corrupt(data)
        with pytest.raises(GlueError, match=message):
            check_shape(data, GOLDEN_SHAPE)


def test_divisor_norms_give_exactly_the_classified_cases():
    """n | det * m^2 / g, with det and the norm gcd g read off the lattice.

    det(L) det(T) = det(L_inv) [L_inv : L + T]^2 with the glue index dividing
    m, so a polarization of norm g n with an order-m action has n | det m^2 / g
    (27 m^2 here).  Running classify's filters over all those divisors finds
    the same cases as the hand-set ``admissible_n``.
    """
    from latglue.classify import build_extension
    from latglue.isometries import admits_order3, orbits, vectors_of_norm
    from latglue.lattices import Sublattice

    lattice = invariant_lattice_fixed()
    gram = lattice.gram
    norm_gcd = 0
    for i in range(3):
        for j in range(i, 3):
            norm_gcd = gcd(norm_gcd, gram[i][j] * (1 if i == j else 2))
    assert (lattice.determinant(), norm_gcd) == (162, 6)
    for m in (2, 3):
        bound = lattice.determinant() * m * m // norm_gcd
        found = []
        for n in (n for n in range(1, bound + 1) if bound % n == 0):
            vectors = vectors_of_norm(lattice, norm_gcd * n)
            for orbit in orbits(case_symmetry_group(), [v for v in vectors if gcd(*v) == 1]):
                rep = max(orbit.members)
                t_sub = lattice.span((rep,)).orthogonal_complement()
                sub = Sublattice(lattice, t_sub.basis + (rep,))
                if sub.index() not in (1, m) or m == 3 and not admits_order3(t_sub.lattice()):
                    continue
                found.append(build_extension(m, orbit, sub))
        def fields(cases):
            return [vars(c) for c in sorted(cases, key=lambda c: (c.n, c.L))]

        assert fields(found) == fields(classify(m)[0])
        assert len(found) == {2: 5, 3: 1}[m]


@pytest.mark.parametrize("call, kind, message", [
    (lambda: gluing_map(2, "nope"), LatticeError, "no printed gluing data for m=2, L=nope"),
    (lambda: check_shape([], GOLDEN_SHAPE), GlueError, "golden data is not an object"),
], ids=["gluing_map-unknown-name", "check_shape-not-an-object"])
def test_classify_guards_raise_their_messages(call, kind, message):
    with pytest.raises(kind) as caught:
        call()
    assert type(caught.value) is kind and str(caught.value) == message
