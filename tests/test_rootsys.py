from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from flagheight.rootsys import (
    InvalidCartanSpec,
    build_root_system,
    parse_cartan_spec,
)
from oracles import dominant_representative, positive_roots_by_closure

SIMPLE_TYPES = {
    "A1": (1, 2), "A2": (3, 3), "A3": (6, 4), "A4": (10, 5),
    "B2": (4, 4), "B3": (9, 6), "C3": (9, 6), "D4": (12, 6),
    "F4": (24, 12), "G2": (6, 6), "E6": (36, 12),
}


@pytest.fixture(scope="module")
def a2():
    return build_root_system("A2")


@pytest.fixture(scope="module")
def b2():
    return build_root_system("B2")


@pytest.fixture(scope="module")
def g2():
    return build_root_system("G2")


@pytest.mark.parametrize("spec,expected", sorted(SIMPLE_TYPES.items()))
def test_positive_root_count_and_coxeter(spec, expected):
    count, cox = expected
    rs = build_root_system(spec)
    assert rs.num_positive_roots == count
    assert rs.coxeter_number == cox


def test_product_spec():
    rs = build_root_system("B2xA1")
    assert rs.rank == 3
    assert rs.num_positive_roots == 5
    assert rs.coxeter_numbers == (4, 2)
    assert rs.coxeter_number == 4


def test_spec_parsing_case_insensitive():
    assert str(parse_cartan_spec("b2xa1")) == "B2xA1"


@pytest.mark.parametrize("bad", ["", "H3", "A0", "B1", "E9", "A2y3"])
def test_invalid_specs_rejected(bad):
    with pytest.raises(InvalidCartanSpec):
        parse_cartan_spec(bad)


def test_cartan_matrix_b2(b2):
    # row i lists <alpha_j^vee, alpha_i>; last simple root of B is short
    assert b2.cartan_matrix == ((2, -1), (-2, 2))


def test_cartan_matrix_g2(g2):
    assert g2.cartan_matrix == ((2, -3), (-1, 2))


# Bourbaki, Lie Groups and Lie Algebras, Ch. VI, Plates II-VIII, with
# A[i][j] = <alpha_j, alpha_i^vee>
BOURBAKI_CARTAN = {
    "B3": ((2, -1, 0),
           (-1, 2, -1),
           (0, -2, 2)),
    "C3": ((2, -1, 0),
           (-1, 2, -2),
           (0, -1, 2)),
    "D4": ((2, -1, 0, 0),
           (-1, 2, -1, -1),
           (0, -1, 2, 0),
           (0, -1, 0, 2)),
    "E6": ((2, 0, -1, 0, 0, 0),
           (0, 2, 0, -1, 0, 0),
           (-1, 0, 2, -1, 0, 0),
           (0, -1, -1, 2, -1, 0),
           (0, 0, 0, -1, 2, -1),
           (0, 0, 0, 0, -1, 2)),
    "F4": ((2, -1, 0, 0),
           (-1, 2, -1, 0),
           (0, -2, 2, -1),
           (0, 0, -1, 2)),
}


@pytest.mark.parametrize("spec", sorted(BOURBAKI_CARTAN))
def test_cartan_matrix_bourbaki(spec):
    assert build_root_system(spec).cartan_matrix == BOURBAKI_CARTAN[spec]


# d_i = (alpha_i, alpha_i) / 2, least integral on each factor; the factors
# of a product are scaled to agree on their first entries
@pytest.mark.parametrize("spec,d", [
    ("A3", (1, 1, 1)), ("B3", (2, 2, 1)), ("C3", (1, 1, 2)),
    ("D4", (1, 1, 1, 1)), ("E6", (1,) * 6), ("F4", (2, 2, 1, 1)),
    ("G2", (1, 3)), ("B2xA1", (2, 1, 2)), ("G2xC2", (1, 3, 1, 2)),
])
def test_symmetrizer(spec, d):
    assert build_root_system(spec)._symmetrizer == d


def test_rho_is_all_ones(b2, g2):
    assert b2.rho == (1, 1)
    assert g2.rho == (1, 1)


def test_highest_root_heights(b2, g2):
    assert max(r.height() for r in b2.positive_roots) == 3
    assert max(r.height() for r in g2.positive_roots) == 5


def test_root_weight_coordinate_round_trip(a2):
    for beta in a2.positive_roots:
        mu = a2.root_to_weight(beta.coords)
        assert a2.weight_to_root_coords(mu) == tuple(
            Fraction(c) for c in beta.coords)


@pytest.mark.parametrize("spec", ["A1", "B5", "C4", "D6", "E7", "E8", "F4",
                                  "G2", "G2xC2xA1", "E6xA2"])
def test_weight_to_root_coords_inverts_the_cartan_matrix(spec):
    rs = build_root_system(spec)
    weights = [tuple(1 if j == i else 0 for j in range(rs.rank))
               for i in range(rs.rank)]
    weights += [tuple((-1) ** j * (j + 2) for j in range(rs.rank))]
    for mu in weights:
        coords = rs.weight_to_root_coords(mu)
        assert all(type(c) is Fraction for c in coords)
        assert rs.root_to_weight(coords) == mu


def test_coroot_pairing_against_weight_form(b2):
    # <beta^vee, mu> from the stored coroot coords must match the
    # invariant-form definition 2(beta, mu)/(beta, beta)
    for beta in b2.positive_roots:
        for mu in [(1, 0), (0, 1), (2, -1), (-1, 3)]:
            brw = b2.root_to_weight(beta.coords)
            expect = 2 * b2.inner(brw, mu) / b2.inner(brw, brw)
            assert b2._pairing(mu, beta) == expect


def test_reflection_is_involution(b2):
    # S_beta(mu) = mu - <beta^vee, mu> beta is an involution iff
    # <beta^vee, beta> = 2
    for beta in b2.positive_roots:
        assert b2._pairing(b2.root_to_weight(beta.coords), beta) == 2


def test_simple_reflection_fixes_orthogonal_part(a2):
    # s_i mu = mu - <alpha_i^vee, mu> alpha_i in weight coordinates
    mu = (4, 7)
    s0 = a2.simple_reflect_weight(0, mu)
    assert s0 == (-4, 11)


@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(0, 1))
def test_simple_reflection_involution_property(x, y, i):
    rs = build_root_system("B2")
    mu = (x, y)
    assert rs.simple_reflect_weight(i, rs.simple_reflect_weight(i, mu)) == mu


@given(st.integers(-4, 4), st.integers(-4, 4),
       st.integers(-4, 4), st.integers(-4, 4))
def test_inner_form_symmetric_bilinear(a, b, c, d):
    rs = build_root_system("G2")
    mu, nu = (a, b), (c, d)
    assert rs.inner(mu, nu) == rs.inner(nu, mu)
    two_mu = (2 * a, 2 * b)
    assert rs.inner(two_mu, nu) == 2 * rs.inner(mu, nu)


def test_root_lengths_g2(g2):
    # alpha_1 short, alpha_2 long, ratio 3
    a1 = g2.root_to_weight((1, 0))
    a2_ = g2.root_to_weight((0, 1))
    assert g2.inner(a2_, a2_) == 3 * g2.inner(a1, a1)


def test_dominant_representative(b2):
    mu = (-1, -1)
    dom, count = dominant_representative(b2, mu)
    assert b2.is_dominant(dom)
    assert dom == (1, 1)
    assert count % 2 == 0  # -rho maps to rho under the longest element


def test_dominant_representative_subset(b2):
    dom, _ = dominant_representative(b2, (-2, 1), subset={0})
    assert dom[0] >= 0


def test_numbering_table_mentions_every_type():
    for spec in ("A3", "B3", "C3", "D4", "E6", "F4", "G2"):
        assert spec in build_root_system(spec).numbering_table()
    table = build_root_system("A3xB3xC3xD4xE6xF4xG2").numbering_table()
    assert table == (
        "A3: simple roots 1, 2, 3 (chain)\n"
        "B3: simple roots 4, 5, 6 (chain, last root short)\n"
        "C3: simple roots 7, 8, 9 (chain, last root long)\n"
        "D4: simple roots 10, 11, 12, 13 "
        "(chain 1..n-2 with fork to n-1 and n)\n"
        "E6: simple roots 14, 15, 16, 17, 18, 19 "
        "(Bourbaki: chain 1-3-4-..-n, branch node 2 attached to 4)\n"
        "F4: simple roots 20, 21, 22, 23 "
        "(chain, roots 1,2 long and 3,4 short)\n"
        "G2: simple roots 24, 25 (root 1 short, root 2 long)")


def test_negative_roots_are_roots(b2):
    # Sigma+ and its negatives are closed under every simple reflection
    roots = list(b2.positive_roots) + [-beta for beta in b2.positive_roots]
    coords = {beta.coords for beta in roots}
    for i in range(b2.rank):
        assert {b2.simple_reflect_root(i, beta).coords
                for beta in roots} == coords


# (|Sigma+|, Coxeter number) in closed form per family and rank
_CLOSED_FORMS = {
    "A": lambda n: (n * (n + 1) // 2, n + 1),
    "B": lambda n: (n * n, 2 * n),
    "C": lambda n: (n * n, 2 * n),
    "D": lambda n: (n * (n - 1), 2 * n - 2),
    "E": lambda n: {6: (36, 12), 7: (63, 18), 8: (120, 30)}[n],
    "F": lambda n: (24, 12),
    "G": lambda n: (6, 6),
}
CLASSIFICATION = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)] + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"])


@pytest.mark.parametrize("spec", CLASSIFICATION)
def test_root_system_against_closed_forms_and_oracle(spec):
    rs = build_root_system(spec)
    count, cox = _CLOSED_FORMS[spec[0]](int(spec[1:]))
    assert rs.num_positive_roots == count
    assert rs.coxeter_number == cox
    assert {beta.coords for beta in rs.positive_roots} == \
        positive_roots_by_closure(rs.cartan_matrix)

    # beta^vee = 2 beta / (beta, beta): with (alpha_i, alpha_j) =
    # d_i A[i][j] and alpha_i^vee = alpha_i / d_i, its i-th simple-coroot
    # coordinate is 2 d_i c_i / (beta, beta)
    A, d = rs.cartan_matrix, rs._symmetrizer
    n = rs.rank
    assert all(d[i] * A[i][j] == d[j] * A[j][i]
               for i in range(n) for j in range(n))
    for beta in rs.positive_roots:
        c = beta.coords
        norm = sum(c[i] * d[i] * A[i][j] * c[j]
                   for i in range(n) for j in range(n))
        assert beta.coroot == tuple(Fraction(2 * d[i] * c[i], norm)
                                    for i in range(n)), (spec, c)
