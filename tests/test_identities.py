"""Heights and Jantzen sums that agree across Cartan types: exceptional
isomorphisms of flag varieties (Onishchik 1962; Demazure 1977), diagram
automorphisms and products.  Each identity relates different root systems,
or different nodes of one, so it catches a fault in a Cartan table or a
numbering, or a short root taken for a long one, that no single type can
show."""

import math
from fractions import Fraction

import pytest

from flagheight.height import height_all_methods, height_substitution
from flagheight.jantzen import jantzen_rhs
from flagheight.parabolic import build_parabolic
from flagheight.rootsys import build_root_system
from oracles import degree


def maximal(spec, node):
    """(P_node, omega_node) of spec, node 1-based as on the command line."""
    rs = build_root_system(spec)
    i = node - 1
    return (build_parabolic(rs, set(range(rs.rank)) - {i}),
            tuple(int(k == i) for k in range(rs.rank)))


def borel(spec):
    return build_parabolic(build_root_system(spec), set())


# sigma[i] is the image of the 0-based node i under a diagram automorphism
AUTOMORPHISMS = {
    "A3": (2, 1, 0),
    "A4": (3, 2, 1, 0),
    "D4": (2, 1, 3, 0),  # triality: 1 -> 3 -> 4 -> 1, node 2 fixed
    "E6": (5, 1, 4, 3, 2, 0),
}


def act(sigma, mu):
    """sigma on a weight in fundamental-weight coordinates."""
    out = [None] * len(mu)
    for i, m in enumerate(mu):
        out[sigma[i]] = m
    return tuple(out)


@pytest.mark.parametrize("spec", sorted(AUTOMORPHISMS))
def test_automorphisms_preserve_the_cartan_matrix(spec):
    A = build_root_system(spec).cartan_matrix
    sigma = AUTOMORPHISMS[spec]
    assert sorted(sigma) == list(range(len(A)))
    assert all(A[sigma[i]][sigma[j]] == A[i][j]
               for i in range(len(A)) for j in range(len(A)))


# -- heights ------------------------------------------------------------


SAME_HEIGHT = [
    # C_n/P1 = A_{2n-1}/P1 = P^{2n-1}
    ([("C2", 1), ("A3", 1)], Fraction(13, 6)),
    ([("C3", 1), ("A5", 1)], Fraction(87, 20)),
    ([("C4", 1), ("A7", 1)], Fraction(481, 70)),
    ([("C5", 1), ("A9", 1)], Fraction(4861, 504)),
    # B_n/P_n = D_{n+1}/P_{n+1}, the spinor varieties
    ([("B2", 2), ("D3", 3)], Fraction(13, 6)),
    ([("B3", 3), ("D4", 4)], Fraction(181, 15)),
    ([("B4", 4), ("D5", 5)], Fraction(66743, 420)),
    ([("B5", 5), ("D6", 6)], Fraction(2253532, 315)),
    # G2/P1 = B3/P1, the quadric Q5
    ([("G2", 1), ("B3", 1)], Fraction(307, 30)),
    # diagram automorphisms; D4/P1 is the quadric Q6 = B3/P3
    ([("D4", 1), ("D4", 3), ("D4", 4), ("B3", 3)], Fraction(181, 15)),
    ([("A4", 1), ("A4", 4)], Fraction(77, 24)),
    ([("A4", 2), ("A4", 3)], Fraction(799, 24)),
    ([("E6", 1), ("E6", 6)], Fraction(9123967, 4620)),
    ([("E6", 3), ("E6", 5)], Fraction(140461690355649, 308)),
]


@pytest.mark.parametrize("parabolics,value", SAME_HEIGHT,
                         ids=lambda v: "=".join(f"{s}/P{n}" for s, n in v)
                         if isinstance(v, list) else str(v))
def test_isomorphic_flag_varieties_have_equal_heights(parabolics, value):
    for spec, node in parabolics:
        assert height_substitution(*maximal(spec, node)).value == value


@pytest.mark.parametrize("spec,node,value", [
    ("C2", 1, Fraction(13, 6)),
    ("A3", 1, Fraction(13, 6)),
    ("G2", 1, Fraction(307, 30)),
    ("B3", 1, Fraction(307, 30)),
    ("B3", 3, Fraction(181, 15)),
    ("D4", 1, Fraction(181, 15)),
    ("A4", 1, Fraction(77, 24)),
])
def test_few_coset_identities_by_every_method(spec, node, value):
    # the localisation pass, on types A, B, C, D and G
    assert height_all_methods(*maximal(spec, node)).value == value


@pytest.mark.parametrize("spec,lam", [
    ("A3", (1, 2, 3)),
    ("D4", (1, 2, 3, 4)),
    ("E6", (1, 2, 3, 4, 5, 6)),
])
def test_borel_heights_are_invariant_under_diagram_automorphisms(spec, lam):
    pd, sigma = borel(spec), AUTOMORPHISMS[spec]
    value = height_substitution(pd, lam).value
    image = act(sigma, lam)
    while image != lam:
        assert height_substitution(pd, image).value == value
        image = act(sigma, image)


@pytest.mark.parametrize("x,y,value", [
    (("B2", (), (1, 2)), ("A1", (), (3,)), Fraction(22380)),
    (("A2", (1,), (2, 0)), ("G2", (), (1, 3)), Fraction(1653337728, 5)),
])
def test_product_heights(x, y, value):
    # h(X x Y, lam [x] mu) = C(N+1, N_X+1) h_X(lam) deg_Y(mu)
    #                        + C(N+1, N_Y+1) h_Y(mu) deg_X(lam)
    (spec_x, theta_x, lam), (spec_y, theta_y, mu) = x, y
    pd_x = build_parabolic(build_root_system(spec_x), set(theta_x))
    pd_y = build_parabolic(build_root_system(spec_y), set(theta_y))
    rank_x = pd_x.rs.rank
    pd = build_parabolic(build_root_system(f"{spec_x}x{spec_y}"),
                         set(theta_x) | {rank_x + i for i in theta_y})
    N = pd.dim
    assert N == pd_x.dim + pd_y.dim
    expected = (math.comb(N + 1, pd_x.dim + 1)
                * height_substitution(pd_x, lam).value * degree(pd_y, mu)
                + math.comb(N + 1, pd_y.dim + 1)
                * height_substitution(pd_y, mu).value * degree(pd_x, lam))
    assert expected == value
    # w0 pairs the cosets at the default Y; at Y = (2, 3, 5, 7) it does
    # not on A2 x G2
    for Y in None, (2, 3, 5, 7)[:pd.rs.rank]:
        assert height_all_methods(pd, lam + mu, Y).value == value


def test_degree_of_a_projective_space_and_a_quadric():
    assert degree(*maximal("A3", 1)) == 1
    assert degree(*maximal("B3", 1)) == 2
    pd, lam = maximal("A1", 1)
    assert degree(pd, (3,)) == 3


# -- Jantzen sums -------------------------------------------------------


def _totals(spec, node, n):
    """p -> sum_mu c_{p,mu} of jantzen_rhs on P_node at n omega_node."""
    pd, omega = maximal(spec, node)
    rhs = jantzen_rhs(pd, tuple(n * x for x in omega))
    return {p: sum(bucket.values()) for p, bucket in rhs.items()}


@pytest.mark.parametrize("x,y", [
    (("C2", 1), ("A3", 1)),
    (("G2", 1), ("B3", 1)),
    (("B3", 3), ("D4", 4)),
])
def test_jantzen_totals_agree_on_isomorphic_flag_varieties(x, y):
    for n in range(1, 9):
        assert _totals(*x, n) == _totals(*y, n)
    assert _totals(*x, 8)


@pytest.mark.parametrize("spec,lam", [
    ("A3", (1, 0, 2)),
    ("A3", (2, 1, 0)),
    ("A4", (1, 0, 2, 0)),
    ("D4", (2, 1, 0, 1)),
    ("D4", (1, 1, 2, 0)),
])
def test_jantzen_rhs_commutes_with_diagram_automorphisms(spec, lam):
    pd, sigma = borel(spec), AUTOMORPHISMS[spec]
    rhs = jantzen_rhs(pd, lam)
    assert rhs and act(sigma, lam) != lam
    assert jantzen_rhs(pd, act(sigma, lam)) == {
        p: {act(sigma, mu): c for mu, c in bucket.items()}
        for p, bucket in rhs.items()}
