import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from flagheight import height
from flagheight.height import (
    HeightResult,
    MethodDisagreement,
    NotRegularY,
    default_y,
    denominator_check,
    height_all_methods,
    height_fixed_point,
    height_harmo_bott,
    height_substitution,
)
from flagheight.charpoly import f_j
from flagheight.jantzen import prime_factorization
from flagheight.parabolic import NotAmple, build_parabolic, psi_grading
from flagheight.rootsys import build_root_system
from flagheight.weyl import (
    DEFAULT_CAP,
    coset_representatives,
    orbit,
    weyl_order,
)
from oracles import (
    height_grassmannian,
    height_hypersurface,
    height_projective,
    height_quadric_even,
    height_quadric_odd,
    ht_coefficient,
    subgroup_order,
)


def proj_parabolic(n):
    """P^n as A_n with the first node removed from the Levi."""
    rs = build_root_system(f"A{n}")
    theta = frozenset(range(1, n))
    lam = tuple(1 if i == 0 else 0 for i in range(n))
    return build_parabolic(rs, theta), lam


# -- Ht class -----------------------------------------------------------


def test_ht_coefficients():
    assert ht_coefficient(0) == Fraction(1, 2)
    assert ht_coefficient(1) == Fraction(-1, 8)
    assert ht_coefficient(2) == Fraction(1, 36)
    for k in range(6):
        assert ht_coefficient(k) == Fraction(
            (-1) ** k, 2 * (k + 1) * math.factorial(k + 1))


# -- closed forms -------------------------------------------------------


def test_projective_values():
    assert height_projective(1) == Fraction(1, 2)
    assert height_projective(2) == Fraction(5, 4)
    assert height_projective(3) == Fraction(13, 6)
    assert height_projective(4) == Fraction(77, 24)


def test_quadric_values():
    # Q3 = B2/P1, Q4, Q5, Q6
    assert height_quadric_odd(2) == Fraction(17, 3)
    assert height_quadric_even(2) == Fraction(43, 6)
    assert height_quadric_odd(3) == Fraction(307, 30)
    assert height_quadric_even(3) == Fraction(181, 15)


def test_quadric_odd_degenerate_is_projective_line():
    # Q1 = P^1 in its degree-2 embedding: height scales by 2^{dim+1}
    assert height_quadric_odd(1) == 4 * height_projective(1)


def test_hypersurface_degree_one_is_projective():
    for n in range(1, 7):
        assert height_hypersurface(n, 1) == height_projective(n)


# -- the three generic algorithms --------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_projective_by_all_methods(n):
    pd, lam = proj_parabolic(n)
    res = height_all_methods(pd, lam)
    assert res.value == height_projective(n)


def test_quadric_b2_by_all_methods():
    rs = build_root_system("B2")
    pd = build_parabolic(rs, {1})
    res = height_all_methods(pd, (1, 0))
    assert res.value == Fraction(17, 3)


def test_quadric_d4_by_all_methods():
    rs = build_root_system("D4")
    pd = build_parabolic(rs, {1, 2, 3})
    res = height_all_methods(pd, (1, 0, 0, 0))
    assert res.value == height_quadric_even(3)


def test_grassmannian_closed_form():
    assert height_grassmannian(2, 1) == height_projective(1)
    assert height_grassmannian(3, 1) == height_projective(2)
    # G(4,2) via A3 with the middle node
    rs = build_root_system("A3")
    pd = build_parabolic(rs, {0, 2})
    res = height_all_methods(pd, (0, 1, 0))
    assert res.value == height_grassmannian(4, 2)


def test_grassmannian_5_2():
    rs = build_root_system("A4")
    pd = build_parabolic(rs, {0, 2, 3})
    res = height_substitution(pd, (0, 1, 0, 0))
    assert res.value == height_grassmannian(5, 2)


def test_g2_full_flag_rho():
    rs = build_root_system("G2")
    pd = build_parabolic(rs, set())
    res = height_all_methods(pd, (1, 1))
    assert res.value == Fraction(173264, 15)


# -- the integer substitution kernel ------------------------------------


def maximal_parabolics(spec):
    """(P_i, omega_i) for every simple index i: theta = Pi minus {i}."""
    rs = build_root_system(spec)
    for i in range(rs.rank):
        lam = tuple(int(k == i) for k in range(rs.rank))
        yield build_parabolic(rs, set(range(rs.rank)) - {i}), lam


def substitution_by_fractions(pd, lam):
    """The substitution formula over Fraction, from the full polynomials
    f_j: every k^l -> (m j)^{l+1} / (2 (l+1)^2), then (N+1)! times the
    coefficient of m^{N+1}."""
    N = pd.dim
    coeff = Fraction(0)
    for j in psi_grading(pd, lam):
        for (em, ek), c in f_j(pd, lam, j).terms.items():
            if em + ek == N:
                coeff += c * Fraction(j) ** (ek + 1) / (2 * (ek + 1) ** 2)
    return coeff * math.factorial(N + 1)


@pytest.mark.parametrize("spec", [
    "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C3", "C4", "C5",
    "D4", "D5", "G2", "F4",
])
def test_substitution_matches_fraction_route(spec):
    for pd, lam in maximal_parabolics(spec):
        assert height_substitution(pd, lam).value == \
            substitution_by_fractions(pd, lam)


def test_substitution_matches_fraction_route_off_omega():
    rs = build_root_system("B3")
    for theta, lam in [(set(), (2, 1, 1)), ({1}, (1, 0, 3))]:
        pd = build_parabolic(rs, theta)
        assert height_substitution(pd, lam).value == \
            substitution_by_fractions(pd, lam)


@pytest.mark.parametrize("spec", ["F4", "E6"])
def test_substitution_matches_fixed_point_exceptional(spec):
    for pd, lam in maximal_parabolics(spec):
        assert height_substitution(pd, lam).value == \
            height_fixed_point(pd, lam).value


GOLDEN = [
    ("E7", 1, Fraction(562664108411709, 48620)),
    ("E7", 7, Fraction(178661786363, 255255)),
    # equal to the fixed-point sum over the 240 cosets of E8/P8
    ("E8", 8, Fraction(2081127677005873362797621, 99533742)),
    ("E7", 2, Fraction(852520186993144613052821, 24310)),
    ("E7", 3, Fraction(28793296219039898785293258893863, 910)),
    ("E7", 4, Fraction(2484705001622522609879930582526160417079808, 11)),
    ("E7", 5, Fraction(26518435058626194602475395343221325, 13)),
    ("E7", 6, Fraction(268434220782405472184958569, 255255)),
]

# E8/P2 and E8/P4 have 17280 and 483840 cosets, too many for the
# localisation methods here; their packed widths shrink the most, from
# 384-405 to 166-216 bits
SUBSTITUTION_GOLDEN = GOLDEN + [
    ("E8", 2, Fraction(
        188404263875608715679887126884858531590671357245129677343878147600,
        1309)),
    ("E8", 4, Fraction(int(
        "436809319078080917682751872245910701863267131343672648068083"
        "88083639719670744237939254504523188470074572800"), 11)),
]


@pytest.mark.parametrize("spec,node,value", SUBSTITUTION_GOLDEN)
def test_substitution_golden_values(spec, node, value):
    pd, lam = list(maximal_parabolics(spec))[node - 1]
    res = height_substitution(pd, lam)
    assert res.value == value


@pytest.mark.parametrize("spec,node,value", GOLDEN)
def test_golden_values_all_methods(spec, node, value):
    pd, lam = list(maximal_parabolics(spec))[node - 1]
    assert height_all_methods(pd, lam).value == value


def test_substitution_e8_p1():
    # N = 78; all three methods give this value, but fixed-point and
    # harmo-bott take seconds over the 2160 cosets, so it is not in GOLDEN
    pd, lam = next(maximal_parabolics("E8"))
    assert pd.dim == 78
    assert height_substitution(pd, lam).value == Fraction(
        180047184579941168027593778646497538998293080, 873103)


@pytest.mark.parametrize("spec,node", [("E6", 2), ("F4", 4)])
def test_substitution_homogeneity_wide(spec, node):
    # h(64 omega) = 64^(N+1) h(omega): the packed digits of 64 omega are
    # wide, so this guards their width
    pd, lam = list(maximal_parabolics(spec))[node - 1]
    wide = tuple(64 * x for x in lam)
    assert height_substitution(pd, wide).value == \
        64 ** (pd.dim + 1) * height_substitution(pd, lam).value


def test_substitution_on_a_point_is_zero():
    rs = build_root_system("A2")
    pd = build_parabolic(rs, {0, 1})
    assert height_substitution(pd, (0, 0)).value == 0


# -- the integer localization kernels against Fraction oracles ---------


def _localization_by_fractions(pd, lam, Y):
    """Per coset representative w: (phi, [(theta, j)]) with phi = (w lam)(Y),
    theta = (w alpha)(Y) and j = <alpha^vee, lam> for alpha in Psi, from
    word replay on weights and roots and Fraction root coordinates."""
    rs = pd.rs
    Y = default_y(rs) if Y is None else tuple(Fraction(y) for y in Y)
    data = []
    for w in coset_representatives(rs, pd.theta):
        phi = sum(c * y for c, y in
                  zip(rs.weight_to_root_coords(w.act_weight(rs, lam)), Y))
        angles = []
        for alpha in pd.psi:
            walpha = w.act_root(rs, alpha)
            theta = sum(Fraction(c) * y for c, y in zip(walpha.coords, Y))
            angles.append((theta, rs._pairing(lam, alpha)))
        data.append((phi, angles))
    return data


def fixed_point_by_fractions(pd, lam, Y=None):
    """The fixed-point sum with a Fraction for every operation:
    sum_w (prod theta)^{-1} sum_{l=1}^{N+1} sum_a
        (phi^{N+1} - phi^{N+1-l} (phi - j theta)^l) / (2 l theta)."""
    N = pd.dim
    total = Fraction(0)
    for phi, angles in _localization_by_fractions(pd, lam, Y):
        prod = Fraction(1)
        for theta, _ in angles:
            prod *= theta
        inner = Fraction(0)
        for l in range(1, N + 2):
            for theta, j in angles:
                refl = phi - j * theta
                inner += (phi ** (N + 1) - phi ** (N + 1 - l) * refl ** l) \
                    / (2 * l * theta)
        total += inner / prod
    return total


def harmo_bott_by_fractions(pd, lam, Y=None):
    """The Bott-residue sum with a Fraction for every operation:
    sum_w sum_{l=0}^{N} (-1)^l/(2(l+1)) C(N+1, l+1)
        sum_a j^{l+1} theta^l phi^{N-l} / prod theta."""
    N = pd.dim
    total = Fraction(0)
    for phi, angles in _localization_by_fractions(pd, lam, Y):
        prod = Fraction(1)
        for theta, _ in angles:
            prod *= theta
        inner = Fraction(0)
        for l in range(0, N + 1):
            pref = Fraction((-1) ** l, 2 * (l + 1)) * math.comb(N + 1, l + 1)
            s = Fraction(0)
            for theta, j in angles:
                s += Fraction(j) ** (l + 1) * theta ** l
            inner += pref * s * phi ** (N - l)
        total += inner / prod
    return total


def all_parabolics(spec):
    """(P_theta, lam) for every subset theta, lam ample with grades 1, 2."""
    rs = build_root_system(spec)
    for size in range(rs.rank + 1):
        for theta in itertools.combinations(range(rs.rank), size):
            lam = tuple(0 if i in theta else 1 + i % 2 for i in range(rs.rank))
            yield build_parabolic(rs, theta), lam


def w0_paired(pd, lam, Y=None):
    """Whether the localisation pass halves its sums by the w0 pairing."""
    coeffs = height._harmo_bott_kernel(*height._dim_and_lcm(pd))
    return height._localization_pass(pd, lam, Y, DEFAULT_CAP, coeffs)[1]


ORACLE_YS = {
    "default": lambda rank: None,
    "2,3,..": lambda rank: tuple(range(2, rank + 2)),
    "signed fractions": lambda rank: (Fraction(-1, 2), Fraction(5, 3),
                                      Fraction(7, 4))[:rank],
}


G2_BOREL_THIRD = "Borel at (1,1), Y = (1/3,2)"


@pytest.mark.parametrize("spec,y", [
    (spec, y) for spec in ["A3", "B3", "C3", "G2", "B2xA1"]
    for y in sorted(ORACLE_YS)] + [("G2", G2_BOREL_THIRD)])
def test_localization_kernels_match_fraction_oracles(spec, y):
    if y == G2_BOREL_THIRD:
        # the scale of Y is the lcm of the denominators of lam(Y) and of Y
        cases = [(build_parabolic(build_root_system(spec), ()), (1, 1),
                  (Fraction(1, 3), 2))]
    else:
        cases = [(pd, lam, ORACLE_YS[y](pd.rs.rank))
                 for pd, lam in all_parabolics(spec)]
    for pd, lam, Y in cases:
        assert height_fixed_point(pd, lam, Y).value == \
            fixed_point_by_fractions(pd, lam, Y)
        assert height_harmo_bott(pd, lam, Y).value == \
            harmo_bott_by_fractions(pd, lam, Y)


@pytest.mark.parametrize("spec,theta,lam,Y,paired", [
    # sigma-symmetric Y, not all ones: the halved sums
    ("A3", None, None, (2, 5, 2), True),
    ("A4", (), (1, 1, 1, 1), (1, 2, 2, 1), True),
    # -1 is not in W(A4), and this Y is not sigma-symmetric: the full sums
    ("A4", (), (1, 1, 1, 1), (2, 3, 4, 5), False),
])
def test_localization_kernels_on_both_paths(spec, theta, lam, Y, paired):
    # theta None: every parabolic of spec, each at its weight from
    # all_parabolics
    cases = all_parabolics(spec) if theta is None else \
        [(build_parabolic(build_root_system(spec), theta), lam)]
    for pd, lam in cases:
        assert w0_paired(pd, lam, Y) is paired
        assert height_fixed_point(pd, lam, Y).value == \
            fixed_point_by_fractions(pd, lam, Y)
        assert height_harmo_bott(pd, lam, Y).value == \
            harmo_bott_by_fractions(pd, lam, Y)


@pytest.mark.parametrize("spec,theta,lam", [
    ("D5", (), (1, 1, 1, 1, 1)),  # 1920 cosets
    ("E6", (0, 1, 2, 4, 5), (0, 0, 0, 1, 0, 0)),  # 720 cosets
])
def test_three_methods_agree_on_both_paths(spec, theta, lam):
    # the opposition involution of D5 and E6 is not trivial, so
    # Y = (1, 2, ...) takes the full sums and the default Y the halved ones
    pd = build_parabolic(build_root_system(spec), theta)
    asymmetric = tuple(range(1, pd.rs.rank + 1))
    assert w0_paired(pd, lam)
    assert not w0_paired(pd, lam, asymmetric)
    assert height_all_methods(pd, lam).value == \
        height_all_methods(pd, lam, asymmetric).value


@pytest.mark.parametrize("spec", ["A3", "B3", "C3", "G2", "B2xA1"])
def test_all_methods_walks_each_orbit_once(spec, monkeypatch):
    # one walk of the orbit of lam feeds both localisation kernels
    walks = []

    def counted(rs, seeds, cap):
        walks.append(seeds)
        return orbit(rs, seeds, cap)

    monkeypatch.setattr(height, "orbit", counted)
    for pd, lam in all_parabolics(spec):
        walks.clear()
        height_all_methods(pd, lam)
        assert len(walks) == 1


def _x_basis_kernel(N, L):
    """Fixed-point's polynomial in x = phi - t, where
    (phi^m - x^m) / theta = j h_{m-1}(phi, x) gives the coefficients
    C_e = sum_{l>e} L/l of x^e phi^{N-e}, expanded in t: the coefficient
    of t^l phi^{N-l} is (-1)^l sum_{e>=l} C_e C(e, l)."""
    C = list(itertools.accumulate(L // l for l in range(N + 1, 0, -1)))[::-1]
    return [(-1) ** l * sum(C[e] * math.comb(e, l) for e in range(l, N + 1))
            for l in range(N + 1)]


def test_fixed_point_and_harmo_bott_are_one_polynomial():
    for N in range(201):
        L = math.lcm(*range(1, N + 2))
        oracle = _x_basis_kernel(N, L)
        assert height._fixed_point_kernel(N, L) == oracle
        assert height._harmo_bott_kernel(N, L) == oracle


def _off_by_one(monkeypatch):
    """Patch harmo-bott's kernel to have K_0 one too large."""
    right = height._harmo_bott_kernel

    def wrong(N, L):
        coeffs = right(N, L)
        coeffs[0] += 1
        return coeffs

    monkeypatch.setattr(height, "_harmo_bott_kernel", wrong)


def test_differing_kernels_disagree_whatever_the_sums(monkeypatch):
    # every pass returns 136 = 2L 17/3 (L = 12), the right sum for B2/P2
    # at (1, 0); the lists still differ, so the methods disagree
    _off_by_one(monkeypatch)
    monkeypatch.setattr(height, "_localization_pass",
                        lambda pd, lam, Y, cap, coeffs: (Fraction(136), True))
    pd = build_parabolic(build_root_system("B2"), {1})
    with pytest.raises(MethodDisagreement) as exc:
        height_all_methods(pd, (1, 0))
    assert set(exc.value.values.values()) == {Fraction(17, 3)}


def test_method_disagreement_names_every_method_in_order(monkeypatch):
    _off_by_one(monkeypatch)
    pd = build_parabolic(build_root_system("B2"), {1})
    with pytest.raises(MethodDisagreement) as exc:
        height_all_methods(pd, (1, 0), (Fraction(1, 2), 3))
    assert str(exc.value) == "height methods disagree: substitution=17/3, " \
        "fixed_point=17/3, harmo_bott=6"
    assert exc.value.y == (Fraction(1, 2), 3) and exc.value.w0_paired


def _substitution_off_by_one(monkeypatch):
    """Patch substitution to return the true height plus 1."""
    right = height.height_substitution
    monkeypatch.setattr(height, "height_substitution", lambda pd, lam:
                        HeightResult(right(pd, lam).value + 1))


def test_substitution_alone_wrong_disagrees(monkeypatch):
    # equal kernels and two distinct values among the three methods
    _substitution_off_by_one(monkeypatch)
    pd = build_parabolic(build_root_system("B2"), {1})
    with pytest.raises(MethodDisagreement) as exc:
        height_all_methods(pd, (1, 0))
    assert exc.value.values == {"substitution": Fraction(20, 3),
                                "fixed_point": Fraction(17, 3),
                                "harmo_bott": Fraction(17, 3)}


# -- localization properties -------------------------------------------


Y_CHOICES = [(1, 1), (2, 3), (Fraction(1, 2), Fraction(5, 3))]


@pytest.mark.parametrize("Y", Y_CHOICES)
def test_y_independence(Y):
    rs = build_root_system("B2")
    pd = build_parabolic(rs, set())
    lam = (1, 2)
    base = height_substitution(pd, lam).value
    assert height_fixed_point(pd, lam, Y).value == base
    assert height_harmo_bott(pd, lam, Y).value == base


def test_default_y_is_ones():
    rs = build_root_system("A3")
    assert default_y(rs) == (1, 1, 1)


def test_non_regular_y_rejected():
    rs = build_root_system("A2")
    pd = build_parabolic(rs, set())
    with pytest.raises(NotRegularY):
        height_fixed_point(pd, (1, 1), Y=(1, -1))


@pytest.mark.parametrize("Y", [(1, 2, 3), (1,)])
def test_wrong_length_y_rejected(Y):
    # a Y longer than the rank was truncated by zip, a shorter one was
    # reported as vanishing on a root
    pd = build_parabolic(build_root_system("A2"), set())
    for method in (height_fixed_point, height_harmo_bott, height_all_methods):
        with pytest.raises(ValueError, match=f"^Y has {len(Y)} coordinates, "
                           "rank is 2$") as exc:
            method(pd, (1, 1), Y)
        assert not isinstance(exc.value, NotRegularY)


def test_non_ample_rejected():
    rs = build_root_system("B2")
    pd = build_parabolic(rs, {1})
    with pytest.raises(NotAmple):
        height_fixed_point(pd, (1, 1))
    with pytest.raises(NotAmple):
        height_substitution(pd, (0, 0))
    # (1, -1) is not dominant, so not ample
    a2_borel = build_parabolic(build_root_system("A2"), set())
    with pytest.raises(NotAmple):
        height_fixed_point(a2_borel, (1, -1))


@pytest.mark.parametrize("lam", [(1, 1), (1, 1, 1, 1)])
def test_wrong_length_weight_rejected(lam):
    pd = build_parabolic(build_root_system("A3"), set())
    with pytest.raises(ValueError, match="rank is 3"):
        height_substitution(pd, lam)
    with pytest.raises(ValueError, match="rank is 3"):
        height_fixed_point(pd, lam)
    with pytest.raises(ValueError, match="rank is 3"):
        height_all_methods(pd, lam)


@pytest.mark.parametrize("a", [2, 3])
def test_homogeneity(a):
    # height(a lam) = a^{dim+1} height(lam)
    rs = build_root_system("A2")
    pd = build_parabolic(rs, set())
    lam = (1, 1)
    scaled = tuple(a * x for x in lam)
    h1 = height_all_methods(pd, lam).value
    ha = height_all_methods(pd, scaled).value
    assert ha == Fraction(a) ** (pd.dim + 1) * h1


def test_denominator_check():
    rs = build_root_system("A2")
    pd = build_parabolic(rs, set())
    res = height_all_methods(pd, (1, 1))
    c = rs.coxeter_number
    assert denominator_check(res, 2 * c - 2)


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**6, 10**6), st.integers(1, 10**6), st.integers(-2, 60))
def test_denominator_check_bounds_each_prime_power(num, den, bound):
    # d divides lcm(1..b) iff every prime power exactly dividing d is <= b
    value = Fraction(num, den)
    factors = prime_factorization((2 * value).denominator)
    assert denominator_check(HeightResult(value), bound) == all(
        p ** e <= bound for p, e in factors.items())


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 2), st.integers(1, 2))
def test_methods_agree_on_b2_full_flag(x, y):
    rs = build_root_system("B2")
    pd = build_parabolic(rs, set())
    height_all_methods(pd, (x, y))  # raises unless the three agree


@functools.cache
def _cheap_thetas(spec, bound=300):
    """The subsets theta whose G/P_theta has at most `bound` cosets."""
    rs = build_root_system(spec)
    return [theta for size in range(rs.rank + 1)
            for theta in itertools.combinations(range(rs.rank), size)
            if weyl_order(rs) // subgroup_order(rs, theta) <= bound]


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_methods_agree_on_exceptional_types(data):
    spec = data.draw(st.sampled_from(["D4", "E6", "F4"]))
    theta = data.draw(st.sampled_from(_cheap_thetas(spec)))
    rs = build_root_system(spec)
    pd = build_parabolic(rs, theta)
    grades = data.draw(st.lists(st.integers(1, 2), min_size=rs.rank,
                                max_size=rs.rank))
    lam = tuple(0 if i in theta else g for i, g in enumerate(grades))
    Y = tuple(data.draw(st.lists(st.integers(-1000, 1000), min_size=rs.rank,
                                 max_size=rs.rank)))
    assume(all(sum(c * y for c, y in zip(beta.coords, Y))
               for beta in rs.positive_roots))
    h = height_all_methods(pd, lam).value
    assert height_fixed_point(pd, lam, Y).value == h
    assert height_harmo_bott(pd, lam, Y).value == h
    doubled = tuple(2 * x for x in lam)
    assert height_substitution(pd, doubled).value == 2 ** (pd.dim + 1) * h
