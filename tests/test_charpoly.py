import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flagheight.charpoly import (
    BivariatePolynomial,
    _packed_sum,
    _pairings,
    _unpack,
    _width,
    dim_polynomial,
    dim_polynomial_parts,
    f_j,
    formal_character,
    freudenthal,
    weyl_dim,
)
from flagheight.parabolic import NotAmple, build_parabolic, psi_grading
from flagheight.rootsys import RootSystem, build_root_system
from oracles import (
    NotRegular,
    char_value,
    check_regular_point,
    freudenthal_by_dominant_lookup,
    kostant_multiplicity,
    lefschetz_localized_character,
    poly_coeff,
    poly_constant,
    poly_deg_k,
    poly_deg_m,
    poly_evaluate,
    poly_linear,
    poly_mul,
    poly_substitute_k,
    poly_total_degree,
    skew_symmetry_holds,
)

B = BivariatePolynomial


@pytest.fixture(scope="module")
def a2():
    return build_root_system("A2")


@pytest.fixture(scope="module")
def b2():
    return build_root_system("B2")


@pytest.fixture(scope="module")
def g2():
    return build_root_system("G2")


# -- polynomial ring ----------------------------------------------------


def test_polynomial_ring_ops():
    p = poly_linear(1, 2, -1)  # 1 + 2m - k
    q = poly_linear(0, 0, 1)   # k
    assert poly_coeff(poly_mul(p, q), 1, 1) == 2
    assert poly_coeff(p + q, 0, 1) == 0
    assert not (p + poly_mul(p, -1)).terms
    assert poly_evaluate(p, 3, 2) == 5


def test_substitute_k_is_ring_hom():
    p = B.from_dict({(0, 2): 1, (1, 1): 3, (0, 0): -2})
    image = poly_linear(1, 1, 0)  # k -> 1 + m
    got = poly_substitute_k(p, image)
    for m in range(4):
        assert poly_evaluate(got, m, 0) == poly_evaluate(p, m, 1 + m)


@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
def test_polynomial_mul_matches_evaluation(a, bb, c):
    p = poly_linear(a, bb, c)
    q = B.from_dict({(2, 0): 1, (0, 1): a})
    for m, k in itertools.product(range(-2, 3), repeat=2):
        assert poly_evaluate(poly_mul(p, q), m, k) == \
            poly_evaluate(p, m, k) * poly_evaluate(q, m, k)


# -- dimension polynomials ---------------------------------------------


def test_dim_polynomial_p1():
    rs = build_root_system("A1")
    pd = build_parabolic(rs, set())
    alpha = pd.psi[0]
    d = dim_polynomial(pd, (1,), alpha)
    # dim of rho + m om - k alpha is 1 + m - 2k
    assert d.terms == {(0, 0): 1, (1, 0): 1, (0, 1): -2}


def test_dim_polynomial_names_theta_one_based(b2):
    pd = build_parabolic(b2, {1})
    with pytest.raises(NotAmple,
                       match=r"^\(1, 1\) is not ample for theta=\[2\]$"):
        dim_polynomial(pd, (1, 1), pd.psi[0])


def test_dim_polynomial_specializes_to_weyl_dim(b2):
    pd = build_parabolic(b2, set())
    lam = (1, 1)
    alpha = pd.psi[0]
    d = dim_polynomial(pd, lam, alpha)
    # at k = 0 this is the dimension of the irreducible with h.w. m*lam
    for m in range(4):
        assert poly_evaluate(d, m, 0) == weyl_dim(b2, (m, m))


def _dim_polynomial_by_fractions(pd, lam, alpha):
    """The product of the Fraction linear factors, multiplied out in full."""
    rs = pd.rs
    walpha = rs._root_weights[alpha.coords]
    poly = poly_constant(1)
    for beta in rs.positive_roots:
        r = rs._pairing(rs.rho, beta)
        poly = poly_mul(poly, poly_linear(
            1, Fraction(rs._pairing(lam, beta), r),
            Fraction(-rs._pairing(walpha, beta), r)))
    return poly


@pytest.mark.parametrize("spec,theta,lam", [
    ("A3", set(), (1, 2, 1)),
    ("B3", {0}, (0, 1, 1)),
    ("C3", {1, 2}, (2, 0, 0)),
    ("G2", set(), (1, 1)),
    ("B2xA1", {1}, (1, 0, 1)),
    # wide packed digits, and negative c
    ("G2", set(), (37, 53)),
    ("B3", {0}, (0, 41, 3)),
    ("F4", {1, 2}, (9, 0, 0, 11)),
])
def test_dim_polynomial_matches_fraction_product(spec, theta, lam):
    rs = build_root_system(spec)
    pd = build_parabolic(rs, theta)
    for alpha in pd.psi:
        assert dim_polynomial(pd, lam, alpha).terms == \
            _dim_polynomial_by_fractions(pd, lam, alpha).terms


@pytest.mark.parametrize("spec,theta,lam", [
    ("B3", set(), (1, 1, 1)),
    ("D4", {0, 2, 3}, (0, 1, 0, 0)),
    ("G2", set(), (37, 53)),
    ("B3", {0}, (0, 41, 3)),
    ("F4", {1, 2}, (9, 0, 0, 11)),
])
def test_truncated_parts_match_full_product(spec, theta, lam):
    rs = build_root_system(spec)
    pd = build_parabolic(rs, theta)
    n = rs.num_positive_roots
    for alpha in pd.psi:
        R, full = dim_polynomial_parts(pd, lam, alpha)
        assert R == math.prod(rs._pairing(rs.rho, b)
                              for b in rs.positive_roots)
        assert [len(part) for part in full] == list(range(1, n + 2))
        for low, top in [(pd.dim, pd.dim), (0, 3), (2, n - 1), (n, n)]:
            assert dim_polynomial_parts(pd, lam, alpha, low, top) == \
                (R, full[low:top + 1])


def _factors(rs, lam, alpha):
    """(scale, [(r, a, c), ...]): the integer factors r + a m + c k of R
    times the dimension polynomial of alpha, the constant ones multiplied
    into scale; the job format of charpoly._width."""
    walpha = rs._root_weights[alpha.coords]
    scale, factors = 1, []
    for beta in rs.positive_roots:
        r, a = rs._pairing(rs.rho, beta), rs._pairing(lam, beta)
        c = -rs._pairing(walpha, beta)
        if a or c:
            factors.append((r, a, c))
        else:
            scale *= r
    return scale, factors


def _parts_by_lists(scale, factors, top):
    """The homogeneous parts of degree 0..top of scale prod (r + a m + c k),
    each a list of its coefficients, lowest power of k first."""
    parts = [[scale]] + [[0] * (d + 1) for d in range(1, top + 1)]
    for r, a, c in factors:
        for d in range(top, 0, -1):
            prev = parts[d - 1] + [0]
            parts[d] = [r * x + a * p + c * q for x, p, q
                        in zip(parts[d], prev, [0] + prev)]
        parts[0] = [r * parts[0][0]]
    return parts


_WIDTH_GROUPS = ["A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C3",
                 "C4", "C5", "D4", "D5", "G2", "F4", "E6"]


@pytest.mark.parametrize("spec,theta,lam", [
    *((spec, None, None) for spec in _WIDTH_GROUPS),  # every maximal one
    ("G2", set(), (37, 53)),
    ("B3", {0}, (0, 41, 3)),
    ("F4", {1, 2}, (9, 0, 0, 11)),
    ("C3", set(), (1, 1, 1)),
])
def test_packed_width_holds_every_digit(spec, theta, lam):
    """_width bounds every digit the kernel keeps, |e| < 2^(B-1), and is
    never wider than the plain coefficient sum sum_alpha scale
    prod (r + |a| + |c|); with low = 0 it is that sum's width."""
    rs = build_root_system(spec)
    if theta is None:
        cases = [(build_parabolic(rs, set(range(rs.rank)) - {i}),
                  tuple(int(k == i) for k in range(rs.rank)))
                 for i in range(rs.rank)]
    else:
        cases = [(build_parabolic(rs, theta), lam)]
    n = rs.num_positive_roots
    for pd, lam in cases:
        pairings = _pairings(rs, lam)
        for bucket in psi_grading(pd, lam).buckets.values():
            # graded_part's call, and dim_polynomial_parts' on one root
            for alphas, low, top in [(bucket, pd.dim, pd.dim),
                                     (bucket[:1], 0, n)]:
                jobs = [_factors(rs, lam, alpha) for alpha in alphas]
                width = _width(jobs, low)
                plain = sum(scale * math.prod(r + abs(a) + abs(c)
                                              for r, a, c in factors)
                            for scale, factors in jobs)
                assert width <= plain.bit_length() + 1
                if low == 0:
                    assert width == plain.bit_length() + 1
                truth = [list(map(sum, zip(*column))) for column in zip(
                    *(_parts_by_lists(*job, top)[low:] for job in jobs))]
                assert all(abs(e) < 1 << width - 1
                           for part in truth for e in part)
                kernel_width, packed = _packed_sum(rs, pairings, alphas,
                                                   low, top)
                assert kernel_width == width
                assert [_unpack(x, d + 1, width)
                        for d, x in enumerate(packed, low)] == truth


@pytest.mark.parametrize("spec,theta,lam", [
    ("A2", set(), (1, 1)),
    ("B2", {1}, (1, 0)),
    ("B2", set(), (2, 1)),
    ("G2", set(), (1, 1)),
])
def test_degree_bounds(spec, theta, lam):
    rs = build_root_system(spec)
    pd = build_parabolic(rs, theta)
    n = pd.dim
    c = rs.coxeter_number
    grading = psi_grading(pd, lam)
    for j in grading.buckets:
        poly = f_j(pd, lam, j)
        # m appears once per root pairing nonzero with lam, i.e. once per
        # element of Psi
        assert poly_deg_m(poly) == n
        assert poly_total_degree(poly) <= rs.num_positive_roots
        assert poly_deg_k(poly) <= 2 * c - 3


@pytest.mark.parametrize("spec,theta,lam", [
    ("A1", set(), (1,)),
    ("A2", {1}, (1, 0)),
    ("B2", {1}, (1, 0)),
    ("B2", set(), (1, 2)),
    ("G2", set(), (1, 1)),
])
def test_skew_symmetry(spec, theta, lam):
    rs = build_root_system(spec)
    pd = build_parabolic(rs, theta)
    for alpha in pd.psi:
        assert skew_symmetry_holds(pd, lam, alpha)


# -- multiplicities -----------------------------------------------------


def test_weyl_dims_known():
    assert weyl_dim(build_root_system("A1"), (3,)) == 4
    assert weyl_dim(build_root_system("A2"), (1, 1)) == 8
    assert weyl_dim(build_root_system("B2"), (0, 1)) == 4
    assert weyl_dim(build_root_system("G2"), (1, 0)) == 7
    assert weyl_dim(build_root_system("G2"), (0, 1)) == 14


def test_wrong_length_weight_rejected():
    a3 = build_root_system("A3")
    with pytest.raises(ValueError, match="rank is 3"):
        weyl_dim(a3, (1, 1))
    with pytest.raises(ValueError, match="rank is 3"):
        freudenthal(a3, (1, 1))
    with pytest.raises(ValueError, match="rank is 3"):
        freudenthal(a3, (1, 1, 1, 1), subset={0})


def test_freudenthal_adjoint_a2(a2):
    table = freudenthal(a2, (1, 1))
    assert table[(0, 0)] == 2
    assert sum(table.values()) == 8


def test_freudenthal_g2_adjoint(g2):
    table = freudenthal(g2, (0, 1))
    assert table[(0, 0)] == 2
    assert sum(table.values()) == 14


def test_freudenthal_total_dim_matches_weyl_dim(b2):
    for lam0 in itertools.product(range(3), repeat=2):
        assert sum(freudenthal(b2, lam0).values()) == weyl_dim(b2, lam0)


def test_freudenthal_vs_kostant_b2(b2):
    for lam0 in itertools.product(range(3), repeat=2):
        table = freudenthal(b2, lam0)
        for mu, m in table.items():
            assert kostant_multiplicity(b2, lam0, mu) == m


@pytest.mark.parametrize("spec", ["A3", "B3", "C3"])
def test_freudenthal_vs_kostant_rank3(spec):
    rs = build_root_system(spec)
    # dominant weights only: the Levi test below checks W-invariance
    for lam0 in itertools.product(range(2), repeat=3):
        for mu, m in freudenthal(rs, lam0).items():
            if rs.is_dominant(mu):
                assert kostant_multiplicity(rs, lam0, mu) == m


@pytest.mark.parametrize("spec,lam0,ones,zero_mult", [
    ("F4", (0, 0, 0, 1), 24, 2),
    ("E6", (0, 1, 0, 0, 0, 0), 72, 6),  # the adjoint representation
    ("E7", (0, 0, 0, 0, 0, 0, 1), 56, 0),
])
def test_freudenthal_exceptional_tables(spec, lam0, ones, zero_mult):
    rs = build_root_system(spec)
    table = freudenthal(rs, lam0)
    zero = (0,) * rs.rank
    assert table.get(zero, 0) == zero_mult
    assert sorted(m for mu, m in table.items() if mu != zero) == [1] * ones


_LEVI_SPECS = ["A2", "A3", "A4", "B3", "C3", "D4", "G2", "F4"]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_freudenthal_levi_dim_and_invariance(data):
    rs = build_root_system(data.draw(st.sampled_from(_LEVI_SPECS)))
    n = rs.rank
    theta = data.draw(st.sets(st.integers(0, n - 1)))
    # small lam0: at most 2 on theta in total, anything in -2..2 off it
    on = data.draw(st.lists(st.sampled_from(sorted(theta)), max_size=2)
                   if theta else st.just([]))
    off = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    lam0 = tuple(on.count(i) if i in theta else off[i] for i in range(n))
    table = freudenthal(rs, lam0, subset=theta)
    lr = tuple(l + r for l, r in zip(lam0, rs.rho))
    levi = [b for b in rs.positive_roots
            if all(i in theta for i, c in enumerate(b.coords) if c)]
    dim = math.prod(Fraction(rs._pairing(lr, b), rs._pairing(rs.rho, b))
                    for b in levi)
    assert sum(table.values()) == dim
    for i in theta:
        assert {rs.simple_reflect_weight(i, mu): m
                for mu, m in table.items()} == table


def _bfs_orbit_expansion(rs, table, subset):
    """The orbit expansion freudenthal used to run, as an oracle: a BFS with
    a set from each subset-dominant weight of `table`, reflecting every
    point by every simple index of the subset."""
    mult = {}
    for mu, m in table.items():
        if not rs.is_dominant(mu, subset):
            continue
        orbit = {mu}
        frontier = [mu]
        while frontier:
            nxt = []
            for nu in frontier:
                for i in subset:
                    r = rs.simple_reflect_weight(i, nu)
                    if r not in orbit:
                        orbit.add(r)
                        nxt.append(r)
            frontier = nxt
        for nu in orbit:
            mult[nu] = m
    return mult


def _orbit_walk_cases():
    """Every subset of the rank-3 types and B2xA1, and rank-3 subsets of
    D4 and F4 whose roots have neighbours outside the subset."""
    for spec in ["A3", "B3", "C3", "G2", "B2xA1"]:
        n = build_root_system(spec).rank
        for r in range(n + 1):
            yield from ((spec, subset)
                        for subset in itertools.combinations(range(n), r))
    yield from [("D4", (0, 1, 2)), ("D4", (0, 2, 3)), ("D4", (1, 2, 3)),
                ("F4", (0, 1, 2)), ("F4", (1, 2, 3)), ("F4", (0, 2, 3))]


@pytest.mark.parametrize("spec,subset", [
    pytest.param(spec, subset, id=f"{spec}-{''.join(map(str, subset))}")
    for spec, subset in _orbit_walk_cases()])
def test_freudenthal_orbit_walk_matches_bfs(spec, subset):
    rs = build_root_system(spec)
    box = 2 if len(subset) < 3 else 1
    for on in itertools.product(range(box + 1), repeat=len(subset)):
        for off in (0, -1, -2):
            # off-subset coordinates are negative and unequal, so that the
            # reflections push them around
            lam0 = [off - i % 2 if off else 0 for i in range(rs.rank)]
            for i, v in zip(subset, on):
                lam0[i] = v
            table = freudenthal(rs, tuple(lam0), subset)
            assert table == _bfs_orbit_expansion(rs, table, subset)
            # the same dict, in the same key order, as the string walk
            # that looks up dominant representatives
            expected = freudenthal_by_dominant_lookup(rs, tuple(lam0), subset)
            assert list(table.items()) == list(expected.items())


def _small_dominant_weights(rs, top=2, max_dim=1500):
    """Dominant weights with coordinate sum at most `top` and Weyl
    dimension at most `max_dim`."""
    for lam0 in itertools.product(range(top + 1), repeat=rs.rank):
        if sum(lam0) <= top and weyl_dim(rs, lam0) <= max_dim:
            yield lam0


@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "A4", "A5", "B2", "B3",
                                  "B4", "C3", "D4", "G2", "F4", "E6"])
def test_freudenthal_matches_dominant_lookup_oracle(spec):
    # the same dict, in the same key order
    rs = build_root_system(spec)
    for lam0 in _small_dominant_weights(rs):
        table = freudenthal(rs, lam0)
        expected = freudenthal_by_dominant_lookup(rs, lam0)
        assert table == expected
        assert list(table) == list(expected)


def test_freudenthal_finds_no_dominant_representative(monkeypatch):
    # the root strings are looked up in the orbit walk: with the simple
    # reflection of a weight, from which a dominant representative is
    # found, made to raise, freudenthal still runs
    cases = [("B3", (1, 0, 1), None), ("F4", (1, 0, 0, 1), None),
             ("C3", (2, -1, 1), (0, 2))]
    expected = [freudenthal_by_dominant_lookup(build_root_system(spec), lam0,
                                               subset)
                for spec, lam0, subset in cases]

    def refuse(*args, **kwargs):
        raise RuntimeError("a weight was reflected")

    monkeypatch.setattr(RootSystem, "simple_reflect_weight", refuse)
    assert not hasattr(RootSystem, "dominant_representative")
    for (spec, lam0, subset), table in zip(cases, expected):
        rs = build_root_system(spec)
        assert list(freudenthal(rs, lam0, subset).items()) == \
            list(table.items())


def test_levi_character(b2):
    # Levi {alpha_2} of B2: h.w. om_1 restricts to the trivial module,
    # h.w. om_2 to a two-dimensional sl2 string
    assert freudenthal(b2, (1, 0), subset={1}) == {(1, 0): 1}
    table = freudenthal(b2, (0, 1), subset={1})
    assert table == {(0, 1): 1, (1, -1): 1}


# -- formal characters --------------------------------------------------


def test_formal_character_dominant(a2):
    nu = tuple(1 + l for l in (1, 1))  # rho + (1,1)
    table = formal_character(a2, nu)
    assert table[(0, 0)] == 2


def test_formal_character_singular(a2):
    # nu on a wall: rho + lam with a zero pairing
    assert formal_character(a2, (0, 2)) == {}


def test_formal_character_sign(a2):
    # one reflection away from dominant: sign flips
    nu = (2, 1)
    s_nu = a2.simple_reflect_weight(0, nu)
    t1 = formal_character(a2, nu)
    t2 = formal_character(a2, s_nu)
    assert t2 == {mu: -m for mu, m in t1.items()}


# -- numeric characters -------------------------------------------------

X_A2 = (Fraction(1, 5), Fraction(1, 7))


def test_check_regular_point(a2):
    with pytest.raises(NotRegular):
        check_regular_point(a2, (Fraction(1, 2), Fraction(1, 2)))
    check_regular_point(a2, X_A2)


def test_char_value_matches_table(a2):
    lam0 = (1, 1)
    nu = tuple(l + r for l, r in zip(lam0, a2.rho))
    table = freudenthal(a2, lam0)
    from oracles import character_sum_value

    direct = character_sum_value(a2, table, X_A2)
    wcf = char_value(a2, nu, X_A2)
    assert abs(direct - wcf) < 1e-9


@pytest.mark.parametrize("theta", [set(), {0}, {1}])
def test_lefschetz_identity_a2(a2, theta):
    lam = (2, 1)
    pd = build_parabolic(a2, theta)
    nu = tuple(l + r for l, r in zip(lam, a2.rho))
    full = char_value(a2, nu, X_A2)
    loc = lefschetz_localized_character(pd, lam, X_A2)
    assert abs(full - loc) < 1e-9
