"""Acceptance suite.  Each test covers one release criterion and prints a
single PASS line with a short summary once its assertions have held."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from flagheight.charpoly import f_j, freudenthal
from flagheight.height import (
    denominator_check,
    height_all_methods,
    height_fixed_point,
    height_harmo_bott,
    height_substitution,
)
from flagheight.jantzen import jantzen_rhs, lambda0_component
from flagheight.parabolic import build_parabolic, psi_grading
from flagheight.rootsys import build_root_system
from flagheight.weyl import coset_representatives, enumerate_weyl, weyl_order
from oracles import (
    char_value,
    character_sum_value,
    check_regular_point,
    height_grassmannian,
    height_hypersurface,
    height_projective,
    height_quadric_even,
    height_quadric_odd,
    kostant_multiplicity,
    lefschetz_localized_character,
    poly_deg_k,
    poly_deg_m,
    poly_total_degree,
    skew_symmetry_holds,
    subgroup_order,
    verify_parabolic_independence,
)

NUMERIC_TOL = 1e-9


def minuscule_parabolic(spec, node):
    """G/P with the single node removed from the Levi, lam = om_node."""
    rs = build_root_system(spec)
    theta = frozenset(range(rs.rank)) - {node}
    lam = tuple(1 if i == node else 0 for i in range(rs.rank))
    return rs, build_parabolic(rs, theta), lam


def _battery_instances():
    """(spec, theta, lam) spanning full flags and maximal parabolics with
    ample coordinates at most 2."""
    items = []
    full = {
        "A1": [(1,), (2,)],
        "A2": [(1, 1), (2, 1), (1, 2), (2, 2)],
        "A3": [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)],
        "B2": [(1, 1), (2, 1), (1, 2), (2, 2)],
        "B3": [(1, 1, 1), (2, 1, 1)],
        "C3": [(1, 1, 1), (1, 1, 2)],
        "D4": [(1, 1, 1, 1), (2, 1, 1, 1)],
        "G2": [(1, 1), (2, 1), (1, 2), (2, 2)],
    }
    for spec, lams in full.items():
        for lam in lams:
            items.append((spec, frozenset(), lam))
    maximal = {
        "A2": 2, "A3": 1, "B2": 2, "B3": 1, "C3": 1, "D4": 1, "G2": 2,
    }
    for spec, top in maximal.items():
        rank = build_root_system(spec).rank
        for node in range(rank):
            for scale in range(1, top + 1):
                theta = frozenset(range(rank)) - {node}
                lam = tuple(scale if i == node else 0 for i in range(rank))
                items.append((spec, theta, lam))
    return items


@pytest.fixture(scope="module")
def battery_results():
    out = []
    for spec, theta, lam in _battery_instances():
        rs = build_root_system(spec)
        pd = build_parabolic(rs, theta)
        res = height_all_methods(pd, lam)
        out.append((spec, pd, lam, res))
    return out


def test_criterion_01_projective_anchor():
    start = time.monotonic()
    for n in range(1, 9):
        _, pd, lam = minuscule_parabolic(f"A{n}", 0)
        res = height_all_methods(pd, lam)
        assert res.value == height_projective(n)
    elapsed = time.monotonic() - start
    assert elapsed < 10
    print(f"\nPASS criterion 1: P^1..P^8 exact by all methods "
          f"({elapsed:.2f}s)")


def test_criterion_02_quadric_anchors():
    start = time.monotonic()
    for m in (2, 3, 4):
        _, pd, lam = minuscule_parabolic(f"B{m}", 0)
        assert height_all_methods(pd, lam).value == height_quadric_odd(m)
    for m in (2, 3):
        _, pd, lam = minuscule_parabolic(f"D{m + 1}", 0)
        assert height_all_methods(pd, lam).value == height_quadric_even(m)
    elapsed = time.monotonic() - start
    assert elapsed < 30
    print(f"\nPASS criterion 2: quadrics Q3,Q5,Q7 and Q4,Q6 exact "
          f"({elapsed:.2f}s)")


def test_criterion_03_three_method_battery(battery_results):
    start = time.monotonic()
    assert len(battery_results) >= 40
    specs = {spec for spec, _, _, _ in battery_results}
    assert specs >= {"A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2"}
    # height_all_methods already raised on any disagreement
    elapsed = time.monotonic() - start
    print(f"\nPASS criterion 3: three-method agreement on "
          f"{len(battery_results)} instances across {len(specs)} types")


def test_criterion_04_grassmannians():
    start = time.monotonic()
    cases = [("A2", (3, 1)), ("A3", (4, 2)), ("A4", (5, 2))]
    for spec, (m, k) in cases:
        # G(m,k) is A_{m-1} with the k-th node removed from the Levi
        _, pd, lam = minuscule_parabolic(spec, k - 1)
        assert height_all_methods(pd, lam).value == height_grassmannian(m, k)
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(f"\nPASS criterion 4: Grassmannians (3,1),(4,2),(5,2) exact "
          f"({elapsed:.2f}s)")


def test_criterion_05_hypersurface_degeneration():
    for n in range(1, 7):
        assert height_hypersurface(n, 1) == height_projective(n)
    print("\nPASS criterion 5: degree-1 hypersurface equals P^n for n=1..6")


def test_criterion_06_denominator_bounds(battery_results):
    conj_fail = []
    for spec, pd, lam, res in battery_results:
        c = pd.rs.coxeter_number
        assert denominator_check(res, 2 * c - 2), (spec, lam, res.value)
        if not denominator_check(res, c - 1):
            conj_fail.append((spec, sorted(pd.theta), lam))
    note = ("all satisfied" if not conj_fail
            else f"{len(conj_fail)} exception(s): {conj_fail[:5]}")
    print(f"\nPASS criterion 6: prime powers in denom(2h) <= 2c-2 on the "
          f"battery; conjectural bound c-1 informational, {note}")


def test_criterion_07_dimension_polynomials(battery_results):
    checked = 0
    for spec, pd, lam, _ in battery_results:
        rs = pd.rs
        c = rs.coxeter_number
        grading = psi_grading(pd, lam)
        for j in grading:
            poly = f_j(pd, lam, j)
            assert poly_deg_m(poly) == pd.dim
            assert poly_total_degree(poly) <= rs.num_positive_roots
            assert poly_deg_k(poly) <= 2 * c - 3
        for alpha in pd.psi:
            assert skew_symmetry_holds(pd, lam, alpha), (spec, lam,
                                                         alpha.coords)
            checked += 1
    print(f"\nPASS criterion 7: degree bounds and skew symmetry for "
          f"{checked} dimension polynomials")


def test_criterion_08_multiplicity_oracles():
    points = {"A2": (Fraction(1, 5), Fraction(1, 7)),
              "B2": (Fraction(1, 7), Fraction(1, 11)),
              "G2": (Fraction(1, 11), Fraction(1, 13))}
    compared = 0
    for spec, X in points.items():
        rs = build_root_system(spec)
        check_regular_point(rs, X)
        for lam0 in itertools.product(range(4), repeat=rs.rank):
            table = freudenthal(rs, lam0)
            for mu, m in table.items():
                if rs.is_dominant(mu):
                    assert kostant_multiplicity(rs, lam0, mu) == m
                    compared += 1
            nu = tuple(l + r for l, r in zip(lam0, rs.rho))
            wcf = char_value(rs, nu, X)
            direct = character_sum_value(rs, table, X)
            assert abs(wcf - direct) <= NUMERIC_TOL * max(1.0, abs(direct))
    print(f"\nPASS criterion 8: Freudenthal = Kostant ({compared} dominant "
          f"weights) and = numeric characters at 1e-9 on A2, B2, G2")


JANTZEN_GRID = [
    ("A2", {1}, (1, 0)), ("A2", {1}, (2, 0)), ("A2", {1}, (3, 0)),
    ("A2", {0}, (0, 1)), ("A2", {0}, (0, 2)), ("A2", {0}, (0, 3)),
    ("B2", {1}, (1, 0)), ("B2", {1}, (2, 0)),
    ("B2", {0}, (0, 1)), ("B2", {0}, (0, 2)),
    ("A3", {0, 2}, (0, 1, 0)), ("A3", {0, 2}, (0, 2, 0)),
    ("A3", {1, 2}, (1, 0, 0)), ("A3", {1, 2}, (2, 0, 0)),
    ("A3", {0, 1}, (0, 0, 1)), ("A3", {0, 1}, (0, 0, 2)),
    ("B3", {1, 2}, (1, 0, 0)), ("C3", {1, 2}, (1, 0, 0)),
    ("G2", {1}, (1, 0)), ("G2", {1}, (2, 0)), ("G2", {0}, (0, 1)),
]


def test_criterion_09_jantzen_structure():
    # hand value on the full flag of A1 at lam = 3 om
    rs = build_root_system("A1")
    pd = build_parabolic(rs, set())
    assert jantzen_rhs(pd, (3,)) == {3: {(1,): 1, (-1,): 1}}

    assert len(JANTZEN_GRID) >= 20
    for spec, theta, lam in JANTZEN_GRID:
        rs = build_root_system(spec)
        assert verify_parabolic_independence(rs, lam, theta), (spec, lam)
        pd = build_parabolic(rs, theta)
        combo = jantzen_rhs(pd, lam)
        assert lambda0_component(combo, pd, lam) == {}, (spec, lam)
    print(f"\nPASS criterion 9: lambda0 component zero and parabolic "
          f"independence on {len(JANTZEN_GRID)} triples; sl2 value exact")


def _random_regular_point(rs, rnd):
    while True:
        X = tuple(Fraction(rnd.randint(1, 40), rnd.choice([41, 43, 47, 53]))
                  for _ in range(rs.rank))
        try:
            check_regular_point(rs, X)
            return X
        except ValueError:
            continue


def test_criterion_10_lefschetz_identity():
    rnd = random.Random(20240817)
    for spec, lam, theta in [("A2", (2, 1), {1}), ("B2", (1, 2), {0})]:
        rs = build_root_system(spec)
        pd = build_parabolic(rs, theta)
        nu = tuple(l + r for l, r in zip(lam, rs.rho))
        for _ in range(5):
            X = _random_regular_point(rs, rnd)
            full = char_value(rs, nu, X)
            loc = lefschetz_localized_character(pd, lam, X)
            assert abs(full - loc) <= NUMERIC_TOL * max(1.0, abs(full))
    print("\nPASS criterion 10: Lefschetz localization matches the full "
          "character at 5 random regular points on A2 and B2")


def test_criterion_11_property_suite():
    # Y-independence for three localization vectors
    rs = build_root_system("B2")
    pd = build_parabolic(rs, set())
    lam = (1, 2)
    base = height_substitution(pd, lam).value
    for Y in [(1, 1), (3, 2), (Fraction(1, 3), Fraction(7, 2))]:
        assert height_fixed_point(pd, lam, Y).value == base
        assert height_harmo_bott(pd, lam, Y).value == base

    # homogeneity: height(a lam) = a^{dim+1} height(lam)
    for a in (2, 3):
        scaled = tuple(a * x for x in lam)
        assert height_all_methods(pd, scaled).value == \
            Fraction(a) ** (pd.dim + 1) * base

    # Weyl order and coset cardinalities
    for spec, order in [("A3", 24), ("B3", 48), ("D4", 192), ("G2", 12)]:
        g = build_root_system(spec)
        assert weyl_order(g) == order
        assert len(enumerate_weyl(g)) == order
    d4 = build_root_system("D4")
    for theta in [set(), {0}, {0, 1, 2}, {1, 2, 3}]:
        reps = coset_representatives(d4, theta)
        assert len(reps) * subgroup_order(d4, theta) == 192
    print("\nPASS criterion 11: Y-independence, homogeneity a^{dim+1}, and "
          "Weyl order/coset cardinality checks")
