"""Slow, independent twins and checks of library algorithms, for tests only."""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from flagheight.charpoly import (
    BivariatePolynomial,
    dim_polynomial,
    formal_character,
    freudenthal,
)
from flagheight.jantzen import jantzen_rhs, prime_factorization
from flagheight.parabolic import (
    ParabolicData,
    build_parabolic,
    check_vanishes,
)
from flagheight.rootsys import InvariantViolation, Root, RootSystem
from flagheight.weyl import (
    WeylElement,
    coset_representatives,
    enumerate_weyl,
    longest_element,
    orbit,
    to_dominant_dotted,
    weyl_order,
)


def positive_roots_by_closure(cartan_matrix) -> set:
    """Simple-root coordinates of the positive roots: the closure of the
    simple roots under every simple reflection, in either direction,
    keeping the roots whose coordinates are all >= 0.  The reflection is
    s_i(beta) = beta - <beta, alpha_i^vee> alpha_i, with the pairing
    sum_j A[i][j] beta_j."""
    n = len(cartan_matrix)
    roots = {tuple(int(i == j) for j in range(n)) for i in range(n)}
    todo = list(roots)
    while todo:
        beta = todo.pop()
        for i, row in enumerate(cartan_matrix):
            pairing = sum(a * b for a, b in zip(row, beta))
            image = tuple(b - pairing * (j == i) for j, b in enumerate(beta))
            if image not in roots:
                roots.add(image)
                todo.append(image)
    return {beta for beta in roots if min(beta) >= 0}


def dominant_representative(rs, mu, subset=None):
    """The dominant element of the W-orbit of mu (ordinary action), by
    reflecting in the least simple index with a negative coordinate until
    none is left; also the number of simple reflections applied, whose
    parity is sign(w)."""
    idx = tuple(range(rs.rank)) if subset is None else tuple(subset)
    mu = tuple(mu)
    count = 0
    while True:
        for i in idx:
            if mu[i] < 0:
                mu = rs.simple_reflect_weight(i, mu)
                count += 1
                break
        else:
            return mu, count


def freudenthal_by_dominant_lookup(rs, lam0, subset=None) -> dict:
    """The weight-multiplicity table of the irreducible with highest weight
    lam0 (of the Levi of `subset`), as freudenthal computed it before its
    root strings were looked up in its own orbit walk: the Freudenthal
    recursion over the dominant weights below lam0 finds the multiplicity
    of each weight on a root string at its dominant representative, then
    one weyl.orbit walk expands the dominant table.  Same keys in the same
    order as freudenthal."""
    lam0 = rs.check_weight(lam0)
    subset = tuple(range(rs.rank)) if subset is None else tuple(sorted(subset))
    d = rs._symmetrizer
    pos = []
    for b in rs.positive_roots:
        if all(i in subset for i, c in enumerate(b.coords) if c):
            fw = rs.root_to_weight(b.coords)
            bd = tuple(c * di for c, di in zip(b.coords, d))
            pos.append((b.coords, fw, bd, sum(x * f for x, f in zip(bd, fw))))

    below = {lam0: (0,) * rs.rank}
    frontier = [lam0]
    while frontier:
        nxt = []
        for mu in frontier:
            for coords, fw, _, _ in pos:
                nu = tuple(m - f for m, f in zip(mu, fw))
                if nu not in below and all(nu[i] >= 0 for i in subset):
                    below[nu] = tuple(x + c for x, c in zip(below[mu], coords))
                    nxt.append(nu)
        frontier = nxt

    dom_mult = {lam0: 1}
    for mu in sorted(below, key=lambda mu: sum(below[mu]))[1:]:
        acc = 0
        for _, fw, bd, step in pos:
            pair = sum(x * m for x, m in zip(bd, mu))
            nu = mu
            while True:
                nu = tuple(n + f for n, f in zip(nu, fw))
                pair += step
                nd, _ = dominant_representative(rs, nu, subset)
                if nd not in below:
                    break
                acc += dom_mult[nd] * pair
        denom = sum(c * di * (l + m + 2 * r) for c, di, l, m, r
                    in zip(below[mu], d, lam0, mu, rs.rho))
        if denom <= 0 or 2 * acc % denom:
            raise InvariantViolation(
                f"multiplicity of {mu} is {2 * acc}/{denom}")
        dom_mult[mu] = 2 * acc // denom

    seeds = list(dom_mult)
    points, links = orbit(rs, seeds, subset, weyl_order(rs) * len(seeds))
    mults = [dom_mult[mu] for mu in seeds]
    for parent, _ in links[len(seeds):]:
        mults.append(mults[parent])
    return dict(zip(points, mults))


def to_dominant_dotted_by_reflection(rs, lam):
    """(word, lam0), or None if rho + lam is singular, by the rule that
    to_dominant_dotted follows: stop at the first zero coordinate of
    nu = rho + lam, else reflect nu in the least simple index with a
    negative coordinate, rebuilding the tuple each step."""
    nu = tuple(m + r for m, r in zip(lam, rs.rho))
    word = []
    while True:
        if any(c == 0 for c in nu):
            return None
        for i in range(rs.rank):
            if nu[i] < 0:
                nu = rs.simple_reflect_weight(i, nu)
                word.append(i)
                break
        else:
            return tuple(word), tuple(c - r for c, r in zip(nu, rs.rho))


# ---------------------------------------------------------------------
# Weyl elements
# ---------------------------------------------------------------------


def element_from_word(rs: RootSystem, word) -> WeylElement:
    """Build an element from any word, reduced or not.  The length is the
    number of positive roots beta with <beta^vee, w rho> < 0, which equals
    len(word) iff the word is reduced."""
    word = tuple(word)
    wrho = WeylElement(word, 0).act_weight(rs, rs.rho)
    length = sum(1 for beta in rs.positive_roots if rs._pairing(wrho, beta) < 0)
    return WeylElement(word, length)


def subgroup_order(rs: RootSystem, theta) -> int:
    """|W_Theta| for the standard Levi of type theta (0-based indices),
    as the size of the W_Theta-orbit of rho."""
    return len(orbit(rs, [rs.rho], theta, weyl_order(rs))[0])


# ---------------------------------------------------------------------
# BivariatePolynomial arithmetic beyond the library's from_dict and +
# ---------------------------------------------------------------------


def poly_constant(c) -> BivariatePolynomial:
    return BivariatePolynomial.from_dict({(0, 0): Fraction(c)})


def poly_linear(const, coeff_m, coeff_k) -> BivariatePolynomial:
    """const + coeff_m m + coeff_k k."""
    return BivariatePolynomial.from_dict(
        {(0, 0): const, (1, 0): coeff_m, (0, 1): coeff_k})


def poly_mul(p: BivariatePolynomial, q) -> BivariatePolynomial:
    """p q, for q a BivariatePolynomial, an int or a Fraction."""
    if isinstance(q, (int, Fraction)):
        return BivariatePolynomial.from_dict(
            {e: c * q for e, c in p.terms.items()})
    out: dict = {}
    for (am, ak), ac in p.terms.items():
        for (bm, bk), bc in q.terms.items():
            e = (am + bm, ak + bk)
            out[e] = out.get(e, Fraction(0)) + ac * bc
    return BivariatePolynomial.from_dict(out)


def poly_deg_m(p: BivariatePolynomial) -> int:
    return max((e[0] for e in p.terms), default=-1)


def poly_deg_k(p: BivariatePolynomial) -> int:
    return max((e[1] for e in p.terms), default=-1)


def poly_total_degree(p: BivariatePolynomial) -> int:
    return max((e[0] + e[1] for e in p.terms), default=-1)


def poly_coeff(p: BivariatePolynomial, deg_m: int, deg_k: int) -> Fraction:
    return p.terms.get((deg_m, deg_k), Fraction(0))


def poly_evaluate(p: BivariatePolynomial, m, k) -> Fraction:
    return sum((c * Fraction(m) ** em * Fraction(k) ** ek
                for (em, ek), c in p.terms.items()), Fraction(0))


def poly_substitute_k(p: BivariatePolynomial,
                      image: BivariatePolynomial) -> BivariatePolynomial:
    """Ring homomorphism m -> m, k -> image."""
    out = BivariatePolynomial({})
    powers = {0: poly_constant(1)}
    for d in range(1, poly_deg_k(p) + 1):
        powers[d] = poly_mul(powers[d - 1], image)
    for (em, ek), c in p.terms.items():
        out = out + poly_mul(powers[ek],
                             BivariatePolynomial.from_dict({(em, 0): c}))
    return out


# ---------------------------------------------------------------------
# dimension polynomials and multiplicities
# ---------------------------------------------------------------------


def skew_symmetry_holds(pd: ParabolicData, lam, alpha: Root) -> bool:
    """Exact polynomial identity d(m, k + <a^vee, rho + m lam>) = -d(m, -k),
    with the affine shift <a^vee, rho> + m <a^vee, lam> substituted into k."""
    rs = pd.rs
    d = dim_polynomial(pd, lam, alpha)
    c0 = rs._pairing(rs.rho, alpha)
    c1 = rs._pairing(lam, alpha)
    shift = BivariatePolynomial.from_dict({(0, 1): 1, (0, 0): c0, (1, 0): c1})
    lhs = poly_substitute_k(d, shift)
    rhs = poly_mul(poly_substitute_k(
        d, BivariatePolynomial.from_dict({(0, 1): -1})), -1)
    return lhs.terms == rhs.terms


def _kostant_partition_count(rs: RootSystem, target) -> int:
    """Number of ways to write `target` (simple-root coordinates, integers)
    as a non-negative integer combination of the positive roots."""
    coords = tuple(target)
    if any(c < 0 for c in coords):
        return 0
    roots = [r.coords for r in rs.positive_roots]

    memo: dict = {}

    def count(idx, rest):
        if all(c == 0 for c in rest):
            return 1
        if idx == len(roots):
            return 0
        key = (idx, rest)
        if key in memo:
            return memo[key]
        r = roots[idx]
        total = 0
        cur = rest
        while all(c >= 0 for c in cur):
            total += count(idx + 1, cur)
            cur = tuple(c - ri for c, ri in zip(cur, r))
        memo[key] = total
        return total

    return count(0, coords)


def kostant_multiplicity(rs: RootSystem, lam0, mu) -> int:
    """Multiplicity of mu in the irreducible with highest weight lam0 via
    the alternating Weyl sum over the Kostant partition function (the
    exponential-cost oracle)."""
    if not rs.is_dominant(lam0):
        raise ValueError(f"{lam0} is not dominant")
    lr = tuple(l + r for l, r in zip(lam0, rs.rho))
    mr = tuple(m + r for m, r in zip(mu, rs.rho))
    total = 0
    for w in enumerate_weyl(rs):
        diff = tuple(a - b for a, b in zip(w.act_weight(rs, lr), mr))
        c = rs.weight_to_root_coords(diff)
        if any(x.denominator != 1 for x in c):
            continue
        total += w.sign * _kostant_partition_count(
            rs, tuple(int(x) for x in c))
    return total


# ---------------------------------------------------------------------
# numeric evaluation of characters, in complex floats
# ---------------------------------------------------------------------


class NotRegular(ValueError):
    """The evaluation point X lies on a root hyperplane mod Z."""


def _weight_at_point(rs: RootSystem, mu, X) -> Fraction:
    """mu(X) with X in fundamental-coweight coordinates (alpha_i(X) = X_i)."""
    c = rs.weight_to_root_coords(mu)
    return sum((ci * Fraction(x) for ci, x in zip(c, X)), Fraction(0))


def _root_at_point(beta: Root, X) -> Fraction:
    return sum((Fraction(c) * Fraction(x) for c, x in zip(beta.coords, X)),
               Fraction(0))


def check_regular_point(rs: RootSystem, X):
    for beta in rs.positive_roots:
        v = _root_at_point(beta, X)
        if v.denominator == 1:
            raise NotRegular(
                f"alpha(X) = {v} is integral for root {beta.coords}")


def char_value(rs: RootSystem, nu, X) -> complex:
    """Weyl character formula value of chi_nu at e^X: the alternating sum
    of e^{2 pi i (w nu)(X)} over W divided by prod 2i sin(pi alpha(X))."""
    check_regular_point(rs, X)
    num = 0j
    for w in enumerate_weyl(rs):
        val = _weight_at_point(rs, w.act_weight(rs, nu), X)
        num += w.sign * cmath.exp(2j * cmath.pi * float(val))
    den = 1 + 0j
    for beta in rs.positive_roots:
        den *= 2j * cmath.sin(cmath.pi * float(_root_at_point(beta, X)))
    return num / den


def character_sum_value(rs: RootSystem, table: dict, X, w=None) -> complex:
    """Sum_mu mult(mu) e^{2 pi i (w mu)(X)} for a multiplicity table."""
    out = 0j
    for mu, m in table.items():
        if w is not None:
            mu = w.act_weight(rs, mu)
        out += m * cmath.exp(2j * cmath.pi * float(_weight_at_point(rs, mu, X)))
    return out


def lefschetz_localized_character(pd: ParabolicData, lam, X) -> complex:
    """The fixed-point side of the classical Lefschetz formula: the sum over
    minimal coset representatives w of W_G/W_K of

        prod_{alpha in Psi} (1 - e^{-2 pi i (w alpha)(X)})^{-1}
        * sum_mu mult_K(mu) e^{2 pi i (w mu)(X)}

    with mult_K the Levi character of highest weight lam.  Numerically equal
    to the full character of the irreducible with highest weight lam."""
    rs = pd.rs
    check_regular_point(rs, X)
    if not rs.is_dominant(lam):
        raise ValueError(f"{lam} must be dominant")
    levi_table = freudenthal(rs, lam, subset=pd.theta)
    total = 0j
    for w in coset_representatives(rs, pd.theta):
        td = 1 + 0j
        for alpha in pd.psi:
            walpha = w.act_root(rs, alpha)
            td *= 1 / (1 - cmath.exp(-2j * cmath.pi *
                                     float(_root_at_point(walpha, X))))
        total += td * character_sum_value(rs, levi_table, X, w=w)
    return total


# ---------------------------------------------------------------------
# the Jantzen sum, term by term
# ---------------------------------------------------------------------


@dataclass
class LogCharacterCombo:
    """Finite map prime -> (finite map weight -> integer coefficient), the
    shape of jantzen_rhs's result, in .terms; zero entries and empty primes
    are dropped eagerly."""

    terms: dict = field(default_factory=dict)

    def add_character(self, k: int, table: dict, scale: int = 1):
        """Add scale * chi * log k, expanding log k over prime powers."""
        if k <= 1 or not table or scale == 0:
            return
        for p, e in prime_factorization(k).items():
            bucket = self.terms.setdefault(p, {})
            for mu, c in table.items():
                new = bucket.get(mu, 0) + scale * e * c
                if new:
                    bucket[mu] = new
                else:
                    bucket.pop(mu, None)
            if not bucket:
                del self.terms[p]


def jantzen_rhs_per_weight(pd: ParabolicData, lam) -> dict:
    """jantzen_rhs as it was computed before its characters were summed on
    dominant weights: the same coefficients c[lam0][p], then the full
    freudenthal table of each lam0 with some c != 0, added c times into
    the bucket of p, weight by weight; zero entries dropped."""
    rs = pd.rs
    lam = check_vanishes(pd, lam)
    nu = tuple(l + r for l, r in zip(lam, rs.rho))
    coeff: dict[tuple, dict[int, int]] = {}
    for alpha in pd.psi:
        top = rs._pairing(nu, alpha)
        scale = -1 if top >= 0 else 1  # alpha in Psi+ or Psi-
        step = tuple(scale * f for f in rs.root_to_weight(alpha.coords))
        for k in range(2, abs(top)):
            arg = tuple(l + k * s for l, s in zip(lam, step))
            res = to_dominant_dotted(rs, arg)
            if res is None:
                continue
            w, lam0 = res
            per_prime = coeff.setdefault(lam0, {})
            for p, e in prime_factorization(k).items():
                per_prime[p] = per_prime.get(p, 0) + scale * w.sign * e
    rhs: dict[int, dict] = {}
    for lam0, per_prime in coeff.items():
        if any(per_prime.values()):
            table = freudenthal(rs, lam0)
            for p, c in per_prime.items():
                if c:
                    bucket = rhs.setdefault(p, {})
                    for mu, m in table.items():
                        bucket[mu] = bucket.get(mu, 0) + c * m
    return {p: {mu: c for mu, c in bucket.items() if c}
            for p, bucket in rhs.items()}


def psi_signs(pd: ParabolicData, lam):
    """Split Psi into Psi+ (pairing with rho+lam >= 0) and Psi-."""
    rs = pd.rs
    nu = tuple(l + r for l, r in zip(lam, rs.rho))
    plus, minus = [], []
    for alpha in pd.psi:
        (plus if rs._pairing(nu, alpha) >= 0 else minus).append(alpha)
    return plus, minus


def verify_parabolic_independence(rs: RootSystem, lam, theta) -> bool:
    """jantzen_rhs over P_theta equals jantzen_rhs over the Borel, for lam
    vanishing on theta (so the line bundle lives on G/P_theta); jantzen_rhs
    refuses any other lam."""
    return jantzen_rhs(build_parabolic(rs, theta), lam) == \
        jantzen_rhs(build_parabolic(rs, set()), lam)


def verify_w0_transform(rs: RootSystem, lam) -> bool:
    """Check the longest-element reindexing of the sum on the full flag:
    computing the right-hand side with every root alpha replaced by
    -w0(alpha), the weight argument by w0(rho+lam) -/+ k(-w0 alpha) and an
    overall sign (-1)^{l(w0)} reproduces jantzen_rhs exactly."""
    pd = build_parabolic(rs, set())
    w0 = longest_element(rs)
    nu = tuple(l + r for l, r in zip(lam, rs.rho))
    w0nu = w0.act_weight(rs, nu)
    combo = LogCharacterCombo()
    plus, minus = psi_signs(pd, lam)
    for alpha in plus:
        ap = -(w0.act_root(rs, alpha))
        fw = rs.root_to_weight(ap.coords)
        # <ap^vee, w0 nu> = -<a^vee, nu>, so the bound is unchanged
        top = -rs._pairing(w0nu, ap)
        for k in range(1, top):
            arg = tuple(n + k * f for n, f in zip(w0nu, fw))
            combo.add_character(k, formal_character(rs, arg), scale=-w0.sign)
    for alpha in minus:
        ap = -(w0.act_root(rs, alpha))
        fw = rs.root_to_weight(ap.coords)
        top = rs._pairing(w0nu, ap)
        for k in range(1, top):
            arg = tuple(n - k * f for n, f in zip(w0nu, fw))
            combo.add_character(k, formal_character(rs, arg), scale=+w0.sign)
    return combo.terms == jantzen_rhs(pd, lam)


# ---------------------------------------------------------------------
# heights
# ---------------------------------------------------------------------


def ht_coefficient(k: int) -> Fraction:
    """Taylor coefficient of the additive class: (-1)^k / (2(k+1)(k+1)!)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return Fraction((-1) ** k, 2 * (k + 1) * math.factorial(k + 1))


def _harmonic(n: int) -> Fraction:
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


def height_projective(n: int) -> Fraction:
    """h(P^n, O(1)) = (n+1)/2 H_n - n/2."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return Fraction(n + 1, 2) * _harmonic(n) - Fraction(n, 2)


def height_quadric_even(m: int) -> Fraction:
    """h(Q_{2m}) = (2m+1) H_{2m-1} + H_{m-1}/2 - 2m + 1 + 1/m."""
    if m < 1:
        raise ValueError("m >= 1 required")
    return ((2 * m + 1) * _harmonic(2 * m - 1) + _harmonic(m - 1) / 2
            - 2 * m + 1 + Fraction(1, m))


def height_quadric_odd(m: int) -> Fraction:
    """h(Q_{2m-1}) = (2m+1) H_{2m-1} - H_{m-1}/2 - 2m + 1."""
    if m < 1:
        raise ValueError("m >= 1 required")
    return ((2 * m + 1) * _harmonic(2 * m - 1) - _harmonic(m - 1) / 2
            - 2 * m + 1)


def height_hypersurface(n: int, d: int) -> Fraction:
    """Height of a degree-d hypersurface in P^{n+1} of dimension n:
    sum_{l=2}^{n+1} (d(n+2) - 1 + (1-d)^l) / (2l)."""
    if n < 1 or d < 1:
        raise ValueError("n, d >= 1 required")
    return sum((Fraction(d * (n + 2) - 1 + (1 - d) ** l, 2 * l)
                for l in range(2, n + 2)), Fraction(0))


def height_grassmannian(m: int, k: int) -> Fraction:
    """The height of the Grassmannian G(m,k) with its Pluecker line bundle,
    as a Fraction localisation sum at Y = sum_nu nu eps_nu^*: the sum over
    k-subsets I of {1..m} of the fixed-point terms."""
    if not 1 <= k < m:
        raise ValueError("need 1 <= k < m")
    n1 = k * (m - k) + 1  # dim + 1
    total = Fraction(0)
    for I in itertools.combinations(range(1, m + 1), k):
        comp = [b for b in range(1, m + 1) if b not in I]
        sI = sum(I)
        prod = Fraction(1)
        for a in I:
            for b in comp:
                prod *= a - b
        inner = Fraction(0)
        for a in I:
            for b in comp:
                x = Fraction(a - b, sI)
                for l in range(1, n1 + 1):
                    inner += (1 - (1 - x) ** l) / (2 * l * (a - b))
        total += Fraction(sI) ** n1 / prod * inner
    return total
