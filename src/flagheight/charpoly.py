"""Exact Weyl dimension polynomials in two formal variables, weight
multiplicities by the Freudenthal recursion, and signed formal Weyl
characters.

The two indeterminates are the scaling variable m of the line bundle and
the shift variable k along an isotropy root.  Products of the linear
dimension factors run on integers, keeping only the homogeneous parts asked
for (dim_polynomial_parts, graded_part); BivariatePolynomial holds the
exact sparse result over Fraction.

Each homogeneous part sum_i e_i m^{d-i} k^i is held as one int, its
k-polynomial evaluated at k = 2^B (Kronecker substitution).  A linear
factor r + a m + c k becomes r + lin m with lin = a + c 2^B, so it updates
a part with two big-int products and one add instead of work per
coefficient; the factors free of k run first, while each part is still a
single digit.  B bounds only the degrees kept: with s = |a| + |c|, every
coefficient of degree >= low is at most the sum over the roots of
scale prod (r + s 2^j) / 2^(j low), for one j >= 0 picked per call; B is
that bound's bit length plus a sign bit, and the e_i are then the
balanced base-2^B digits of the final int, unpacked once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub

from .parabolic import NotAmple, ParabolicData, check_ample, psi_grading
from .rootsys import InvariantViolation, Root, RootSystem
from .weyl import orbit, to_dominant_dotted, weyl_order


# ---------------------------------------------------------------------
# sparse bivariate polynomials over Q
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class BivariatePolynomial:
    """Sparse exact polynomial in (m, k): terms maps (deg_m, deg_k) to a
    nonzero Fraction coefficient."""

    terms: dict

    @staticmethod
    def from_dict(d: dict) -> "BivariatePolynomial":
        return BivariatePolynomial({e: Fraction(c) for e, c in d.items() if c})

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return BivariatePolynomial.from_dict(out)


# ---------------------------------------------------------------------
# Weyl dimension polynomials and the graded sums f_j
# ---------------------------------------------------------------------


def _pairings(rs: RootSystem, lam) -> list:
    """(beta^vee, <beta^vee, rho>, <beta^vee, lam>) per positive root beta:
    the parts of the linear factors that do not depend on alpha."""
    return [(beta.coroot, rs._pairing(rs.rho, beta), rs._pairing(lam, beta))
            for beta in rs.positive_roots]


def _width(jobs, low: int) -> int:
    """The packed width B of _packed_sum for jobs, one (scale, factors) per
    root alpha, factors = [(r, a, c), ...], and the degrees >= low.

    For each alpha, the digits e_i of degree d of
    scale prod (r + a m + c k) have sum_i |e_i| <= q_d, the x^d coefficient
    of Q(x) = scale prod (r + s x) with s = |a| + |c|.  Every q_d is
    non-negative, so for x = 2^j >= 1 and d >= low, q_d <= Q(x) / x^low.
    Summed over alpha, with one j for all, this bounds every |e_i| that
    _packed_sum keeps.  j = 0 is the plain coefficient sum, and no larger j
    does better when low = 0.  The log of the bound is convex in j, so j
    steps up on the first root while that shrinks the bound's bit length,
    and then serves every root.  B is the bit length of the bound plus a
    sign bit."""

    def bound(scale, factors, j):
        q = scale
        for r, a, c in factors:
            q *= r + (abs(a) + abs(c) << j)
        return -(-q >> j * low)  # ceil(Q(2^j) / 2^(j low))

    j, bits = 0, bound(*jobs[0], 0).bit_length()
    while (nxt := bound(*jobs[0], j + 1).bit_length()) < bits:
        bits, j = nxt, j + 1
    return sum(bound(scale, factors, j)
               for scale, factors in jobs).bit_length() + 1


def _packed_sum(rs: RootSystem, pairings, alphas, low: int, top: int):
    """The one product routine.  Returns (B, packed): packed[d - low] is the
    homogeneous part of degree d, low <= d <= top, of R times the sum of
    the dimension polynomials of alphas (positive roots), packed as the
    integer sum_i e_i 2^{B i} (e_i the coefficient of m^{d-i} k^i).

    Evaluated at k = 2^B, the factor r + a m + c k is r + lin m with
    lin = a + c 2^B, so it sends the packed part P[d] to
    r P[d] + lin P[d-1]: two big-int products per degree.  B comes from
    _width, which bounds every |e_i| of degree >= low; so the balanced
    base-2^B digits of the result are the e_i.  Evaluation at k = 2^B is a
    ring homomorphism, so only the final digits need to fit; intermediate
    products may carry between digits."""
    fws = rs._root_weights
    jobs = []
    for alpha in alphas:
        walpha = fws[alpha.coords]
        scale, flat, steep = 1, [], []
        for coroot, r, a in pairings:
            c = -sum(map(mul, coroot, walpha))
            if c:
                steep.append((r, a, c))
            elif a:
                flat.append((r, a, c))
            else:
                scale *= r  # the factor is the constant r
        # the factors free of k (c = 0) first: until the first factor in k
        # every part is its k^0 digit alone, so their updates multiply small
        # ints where a later place would multiply whole packed parts
        jobs.append((scale, flat + steep))
    width = _width(jobs, low)
    total = [0] * (top - low + 1)
    for scale, factors in jobs:
        parts = [0] * (top + 1)
        parts[0] = scale
        # after factor t of n, only the degrees d >= floor = low - n + t
        # can still reach `low`; descending d, so that parts[d - 1] is
        # still the previous product
        floor = low - len(factors)
        for t, (r, a, c) in enumerate(factors, 1):
            lin = a + (c << width)
            floor += 1
            for d in range(t if t < top else top,
                           (floor if floor > 1 else 1) - 1, -1):
                parts[d] = r * parts[d] + lin * parts[d - 1]
            if floor <= 0:
                parts[0] *= r
        for d in range(low, top + 1):
            total[d - low] += parts[d]
    return width, total


def _unpack(x: int, count: int, width: int) -> list:
    """The `count` balanced base-2^width digits of x, lowest first."""
    full = 1 << width
    half, mask = full >> 1, full - 1
    digits = []
    for _ in range(count):
        e = x & mask
        if e >= half:
            e -= full
        digits.append(e)
        x = (x - e) >> width
    return digits


def dim_polynomial_parts(pd: ParabolicData, lam, alpha: Root,
                         low: int = 0, top: int | None = None):
    """The dimension polynomial of the positive root alpha (see
    dim_polynomial) as R^{-1} times an integer polynomial,
    R = prod_beta <beta^vee, rho>.

    Scaling the factor of beta by r = <beta^vee, rho> makes it the integer
    linear form r + a m + c k with a = <beta^vee, lam> and c = -<beta^vee,
    alpha>.  Returns (R, parts), parts[d - low] = [e_0, ..., e_d] the
    homogeneous part of degree d (e_i the coefficient of m^{d-i} k^i) for
    low <= d <= top (default: the full degree |Sigma+|).  Parts below `low`
    are never formed: after t of n factors only the degrees that the
    remaining n - t factors can still lift to `low` are kept."""
    rs = pd.rs
    top = rs.num_positive_roots if top is None else top
    pairings = _pairings(rs, lam)
    width, packed = _packed_sum(rs, pairings, (alpha,), low, top)
    return (math.prod(r for _, r, _ in pairings),
            [_unpack(x, d + 1, width) for d, x in enumerate(packed, low)])


def graded_part(pd: ParabolicData, lam, d: int):
    """R and, per grading index j, the degree-d part [e_0, ..., e_d] of
    R f_j (see f_j and dim_polynomial_parts).  The pairings with rho and
    lam are taken once; the packed parts of one bucket are added before a
    single unpack."""
    rs = pd.rs
    buckets = psi_grading(pd, lam).buckets
    pairings = _pairings(rs, lam)
    parts = {}
    for j, bucket in buckets.items():
        width, (x,) = _packed_sum(rs, pairings, bucket, d, d)
        parts[j] = _unpack(x, d + 1, width)
    return math.prod(r for _, r, _ in pairings), parts


def dim_polynomial(pd: ParabolicData, lam, alpha: Root) -> BivariatePolynomial:
    """The Weyl dimension polynomial of the weight rho + m*lam - k*alpha:
    the product over beta in Sigma+ of
    (1 + (m <beta^vee, lam> - k <beta^vee, alpha>) / <beta^vee, rho>)."""
    if alpha not in pd.psi:
        raise ValueError(f"{alpha.coords} is not an isotropy root")
    if not check_ample(pd, lam):
        raise NotAmple(f"{lam} is not ample for "
                       f"theta={sorted(i + 1 for i in pd.theta)}")
    denom, parts = dim_polynomial_parts(pd, lam, alpha)
    return BivariatePolynomial.from_dict(
        {(d - i, i): Fraction(e, denom)
         for d, part in enumerate(parts) for i, e in enumerate(part)})


def f_j(pd: ParabolicData, lam, j: int) -> BivariatePolynomial:
    """Sum of the dimension polynomials over the grading bucket Psi_j."""
    grading = psi_grading(pd, lam)
    total = BivariatePolynomial({})
    for alpha in grading.buckets.get(j, ()):
        total = total + dim_polynomial(pd, lam, alpha)
    return total


# ---------------------------------------------------------------------
# dimensions and multiplicities
# ---------------------------------------------------------------------


def weyl_product(rs: RootSystem, lam0) -> tuple[int, int]:
    """(num, den), the products over Sigma+ of <a^vee, rho + lam0> and of
    <a^vee, rho>: the Weyl dimension of lam0 (dominant) is num / den."""
    lam0 = rs.check_weight(lam0)
    if not rs.is_dominant(lam0):
        raise ValueError(f"{lam0} is not dominant")
    shifted = tuple(l + r for l, r in zip(lam0, rs.rho))
    num = math.prod(rs._pairing(shifted, beta) for beta in rs.positive_roots)
    den = math.prod(rs._pairing(rs.rho, beta) for beta in rs.positive_roots)
    return num, den


def weyl_dim(rs: RootSystem, lam0) -> int:
    """Dimension of the irreducible with highest weight lam0 (dominant):
    product over Sigma+ of <a^vee, rho + lam0> / <a^vee, rho>."""
    num, den = weyl_product(rs, lam0)
    dim, rem = divmod(num, den)
    if rem:
        raise InvariantViolation(
            f"Weyl dimension of {tuple(lam0)} is not an integer: {num}/{den}")
    return dim


def freudenthal(rs: RootSystem, lam0, subset=None) -> dict:
    """Full weight-multiplicity table (weight -> multiplicity) of the
    irreducible representation with highest weight lam0, by the Freudenthal
    recursion over dominant weights and one Weyl-orbit walk.

    With `subset` given, the representation is the one of the Levi subsystem
    generated by those simple roots (lam0 must be dominant there); this is
    used for the localized Lefschetz character sums.

    The dominant weights below lam0 are the closure of lam0 under
    subtracting positive roots and keeping dominant results: when lam covers
    mu among dominant weights, lam - mu is a positive root (Stembridge, The
    partial order of dominant weights, Adv. Math. 1998).  The closure carries
    the root coordinates of lam0 - mu, so the recursion runs on integers.

    One weyl.orbit walk over the orbits of all the dominant weights under
    the subset's reflections builds each weight of the module once, from
    its parent, and records the index of the dominant weight of its orbit.
    That index is both the recursion's lookup, for every weight on a root
    string, and, once the multiplicities are known, the table's value.
    """
    lam0 = rs.check_weight(lam0)
    subset = tuple(range(rs.rank)) if subset is None else tuple(sorted(subset))
    if not rs.is_dominant(lam0, subset):
        raise ValueError(f"{lam0} is not dominant on {subset}")
    d = rs._symmetrizer
    fws = rs._root_weights
    # per positive root b of the subset: b in fw coordinates, the
    # coefficients of (b, nu) = sum_i b_i d_i nu_i, and (b, b)
    pos = []
    for b in rs.positive_roots:
        if all(i in subset for i, c in enumerate(b.coords) if c):
            fw = fws[b.coords]
            bd = tuple(map(mul, b.coords, d))
            pos.append((b.coords, fw, bd, sum(map(mul, bd, fw))))

    # below[mu]: the root coordinates of lam0 - mu, for every weight mu
    # dominant on the subset with lam0 - mu in the subset's positive cone
    below = {lam0: (0,) * rs.rank}
    frontier = [lam0]
    while frontier:
        nxt = []
        for mu in frontier:
            for coords, fw, _, _ in pos:
                nu = tuple(map(sub, mu, fw))
                if nu not in below and all(nu[i] >= 0 for i in subset):
                    below[nu] = tuple(map(add, below[mu], coords))
                    nxt.append(nu)
        frontier = nxt

    # the dominant weights by depth sum(below[mu]), lam0 first; table maps
    # each point of their orbits to the index of its orbit's seed
    seeds = sorted(below, key=lambda mu: sum(below[mu]))
    points, links = orbit(rs, seeds, subset, weyl_order(rs) * len(seeds))
    seed_of = list(range(len(seeds)))
    for parent, _ in links[len(seeds):]:
        seed_of.append(seed_of[parent])
    table = dict(zip(points, seed_of))

    # each mu needs only weights of smaller depth, so of smaller seed index;
    # alpha-strings through weights are unbroken, so a string stops at its
    # first nu that is not a weight of the module
    mults = [1]
    for mu in seeds[1:]:
        acc = 0
        for _, fw, bd, step in pos:
            pair = sum(map(mul, bd, mu))
            nu = mu
            while True:
                nu = tuple(map(add, nu, fw))
                s = table.get(nu)
                if s is None:
                    break
                pair += step
                acc += mults[s] * pair
        # (lam0 + rho)^2 - (mu + rho)^2 with the full rho works for the Levi
        # too, since lam0 - mu lies in the span of the subset roots
        denom = sum(c * di * (l + m + 2 * r) for c, di, l, m, r
                    in zip(below[mu], d, lam0, mu, rs.rho))
        if denom <= 0 or 2 * acc % denom:
            raise InvariantViolation(
                f"Freudenthal multiplicity of {mu} in the module of "
                f"{lam0} is not an integer over a positive denominator: "
                f"{2 * acc}/{denom}")
        mults.append(2 * acc // denom)

    for nu, s in table.items():
        table[nu] = mults[s]
    return table


# ---------------------------------------------------------------------
# formal characters with the dotted normalization
# ---------------------------------------------------------------------


def formal_character(rs: RootSystem, nu) -> dict:
    """The signed formal character chi_nu (nu plays the role of rho+lambda):
    empty if nu is singular, else (-1)^{l(w)} times the character table of
    the irreducible with highest weight lam0, where w^{-1} nu = rho + lam0
    is strictly dominant."""
    lam = tuple(n - r for n, r in zip(nu, rs.rho))
    res = to_dominant_dotted(rs, lam)
    if res is None:
        return {}
    w, lam0 = res
    table = freudenthal(rs, lam0)
    if w.sign == 1:
        return table
    return {mu: -m for mu, m in table.items()}
