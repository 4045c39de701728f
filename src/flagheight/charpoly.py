"""Exact Weyl dimension polynomials in two formal variables, weight
multiplicities by the Freudenthal recursion, and signed formal Weyl
characters.

The two indeterminates are the scaling variable m of the line bundle and
the shift variable k along an isotropy root.  Products of the linear
dimension factors run on integers, keeping only the homogeneous parts asked
for (_packed_sum, which dim_polynomial and graded_part call);
BivariatePolynomial holds the exact sparse result over Fraction.

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
from fractions import Fraction
from operator import add, mul, sub

from .parabolic import ParabolicData, check_ample, psi_grading
from .rootsys import InvariantViolation, Root, RootSystem
from .weyl import orbit, to_dominant_dotted, weyl_order


# ---------------------------------------------------------------------
# sparse bivariate polynomials over Q
# ---------------------------------------------------------------------


class BivariatePolynomial:
    """Sparse exact polynomial in (m, k): terms maps (deg_m, deg_k) to a
    nonzero Fraction coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

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


def _packed_sum(pairings, alphas, low: int, top: int):
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
    jobs = []
    for alpha in alphas:
        walpha = alpha.weight
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


def graded_part(pd: ParabolicData, lam, d: int):
    """R and, per grading index j, the degree-d part [e_0, ..., e_d] of
    R f_j (see f_j and dim_polynomial).  The pairings with rho and
    lam are taken once; the packed parts of one bucket are added before a
    single unpack."""
    rs = pd.rs
    buckets = psi_grading(pd, lam)
    pairings = _pairings(rs, lam)
    parts = {}
    for j, bucket in buckets.items():
        width, (x,) = _packed_sum(pairings, bucket, d, d)
        parts[j] = _unpack(x, d + 1, width)
    return math.prod(r for _, r, _ in pairings), parts


def dim_polynomial(pd: ParabolicData, lam, alpha: Root) -> BivariatePolynomial:
    """The Weyl dimension polynomial of the weight rho + m*lam - k*alpha:
    the product over beta in Sigma+ of
    (1 + (m <beta^vee, lam> - k <beta^vee, alpha>) / <beta^vee, rho>),
    for an ample lam (check_ample).

    Scaling the factor of beta by r = <beta^vee, rho> makes it the integer
    linear form r + a m + c k with a = <beta^vee, lam> and c = -<beta^vee,
    alpha>; their product, of every degree up to |Sigma+|, is divided by
    R = prod_beta <beta^vee, rho>."""
    if alpha not in pd.psi:
        raise ValueError(f"{alpha.coords} is not an isotropy root")
    rs = pd.rs
    lam = check_ample(pd, lam)
    pairings = _pairings(rs, lam)
    width, packed = _packed_sum(pairings, (alpha,), 0,
                                rs.num_positive_roots)
    denom = math.prod(r for _, r, _ in pairings)
    return BivariatePolynomial.from_dict(
        {(d - i, i): Fraction(e, denom) for d, x in enumerate(packed)
         for i, e in enumerate(_unpack(x, d + 1, width))})


def f_j(pd: ParabolicData, lam, j: int) -> BivariatePolynomial:
    """Sum of the dimension polynomials over the grading bucket Psi_j."""
    total = BivariatePolynomial({})
    for alpha in psi_grading(pd, lam).get(j, ()):
        total = total + dim_polynomial(pd, lam, alpha)
    return total


# ---------------------------------------------------------------------
# dimensions and multiplicities
# ---------------------------------------------------------------------


def weyl_product(rs: RootSystem, lam0) -> tuple[int, int]:
    """(num, den), the products over Sigma+ of <a^vee, rho + lam0> and of
    <a^vee, rho>: the Weyl dimension of lam0 is num / den.  ValueError
    unless lam0 is a dominant weight."""
    lam0 = rs.check_dominant(lam0)
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


class WeightCore:
    """The weights of the irreducible module of a dominant top weight, held
    once for every dominant lam0 below the top.

    The dominant weights below top are the closure of top under
    subtracting positive roots and keeping dominant results: when lam covers
    mu among dominant weights, lam - mu is a positive root (Stembridge, The
    partial order of dominant weights, Adv. Math. 1998).  The closure
    carries the root coordinates of top - mu.  One weyl.orbit walk over the
    W-orbits of all of them builds each weight of the module once, from its
    parent, and so records its seed; a root string through a seed is then
    read off as the seeds of its points.

    Attributes: `seeds`, the dominant weights below top by depth, top
    first; `index`, each seed's index; `below`, the root coordinates of
    top - mu per seed; `strings`, per seed mu and positive root b with
    mu + b a weight, ((b, mu), (b, b), the seed indices of mu + k b for
    k = 1, 2, ... to the end of the string); `points`, the points of the
    seeds' orbits, seeds first, and `seed_of`, each one's seed index."""

    __slots__ = ("rs", "top", "seeds", "index", "below", "strings",
                 "points", "seed_of")

    def __init__(self, rs: RootSystem, top):
        top = rs.check_dominant(top)
        d = rs._symmetrizer
        # per positive root b: b in fw coordinates, the coefficients of
        # (b, nu) = sum_i b_i d_i nu_i, and (b, b)
        pos = []
        for b in rs.positive_roots:
            bd = tuple(map(mul, b.coords, d))
            pos.append((b.coords, b.weight, bd, sum(map(mul, bd, b.weight))))

        # below[mu]: the root coordinates of top - mu, for every dominant
        # weight mu with top - mu in the positive root cone
        below = {top: (0,) * rs.rank}
        frontier = [top]
        while frontier:
            nxt = []
            for mu in frontier:
                for coords, fw, _, _ in pos:
                    nu = tuple(map(sub, mu, fw))
                    if nu not in below and min(nu) >= 0:
                        below[nu] = tuple(map(add, below[mu], coords))
                        nxt.append(nu)
            frontier = nxt

        # the seeds by depth sum(below[mu]), top first; table maps each
        # point of their orbits to the index of its orbit's seed
        seeds = sorted(below, key=lambda mu: sum(below[mu]))
        points, links = orbit(rs, seeds, weyl_order(rs) * len(seeds))
        seed_of = list(range(len(seeds)))
        for parent, _ in links[len(seeds):]:
            seed_of.append(seed_of[parent])
        table = dict(zip(points, seed_of))
        strings = []
        for mu in seeds:
            row = []
            for _, fw, bd, step in pos:
                chain = []
                nu = tuple(map(add, mu, fw))
                while (s := table.get(nu)) is not None:
                    chain.append(s)
                    nu = tuple(map(add, nu, fw))
                if chain:
                    row.append((sum(map(mul, bd, mu)), step, chain))
            strings.append(row)
        self.rs, self.top, self.seeds = rs, top, seeds
        self.index = dict(zip(seeds, range(len(seeds))))
        self.below = [below[mu] for mu in seeds]
        self.strings, self.points, self.seed_of = strings, points, seed_of


def dominant_multiplicities(core: WeightCore, lam0) -> list:
    """The multiplicity in the irreducible module of lam0 of each seed of
    core (0 for a seed not below lam0), by the Freudenthal recursion.
    InvariantViolation unless lam0 is a seed of core.

    Each mu needs only weights of smaller depth, so of smaller seed index.
    The root strings of core run over the module of its top: weight sets
    are saturated and strings are unbroken, so in the module of lam0 a
    string stops at its first point whose seed is not below lam0, which
    has multiplicity 0."""
    rs, seeds, below = core.rs, core.seeds, core.below
    i0 = core.index.get(lam0)
    if i0 is None:
        raise InvariantViolation(
            f"{lam0} is not a dominant weight below {core.top}")
    base = below[i0]
    d = rs._symmetrizer
    mults = [0] * len(seeds)
    mults[i0] = 1
    for i in range(i0 + 1, len(seeds)):
        # the root coordinates of lam0 - mu: mu is below lam0 iff all >= 0
        coords = tuple(map(sub, below[i], base))
        if min(coords) < 0:
            continue
        acc = 0
        for pair, step, chain in core.strings[i]:
            for s in chain:
                m = mults[s]
                if not m:
                    break
                pair += step
                acc += m * pair
        # (lam0 + rho, lam0 + rho) - (mu + rho, mu + rho)
        mu = seeds[i]
        denom = sum(c * di * (l + m + 2 * r) for c, di, l, m, r
                    in zip(coords, d, lam0, mu, rs.rho))
        if denom <= 0 or 2 * acc % denom:
            raise InvariantViolation(
                f"Freudenthal multiplicity of {mu} in the module of "
                f"{lam0} is not an integer over a positive denominator: "
                f"{2 * acc}/{denom}")
        mults[i] = 2 * acc // denom
    return mults


def expand(core: WeightCore, values) -> dict:
    """{point: value of its seed} over the points of core, in their orbit
    order, without zero values: a W-invariant function on the weights from
    its values on the seeds."""
    return {nu: values[s] for nu, s in zip(core.points, core.seed_of)
            if values[s]}


def freudenthal(rs: RootSystem, lam0) -> dict:
    """Full weight-multiplicity table (weight -> multiplicity) of the
    irreducible representation with highest weight lam0: the Freudenthal
    recursion over the dominant weights (dominant_multiplicities), over the
    WeightCore of lam0, expanded once over its orbit points."""
    core = WeightCore(rs, lam0)
    return expand(core, dominant_multiplicities(core, core.top))


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
