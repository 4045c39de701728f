"""The global height of G/P for an ample weight, exactly, and the
denominator bound check.

Two algorithms: substitution into the graded dimension polynomials, and a
localisation sum over the torus-fixed points.  The localisation polynomial
has two derivations, fixed-point and harmo-bott, whose integer coefficient
lists are compared coefficient by coefficient; substitution, which walks no
coset, is the cross-check that depends on the input.

Throughout, N = |Psi| is the complex dimension of G/P; the height is the
degree of the (N+1)-st power of the arithmetic first Chern class, and every
formula below uses the exponent N+1 and the factorial (N+1)!.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .charpoly import graded_part
from .parabolic import ParabolicData, check_ample
from .rootsys import InvariantViolation, RootSystem
from .weyl import DEFAULT_CAP, _check_coset_count, orbit, w0_negates


class NotRegularY(ValueError):
    """The localization vector Y vanishes on some root."""


class MethodDisagreement(InvariantViolation):
    """Substitution and the localisation sum differ, or the fixed-point and
    harmo-bott coefficient lists do.  The instance (pd, lam, y), each
    method's value and whether the localisation sums were halved by the w0
    pairing are kept for a diagnostic."""

    def __init__(self, pd: ParabolicData, lam, y, values: dict,
                 w0_paired: bool):
        self.pd = pd
        self.lam = tuple(lam)
        self.y = tuple(Fraction(v) for v in y)
        self.values = dict(values)
        self.w0_paired = w0_paired
        super().__init__("height methods disagree: " + ", ".join(
            f"{method}={value}" for method, value in self.values.items()))


class HeightResult:
    """The exact height; the benchmark's tracer (flagbench/tracer.py)
    reads its bit length off .value."""

    __slots__ = ("value",)

    def __init__(self, value: Fraction):
        self.value = value


# ---------------------------------------------------------------------
# method 1: polynomial substitution
# ---------------------------------------------------------------------


def _dim_and_lcm(pd: ParabolicData):
    """N = dim G/P and L = lcm(1..N+1), the scale of every height kernel."""
    return pd.dim, math.lcm(*range(1, pd.dim + 2))


def height_substitution(pd: ParabolicData, lam) -> HeightResult:
    """Sum the graded dimension polynomials f_j(m,k), replace every power
    k^l (l >= 0) by (m j)^{l+1} / (2 (l+1)^2), take the coefficient of
    m^{N+1} and multiply by (N+1)!.

    Only the degree-N part of each dimension polynomial reaches m^{N+1},
    so only that part is formed, as integers over the common denominator
    R, and summed per bucket (see graded_part).  With L = lcm(1..N+1) the
    sum is one integer over 2 L^2 R, and the only Fraction is the final
    value.  lam must be ample (check_ample, through graded_part)."""
    N, L = _dim_and_lcm(pd)
    R, parts = graded_part(pd, lam, N)
    # k^l -> j^{l+1} L^2 / (l+1)^2, over 2 L^2
    total = sum(e * j ** (l + 1) * (L // (l + 1)) ** 2
                for j, part in parts.items() for l, e in enumerate(part))
    return HeightResult(
        Fraction(total * math.factorial(N + 1), 2 * L * L * R))


# ---------------------------------------------------------------------
# the localisation pass, one polynomial for methods 2 and 3
# ---------------------------------------------------------------------


def default_y(rs: RootSystem) -> tuple:
    """The coweight vector dual to rho: alpha_i(Y) = 1 for all i."""
    return tuple(Fraction(1) for _ in range(rs.rank))


def check_y(rs: RootSystem, Y) -> tuple:
    """Y as a tuple of Fractions, default_y(rs) if Y is None; that one is
    regular, since alpha(Y) is the height of alpha.  ValueError unless Y
    has one coordinate per simple root; NotRegularY if it vanishes on a
    root, decided on Y scaled to integers."""
    if Y is None:
        return default_y(rs)
    Y = tuple(Fraction(y) for y in Y)
    if len(Y) != rs.rank:
        raise ValueError(f"Y has {len(Y)} coordinates, rank is {rs.rank}")
    s = math.lcm(*(y.denominator for y in Y))
    ys = [y.numerator * (s // y.denominator) for y in Y]
    for beta in rs.positive_roots:
        if sum(map(operator.mul, beta.coords, ys)) == 0:
            raise NotRegularY(
                f"Y is not regular: vanishes on root {beta.coords}")
    return Y


class _PhiRow(dict):
    """t -> sum_l coeffs[l] t^l phi^{N-l} for one phi, N = len(coeffs) - 1:
    each value is formed by Horner's rule in t on first lookup and kept."""

    __slots__ = ("scaled",)

    def __init__(self, coeffs, phi):
        super().__init__()
        N = len(coeffs) - 1
        self.scaled = [c * phi ** (N - l) for l, c in enumerate(coeffs)][::-1]

    def __missing__(self, t):
        acc = 0
        for c in self.scaled:
            acc = acc * t + c
        self[t] = acc
        return acc


def _localization_pass(pd: ParabolicData, lam, Y, cap: int, coeffs):
    """One walk over the torus-fixed points of G/P, the cosets w W_Theta,
    summing the localisation polynomial with integer coefficients coeffs:

        sum_w (prod_a theta_a)^{-1} sum_a j_a sum_l coeffs[l] t_a^l phi^{N-l}

    with N = len(coeffs) - 1, phi = (w lam)(sY), theta_a = (w alpha_a)(sY)
    for the roots alpha_a of Psi, j_a = <alpha_a^vee, lam> and
    t_a = j_a theta_a.  Returns (the sum, w0_paired).

    Y is scaled by s, the lcm of the denominators of lam(Y) and of the
    entries of Y; then every root value and every phi is an integer.  The
    terms have degree 0 in Y, so s does not change the sum.  The W-orbit
    of lam is walked first (its stabilizer is W_Theta, so each point is one
    coset), so a cap is hit before any term is formed.  Each coset then
    takes its phi, through phi(s_i w) = phi(w) - (w lam)_i Y_i, and the
    indices of w(Psi) in the list of all roots from its parent's, through
    a table of each s_i on that list: s_i(beta) = beta - <beta,
    alpha_i^vee> alpha_i, the pairing read off as coordinate i of beta's
    weight.

    w0_paired is True iff w0 Y = -Y, decided on the scaled integers.  Then
    the coset w0 w has phi and every theta_a negated and the same term
    (numerator and prod theta both have degree N), so the cosets with
    phi < 0 are skipped and those with phi > 0 count twice.  The inner
    polynomial depends on (phi, t_a) only, and few such pairs occur (2842
    over the 5146 cosets of E7/P4 with phi >= 0, of 53 roots each), so
    Horner's rule runs once per distinct pair, in one _PhiRow per phi.
    Each coset is one integer over the integer prod_a theta_a, added to
    the integers over equal products before any division.  Checked first:
    lam's length, then Y (check_y), then lam's ampleness (check_ample)."""
    rs = pd.rs
    lam = rs.check_weight(lam)
    Y = check_y(rs, Y)
    check_ample(pd, lam)
    lam_y = sum(c * y for c, y in zip(rs.weight_to_root_coords(lam), Y))
    s = math.lcm(lam_y.denominator, *(y.denominator for y in Y))
    ys = [int(s * y) for y in Y]
    positive = [(beta.coords, beta.weight) for beta in rs.positive_roots]
    roots = positive + [(tuple(-x for x in c), tuple(-x for x in w))
                        for c, w in positive]
    index = {c: k for k, (c, _) in enumerate(roots)}
    value = [sum(c * y for c, y in zip(coords, ys)) for coords, _ in roots]
    points, links = orbit(rs, [lam], cap)
    _check_coset_count(rs, pd.theta, len(points))
    paired = w0_negates(rs, ys)
    table = [[index[c[:i] + (c[i] - w[i],) + c[i + 1:]] for c, w in roots]
             for i in range(rs.rank)]
    grades = [rs._pairing(lam, alpha) for alpha in pd.psi]
    mul = operator.mul
    rows, sums = {}, {}  # phi -> its _PhiRow; prod_a theta_a -> numerators
    phis = []
    images = []
    for parent, i in links:
        if parent < 0:
            phi = int(s * lam_y)
            image = tuple([index[alpha.coords] for alpha in pd.psi])
        else:
            phi = phis[parent] - points[parent][i] * ys[i]
            perm = table[i]
            image = tuple([perm[r] for r in images[parent]])
        phis.append(phi)
        images.append(image)
        if paired and phi < 0:
            continue
        thetas = [value[r] for r in image]
        prod = math.prod(thetas)
        row = rows.get(phi)
        if row is None:
            row = rows[phi] = _PhiRow(coeffs, phi)
        num = sum(map(mul, grades,
                      map(row.__getitem__, map(mul, grades, thetas))))
        if paired and phi:
            num *= 2
        sums[prod] = sums.get(prod, 0) + num
    return sum((Fraction(num, prod) for prod, num in sums.items()),
               Fraction(0)), paired


# ---------------------------------------------------------------------
# method 2: isolated fixed points
# ---------------------------------------------------------------------


def _fixed_point_kernel(N: int, L: int) -> list:
    """The coefficients F_l of height_fixed_point, in t = j theta: its
    m-th term over theta is j sum_l (-1)^l C(m, l+1)/m t^l phi^{N-l}, so
    F_l = (-1)^l sum_{m=l+1}^{N+1} L C(m, l+1)/m, each summand the integer
    (L/(l+1)) C(m-1, l).

    The sums over m add Pascal rows: row m-1 is (1 + X)^(m-1), packed as
    one int at X = 2^(N+1), and the next row is row + row X.  A digit of
    the sum is at most the sum of the row sums, 2^(N+1) - 1, so the digits
    of the packed sum are the sum_m C(m-1, l)."""
    width = N + 1
    total, row = 0, 1
    for _ in range(N + 1):
        total += row
        row += row << width
    mask = (1 << width) - 1
    return [(-1) ** l * (L // (l + 1)) * (total >> width * l & mask)
            for l in range(N + 1)]


def height_fixed_point(pd: ParabolicData, lam, Y=None,
                       cap: int = DEFAULT_CAP) -> HeightResult:
    """Exact fixed-point sum over W_G/W_K:

        sum_w (prod_a theta_wa)^{-1} sum_{m=1}^{N+1} sum_a
            (phi^{N+1} - phi^{N+1-m} (phi - j theta_wa)^m) / (2 m theta_wa)

    with phi = (w lam)(Y), theta_wa = (w a)(Y) and j the grading index of a;
    phi - j theta_wa is the reflected angle S_{wa}(w lam)(Y).

    Expanded in t = j theta_wa and divided by theta_wa, the inner sum is
    sum_a j sum_l F_l t^l phi^{N-l} / (2L), L = lcm(1..N+1), F_l the
    integers of _fixed_point_kernel: one integer per coset over
    prod_a theta_wa (see _localization_pass), divided by 2L at the end."""
    N, L = _dim_and_lcm(pd)
    total, _ = _localization_pass(pd, lam, Y, cap, _fixed_point_kernel(N, L))
    return HeightResult(total / (2 * L))


# ---------------------------------------------------------------------
# method 3: Bott residue applied to the characteristic-class expression
# ---------------------------------------------------------------------


def _harmo_bott_kernel(N: int, L: int) -> list:
    """The coefficients K_l = (-1)^l (L/(l+1)) C(N+1, l+1) of
    height_harmo_bott, in t = j theta."""
    return [(-1) ** l * (L // (l + 1)) * math.comb(N + 1, l + 1)
            for l in range(N + 1)]


def height_harmo_bott(pd: ParabolicData, lam, Y=None,
                      cap: int = DEFAULT_CAP) -> HeightResult:
    """Bott residues of the additive-class integrand:

        sum_w sum_{l=0}^{N} (-1)^l/(2(l+1)) C(N+1, l+1)
            sum_a j_a^{l+1} theta_wa^l phi^{N-l} / prod_b theta_wb

    With L = lcm(1..N+1) and the integers K_l of _harmo_bott_kernel, that
    is height_fixed_point's polynomial sum_a j_a sum_l K_l t^l phi^{N-l}
    / (2L) from another formula: C(m, l+1)/m = C(m-1, l)/(l+1) and the
    hockey-stick identity give K_l = F_l for every N."""
    N, L = _dim_and_lcm(pd)
    total, _ = _localization_pass(pd, lam, Y, cap, _harmo_bott_kernel(N, L))
    return HeightResult(total / (2 * L))


def height_all_methods(pd: ParabolicData, lam, Y=None,
                       cap: int = DEFAULT_CAP) -> HeightResult:
    """The height by substitution, checked against the localisation sum.
    The pass is linear in its coefficients, so equal fixed-point and
    harmo-bott lists give equal sums on every input and one pass serves
    both; lists that differ are a disagreement on every input, and a second
    pass gives harmo-bott's value for the diagnostic.  The pass runs first
    and walks the whole orbit before it forms any term, so that a cap is
    hit before any kernel starts."""
    N, L = _dim_and_lcm(pd)
    fixed_point = _fixed_point_kernel(N, L)
    harmo_bott = _harmo_bott_kernel(N, L)
    total, paired = _localization_pass(pd, lam, Y, cap, fixed_point)
    other = total if harmo_bott == fixed_point else \
        _localization_pass(pd, lam, Y, cap, harmo_bott)[0]
    res = height_substitution(pd, lam)
    values = {"substitution": res.value, "fixed_point": total / (2 * L),
              "harmo_bott": other / (2 * L)}
    if harmo_bott != fixed_point or len(set(values.values())) > 1:
        raise MethodDisagreement(
            pd, lam, default_y(pd.rs) if Y is None else Y, values, paired)
    return res


# ---------------------------------------------------------------------
# denominator bounds
# ---------------------------------------------------------------------


def denominator_check(result: HeightResult, bound: int) -> bool:
    """True iff every prime power in the denominator d of 2 * value is at
    most `bound`, that is iff d divides lcm(1..bound).  Called with 2c-2 for
    the guaranteed bound and c-1 for the conjectural one."""
    return math.lcm(*range(1, bound + 1)) % (2 * result.value).denominator == 0
