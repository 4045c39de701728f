"""The global height of G/P for an ample weight, by three independent exact
algorithms, plus closed forms for projective spaces, quadrics and
hypersurfaces, and the denominator bound check.

Throughout, N = |Psi| is the complex dimension of G/P; the height is the
degree of the (N+1)-st power of the arithmetic first Chern class, and every
formula below uses the exponent N+1 and the factorial (N+1)!.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .charpoly import graded_part
from .jantzen import prime_factorization
from .parabolic import NotAmple, ParabolicData, check_ample
from .rootsys import InvariantViolation, RootSystem
from .weyl import DEFAULT_CAP, coset_orbit, w0_negates


class NotRegularY(ValueError):
    """The localization vector Y vanishes on some root."""


class MethodDisagreement(InvariantViolation):
    """The independent height algorithms produced different values.  The
    instance (pd, lam, y), each method's value and whether the localisation
    sums were halved by the w0 pairing are kept for a diagnostic."""

    def __init__(self, pd: ParabolicData, lam, y, values: dict,
                 w0_paired: bool):
        self.pd = pd
        self.lam = tuple(lam)
        self.y = tuple(Fraction(v) for v in y)
        self.values = dict(values)
        self.w0_paired = w0_paired
        super().__init__("height methods disagree: " + ", ".join(
            f"{method}={value}" for method, value in self.values.items()))


@dataclass(frozen=True)
class HeightResult:
    value: Fraction
    method: str  # substitution | fixed_point | harmo_bott
    dim_plus_one: int  # the exponent N+1
    coxeter: int
    denominator_factorization: dict  # prime -> exponent, for denom(2*value)


def _result(pd: ParabolicData, value: Fraction, method: str) -> HeightResult:
    return HeightResult(
        value=value,
        method=method,
        dim_plus_one=pd.dim + 1,
        coxeter=pd.rs.coxeter_number,
        denominator_factorization=prime_factorization((2 * value).denominator),
    )


# ---------------------------------------------------------------------
# the Ht characteristic class
# ---------------------------------------------------------------------


def ht_coefficient(k: int) -> Fraction:
    """Taylor coefficient of the additive class: (-1)^k / (2(k+1)(k+1)!)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return Fraction((-1) ** k, 2 * (k + 1) * math.factorial(k + 1))


# ---------------------------------------------------------------------
# method 1: polynomial substitution
# ---------------------------------------------------------------------


def height_substitution(pd: ParabolicData, lam) -> HeightResult:
    """Sum the graded dimension polynomials f_j(m,k), replace every power
    k^l (l >= 0) by (m j)^{l+1} / (2 (l+1)^2), take the coefficient of
    m^{N+1} and multiply by (N+1)!.

    Only the degree-N part of each dimension polynomial reaches m^{N+1},
    so only that part is formed, as integers over the common denominator
    R, and summed per bucket (see graded_part).  With L = lcm(1..N+1) the
    sum is one integer over 2 L^2 R, and the only Fraction is the final
    value."""
    lam = pd.rs.check_weight(lam)
    N = pd.dim
    L = math.lcm(*range(1, N + 2))
    R, parts = graded_part(pd, lam, N)
    # k^l -> j^{l+1} L^2 / (l+1)^2, over 2 L^2
    total = sum(e * j ** (l + 1) * (L // (l + 1)) ** 2
                for j, part in parts.items() for l, e in enumerate(part))
    value = Fraction(total * math.factorial(N + 1), 2 * L * L * R)
    return _result(pd, value, "substitution")


# ---------------------------------------------------------------------
# localization data shared by the two fixed-point methods
# ---------------------------------------------------------------------


def default_y(rs: RootSystem) -> tuple:
    """The coweight vector dual to rho: alpha_i(Y) = 1 for all i."""
    return tuple(Fraction(1) for _ in range(rs.rank))


@dataclass(frozen=True)
class LocalizationData:
    """The torus-fixed points of G/P for one ample lam and one regular Y,
    with Y scaled to sY so that every value is an integer.

    `cosets` holds, per minimal coset representative w of W_G/W_Theta,
    (phi, thetas) with phi = (w lam)(sY) and thetas[a] = (w alpha_a)(sY)
    for the roots alpha_a of Psi; `grades[a]` = <alpha_a^vee, lam>.  The
    height has degree 0 in Y, so the scale s does not change it.

    `w0_paired` is True iff w0 Y = -Y.  Then the coset w0 w has phi and
    every theta_a negated, its term in either localisation sum equals the
    term of w (numerator and prod theta both have degree N), and the
    kernels count each coset with phi > 0 twice, each with phi = 0 once and
    each with phi < 0 not at all."""

    grades: tuple[int, ...]
    cosets: tuple[tuple[int, tuple[int, ...]], ...]
    w0_paired: bool


def localization_data(pd: ParabolicData, lam, Y=None,
                      cap: int = DEFAULT_CAP) -> LocalizationData:
    """Walk the W-orbit of lam once (its stabilizer is W_Theta, so each
    point is one coset), carrying the images w(Psi) as indices into the
    list of all roots and phi through phi(s_i w) = phi(w) - (w lam)_i Y_i.

    Y is scaled by s, the lcm of the denominators of lam(Y) and of the
    entries of Y; then every root value and every phi is an integer, and
    w0 Y = -Y is decided on the scaled integers.  ValueError unless Y has
    one coordinate per simple root."""
    rs = pd.rs
    lam = rs.check_weight(lam)
    Y = default_y(rs) if Y is None else tuple(Fraction(y) for y in Y)
    if len(Y) != rs.rank:
        raise ValueError(f"Y has {len(Y)} coordinates, rank is {rs.rank}")
    lam_y = sum(c * y for c, y in zip(rs.weight_to_root_coords(lam), Y))
    s = math.lcm(lam_y.denominator, *(y.denominator for y in Y))
    ys = [int(s * y) for y in Y]
    positive = [beta.coords for beta in rs.positive_roots]
    roots = positive + [tuple(-c for c in coords) for coords in positive]
    value = [sum(c * y for c, y in zip(coords, ys)) for coords in roots]
    if 0 in value:
        raise NotRegularY(
            f"Y is not regular: vanishes on root {roots[value.index(0)]}")
    if not check_ample(pd, lam):
        raise NotAmple(f"{lam} is not ample for theta={sorted(pd.theta)}")
    index = {coords: k for k, coords in enumerate(positive)}
    points, links, images = coset_orbit(
        rs, lam, roots, [index[alpha.coords] for alpha in pd.psi], cap)
    cosets = []
    for (parent, i), images_w in zip(links, images):
        phi = int(s * lam_y) if parent < 0 else \
            cosets[parent][0] - points[parent][i] * ys[i]
        cosets.append((phi, tuple([value[r] for r in images_w])))
    return LocalizationData(
        grades=tuple(rs._pairing(lam, alpha) for alpha in pd.psi),
        cosets=tuple(cosets),
        w0_paired=w0_negates(rs, ys))


class _PhiRow(dict):
    """t -> sum_e coeffs[e] x^e phi^{N-e} with x = x(phi, t), for one phi
    and N = len(coeffs) - 1: each value is formed by Horner's rule in x on
    its first lookup and kept."""

    def __init__(self, coeffs, phi, x):
        super().__init__()
        N = len(coeffs) - 1
        self.scaled = [c * phi ** (N - e) for e, c in enumerate(coeffs)][::-1]
        self.phi = phi
        self.x = x

    def __missing__(self, t):
        x = self.x(self.phi, t)
        acc = 0
        for c in self.scaled:
            acc = acc * x + c
        self[t] = acc
        return acc


def _localization_sum(data: LocalizationData, coeffs, x) -> Fraction:
    """sum_w (prod_a theta_a)^{-1} sum_a j_a sum_e coeffs[e] x_a^e phi^{N-e}
    over the cosets w of `data`, with N = len(coeffs) - 1 and
    x_a = x(phi, j_a theta_a).

    When data.w0_paired, the cosets with phi < 0 are skipped and those with
    phi > 0 count twice (see LocalizationData).  The inner polynomial
    depends on (phi, j_a theta_a) only, and few such pairs occur (2842
    over the 5146 cosets of E7/P4 with phi >= 0, of 53 roots each), so
    Horner's rule runs once per distinct pair, in one _PhiRow per phi.
    Each coset is one integer over the integer prod_a theta_a; the integers
    over equal products are added, and only then divided."""
    grades = data.grades
    paired = data.w0_paired
    mul = operator.mul
    rows = {}
    sums = {}  # prod_a theta_a -> the sum of the numerators over it
    for phi, thetas in data.cosets:
        if paired and phi < 0:
            continue
        row = rows.get(phi)
        if row is None:
            row = rows[phi] = _PhiRow(coeffs, phi, x)
        num = sum(map(mul, grades,
                      map(row.__getitem__, map(mul, grades, thetas))))
        if paired and phi:
            num *= 2
        prod = math.prod(thetas)
        sums[prod] = sums.get(prod, 0) + num
    return sum((Fraction(num, prod) for prod, num in sums.items()),
               Fraction(0))


# ---------------------------------------------------------------------
# method 2: isolated fixed points
# ---------------------------------------------------------------------


def height_fixed_point(pd: ParabolicData, lam, Y=None,
                       cap: int = DEFAULT_CAP,
                       data: LocalizationData | None = None) -> HeightResult:
    """Exact fixed-point sum over W_G/W_K:

        sum_w (prod_a theta_wa)^{-1} sum_{l=1}^{N+1} sum_a
            (phi^{N+1} - phi^{N+1-l} (phi - j theta_wa)^l) / (2 l theta_wa)

    with phi = (w lam)(Y), theta_wa = (w a)(Y) and j the grading index of a;
    r = phi - j theta_wa is the reflected angle S_{wa}(w lam)(Y).

    With Y scaled to integer values (see localization_data),
    (phi^l - r^l) / theta_wa = j h_{l-1}(phi, r), h the complete
    homogeneous polynomial, so with L = lcm(1..N+1) the inner sum is
    sum_a j sum_e C_e r^e phi^{N-e} / (2L), C_e = sum_{l>e} L/l: one
    integer per coset over prod_a theta_wa, and one division by 2L at the
    end.  The term of w is homogeneous of degree 0 in (phi, theta), so when
    w0 Y = -Y the cosets w and w0 w give equal terms and only half of them
    are summed; the inner polynomial is evaluated once per distinct
    (phi, j theta_wa) (see _localization_sum).  `data` is reused when given
    (Y and cap are then ignored)."""
    N = pd.dim
    if data is None:
        data = localization_data(pd, lam, Y, cap)
    L = math.lcm(*range(1, N + 2))
    suffix = list(itertools.accumulate(L // l for l in range(N + 1, 0, -1)))
    total = _localization_sum(data, suffix[::-1], lambda phi, t: phi - t)
    return _result(pd, total / (2 * L), "fixed_point")


# ---------------------------------------------------------------------
# method 3: Bott residue applied to the characteristic-class expression
# ---------------------------------------------------------------------


def height_harmo_bott(pd: ParabolicData, lam, Y=None,
                      cap: int = DEFAULT_CAP,
                      data: LocalizationData | None = None) -> HeightResult:
    """Bott residues of the additive-class integrand:

        sum_w sum_{l=0}^{N} (-1)^l/(2(l+1)) C(N+1, l+1)
            sum_a j_a^{l+1} theta_wa^l phi^{N-l} / prod_b theta_wb

    With Y scaled to integer values (see localization_data) and
    L = lcm(1..N+1), the coefficients K_l = (-1)^l (L/(l+1)) C(N+1, l+1)
    are integers, the inner sum is sum_a j_a sum_l K_l (j_a theta_wa)^l
    phi^{N-l} / (2L): one integer per coset over prod_b theta_wb, and one
    division by 2L at the end, with the same w0 pairing and the same one
    evaluation per distinct (phi, j_a theta_wa) as height_fixed_point.
    `data` is reused when given (Y and cap are then ignored)."""
    N = pd.dim
    if data is None:
        data = localization_data(pd, lam, Y, cap)
    L = math.lcm(*range(1, N + 2))
    coeffs = [(-1) ** l * (L // (l + 1)) * math.comb(N + 1, l + 1)
              for l in range(N + 1)]
    total = _localization_sum(data, coeffs, lambda phi, t: t)
    return _result(pd, total / (2 * L), "harmo_bott")


def height_all_methods(pd: ParabolicData, lam, Y=None,
                       cap: int = DEFAULT_CAP) -> HeightResult:
    """Run all three algorithms and insist on exact agreement.  The orbit
    of lam is walked once, first, so that a cap is hit before any kernel
    starts, and its data is shared by fixed-point and harmo-bott."""
    data = localization_data(pd, lam, Y, cap)
    values = {
        "substitution": height_substitution(pd, lam),
        "fixed_point": height_fixed_point(pd, lam, data=data),
        "harmo_bott": height_harmo_bott(pd, lam, data=data),
    }
    if len({res.value for res in values.values()}) > 1:
        raise MethodDisagreement(
            pd, lam, default_y(pd.rs) if Y is None else Y,
            {method: res.value for method, res in values.items()},
            data.w0_paired)
    return values["substitution"]


# ---------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------


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


# ---------------------------------------------------------------------
# denominator bounds
# ---------------------------------------------------------------------


def denominator_check(result: HeightResult, bound: int) -> bool:
    """True iff every prime power in the denominator of 2 * value is at most
    `bound`.  Called with 2c-2 for the guaranteed bound and c-1 for the
    conjectural one."""
    return all(p ** e <= bound
               for p, e in result.denominator_factorization.items())
