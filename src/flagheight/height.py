"""The global height of G/P for an ample weight, by three independent exact
algorithms, plus closed forms for projective spaces, quadrics, hypersurfaces
and Grassmannians, and the denominator bound check.

Throughout, N = |Psi| is the complex dimension of G/P; the height is the
degree of the (N+1)-st power of the arithmetic first Chern class, and every
formula below uses the exponent N+1 and the factorial (N+1)!.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .charpoly import dim_polynomial_parts
from .jantzen import prime_factorization
from .parabolic import NotAmple, ParabolicData, check_ample, psi_grading
from .rootsys import InvariantViolation, RootSystem
from .weyl import coset_representatives, DEFAULT_CAP


class NotRegularY(ValueError):
    """The localization vector Y vanishes on some root."""


class MethodDisagreement(InvariantViolation):
    """The independent height algorithms produced different values."""


@dataclass(frozen=True)
class HeightResult:
    value: Fraction
    method: str  # substitution | fixed_point | harmo_bott | closed_form
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
    R (see dim_polynomial_parts).  With L = lcm(1..N+1) the sum is one
    integer over 2 L^2 R, and the only Fraction is the final value."""
    grading = psi_grading(pd, lam)
    N = pd.dim
    L = math.lcm(*range(1, N + 2))
    total, R = 0, 1  # Psi empty: G/P is a point and the height is 0
    for j, bucket in grading.buckets.items():
        # k^l -> j^{l+1} L^2 / (l+1)^2, over 2 L^2
        images = [j ** (l + 1) * (L // (l + 1)) ** 2 for l in range(N + 1)]
        for alpha in bucket:
            R, (part,) = dim_polynomial_parts(pd, lam, alpha, N, N)
            total += sum(e * x for e, x in zip(part, images))
    value = Fraction(total * math.factorial(N + 1), 2 * L * L * R)
    return _result(pd, value, "substitution")


# ---------------------------------------------------------------------
# localization data shared by the two fixed-point methods
# ---------------------------------------------------------------------


def default_y(rs: RootSystem) -> tuple:
    """The coweight vector dual to rho: alpha_i(Y) = 1 for all i."""
    return tuple(Fraction(1) for _ in range(rs.rank))


def _check_regular_y(rs: RootSystem, Y):
    for beta in rs.positive_roots:
        if sum(Fraction(y) * c for y, c in zip(Y, beta.coords)) == 0:
            raise NotRegularY(
                f"Y is not regular: vanishes on root {beta.coords}")


def _fixed_point_data(pd: ParabolicData, lam, Y, cap, cosets=None):
    """Per coset representative w: (phi, [(theta, j)]) with phi = (w lam)(Y)
    and theta = (w alpha)(Y), j = <alpha^vee, lam> for alpha in Psi."""
    rs = pd.rs
    Y = default_y(rs) if Y is None else tuple(Fraction(y) for y in Y)
    _check_regular_y(rs, Y)
    if not check_ample(pd, lam):
        raise NotAmple(f"{lam} is not ample for theta={sorted(pd.theta)}")
    grades = {alpha: rs._pairing(lam, alpha) for alpha in pd.psi}
    if cosets is None:
        cosets = coset_representatives(rs, pd.theta, cap)
    data = []
    for w in cosets.reps:
        phi = sum(c * y for c, y in
                  zip(rs.weight_to_root_coords(w.act_weight(tuple(lam))), Y))
        angles = []
        for alpha in pd.psi:
            walpha = w.act_root(rs, alpha)
            theta = sum(Fraction(c) * y for c, y in zip(walpha.coords, Y))
            angles.append((theta, grades[alpha]))
        data.append((phi, angles))
    return data


# ---------------------------------------------------------------------
# method 2: isolated fixed points
# ---------------------------------------------------------------------


def height_fixed_point(pd: ParabolicData, lam, Y=None,
                       cap: int = DEFAULT_CAP, cosets=None) -> HeightResult:
    """Exact rational fixed-point sum over W_G/W_K:

        sum_w (prod_a theta_wa)^{-1} sum_{l=1}^{N+1} sum_a
            (phi^{N+1} - phi^{N+1-l} (phi - j theta_wa)^l) / (2 l theta_wa)

    with phi = (w lam)(Y), theta_wa = (w a)(Y) and j the grading index of a;
    phi - j theta_wa is the reflected angle S_{wa}(w lam)(Y)."""
    N = pd.dim
    total = Fraction(0)
    for phi, angles in _fixed_point_data(pd, lam, Y, cap, cosets):
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
    return _result(pd, total, "fixed_point")


# ---------------------------------------------------------------------
# method 3: Bott residue applied to the characteristic-class expression
# ---------------------------------------------------------------------


def height_harmo_bott(pd: ParabolicData, lam, Y=None,
                      cap: int = DEFAULT_CAP, cosets=None) -> HeightResult:
    """Bott residues of the additive-class integrand:

        sum_w sum_{l=0}^{N} (-1)^l/(2(l+1)) C(N+1, l+1)
            sum_a j_a^{l+1} theta_wa^l phi^{N-l} / prod_b theta_wb
    """
    N = pd.dim
    total = Fraction(0)
    for phi, angles in _fixed_point_data(pd, lam, Y, cap, cosets):
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
    return _result(pd, total, "harmo_bott")


def height_all_methods(pd: ParabolicData, lam, Y=None,
                       cap: int = DEFAULT_CAP) -> HeightResult:
    """Run all three algorithms and insist on exact agreement.  The cosets
    are enumerated once, first, so that a cap is hit before any work."""
    cosets = coset_representatives(pd.rs, pd.theta, cap)
    h1 = height_substitution(pd, lam)
    h2 = height_fixed_point(pd, lam, Y, cap, cosets)
    h3 = height_harmo_bott(pd, lam, Y, cap, cosets)
    if not (h1.value == h2.value == h3.value):
        raise MethodDisagreement(
            f"height methods disagree: substitution={h1.value}, "
            f"fixed_point={h2.value}, harmo_bott={h3.value}")
    return h1


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


def height_grassmannian(m: int, k: int) -> Fraction:
    """Fixed-point expression for the Grassmannian G(m,k) with its Pluecker
    line bundle, localized at Y = sum_nu nu eps_nu^*: the sum over k-subsets
    I of {1..m}."""
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


_CLOSED_FORMS = {
    "projective": height_projective,
    "quadric_even": height_quadric_even,
    "quadric_odd": height_quadric_odd,
    "hypersurface": height_hypersurface,
    "grassmannian": height_grassmannian,
}


def closed_form(family: str, *params) -> Fraction:
    try:
        fn = _CLOSED_FORMS[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}; "
                         f"choose from {sorted(_CLOSED_FORMS)}") from None
    return fn(*params)


# ---------------------------------------------------------------------
# denominator bounds
# ---------------------------------------------------------------------


def denominator_check(result: HeightResult, bound: int) -> bool:
    """True iff every prime power in the denominator of 2 * value is at most
    `bound`.  Called with 2c-2 for the guaranteed bound and c-1 for the
    conjectural one."""
    return all(p ** e <= bound
               for p, e in result.denominator_factorization.items())
