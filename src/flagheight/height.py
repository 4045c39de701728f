"""The global height of G/P for an ample weight, by three independent exact
algorithms, and the denominator bound check.

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
from .weyl import (
    DEFAULT_CAP,
    _check_coset_count,
    _root_index_table,
    orbit,
    w0_negates,
)


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
    denominator_factorization: dict  # prime -> exponent, for denom(2*value)


def _result(value: Fraction) -> HeightResult:
    return HeightResult(value, prime_factorization((2 * value).denominator))


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
    return _result(Fraction(total * math.factorial(N + 1), 2 * L * L * R))


# ---------------------------------------------------------------------
# the localisation pass shared by the two fixed-point methods
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


def _localization_pass(pd: ParabolicData, lam, Y, cap: int, kernels):
    """One walk over the torus-fixed points of G/P, the cosets w W_Theta,
    that feeds every kernel (coeffs, x) of `kernels` the sum

        sum_w (prod_a theta_a)^{-1} sum_a j_a sum_e coeffs[e] x_a^e phi^{N-e}

    with N = len(coeffs) - 1, phi = (w lam)(sY), theta_a = (w alpha_a)(sY)
    for the roots alpha_a of Psi, j_a = <alpha_a^vee, lam> and
    x_a = x(phi, j_a theta_a).  Returns (the sums, w0_paired).

    Y is scaled by s, the lcm of the denominators of lam(Y) and of the
    entries of Y; then every root value and every phi is an integer.  The
    terms have degree 0 in Y, so s does not change the sums.  The W-orbit
    of lam is walked first (its stabilizer is W_Theta, so each point is one
    coset), so a cap is hit before any term is formed.  Each coset then
    takes its phi, through phi(s_i w) = phi(w) - (w lam)_i Y_i, and the
    indices of w(Psi) in the list of all roots from its parent's.

    w0_paired is True iff w0 Y = -Y, decided on the scaled integers.  Then
    the coset w0 w has phi and every theta_a negated and the same term
    (numerator and prod theta both have degree N), so the cosets with
    phi < 0 are skipped and those with phi > 0 count twice.  The inner
    polynomial depends on (phi, j_a theta_a) only, and few such pairs occur
    (2842 over the 5146 cosets of E7/P4 with phi >= 0, of 53 roots each),
    so Horner's rule runs once per distinct pair, in one _PhiRow per kernel
    and phi.  Each coset is one integer over the integer prod_a theta_a;
    the integers over equal products are added, and only then divided.
    Y is checked by check_y."""
    rs = pd.rs
    lam = rs.check_weight(lam)
    Y = check_y(rs, Y)
    lam_y = sum(c * y for c, y in zip(rs.weight_to_root_coords(lam), Y))
    s = math.lcm(lam_y.denominator, *(y.denominator for y in Y))
    ys = [int(s * y) for y in Y]
    positive = [beta.coords for beta in rs.positive_roots]
    roots = positive + [tuple(-c for c in coords) for coords in positive]
    value = [sum(c * y for c, y in zip(coords, ys)) for coords in roots]
    if not check_ample(pd, lam):
        raise NotAmple(f"{lam} is not ample for "
                       f"theta={sorted(i + 1 for i in pd.theta)}")
    points, links = orbit(rs, [lam], range(rs.rank), cap)
    _check_coset_count(rs, pd.theta, len(points))
    paired = w0_negates(rs, ys)
    table = _root_index_table(rs, roots)
    index = {coords: k for k, coords in enumerate(positive)}
    grades = [rs._pairing(lam, alpha) for alpha in pd.psi]
    mul = operator.mul
    rows = [{} for _ in kernels]
    sums = [{} for _ in kernels]  # prod_a theta_a -> the numerators over it
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
        jthetas = list(map(mul, grades, thetas))
        for (coeffs, x), phi_rows, kernel_sums in zip(kernels, rows, sums):
            row = phi_rows.get(phi)
            if row is None:
                row = phi_rows[phi] = _PhiRow(coeffs, phi, x)
            num = sum(map(mul, grades, map(row.__getitem__, jthetas)))
            if paired and phi:
                num *= 2
            kernel_sums[prod] = kernel_sums.get(prod, 0) + num
    return [sum((Fraction(num, prod) for prod, num in kernel_sums.items()),
                Fraction(0)) for kernel_sums in sums], paired


def _localization_heights(pd: ParabolicData, lam, Y, cap: int, kernels):
    """(the heights, w0_paired) from one _localization_pass: each kernel,
    built from N = dim G/P and L = lcm(1..N+1), gives its sum over 2L."""
    N = pd.dim
    L = math.lcm(*range(1, N + 2))
    sums, paired = _localization_pass(pd, lam, Y, cap,
                                      [kernel(N, L) for kernel in kernels])
    return [total / (2 * L) for total in sums], paired


# ---------------------------------------------------------------------
# method 2: isolated fixed points
# ---------------------------------------------------------------------


def _fixed_point_kernel(N: int, L: int):
    """The coefficients C_e of height_fixed_point, in x = phi - j theta."""
    suffix = list(itertools.accumulate(L // l for l in range(N + 1, 0, -1)))
    return suffix[::-1], lambda phi, t: phi - t


def height_fixed_point(pd: ParabolicData, lam, Y=None,
                       cap: int = DEFAULT_CAP) -> HeightResult:
    """Exact fixed-point sum over W_G/W_K:

        sum_w (prod_a theta_wa)^{-1} sum_{l=1}^{N+1} sum_a
            (phi^{N+1} - phi^{N+1-l} (phi - j theta_wa)^l) / (2 l theta_wa)

    with phi = (w lam)(Y), theta_wa = (w a)(Y) and j the grading index of a;
    r = phi - j theta_wa is the reflected angle S_{wa}(w lam)(Y).

    With Y scaled to integer values (see _localization_pass),
    (phi^l - r^l) / theta_wa = j h_{l-1}(phi, r), h the complete
    homogeneous polynomial, so with L = lcm(1..N+1) the inner sum is
    sum_a j sum_e C_e r^e phi^{N-e} / (2L), C_e = sum_{l>e} L/l: one
    integer per coset over prod_a theta_wa, and one division by 2L at the
    end.  The term of w is homogeneous of degree 0 in (phi, theta), so when
    w0 Y = -Y the cosets w and w0 w give equal terms and only half of them
    are summed; the inner polynomial is evaluated once per distinct
    (phi, j theta_wa) (see _localization_pass)."""
    (value,), _ = _localization_heights(pd, lam, Y, cap, [_fixed_point_kernel])
    return _result(value)


# ---------------------------------------------------------------------
# method 3: Bott residue applied to the characteristic-class expression
# ---------------------------------------------------------------------


def _harmo_bott_kernel(N: int, L: int):
    """The coefficients K_l of height_harmo_bott, in x = j theta."""
    return [(-1) ** l * (L // (l + 1)) * math.comb(N + 1, l + 1)
            for l in range(N + 1)], lambda phi, t: t


def height_harmo_bott(pd: ParabolicData, lam, Y=None,
                      cap: int = DEFAULT_CAP) -> HeightResult:
    """Bott residues of the additive-class integrand:

        sum_w sum_{l=0}^{N} (-1)^l/(2(l+1)) C(N+1, l+1)
            sum_a j_a^{l+1} theta_wa^l phi^{N-l} / prod_b theta_wb

    With Y scaled to integer values (see _localization_pass) and
    L = lcm(1..N+1), the coefficients K_l = (-1)^l (L/(l+1)) C(N+1, l+1)
    are integers, the inner sum is sum_a j_a sum_l K_l (j_a theta_wa)^l
    phi^{N-l} / (2L): one integer per coset over prod_b theta_wb, and one
    division by 2L at the end, with the same w0 pairing and the same one
    evaluation per distinct (phi, j_a theta_wa) as height_fixed_point."""
    (value,), _ = _localization_heights(pd, lam, Y, cap, [_harmo_bott_kernel])
    return _result(value)


def height_all_methods(pd: ParabolicData, lam, Y=None,
                       cap: int = DEFAULT_CAP) -> HeightResult:
    """Run all three algorithms and insist on exact agreement.  One
    localisation pass feeds both the fixed-point and the harmo-bott kernel.
    It runs first, and walks the whole orbit before it forms any term, so
    that a cap is hit before any kernel starts."""
    (fixed_point, harmo_bott), paired = _localization_heights(
        pd, lam, Y, cap, [_fixed_point_kernel, _harmo_bott_kernel])
    res = height_substitution(pd, lam)
    values = {"substitution": res.value, "fixed_point": fixed_point,
              "harmo_bott": harmo_bott}
    if len(set(values.values())) > 1:
        raise MethodDisagreement(
            pd, lam, default_y(pd.rs) if Y is None else Y, values, paired)
    return res


# ---------------------------------------------------------------------
# denominator bounds
# ---------------------------------------------------------------------


def denominator_check(result: HeightResult, bound: int) -> bool:
    """True iff every prime power in the denominator of 2 * value is at most
    `bound`.  Called with 2c-2 for the guaranteed bound and c-1 for the
    conjectural one."""
    return all(p ** e <= bound
               for p, e in result.denominator_factorization.items())
