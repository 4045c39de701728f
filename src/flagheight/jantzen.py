"""The combinatorial right-hand side of the Jantzen sum formula, as a
formal combination  sum_p (sum_mu c_{p,mu} mu) log p  indexed by primes,
the sizes that bound its work, and its lambda0 component, which vanishes."""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add

from .charpoly import freudenthal, weyl_dim
from .parabolic import ParabolicData
from .rootsys import RootSystem
from .weyl import to_dominant_dotted


def prime_factorization(n: int) -> dict:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@dataclass
class LogCharacterCombo:
    """Finite map prime -> (finite map weight -> integer coefficient);
    zero entries are dropped eagerly."""

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


def _check_vanishes(pd: ParabolicData, lam) -> None:
    """The sum over P_theta is the Borel sum only for a line bundle on
    G/P_theta, i.e. a lambda that vanishes on theta: ValueError otherwise,
    naming theta in the 1-based numbering of the CLI."""
    if any(lam[i] for i in pd.theta):
        raise ValueError(f"lambda {list(lam)} does not vanish on theta "
                         f"{sorted(i + 1 for i in pd.theta)}")


def psi_signs(pd: ParabolicData, lam):
    """Split Psi into Psi+ (pairing with rho+lam >= 0) and Psi-."""
    rs = pd.rs
    nu = tuple(l + r for l, r in zip(lam, rs.rho))
    plus, minus = [], []
    for alpha in pd.psi:
        (plus if rs._pairing(nu, alpha) >= 0 else minus).append(alpha)
    return plus, minus


def jantzen_rhs(pd: ParabolicData, lam) -> LogCharacterCombo:
    """- sum_{a in Psi+} sum_{k=1}^{<a^vee, rho+lam> - 1} chi_{rho+lam-ka} log k
       + sum_{a in Psi-} sum_{k=1}^{<-a^vee, rho+lam> - 1} chi_{rho+lam+ka} log k

    with chi the signed formal character (zero on singular arguments).

    Coefficients first: each term is reduced by to_dominant_dotted to
    +-chi of one dominant lam0, and its sign times the exponent of p in k
    is added to an integer c[lam0][p].  Many terms share a lam0, so the
    Freudenthal table of each lam0 with some c != 0 is built once and
    added c times into the bucket of p.  ValueError if lam does not vanish
    on theta."""
    rs = pd.rs
    lam = rs.check_weight(lam)
    _check_vanishes(pd, lam)
    nu = tuple(l + r for l, r in zip(lam, rs.rho))
    fws = rs._root_weights
    coeff: dict[tuple, dict[int, int]] = {}
    plus, minus = psi_signs(pd, lam)
    for alphas, scale in ((plus, -1), (minus, +1)):
        for alpha in alphas:
            step = tuple(scale * f for f in fws[alpha.coords])
            top = -scale * rs._pairing(nu, alpha)
            arg = tuple(map(add, lam, step))
            for k in range(2, top):  # log 1 = 0
                # chi_{rho+lam-/+k alpha}: the dotted form takes it less rho
                arg = tuple(map(add, arg, step))
                res = to_dominant_dotted(rs, arg)
                if res is None:
                    continue
                w, lam0 = res
                per_prime = coeff.setdefault(lam0, {})
                for p, e in prime_factorization(k).items():
                    per_prime[p] = per_prime.get(p, 0) + scale * w.sign * e
    combo = LogCharacterCombo()
    for lam0, per_prime in coeff.items():
        if any(per_prime.values()):
            table = freudenthal(rs, lam0)
            for p, c in per_prime.items():
                combo.add_character(p, table, scale=c)  # log p, p prime
    return combo


def _lambda0(rs: RootSystem, lam) -> tuple:
    """The Borel-Weil-Bott normal form lam0 of lam: rho + lam0 is the
    dominant conjugate of rho + lam.  ValueError if rho + lam is singular."""
    res = to_dominant_dotted(rs, tuple(lam))
    if res is None:
        raise ValueError(f"rho + {lam} is singular; lambda0 undefined")
    return res[1]


def jantzen_sizes(pd: ParabolicData, lam) -> tuple[int, int]:
    """Two sizes that bound the work of jantzen_rhs(pd, lam), found in
    O(|Sigma+|) integer operations: the number of its k-loop terms,
    sum_{a in Psi} (|<a^vee, rho + lam>| - 2)^+, and dim V(lam0), lam0 the
    normal form of lam.  Each term's argument lies on a segment from
    rho + lam to a reflection of it, so in the convex hull of the W-orbit
    of rho + lam0; its own normal form lies below lam0, and every
    Freudenthal table has at most dim V(lam0) weights.  ValueError if
    lam has the wrong length, does not vanish on theta or rho + lam is
    singular."""
    rs = pd.rs
    lam = rs.check_weight(lam)
    _check_vanishes(pd, lam)
    nu = tuple(l + r for l, r in zip(lam, rs.rho))
    terms = sum(max(abs(rs._pairing(nu, alpha)) - 2, 0) for alpha in pd.psi)
    return terms, weyl_dim(rs, _lambda0(rs, lam))


def lambda0_component(combo: LogCharacterCombo, pd: ParabolicData, lam) -> dict:
    """Coefficient of the Borel-Weil-Bott normal form lam0 per prime; must
    be identically zero for the truncated sums of jantzen_rhs."""
    lam0 = _lambda0(pd.rs, lam)
    return {p: combo.terms[p][lam0]
            for p in combo.terms if lam0 in combo.terms[p]}
