"""The combinatorial right-hand side of the Jantzen sum formula, the
formal combination  sum_p (sum_mu c_{p,mu} mu) log p  over primes, held as
the dict {p: {mu: c_{p,mu}}}; the sizes that bound its work; and its
lambda0 component, which vanishes."""

from __future__ import annotations

from operator import add

from .charpoly import WeightCore, dominant_multiplicities, expand, weyl_dim
from .parabolic import ParabolicData, check_vanishes
from .rootsys import InvariantViolation, RootSystem
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


def jantzen_rhs(pd: ParabolicData, lam) -> dict:
    """- sum_{a in Psi+} sum_{k=1}^{<a^vee, rho+lam> - 1} chi_{rho+lam-ka} log k
       + sum_{a in Psi-} sum_{k=1}^{<-a^vee, rho+lam> - 1} chi_{rho+lam+ka} log k

    with Psi+ the roots of Psi pairing with rho + lam >= 0, chi the signed
    formal character (zero on singular arguments), as {p: {mu: c_{p,mu}}}:
    the sum_p (sum_mu c_{p,mu} mu) log p over primes, without zero entries.

    Coefficients first: each term is reduced by to_dominant_dotted to
    +-chi of one dominant lam0, and its sign times the exponent of p in k
    is added to an integer c[lam0][p].  Every such lam0 lies below the
    normal form of lam (see jantzen_sizes), so one WeightCore, built
    there, serves every term: its closure, its orbit walk and its root
    strings.  Characters are summed on dominant weights: one Freudenthal
    recursion (dominant_multiplicities) per lam0 with some c != 0, added c
    times into the dominant list of p; then each list is expanded once over
    the core's points.  InvariantViolation if some lam0 is not in the core.
    lam must vanish on theta (check_vanishes); ValueError if rho + lam is
    singular, even where no term survives.  For a dominant lam the sum
    is sum_p log p sum_{i>0} ch V^i_p, a sum of true characters, so
    InvariantViolation if some c_{p,mu} < 0; the coefficients are
    W-invariant, so that is checked on the dominant lists."""
    rs = pd.rs
    lam = check_vanishes(pd, lam)
    normal = _lambda0(rs, lam)
    nu = tuple(l + r for l, r in zip(lam, rs.rho))
    coeff: dict[tuple, dict[int, int]] = {}
    for alpha in pd.psi:
        top = rs._pairing(nu, alpha)
        scale = -1 if top >= 0 else 1  # alpha in Psi+ or Psi-
        step = tuple(scale * f for f in alpha.weight)
        arg = tuple(map(add, lam, step))
        for k in range(2, abs(top)):  # log 1 = 0
            # chi_{rho+lam-/+k alpha}: the dotted form takes it less rho
            arg = tuple(map(add, arg, step))
            res = to_dominant_dotted(rs, arg)
            if res is None:
                continue
            w, lam0 = res
            per_prime = coeff.setdefault(lam0, {})
            for p, e in prime_factorization(k).items():
                per_prime[p] = per_prime.get(p, 0) + scale * w.sign * e
    terms = {lam0: per_prime for lam0, per_prime in coeff.items()
             if any(per_prime.values())}
    if not terms:
        return {}
    core = WeightCore(rs, normal)
    sums: dict[int, list] = {}
    for lam0, per_prime in terms.items():
        mults = dominant_multiplicities(core, lam0)
        for p, c in per_prime.items():
            if c:
                acc = sums.setdefault(p, [0] * len(mults))
                for i, m in enumerate(mults):
                    if m:
                        acc[i] += c * m
    # a bucket with some c != 0 is not zero: the characters of distinct
    # dominant weights are independent
    if rs.is_dominant(lam):
        for p, acc in sums.items():
            c = min(acc)
            if c < 0:
                raise InvariantViolation(
                    f"the sum at dominant {lam} has coefficient {c} "
                    f"at weight {core.seeds[acc.index(c)]} under log {p}")
    return {p: expand(core, acc) for p, acc in sums.items()}


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
    of rho + lam0; its own normal form lies below lam0, and the one
    WeightCore of lam0 that serves them all has dim V(lam0) weights at
    most.  ValueError if
    lam has the wrong length, does not vanish on theta (check_vanishes) or
    rho + lam is singular."""
    rs = pd.rs
    lam = check_vanishes(pd, lam)
    nu = tuple(l + r for l, r in zip(lam, rs.rho))
    terms = sum(max(abs(rs._pairing(nu, alpha)) - 2, 0) for alpha in pd.psi)
    return terms, weyl_dim(rs, _lambda0(rs, lam))


def lambda0_component(rhs: dict, pd: ParabolicData, lam) -> dict:
    """Coefficient of the Borel-Weil-Bott normal form lam0 per prime in
    rhs = jantzen_rhs(pd, lam); must be identically zero for its truncated
    sums."""
    lam0 = _lambda0(pd.rs, lam)
    return {p: bucket[lam0] for p, bucket in rhs.items() if lam0 in bucket}
